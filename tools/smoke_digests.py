#!/usr/bin/env python3
"""Print one payload digest per experiment at smoke scale.

Runs ``python -m repro run <experiment> --smoke --json --fresh`` for every
registered experiment (extra arguments are passed through to each run)
and prints ``<experiment> <digest>`` lines, where the digest is the first
16 hex characters of the SHA-256 of ``json.dumps(document,
sort_keys=True)`` after every ``"seconds"`` key (wall-clock accounting)
is dropped.  Two invocations whose outputs ``diff`` clean produced
byte-identical payloads, e.g. serial vs parallel execution::

    python tools/smoke_digests.py --workers 1 > serial.txt
    python tools/smoke_digests.py --workers 2 > parallel.txt
    diff serial.txt parallel.txt

Each run writes into a throwaway artifacts directory.  Exits 1 if any
run fails.

``tools/digests/`` pins the expected output under Python 3.12 for the
default flags (``default.txt``) and for ``--formal-engine tiered
--induction-k 4`` and ``0`` (``tiered-k4.txt``, ``tiered-k0.txt``); CI
diffs serial and parallel runs against them.  A change that means to
alter a payload regenerates them, e.g.::

    python tools/smoke_digests.py > tools/digests/default.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _environment() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _strip_seconds(value):
    if isinstance(value, dict):
        return {key: _strip_seconds(item) for key, item in value.items()
                if key != "seconds"}
    if isinstance(value, list):
        return [_strip_seconds(item) for item in value]
    return value


def digest(document) -> str:
    text = json.dumps(_strip_seconds(document), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    env = _environment()
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "list", "--json"],
        capture_output=True, text=True, env=env, check=True)
    names = sorted(entry["name"]
                   for entry in json.loads(listing.stdout)["experiments"])
    status = 0
    with tempfile.TemporaryDirectory(prefix="smoke-digests-") as artifacts:
        for name in names:
            process = subprocess.run(
                [sys.executable, "-m", "repro", "run", name, "--smoke",
                 "--json", "--fresh", "--quiet", "--artifacts", artifacts,
                 *argv],
                capture_output=True, text=True, env=env)
            if process.returncode != 0:
                status = 1
                sys.stderr.write(f"{name}: exit {process.returncode}\n"
                                 f"{process.stderr}")
            try:
                line = digest(json.loads(process.stdout))
            except json.JSONDecodeError:
                line = "FAILED"
            print(f"{name} {line}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
