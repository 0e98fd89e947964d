"""The closure benchmark's patch points still exist, and unpatch cleanly.

``perfbench/tracing.py`` wraps the entry points of every layer by name
(:data:`ENTRY_POINTS`).  Renaming or deleting one of them breaks the
benchmark; this test makes that a tier-1 failure on every supported
Python version instead of only in the traced benchmark self-test.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(tracing) -> list[object]:
    """Every namespace ``install()`` may patch: the named classes and all
    loaded ``repro`` modules (module functions are rebound in importers)."""
    owners: list[object] = []
    for module_name, class_name, *_ in tracing.ENTRY_POINTS + tracing.REUSE_STATS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owners.append(getattr(module, class_name))
    owners.extend(module for name, module in sorted(sys.modules.items())
                  if name == "repro" or name.startswith("repro."))
    return owners


def test_install_wraps_every_entry_point_and_uninstall_restores_all():
    tracing = _load_tracing()
    importlib.import_module("repro.formal.parallel")
    owners = _owners(tracing)
    before = [dict(vars(owner)) for owner in owners]

    instrumentation = tracing.Instrumentation(tracing.Recorder())
    instrumentation.install()
    try:
        for module_name, class_name, attribute, _ in tracing.ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = before[owners.index(owner)][attribute]
            assert vars(owner)[attribute] is not original, \
                f"{module_name}.{class_name or ''}.{attribute} was not wrapped"
    finally:
        instrumentation.uninstall()

    for owner, snapshot in zip(owners, before):
        current = dict(vars(owner))
        assert current.keys() == snapshot.keys(), owner
        changed = [key for key in snapshot if current[key] is not snapshot[key]]
        assert changed == [], f"{owner}: not restored: {changed}"
