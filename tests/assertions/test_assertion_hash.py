"""The cached :class:`Assertion` hash: same value, never pickled.

An assertion keeps its hash after the first ``__hash__`` call.  ``str``
hashes depend on the interpreter's hash seed, and formal workers receive
pickled assertions, so a cached hash carried across a pickle would put
an assertion in the wrong bucket on the other side.  The subprocess test
pickles under one ``PYTHONHASHSEED`` and looks the assertion up under
another.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.assertions.assertion import Assertion, Literal

SRC = str(Path(__file__).resolve().parents[2] / "src")

BUILD = """
from repro.assertions.assertion import Assertion, Literal

def build(name="", confidence=1.0, support=0):
    return Assertion((Literal("req0", 1, 0), Literal("bus", 1, 1, 3)),
                     Literal("gnt0", 0, 2), 2, name, confidence, support)
"""

DUMP = BUILD + """
import pickle, sys
assertion = build("a0", 0.5, 17)
hash(assertion)
sys.stdout.buffer.write(pickle.dumps(assertion))
"""

LOAD = BUILD + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = {build(), build("other"), Assertion((), Literal("gnt0", 1, 2), 2)}
print(loaded in fresh, hash(loaded) == hash(build()), loaded.name, loaded.support)
"""


def run(script: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", script], input=stdin,
                          capture_output=True, env=env, check=True).stdout


def test_hash_is_not_carried_across_hash_seeds():
    pickled = run(DUMP, 1)
    assert run(LOAD, 2, pickled).split() == [b"True", b"True", b"a0", b"17"]


def test_hash_is_the_compared_fields_hash():
    a = Assertion((Literal("x", 1, 0),), Literal("y", 0, 1), 1, "n", 0.5, 9)
    assert hash(a) == hash((a.antecedent, a.consequent, a.window))
    assert hash(a) == hash(a)  # the cached value
    for twin in (a.with_name("m"),
                 Assertion(a.antecedent, a.consequent, a.window, "", 1.0, 0)):
        assert twin == a and hash(twin) == hash(a)
    assert Assertion(a.antecedent, a.consequent, 2) != a


def test_pickle_round_trip_leaves_no_cached_hash():
    a = Assertion((Literal("x", 1, 0),), Literal("y", 0, 1), 1, "n", 0.5, 9)
    hash(a)
    loaded = pickle.loads(pickle.dumps(a))
    assert "_hash" not in vars(loaded)
    assert loaded == a and loaded.to_json() == a.to_json()
    assert hash(loaded) == hash(a)
