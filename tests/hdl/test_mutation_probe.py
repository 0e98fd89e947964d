"""Front-end mutation probe: malformed Verilog is rejected with an ``HdlError``.

Every bundled design source is tokenized, mutated at the token level
(delete, duplicate or swap tokens, or truncate the stream), re-joined and
run through ``parse_module`` + ``synthesize``.  Each mutant must either
elaborate or fail with an :class:`~repro.hdl.errors.HdlError`; any other
exception is an internal error leaking out of the front end.  A hang
fails the test through the suite's per-test timeout.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import arbiters, itc99, rigel, simple
from repro.hdl.errors import HdlError
from repro.hdl.lexer import tokenize
from repro.hdl.parser import parse_module
from repro.hdl.synth import synthesize

MUTATIONS_PER_SOURCE = 40
KINDS = ("delete", "duplicate", "swap", "truncate")

SOURCES = {
    name: text
    for module in (arbiters, itc99, rigel, simple)
    for name, text in sorted(vars(module).items())
    if name.endswith("_SOURCE") and isinstance(text, str)
}


def token_texts(source: str) -> list[str]:
    return [token.text for token in tokenize(source) if token.kind != "EOF"]


def mutate(texts: list[str], kind: str, rng: random.Random) -> list[str]:
    texts = list(texts)
    index = rng.randrange(len(texts))
    if kind == "delete":
        del texts[index]
    elif kind == "duplicate":
        texts.insert(index, texts[index])
    elif kind == "swap":
        other = rng.randrange(len(texts))
        texts[index], texts[other] = texts[other], texts[index]
    else:
        del texts[index:]
    return texts


def elaborate(source: str) -> None:
    synthesize(parse_module(source))


def test_probe_covers_every_bundled_source():
    assert len(SOURCES) == 13


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_rejoined_source_still_elaborates(name):
    elaborate(" ".join(token_texts(SOURCES[name])))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_mutants_fail_only_with_hdl_errors(name):
    texts = token_texts(SOURCES[name])
    rng = random.Random(name)
    rejected = 0
    for number in range(MUTATIONS_PER_SOURCE):
        kind = KINDS[number % len(KINDS)]
        mutant = " ".join(mutate(texts, kind, rng))
        try:
            elaborate(mutant)
        except HdlError:
            rejected += 1
        except Exception as error:  # noqa: BLE001 - the leak under test
            pytest.fail(f"{kind} mutant #{number} of {name} leaked "
                        f"{type(error).__name__}: {error}\n{mutant}")
    # Most mutants are malformed; a probe that rejects none is not probing.
    assert rejected > MUTATIONS_PER_SOURCE // 2
