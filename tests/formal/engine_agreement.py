"""Test-only helper: check one batch on two verifiers and compare verdicts.

Two engines agree on an assertion when their verdicts are equal or
either one is *unknown* (a bounded engine may fail to decide a property
the other proves).
"""

from __future__ import annotations

from repro.assertions.assertion import Verdict
from repro.formal.checker import FormalVerifier


def assert_engines_agree(module, assertions, engine: str, reference: str,
                         **engine_kwargs):
    """Check ``assertions`` under ``engine`` and ``reference``; return the
    ``engine`` results after asserting that no decided verdicts differ."""
    results = FormalVerifier(module, engine=engine, **engine_kwargs).check_all(assertions)
    expected = FormalVerifier(module, engine=reference, **engine_kwargs).check_all(assertions)
    for assertion, result, other in zip(assertions, results, expected):
        if Verdict.UNKNOWN in (result.verdict, other.verdict):
            continue
        assert result.verdict is other.verdict, (
            f"engine disagreement on '{assertion.describe()}': "
            f"{engine}={result.verdict.value}, {reference}={other.verdict.value}")
    return results
