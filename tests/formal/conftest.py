"""Fixtures shared by the formal-engine suites."""

from __future__ import annotations

import pytest

from repro.formal import bmc


@pytest.fixture
def solver_only(monkeypatch):
    """Route every non-constant SAT-engine query to the solver contexts.

    Queries whose support fits :data:`repro.formal.bmc.TRUTH_TABLE_BITS`
    are decided by truth table and never reach a solver, so suites that
    assert solver work (queries, reused clauses, encode hits) patch the
    threshold to 0.  Pool workers are forked after the patch and inherit
    it.
    """
    monkeypatch.setattr(bmc, "TRUTH_TABLE_BITS", 0)
