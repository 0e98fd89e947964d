"""Reverse-unit-propagation (RUP) checking of CDCL clause derivations.

A CDCL solver's UNSAT answers are only as trustworthy as its conflict
analysis.  :class:`checked_solver.CheckedSolver` records every learned
clause — and, after an assumption-free UNSAT answer, the empty clause —
in derivation order in ``solver.proof``.  This module replays that log
with a small, deliberately naive checker that shares no code with the
solver:

a clause ``C`` is *RUP* with respect to a clause set ``F`` when assuming
the negation of every literal of ``C`` and running unit propagation on
``F`` to fixpoint derives a conflict.  Every first-UIP learned clause is
RUP with respect to the problem clauses plus the previously learned
clauses: each step is verified against the full accumulated prefix,
which the formula implies.  A proof
ending in the empty clause is therefore a machine-checked refutation —
the fuzz battery uses this to make UNSAT verdicts evidence-backed
instead of trusted (``test_sat_fuzz.py``).

The checker is pure python, quadratic and proud of it: it exists to be
obviously correct, not fast.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class CertificateError(AssertionError):
    """A recorded clause derivation failed its reverse-unit-propagation
    check (carries the failing step index and clause)."""

    def __init__(self, step: int, clause: tuple[int, ...], message: str):
        super().__init__(f"proof step {step} {clause!r}: {message}")
        self.step = step
        self.clause = clause


def _propagate(clauses: Sequence[Sequence[int]],
               assignment: dict[int, bool]) -> bool:
    """Naive unit propagation to fixpoint; True iff a conflict is derived.

    ``assignment`` maps variables to values and is extended in place.
    """
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = None
            satisfied = False
            several = False
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    # Count *distinct* unassigned literals — raw clauses may
                    # repeat a literal, and (l, l) is still a unit.
                    if unassigned is None:
                        unassigned = literal
                    elif literal != unassigned:
                        several = True
                        break
                elif value == (literal > 0):
                    satisfied = True
                    break
            if satisfied or several:
                continue
            if unassigned is None:
                return True  # every literal false: conflict
            assignment[abs(unassigned)] = unassigned > 0
            changed = True
    return False


def rup_implied(clauses: Sequence[Sequence[int]],
                clause: Sequence[int]) -> bool:
    """True iff ``clause`` is a reverse-unit-propagation consequence of
    ``clauses``: assuming its negation, unit propagation refutes it."""
    assignment: dict[int, bool] = {}
    for literal in clause:
        value = assignment.get(abs(literal))
        if value is not None and value != (literal <= 0):
            # The negated clause is itself contradictory (clause is a
            # tautology) — trivially implied.
            return True
        assignment[abs(literal)] = literal <= 0
    return _propagate(clauses, assignment)


def check_rup_proof(clauses: Iterable[Sequence[int]],
                    proof: Sequence[tuple[int, ...]],
                    expect_refutation: bool = False) -> int:
    """Verify a solver proof log step by step; returns the step count.

    Each proof step must be RUP with respect to the problem ``clauses``
    plus every earlier step.  With ``expect_refutation=True`` the log
    must additionally end with the empty clause — i.e. constitute a full
    UNSAT certificate.  Raises :class:`CertificateError` on the first
    step that fails.
    """
    accumulated: list[Sequence[int]] = [tuple(clause) for clause in clauses]
    for step, clause in enumerate(proof):
        if not rup_implied(accumulated, clause):
            raise CertificateError(
                step, tuple(clause),
                "not derivable by reverse unit propagation from the "
                f"{len(accumulated)} clauses before it")
        accumulated.append(tuple(clause))
    if expect_refutation:
        if not proof or tuple(proof[-1]) != ():
            raise CertificateError(
                len(proof), (),
                "proof log does not end with the empty clause")
    return len(proof)
