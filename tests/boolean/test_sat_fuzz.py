"""Solver fuzz battery: the arena solver against independent evidence.

Every formula here runs through the clause-arena CDCL solver
(:class:`repro.boolean.sat.SatSolver`) with its structural invariant
checks armed (``debug_checks=True``), and no answer is trusted:

* SAT answers are *validated*: the model is replayed clause by clause
  and must honour every assumption;
* UNSAT answers are *certified*: a certifying solve of the formula plus
  the assumptions as unit clauses must end in a refutation that
  :func:`repro.boolean.certify.check_rup_proof` replays literal by
  literal (a checker that shares no code with the solver);
* small instances are additionally decided by a naive DPLL oracle
  written below with no shared code — ~20 lines that are obviously
  correct — and the verdicts must agree.

The corpus mixes seeded random CNF at the 3-SAT phase transition
(clause/variable ratio ~4.26, where random instances are hardest) with
structured families the random sampler essentially never generates:
pigeonhole (provably hard for resolution, exercises learning and DB
reduction) and XOR/parity chains (zero-blocker-benefit worst case).

The default corpus stays well inside the suite's per-test budget; set
``SAT_FUZZ_FULL=1`` for the full >= 2000-formula sweep CI runs on the
sat-core job.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.boolean import SatSolver, check_rup_proof

FULL = os.environ.get("SAT_FUZZ_FULL", "") not in ("", "0")

#: (chunk index, formulas per chunk): 32 x 64 = 2048 formulas in full
#: mode, 8 x 16 = 128 in the default tier-1 run.
CHUNKS = 32 if FULL else 8
FORMULAS_PER_CHUNK = 64 if FULL else 16


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------
def dpll(clauses: list[tuple[int, ...]], assignment: dict[int, bool]) -> bool:
    """Plain DPLL with unit propagation; no heuristics, no learning."""
    while True:
        unit = None
        for clause in clauses:
            unassigned = []
            satisfied = False
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    unassigned.append(literal)
                elif value == (literal > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return False
            if len(unassigned) == 1:
                unit = unassigned[0]
                break
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
    for clause in clauses:
        if any(assignment.get(abs(lit)) is None for lit in clause):
            variable = next(abs(lit) for lit in clause
                            if assignment.get(abs(lit)) is None)
            for value in (True, False):
                trial = dict(assignment)
                trial[variable] = value
                if dpll(clauses, trial):
                    return True
            return False
    return True


# ---------------------------------------------------------------------------
# formula families
# ---------------------------------------------------------------------------
def random_cnf(rng: random.Random, nvars: int, nclauses: int,
               widths=(1, 2, 2, 3, 3, 3)) -> list[tuple[int, ...]]:
    clauses = []
    for _ in range(nclauses):
        size = rng.choice(widths)
        clauses.append(tuple(
            rng.randint(1, nvars) * rng.choice((1, -1)) for _ in range(size)))
    return clauses


def phase_transition_cnf(rng: random.Random, nvars: int) -> list[tuple[int, ...]]:
    """Uniform 3-SAT at the hardest clause/variable ratio (~4.26)."""
    nclauses = int(nvars * 4.26)
    clauses = []
    for _ in range(nclauses):
        variables = rng.sample(range(1, nvars + 1), 3)
        clauses.append(tuple(v * rng.choice((1, -1)) for v in variables))
    return clauses


def pigeonhole(pigeons: int, holes: int) -> list[tuple[int, ...]]:
    """PHP(p, h): UNSAT whenever p > h; hard for resolution-based solvers."""
    def var(pigeon, hole):
        return pigeon * holes + hole + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(p1, h), -var(p2, h)))
    return clauses


def parity_chain(rng: random.Random, nvars: int, satisfiable: bool
                 ) -> list[tuple[int, ...]]:
    """x1 xor x2 xor ... xor xn = parity, as 4-clause XOR gadget chains.

    Every clause is width >= 3 and no literal is pure, so blockers only
    help via satisfied-clause caching — a worst-case family for the
    blocker optimisation that must still be *correct*.
    """
    clauses = []
    carry = 1  # chain accumulator variable
    next_var = nvars + 1
    for variable in range(2, nvars + 1):
        fresh = next_var
        next_var += 1
        a, b, c = carry, variable, fresh
        clauses += [(-c, a, b), (-c, -a, -b), (c, -a, b), (c, a, -b)]
        carry = fresh
    parity = rng.choice((True, False))
    clauses.append((carry,) if parity else (-carry,))
    # Pin every base variable; the chain then forces the final parity,
    # which matches the pinned assignment iff we built it to.
    pinned = [rng.choice((True, False)) for _ in range(nvars)]
    want = bool(sum(pinned) % 2) == parity
    if want != satisfiable:
        pinned[0] = not pinned[0]
    for variable, value in enumerate(pinned, start=1):
        clauses.append((variable,) if value else (-variable,))
    return clauses


# ---------------------------------------------------------------------------
# differential harness
# ---------------------------------------------------------------------------
def check_model(clauses, model):
    for clause in clauses:
        assert any(model.get(abs(lit), False) == (lit > 0) for lit in clause), (
            f"model does not satisfy {clause}")


def certify_unsat(clauses, assumptions=()):
    """RUP-check an UNSAT answer: the clauses plus the assumptions as
    units must have a machine-checked refutation."""
    problem = [tuple(clause) for clause in clauses] + [(lit,) for lit in assumptions]
    solver = SatSolver(problem, certify=True)
    assert not solver.solve().satisfiable, (
        f"certifying solve found the formula satisfiable, "
        f"assumptions={assumptions}")
    check_rup_proof(problem, solver.proof, expect_refutation=True)


def verify_answer(clauses, result, assumptions=()):
    """Validate a SAT model or certify an UNSAT verdict."""
    if result.satisfiable:
        model = dict(result.model)
        for literal in assumptions:
            assert model.get(abs(literal), False) == (literal > 0), (
                f"model contradicts assumption {literal}")
        check_model(clauses, model)
    else:
        certify_unsat(clauses, assumptions)


def run_differential(clauses, nvars, *, oracle: bool, certify: bool,
                     assumptions=()):
    arena = SatSolver(clauses, nvars, debug_checks=True, certify=certify)
    result = arena.solve(assumptions)
    if not result.satisfiable and certify and not assumptions:
        # The solver's own proof log refutes the formula.
        check_rup_proof(clauses, arena.proof, expect_refutation=True)
    else:
        verify_answer(clauses, result, assumptions)
    if oracle:
        expected = dpll([tuple(c) for c in clauses]
                        + [(lit,) for lit in assumptions], {})
        assert result.satisfiable == expected, "solver disagrees with oracle"
    return result


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_random_cnf_differential(chunk):
    """Seeded mixed-width random CNF; oracle-checked, certificate-checked."""
    rng = random.Random(0xC0FFEE + chunk)
    for _ in range(FORMULAS_PER_CHUNK):
        nvars = rng.randint(4, 24)
        clauses = random_cnf(rng, nvars, rng.randint(2, int(nvars * 3.5)))
        assumptions = tuple(
            v * rng.choice((1, -1))
            for v in rng.sample(range(1, nvars + 1), rng.randint(0, 3)))
        run_differential(clauses, nvars, oracle=(nvars <= 14),
                         certify=True, assumptions=assumptions)


@pytest.mark.parametrize("chunk", range(CHUNKS // 2))
def test_phase_transition_differential(chunk):
    """Uniform 3-SAT at the phase transition — the hard random regime."""
    rng = random.Random(0x5A7 + chunk)
    count = FORMULAS_PER_CHUNK // 4
    for _ in range(count):
        nvars = rng.randint(10, 40 if FULL else 30)
        clauses = phase_transition_cnf(rng, nvars)
        run_differential(clauses, nvars, oracle=(nvars <= 12), certify=True)


@pytest.mark.parametrize("pigeons,holes", [(3, 2), (4, 3), (5, 4), (6, 5)])
def test_pigeonhole_unsat_with_certificate(pigeons, holes):
    result = run_differential(pigeonhole(pigeons, holes),
                              pigeons * holes, oracle=False, certify=True)
    assert not result.satisfiable


@pytest.mark.parametrize("pigeons,holes", [(2, 2), (3, 3), (4, 4)])
def test_pigeonhole_sat_when_enough_holes(pigeons, holes):
    result = run_differential(pigeonhole(pigeons, holes),
                              pigeons * holes, oracle=False, certify=False)
    assert result.satisfiable


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("satisfiable", [True, False])
def test_parity_chain_differential(seed, satisfiable):
    rng = random.Random(seed)
    nvars = rng.randint(6, 18)
    clauses = parity_chain(rng, nvars, satisfiable)
    result = run_differential(clauses, 2 * nvars, oracle=False, certify=True)
    assert result.satisfiable == satisfiable


@pytest.mark.parametrize("chunk", range(CHUNKS // 2))
def test_incremental_trickle_differential(chunk):
    """Interleaved add_clause / solve(assumptions) on one solver pair.

    This is the BMC usage shape: the database only grows, assumptions
    change per query, and the arena solver's root-level state persists
    across solves.  Every SAT model must satisfy every clause added so
    far, every UNSAT verdict must be certified, and small instances must
    match the DPLL oracle at every step.
    """
    rng = random.Random(0x7121C7E + chunk)
    for _ in range(max(2, FORMULAS_PER_CHUNK // 8)):
        nvars = rng.randint(6, 24)
        arena = SatSolver(debug_checks=True)
        so_far: list[tuple[int, ...]] = []
        for _ in range(rng.randint(3, 7)):
            for clause in random_cnf(rng, nvars, rng.randint(2, 10)):
                arena.add_clause(clause)
                so_far.append(clause)
            assumptions = tuple(
                v * rng.choice((1, -1))
                for v in rng.sample(range(1, nvars + 1), rng.randint(0, 4)))
            result = arena.solve(assumptions)
            verify_answer(so_far, result, assumptions)
            if nvars <= 14:
                assert result.satisfiable == dpll(
                    so_far + [(lit,) for lit in assumptions], {}), (
                    f"divergence after {len(so_far)} clauses, "
                    f"assumptions={assumptions}")


def test_full_mode_reaches_2000_formulas():
    """The CI sweep contract: SAT_FUZZ_FULL covers >= 2000 formulas."""
    full_random = 32 * 64
    full_transition = 16 * (64 // 4)
    assert full_random + full_transition >= 2000


# ---------------------------------------------------------------------------
# hypothesis trickle tests (skipped cleanly where hypothesis is absent)
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

literals = st.integers(min_value=1, max_value=12).flatmap(
    lambda v: st.sampled_from((v, -v)))
clauses_strategy = st.lists(
    st.lists(literals, min_size=1, max_size=4).map(tuple),
    min_size=1, max_size=12)


@settings(max_examples=120 if FULL else 40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches=st.lists(
    st.tuples(clauses_strategy, st.lists(literals, max_size=3)),
    min_size=1, max_size=4))
def test_hypothesis_incremental_trickle(batches):
    """Property: any grow-only clause/assumption interleaving agrees with
    the DPLL oracle, SAT models satisfy the whole database, and UNSAT
    verdicts are certified."""
    arena = SatSolver(debug_checks=True)
    so_far: list[tuple[int, ...]] = []
    for new_clauses, assumptions in batches:
        for clause in new_clauses:
            arena.add_clause(clause)
            so_far.append(clause)
        result = arena.solve(assumptions)
        verify_answer(so_far, result, assumptions)
        assert result.satisfiable == dpll(
            so_far + [(lit,) for lit in assumptions], {})


@settings(max_examples=60 if FULL else 25, deadline=None)
@given(clauses=clauses_strategy,
       assumptions=st.lists(literals, max_size=4))
def test_hypothesis_oracle_agreement(clauses, assumptions):
    run_differential(clauses, 12, oracle=True, certify=True,
                     assumptions=tuple(assumptions))
