"""Solver fuzz battery: the arena solver against independent evidence.

Every formula here runs through the clause-arena CDCL solver as a
:class:`checked_solver.CheckedSolver`, which asserts the structural
invariants at every propagation fixpoint and records a proof log, and
no answer is trusted:

* SAT answers are *validated*: the model is replayed clause by clause
  and must honour every assumption;
* UNSAT answers are *certified*: the solver's proof of the formula plus
  the assumptions as unit clauses must end in a refutation that
  :func:`rup.check_rup_proof` replays literal by literal (a checker
  that shares no code with the solver);
* small instances are additionally decided by a naive DPLL oracle
  written below with no shared code — ~20 lines that are obviously
  correct — and the verdicts must agree.

The corpus mixes seeded random CNF at the 3-SAT phase transition
(clause/variable ratio ~4.26, where random instances are hardest) with
structured families the random sampler essentially never generates:
pigeonhole (provably hard for resolution, exercises learning) and
XOR/parity chains (zero-blocker-benefit worst case).

A query-stream family drives the incremental layer the BMC engines sit
on: hash-consed goals with shared sub-formulas sent to one
:class:`~repro.boolean.incremental.IncrementalSolver`, each verdict
checked against a fresh one-shot solve and each model against the goal.

The default corpus stays well inside the suite's per-test budget; set
``SAT_FUZZ_FULL=1`` for the full >= 2000-formula sweep CI runs on the
sat-core job.  That sweep also asserts that the checks were not vacuous:
it must have run fixpoint invariant checks and verified refutations.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.boolean import (
    BoolExpr,
    IncrementalSolver,
    and_,
    ite,
    not_,
    or_,
    solve_expr,
    var,
    xor_,
)
from checked_solver import CheckedSolver

FULL = os.environ.get("SAT_FUZZ_FULL", "") not in ("", "0")

#: (chunk index, formulas per chunk): 32 x 64 = 2048 formulas in full
#: mode, 8 x 16 = 128 in the default tier-1 run.
CHUNKS = 32 if FULL else 8
FORMULAS_PER_CHUNK = 64 if FULL else 16


@pytest.fixture(scope="module", autouse=True)
def full_battery_checks_fire():
    """The full sweep must have run the checks it relies on.

    :class:`CheckedSolver` hooks the solver through overridden methods; a
    refactor of ``sat.py`` that stopped calling one of them would turn
    the invariant checks or the proof log off without failing a test.
    """
    before = dict(CheckedSolver.totals)
    yield
    if FULL:
        for name in ("fixpoint_checks", "proofs_verified"):
            assert CheckedSolver.totals[name] > before[name], (
                f"full battery ran no {name}")


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
    solver = CheckedSolver(problem)
    assert not solver.solve().satisfiable, (
        f"certifying solve found the formula satisfiable, "
        f"assumptions={assumptions}")
    solver.verify_refutation(problem)


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


def run_differential(clauses, nvars, *, oracle: bool, assumptions=()):
    arena = CheckedSolver(clauses, nvars)
    result = arena.solve(assumptions)
    if not result.satisfiable and not assumptions:
        # The solver's own proof log refutes the formula.
        arena.verify_refutation(clauses)
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
                         assumptions=assumptions)


@pytest.mark.parametrize("chunk", range(CHUNKS // 2))
def test_phase_transition_differential(chunk):
    """Uniform 3-SAT at the phase transition — the hard random regime."""
    rng = random.Random(0x5A7 + chunk)
    count = FORMULAS_PER_CHUNK // 4
    for _ in range(count):
        nvars = rng.randint(10, 40 if FULL else 30)
        clauses = phase_transition_cnf(rng, nvars)
        run_differential(clauses, nvars, oracle=(nvars <= 12))


@pytest.mark.parametrize("pigeons,holes", [(3, 2), (4, 3), (5, 4), (6, 5)])
def test_pigeonhole_unsat_with_certificate(pigeons, holes):
    result = run_differential(pigeonhole(pigeons, holes),
                              pigeons * holes, oracle=False)
    assert not result.satisfiable


@pytest.mark.parametrize("pigeons,holes", [(2, 2), (3, 3), (4, 4)])
def test_pigeonhole_sat_when_enough_holes(pigeons, holes):
    result = run_differential(pigeonhole(pigeons, holes),
                              pigeons * holes, oracle=False)
    assert result.satisfiable


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("satisfiable", [True, False])
def test_parity_chain_differential(seed, satisfiable):
    rng = random.Random(seed)
    nvars = rng.randint(6, 18)
    clauses = parity_chain(rng, nvars, satisfiable)
    result = run_differential(clauses, 2 * nvars, oracle=False)
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
        arena = CheckedSolver()
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


def random_goal(rng: random.Random, pool: list) -> BoolExpr:
    """A random hash-consed formula built over ``pool``, which it grows.

    Every new node joins the pool, so later goals reuse earlier goals'
    sub-formulas: the persistent encoder's memo hits, and the solver
    carries their Tseitin definitions from query to query.
    """
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("and", "or", "xor", "ite", "not"))
        if kind == "and":
            node = and_(*rng.sample(pool, min(len(pool), rng.randint(2, 3))))
        elif kind == "or":
            node = or_(*rng.sample(pool, min(len(pool), rng.randint(2, 3))))
        elif kind == "xor":
            node = xor_(rng.choice(pool), rng.choice(pool))
        elif kind == "ite":
            node = ite(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        else:
            node = not_(rng.choice(pool))
        pool.append(node)
    # Top-level conjunctions are the common query shape (antecedent
    # literals AND a failed consequent); mix them with plain goals.
    if rng.random() < 0.6:
        return and_(*rng.sample(pool, min(len(pool), rng.randint(2, 4))))
    return pool[-1]


@pytest.mark.parametrize("chunk", range(CHUNKS // 2))
def test_incremental_query_stream_differential(chunk):
    """A stream of goal queries on one :class:`IncrementalSolver`.

    Each query encodes its goal and assumes the goal's literals (plus,
    sometimes, reusable guards from ``guard_expr``); permanent facts are
    asserted between queries.  Every verdict must match a fresh one-shot
    :func:`solve_expr` of facts, guards and goal, and every SAT model
    must satisfy all three.
    """
    rng = random.Random(0x57AEA7 + chunk)
    for _ in range(4 if FULL else 2):
        names = [f"v{index}" for index in range(rng.randint(4, 9))]
        pool = [var(name) for name in names]
        context = IncrementalSolver()
        # Swapped in before the first query: the context's encoder has
        # not flushed a clause yet, so the checked solver sees them all.
        context.solver = CheckedSolver()
        facts: list = []
        guards: dict = {}
        for _ in range(32 if FULL else 12):
            if rng.random() < 0.1:
                fact = or_(*rng.sample(pool, 2))
                context.assert_expr(fact)
                facts.append(fact)
            if rng.random() < 0.3:
                guard = random_goal(rng, pool)
                guards.setdefault(guard, context.guard_expr(guard))
            active = rng.sample(list(guards),
                                min(len(guards), rng.randint(0, 2)))
            goal = random_goal(rng, pool)
            guard_literals = tuple(guards[g] for g in active)
            result, literals = context.solve_query(
                goal, assumptions=guard_literals)
            expected, _ = solve_expr(and_(*facts, *active, goal))
            assert result.satisfiable == expected.satisfiable, (
                f"stream diverged on goal {goal!r} with guards {active!r}")
            # The returned literals re-enter the query (the canonical
            # counterexample walk's fixed prefix relies on it).
            again = context.solver.solve([*literals, *guard_literals])
            assert again.satisfiable == result.satisfiable
            if result.satisfiable:
                model = context.decode_model(result)
                for expr in (*facts, *active, goal):
                    assert expr.support() <= model.keys()
                    assert expr.evaluate(model), f"model violates {expr!r}"


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
    arena = CheckedSolver()
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
    run_differential(clauses, 12, oracle=True, assumptions=tuple(assumptions))
