"""The ``tiered`` engine's exact tier.

What the depth-1 inductive step cannot prove goes to the explicit engine
when the module's window table (reachable states × input sequences of
the window) fits :data:`~repro.formal.induction.EXACT_TIER_ROWS`.  These
tests hold the tier to four properties:

* **Exact** — every tier verdict is the explicit engine's, and every tier
  counterexample replays to a violation (b09 and b12 at windows 2-3, and
  generated FSMs).
* **Guarded** — a module over budget never enters the tier, and its
  exploration stops at the state cap.
* **History-independent** — a fresh checker, a warm one and a reversed
  batch give the same results, and a closure gives the same artifact at
  one and two formal workers.
* **Off at depth 0** — ``induction_k=0`` never enters the tier.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.assertions.assertion import Assertion, Literal, Verdict
from repro.core.config import GoldMineConfig
from repro.designs import DESIGNS
from repro.experiments.common import closure_for_design
from repro.formal import induction
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import EXACT_TIER_ROWS, KInductionModelChecker
from repro.formal.result import PROOF_UNBOUNDED

# Shared test helpers (pytest puts tests/ and this directory on sys.path).
from generated_designs import random_fsm
from test_incremental_bmc import replay_violates


def window_corpus(module, window: int, count: int, seed: int) -> list[Assertion]:
    """Miner-shaped candidates at one window: 1-3 bit literals over inputs
    and registers, one output consequent after the window."""
    rng = random.Random(f"{seed}:{module.name}:{window}")
    sources = module.data_input_names + module.state_names
    registers = set(module.state_names)

    def literal(name: str, cycle: int) -> Literal:
        width = module.width_of(name)
        bit = None if width == 1 else rng.randrange(width)
        return Literal(name, rng.randint(0, 1), cycle, bit)

    corpus = []
    for _ in range(count):
        names = rng.sample(sources, k=min(rng.randint(1, 3), len(sources)))
        output = rng.choice(module.output_names)
        cycle = window if output in registers else window - 1
        corpus.append(Assertion(
            tuple(literal(name, rng.randrange(window)) for name in names),
            literal(output, cycle), window))
    return corpus


def tier_decided(result) -> bool:
    return (result.details.get("proof") == "explicit"
            or "refuted_by" in result.details)


def record(result) -> tuple:
    """Everything a check reports except its time."""
    counterexample = result.counterexample
    witness = None
    if counterexample is not None:
        witness = (counterexample.window_start, counterexample.input_vectors,
                   counterexample.initial_state)
    return (result.verdict, result.proof_strength, result.engine,
            sorted(result.details.items()), witness)


def assert_tier_exact(module, assertions, bound: int = 10) -> tuple[int, int]:
    """Check ``assertions`` on the tiered engine; every tier verdict must
    be the explicit engine's.  Returns how many the tier decided, and how
    many of those it refuted."""
    tiered = KInductionModelChecker(module, bound=bound)
    explicit = ExplicitModelChecker(module)
    decided = refuted = 0
    for assertion in assertions:
        result = tiered.check(assertion)
        if not tier_decided(result):
            continue
        decided += 1
        oracle = explicit.check(assertion)
        assert result.engine == "tiered"
        assert result.verdict is oracle.verdict, assertion.describe()
        if result.verdict is Verdict.TRUE:
            assert result.proof_strength == PROOF_UNBOUNDED
        else:
            refuted += 1
            assert result.counterexample == oracle.counterexample
            assert replay_violates(module, assertion, result.counterexample)
    assert tiered.reuse_stats()["exact_tier_checks"] == decided
    return decided, refuted


#: Corpus size and seed for the bundled designs: every (design, window)
#: below reaches the tier, and b09 w2 and b12 w3 get tier refutations.
COUNT, SEED = 40, 4


# ----------------------------------------------------------------------
class TestExact:

    @pytest.mark.parametrize("design", ["b09", "b12"])
    @pytest.mark.parametrize("window", [2, 3])
    def test_tier_agrees_with_explicit(self, design, window):
        module = DESIGNS[design].build()
        decided, refuted = assert_tier_exact(
            module, window_corpus(module, window, COUNT, SEED))
        assert decided > 0, f"the exact tier never ran on {design} w{window}"
        if (design, window) in (("b09", 2), ("b12", 3)):
            assert refuted > 0

    def test_tier_agrees_with_explicit_on_generated_fsms(self):
        """At bound 2, so that violations past the bounded search exist
        in FSMs of at most 8 states."""
        decided = refuted = 0
        for seed in range(40):
            module = random_fsm(seed)
            for window in (1, 2, 3):
                counts = assert_tier_exact(module,
                                           window_corpus(module, window, 12, seed),
                                           bound=2)
                decided += counts[0]
                refuted += counts[1]
        assert decided > refuted > 0, "the exact tier barely ran on the FSMs"

    @pytest.mark.parametrize("design,window", [("b09", 2), ("b12", 3)])
    def test_tier_only_decides_what_k_induction_leaves_unknown(
            self, design, window, monkeypatch):
        """With the budget at 0 the tier never runs.  Every check the tier
        decides is then UNKNOWN or proved by k-induction at depth 2 or
        more; every other result is unchanged, and no verdict moves."""
        module = DESIGNS[design].build()
        corpus = window_corpus(module, window, COUNT, SEED)
        with_tier = KInductionModelChecker(module).check_all(corpus)
        monkeypatch.setattr(induction, "EXACT_TIER_ROWS", 0)
        without = KInductionModelChecker(module).check_all(corpus)
        newly_decided = 0
        for result, baseline in zip(with_tier, without):
            if not tier_decided(result):
                assert record(result) == record(baseline)
            elif baseline.verdict is Verdict.UNKNOWN:
                assert not baseline.timed_out
                newly_decided += 1
            else:
                assert baseline.verdict is result.verdict is Verdict.TRUE
                assert baseline.details["induction_k"] >= 2
        assert newly_decided > 0


# ----------------------------------------------------------------------
def input_count(module) -> int:
    return 1 << sum(module.width_of(name) for name in module.data_input_names)


#: (design, window) pairs whose window table exceeds the row budget.
OVER_BUDGET = (("counter_block", 3), ("fetch", 3), ("wbstage", 3), ("decode", 2))


class TestGuard:

    @pytest.fixture
    def built(self, monkeypatch):
        """Every explicit engine the tier builds."""
        engines = []

        class Recording(ExplicitModelChecker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(induction, "ExplicitModelChecker", Recording)
        return engines

    @pytest.mark.parametrize("design,window", OVER_BUDGET)
    def test_over_budget_stops_exploring_at_the_cap(self, built, design, window):
        module = DESIGNS[design].build()
        cap = EXACT_TIER_ROWS // input_count(module) ** window
        checker = KInductionModelChecker(module)
        assert checker._exact_engine(window) is None
        for engine in built:
            assert engine.state_space.max_states == cap
            assert len(engine.state_space.reachable) == cap + 1
        if cap == 0:
            assert not built
        # Remembered: a second ask explores nothing more.
        assert checker._exact_engine(window) is None
        assert len(built) <= 1

    @pytest.mark.parametrize("design,window", OVER_BUDGET)
    def test_over_budget_closure_never_enters_the_tier(self, design, window):
        config = GoldMineConfig(engine="tiered")
        _, result = closure_for_design(design, config, window=window)
        assert result.formal_reuse["exact_tier_checks"] == 0

    def test_budget_table(self):
        """Reachable states and input vectors of every bundled design,
        and the windows (of 1-4) whose table fits the budget."""
        expected = {
            "cex_small": (1, 16, 4), "counter_block": (9, 32, 2),
            "handshake_block": (8, 16, 3), "arbiter2": (3, 4, 4),
            "arbiter4": (8, 16, 3), "fetch": (24, 64, 2),
            "decode": (20, 128, 1), "wbstage": (12, 128, 2),
            "b01": (12, 4, 4), "b02": (8, 2, 4), "b06": (12, 4, 4),
            "b09": (168, 2, 4), "b12": (20, 8, 4),
        }
        assert set(expected) == set(DESIGNS)
        for design, (states, inputs, widest) in expected.items():
            module = DESIGNS[design].build()
            assert input_count(module) == inputs, design
            checker = KInductionModelChecker(module)
            fits = [window for window in (1, 2, 3, 4)
                    if checker._exact_engine(window) is not None]
            assert fits == list(range(1, widest + 1)), design
            assert len(checker._exact.state_space.reachable) == states, design

    def test_mixed_windows_decide_the_same_as_fresh(self):
        """An over-budget window first does not keep a smaller window,
        which fits, out of the tier."""
        module = DESIGNS["counter_block"].build()
        warm = KInductionModelChecker(module)
        assert warm._exact_engine(3) is None
        assert warm._exact_engine(2) is not None
        assert warm._exact_engine(3) is None
        assert KInductionModelChecker(module)._exact_engine(2) is not None

    def test_depth_zero_never_enters_the_tier(self, built):
        module = DESIGNS["b09"].build()
        checker = KInductionModelChecker(module, induction_k=0)
        results = checker.check_all(window_corpus(module, 3, COUNT, SEED))
        assert not any(tier_decided(result) for result in results)
        assert checker.reuse_stats()["exact_tier_checks"] == 0
        assert not built


# ----------------------------------------------------------------------
class TestHistoryIndependence:

    @pytest.mark.parametrize("design", ["b09", "b12"])
    def test_fresh_warm_and_reversed_agree(self, design):
        module = DESIGNS[design].build()
        corpus = window_corpus(module, 3, COUNT, SEED)
        warm = KInductionModelChecker(module).check_all(corpus)
        assert any(tier_decided(result) for result in warm)
        fresh = [KInductionModelChecker(module).check(assertion)
                 for assertion in corpus]
        backwards = KInductionModelChecker(module).check_all(corpus[::-1])[::-1]
        for one, two, three in zip(warm, fresh, backwards):
            assert record(one) == record(two) == record(three)

    def test_closure_identical_across_worker_counts(self):
        artifacts = []
        for workers in (1, 2):
            config = GoldMineConfig(engine="tiered", formal_workers=workers)
            _, result = closure_for_design("b09", config, window=2)
            assert result.formal_reuse["exact_tier_checks"] > 0
            artifacts.append(json.dumps(result.deterministic_json(),
                                        sort_keys=True))
        assert artifacts[0] == artifacts[1]
