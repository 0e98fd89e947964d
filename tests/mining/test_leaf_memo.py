"""The per-leaf candidate memo against an uncached rebuild.

:meth:`ColumnarDecisionTree.assertion_for_leaf` keeps each pure leaf's
:class:`Assertion` on the leaf and routing new rows to the leaf drops it.
``support`` takes no part in assertion equality, so these checks compare
every field by hand after each ``absorb_new_rows``: a stale memo would
show up as an old ``support`` on a leaf that gained rows without
splitting.  ``is_final`` is held to the uncached rule it had before the
memo (rebuild each leaf's assertion, look it up in ``set(proven)``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.assertions.assertion import Assertion
from repro.designs import info as design_info
from repro.mining import ColumnarDataset, ColumnarIncrementalDecisionTree
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus

from generated_designs import fsms

FIELDS = ("antecedent", "consequent", "window", "support", "confidence")


def rebuilt(tree, leaf) -> Assertion:
    """The leaf's candidate built from scratch, bypassing the memo."""
    return Assertion(
        antecedent=tuple(feature.to_literal(value) for feature, value in leaf.path),
        consequent=tree.dataset.target.to_literal(leaf.prediction),
        window=tree.dataset.window,
        confidence=1.0,
        support=leaf.count,
    )


def uncached_candidates(tree) -> list[Assertion]:
    if not tree.dataset.n_rows:
        return [tree.default_assertion()]
    return [rebuilt(tree, leaf) for leaf in tree.leaves() if leaf.is_pure]


def uncached_is_final(tree, proven) -> bool:
    proven_set = set(proven)
    for leaf in tree.leaves():
        if not leaf.count:
            continue
        if 0 < leaf.ones < leaf.count:
            return False
        if rebuilt(tree, leaf) not in proven_set:
            return False
    return True


def fields(assertion: Assertion) -> tuple:
    return tuple(getattr(assertion, name) for name in FIELDS)


def assert_memo_exact(tree) -> None:
    candidates = tree.candidate_assertions()
    assert [fields(c) for c in candidates] == \
        [fields(c) for c in uncached_candidates(tree)]
    for proven in (candidates, candidates[1:], candidates[:-1], []):
        assert tree.is_final(proven) == uncached_is_final(tree, proven)


def test_leaf_that_grows_without_splitting_reports_its_new_support():
    module = design_info("cex_small").build()
    trace = Simulator(module).run(RandomStimulus(40, seed=7))
    tree = ColumnarIncrementalDecisionTree(ColumnarDataset(module, "z"))
    tree.dataset.add_trace(trace)
    tree.build()
    before = tree.candidate_assertions()
    assert_memo_exact(tree)
    signature = tree.structure_signature()
    # The same rows again: every pure leaf stays pure and doubles.
    assert tree.add_trace(trace) == []
    assert tree.structure_signature() == signature
    after = tree.candidate_assertions()
    assert after == before
    assert [c.support for c in after] == [2 * c.support for c in before]
    assert_memo_exact(tree)
    # An untouched tree hands out the memoised objects themselves.
    assert all(a is b for a, b in zip(tree.candidate_assertions(), after))


@settings(max_examples=30, deadline=None)
@given(module=fsms, window=st.integers(1, 3),
       lengths=st.lists(st.integers(0, 10), min_size=1, max_size=5),
       seed=st.integers(0, 10_000), data=st.data())
def test_memo_matches_uncached_rebuild_after_every_absorb(module, window, lengths,
                                                           seed, data):
    output = data.draw(st.sampled_from(module.output_names), label="output")
    simulator = Simulator(module)
    tree = ColumnarIncrementalDecisionTree(ColumnarDataset(module, output,
                                                           window=window))
    tree.dataset.add_trace(simulator.run(RandomStimulus(6, seed=seed)))
    tree.build()
    assert_memo_exact(tree)
    for index, length in enumerate(lengths):
        trace = simulator.run(RandomStimulus(length, seed=seed + index + 1))
        tree.add_trace(trace)
        assert_memo_exact(tree)
        if index % 2:
            # Replayed rows: leaves grow without splitting.
            tree.add_trace(trace)
            assert_memo_exact(tree)


def test_rebuild_starts_with_an_empty_memo():
    module = design_info("arbiter2").build()
    simulator = Simulator(module)
    tree = ColumnarIncrementalDecisionTree(ColumnarDataset(module, "gnt0", window=2))
    tree.dataset.add_trace(simulator.run(RandomStimulus(12, seed=1)))
    tree.build()
    tree.candidate_assertions()
    tree.dataset.add_trace(simulator.run(RandomStimulus(30, seed=2)))
    tree.build()
    assert all(leaf.candidate is None for leaf in tree.leaves())
    assert_memo_exact(tree)
