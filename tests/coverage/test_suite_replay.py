"""Suite replay semantics of the coverage runner.

Every sequence of a test suite replays from reset, so the coverage of a
suite is the union of what each sequence covers on its own: it does not
depend on the order of the sequences, and no toggle or FSM transition
spans two of them.  Checked on every bundled design, with and without
the runner's ``prepend_reset`` framing.
"""

from __future__ import annotations

import random

import pytest

from repro.coverage.runner import CoverageRunner
from repro.designs import DESIGNS, info

ALL_DESIGNS = sorted(DESIGNS)


def _random_suite(module, lengths, seed):
    rng = random.Random(seed)
    return [
        [{name: rng.randrange(1 << module.width_of(name))
          for name in module.data_input_names}
         for _ in range(length)]
        for length in lengths
    ]


@pytest.mark.parametrize("design_name", ALL_DESIGNS)
def test_suite_coverage_is_union_of_sequence_coverage(design_name):
    meta = info(design_name)
    module = meta.build()
    fsm_signals = meta.fsm_signals or None
    suite = _random_suite(module, lengths=(17, 0, 4, 30, 1, 9), seed=11)
    for prepend_reset in (False, True):
        def runner():
            return CoverageRunner(module, fsm_signals=fsm_signals,
                                  prepend_reset=prepend_reset)

        forward, backward = runner(), runner()
        forward.run_suite(suite)
        backward.run_suite(suite[::-1])
        alone = []
        for sequence in suite:
            single = runner()
            single.run_vectors(sequence)
            alone.append(single)
        framing = 1 if prepend_reset and module.reset is not None else 0
        assert forward.cycles_run == backward.cycles_run == \
            sum(len(sequence) + framing for sequence in suite if sequence)
        for index, collector in enumerate(forward.collectors):
            union = set().union(*(single.collectors[index].covered_points
                                  for single in alone))
            assert collector.covered_points == union, collector.metric_name
            assert backward.collectors[index].covered_points == union, \
                collector.metric_name
        assert forward.report().as_dict() == backward.report().as_dict()
