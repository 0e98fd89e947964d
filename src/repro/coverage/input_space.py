"""The paper's output-centric coverage metric (Section 7.1).

"We can easily calculate the input space covered by an assertion as
``1 / 2**(depth of node)``.  We accumulate the coverage of all system
invariants to determine the input space coverage of our set of
assertions."  Because the assertions come from distinct decision-tree
paths their covered regions are disjoint, so the fractions add.
"""

from __future__ import annotations

from typing import Iterable

from repro.assertions.assertion import Assertion, combined_input_space_coverage


def assertion_input_space_coverage(assertions: Iterable[Assertion]) -> float:
    """Combined input-space coverage (0..1) of a set of true assertions."""
    return combined_input_space_coverage(list(assertions))
