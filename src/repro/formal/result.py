"""Result types shared by all formal engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.assertions.assertion import Assertion, Verdict
from repro.hdl.errors import HdlError

#: Proof-strength values a :class:`CheckResult` may carry.
#:
#: ``unbounded`` — the verdict is a real proof over every reachable
#: behaviour: an exact engine (explicit-state, BDD reachability) said so,
#: or an inductive argument (the tiered engine's strengthened step, of
#: which plain BMC's one-step induction is depth 0) closed the property
#: for all depths.  ``bounded`` — the assertion merely survived a bounded search
#: ("no counterexample up to k"), which is evidence, not proof.  ``FALSE``
#: verdicts carry no strength: a counterexample is a counterexample.
PROOF_UNBOUNDED = "unbounded"
PROOF_BOUNDED = "bounded"


class FormalEngineError(HdlError):
    """Raised when an engine cannot decide a query (e.g. state blow-up)."""


@dataclass(frozen=True)
class Counterexample:
    """A violation witness: an input sequence from the reset state.

    ``input_vectors`` drives the design's data inputs cycle by cycle
    starting at the reset state; simulating them reproduces the violation
    of the failed assertion.  ``window_start`` is the cycle at which the
    violating assertion window begins.
    """

    input_vectors: tuple[Mapping[str, int], ...]
    window_start: int
    assertion: Assertion
    initial_state: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "input_vectors", tuple(dict(vector) for vector in self.input_vectors)
        )

    def __len__(self) -> int:
        return len(self.input_vectors)

    def new_variables(self) -> set[str]:
        """Definition 5: variables in the counterexample beyond the assertion's.

        The counterexample valuation always spans every design input, so its
        support is a superset of the assertion's antecedent support.
        """
        assertion_support = self.assertion.support_variables()
        observed: set[str] = set()
        for vector in self.input_vectors:
            observed |= set(vector)
        return observed - assertion_support


@dataclass
class CheckResult:
    """Outcome of one formal check of a candidate assertion."""

    assertion: Assertion
    verdict: Verdict
    counterexample: Counterexample | None = None
    engine: str = ""
    seconds: float = 0.0
    details: dict[str, object] = field(default_factory=dict)
    #: ``PROOF_UNBOUNDED`` for real proofs, ``PROOF_BOUNDED`` for
    #: survived-a-bounded-search verdicts, ``None`` for FALSE verdicts.
    proof_strength: str | None = None
    #: True when the engine abandoned the query because its wall-clock
    #: budget (``formal_query_timeout`` / ``--formal-timeout``) expired.
    #: Timed-out results are operational outcomes, not verdicts: the
    #: verifier never memoises them and the proof cache never stores
    #: them, so a later run with more budget can still decide the query.
    timed_out: bool = False

    @property
    def is_true(self) -> bool:
        return self.verdict is Verdict.TRUE

    @property
    def is_false(self) -> bool:
        return self.verdict is Verdict.FALSE

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = self.verdict.value.upper()
        return f"[{status}] {self.assertion.describe()} ({self.engine}, {self.seconds:.3f}s)"


def true_result(assertion: Assertion, engine: str, seconds: float = 0.0,
                proof_strength: str | None = PROOF_UNBOUNDED,
                **details: object) -> CheckResult:
    return CheckResult(assertion, Verdict.TRUE, None, engine, seconds, dict(details),
                       proof_strength=proof_strength)


def false_result(assertion: Assertion, counterexample: Counterexample, engine: str,
                 seconds: float = 0.0, **details: object) -> CheckResult:
    return CheckResult(assertion, Verdict.FALSE, counterexample, engine, seconds, dict(details))


def unknown_result(assertion: Assertion, engine: str, seconds: float = 0.0,
                   proof_strength: str | None = PROOF_BOUNDED,
                   timed_out: bool = False,
                   **details: object) -> CheckResult:
    return CheckResult(assertion, Verdict.UNKNOWN, None, engine, seconds, dict(details),
                       proof_strength=proof_strength, timed_out=timed_out)


def timeout_result(assertion: Assertion, engine: str, seconds: float = 0.0,
                   **details: object) -> CheckResult:
    """UNKNOWN because the per-query deadline expired mid-search.

    Carries no ``proof_strength``: the bounded search did not complete,
    so the result is not even "survived the search" evidence.
    """
    return CheckResult(assertion, Verdict.UNKNOWN, None, engine, seconds, dict(details),
                       proof_strength=None, timed_out=True)
