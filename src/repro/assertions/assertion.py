"""Assertion and proposition data model.

The decision tree's leaves become :class:`Assertion` objects: the path from
root to leaf is the antecedent (a conjunction of :class:`Literal`
propositions over signals at cycle offsets) and the predicted output value
is the consequent.  This mirrors Definition 2 of the paper ("a Boolean
conjunction of propositions (variable, value pairs) along a path").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping


class Verdict(enum.Enum):
    """Formal status of a candidate assertion."""

    UNKNOWN = "unknown"
    TRUE = "true"
    FALSE = "false"


@dataclass(frozen=True, order=True)
class Literal:
    """A proposition: *bit* ``bit`` of ``signal`` at cycle ``cycle`` equals ``value``.

    ``cycle`` is an offset inside the mining window (0 = the earliest
    observed cycle).  ``bit`` is ``None`` for single-bit signals, in which
    case ``value`` is the full signal value.
    """

    signal: str
    value: int
    cycle: int = 0
    bit: int | None = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("cycle offset must be non-negative")
        if self.bit is not None and self.bit < 0:
            raise ValueError("bit index must be non-negative")
        if self.bit is not None and self.value not in (0, 1):
            raise ValueError("bit-level literals must have value 0 or 1")

    def holds(self, valuations: Mapping[int, Mapping[str, int]]) -> bool:
        """Evaluate against per-cycle valuations ``{cycle: {signal: value}}``."""
        cycle_values = valuations[self.cycle]
        raw = cycle_values[self.signal]
        observed = raw if self.bit is None else (raw >> self.bit) & 1
        return observed == self.value

    def negated(self) -> "Literal":
        """Return the literal with a flipped (bit) value; only for 1-bit values."""
        if self.value not in (0, 1):
            raise ValueError("can only negate 0/1 literals")
        return Literal(self.signal, 1 - self.value, self.cycle, self.bit)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form for artifact files (see :mod:`repro.runner`)."""
        data: dict = {"signal": self.signal, "value": self.value, "cycle": self.cycle}
        if self.bit is not None:
            data["bit"] = self.bit
        return data

    @staticmethod
    def from_json(data: Mapping) -> "Literal":
        return Literal(data["signal"], data["value"], data.get("cycle", 0),
                       data.get("bit"))

    def describe(self) -> str:
        name = self.signal if self.bit is None else f"{self.signal}[{self.bit}]"
        return f"{name}@{self.cycle}={self.value}"


#: :class:`Literal`'s own ordering (its fields in order) as a C-level sort
#: key, so sorting an antecedent makes no Python-level ``__lt__`` calls.
_LITERAL_ORDER = attrgetter("signal", "value", "cycle", "bit")


@dataclass(frozen=True)
class Assertion:
    """A bounded temporal implication mined from simulation data.

    ``window`` is the mining window length: the number of observed cycles
    the antecedent may reference (offsets ``0 .. window-1``).  The
    consequent lives at offset ``window`` for sequential targets (the value
    the output takes after the last observed cycle's clock edge) and at
    offset ``0`` for purely combinational targets.

    The hash is computed once and kept in the instance; it is never
    pickled, because ``str`` hashes differ between interpreters with
    different hash seeds (formal workers receive pickled assertions).
    """

    antecedent: tuple[Literal, ...]
    consequent: Literal
    window: int = 1
    # Metadata fields do not participate in equality/hashing: the same
    # logical assertion re-mined in a later iteration (or renamed) must
    # compare equal so the refinement loop never re-checks or re-counts it.
    name: str = field(default="", compare=False)
    confidence: float = field(default=1.0, compare=False)
    support: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent",
                           tuple(sorted(self.antecedent, key=_LITERAL_ORDER)))
        if self.window < 1:
            raise ValueError("window must be at least 1")
        for literal in self.antecedent:
            if literal.cycle >= max(self.window, self.consequent.cycle + 1):
                raise ValueError(
                    f"antecedent literal {literal.describe()} lies outside the window"
                )

    def __hash__(self) -> int:
        # The dataclass-generated hash of the compared fields, kept after
        # the first call.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.antecedent, self.consequent, self.window))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of antecedent propositions (= leaf depth in the tree)."""
        return len(self.antecedent)

    @property
    def span(self) -> int:
        """Number of cycles the assertion spans (consequent offset + 1)."""
        return self.consequent.cycle + 1

    def antecedent_signals(self) -> set[str]:
        return {literal.signal for literal in self.antecedent}

    def support_variables(self) -> set[str]:
        """Definition 4: the set of variables in the assertion."""
        return self.antecedent_signals() | {self.consequent.signal}

    # ------------------------------------------------------------------
    def holds(self, valuations: Mapping[int, Mapping[str, int]]) -> bool:
        """Check the implication on one window of per-cycle valuations."""
        if not self.antecedent_holds(valuations):
            return True
        return self.consequent.holds(valuations)

    def antecedent_holds(self, valuations: Mapping[int, Mapping[str, int]]) -> bool:
        return all(literal.holds(valuations) for literal in self.antecedent)

    def with_name(self, name: str) -> "Assertion":
        return Assertion(self.antecedent, self.consequent, self.window, name,
                         self.confidence, self.support)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form for artifact files; ``ltl`` is informational only."""
        return {
            "name": self.name,
            "antecedent": [literal.to_json() for literal in self.antecedent],
            "consequent": self.consequent.to_json(),
            "window": self.window,
            "confidence": self.confidence,
            "support": self.support,
            "ltl": self.describe(),
        }

    @staticmethod
    def from_json(data: Mapping) -> "Assertion":
        return Assertion(
            tuple(Literal.from_json(item) for item in data["antecedent"]),
            Literal.from_json(data["consequent"]),
            data.get("window", 1),
            data.get("name", ""),
            data.get("confidence", 1.0),
            data.get("support", 0),
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-line rendering (LTL-flavoured, as in the paper)."""
        from repro.assertions.render import to_ltl

        return to_ltl(self)

    def __str__(self) -> str:  # pragma: no cover - delegation
        label = f"{self.name}: " if self.name else ""
        return label + self.describe()


def input_space_fraction(assertion: Assertion) -> float:
    """Fraction of the (windowed) input space one assertion covers.

    Section 7.1: an assertion with ``depth`` concrete propositions covers
    ``1 / 2**depth`` of the possible input space (the remaining variables
    are don't-cares).
    """
    return 1.0 / (2 ** assertion.depth)


def combined_input_space_coverage(assertions: Iterable[Assertion]) -> float:
    """Accumulated input-space coverage of a set of true assertions.

    The incremental decision tree guarantees the assertions' antecedents
    are mutually exclusive (each corresponds to a distinct leaf/path of
    one tree that only ever grows), so their covered fractions simply add
    up, as the paper's Section 7.1 computes.  That holds only for the
    incremental tree: when trees are rebuilt from scratch every iteration
    (``CoverageClosure(..., rebuild_trees=True)``), assertions proven off
    different trees can overlap, and this sum overstates their coverage.
    """
    return min(1.0, sum(input_space_fraction(a) for a in assertions))
