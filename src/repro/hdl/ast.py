"""Word-level expression AST for the Verilog subset.

Expressions are immutable and hashable.  Each node knows how to

* evaluate itself against an :class:`EvalContext` (used by the cycle
  simulator and by the coverage instrumentation),
* report the signals it reads (used by cone-of-influence analysis),
* infer its result width (used by masking rules and by bit-blasting),
* substitute signal references (used by procedural synthesis and design
  unrolling), and
* pretty-print itself back to Verilog-like text.

Values are plain Python integers interpreted as unsigned vectors of the
expression's width.  This matches the two-value semantics the paper's data
mining operates on (simulation trace rows of 0/1 bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol, Sequence

from repro.hdl.errors import EvaluationError

#: Default width used for unsized integer literals, mirroring Verilog.
DEFAULT_LITERAL_WIDTH = 32

#: Unary operators supported by the subset.
UNARY_OPS = ("~", "!", "-", "&", "|", "^", "~&", "~|", "~^")

#: Binary operators supported by the subset, grouped by family.
BITWISE_OPS = ("&", "|", "^", "~^", "^~")
ARITH_OPS = ("+", "-", "*")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGICAL_OPS = ("&&", "||")
SHIFT_OPS = ("<<", ">>")
BINARY_OPS = BITWISE_OPS + ARITH_OPS + COMPARE_OPS + LOGICAL_OPS + SHIFT_OPS


def mask(value: int, width: int) -> int:
    """Truncate ``value`` to an unsigned ``width``-bit vector."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return value & ((1 << width) - 1)


class EvalContext(Protocol):
    """Interface expressions evaluate against.

    The simulator, the trace replayer and the symbolic unroller all provide
    this protocol.
    """

    def read(self, name: str) -> int:
        """Return the current unsigned value of signal ``name``."""

    def width_of(self, name: str) -> int:
        """Return the declared bit width of signal ``name``."""


class DictContext:
    """A minimal :class:`EvalContext` backed by plain dictionaries.

    Useful in tests and in the counterexample replayer where a full
    simulator is not required.
    """

    def __init__(self, values: Mapping[str, int], widths: Mapping[str, int] | None = None,
                 default_width: int = 1):
        self._values = dict(values)
        self._widths = dict(widths or {})
        self._default_width = default_width

    def read(self, name: str) -> int:
        try:
            return self._values[name]
        except KeyError as exc:
            raise EvaluationError(f"signal '{name}' has no value") from exc

    def width_of(self, name: str) -> int:
        return self._widths.get(name, self._default_width)


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def evaluate(self, ctx: EvalContext) -> int:
        """Evaluate this expression to an unsigned integer."""
        raise NotImplementedError

    def width(self, ctx: EvalContext) -> int:
        """Infer the result width of this expression."""
        raise NotImplementedError

    def signals(self) -> set[str]:
        """Return the names of all signals read by this expression."""
        return {ref.name for ref in self.iter_refs()}

    def iter_refs(self) -> Iterator["Ref"]:
        """Yield every :class:`Ref` node in this expression tree."""
        for child in self.children():
            yield from child.iter_refs()

    def children(self) -> Sequence["Expr"]:
        """Return direct sub-expressions."""
        return ()

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Return a copy with :class:`Ref` nodes replaced per ``mapping``."""
        raise NotImplementedError

    def iter_subexpressions(self) -> Iterator["Expr"]:
        """Yield this node and every sub-expression (pre-order)."""
        yield self
        for child in self.children():
            yield from child.iter_subexpressions()

    def is_boolean(self) -> bool:
        """Heuristically true when the expression always yields 0 or 1."""
        return False

    def to_verilog(self) -> str:
        """Render the expression as Verilog-like source text."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.to_verilog()


@dataclass(frozen=True)
class Const(Expr):
    """An unsigned literal with an explicit bit width."""

    value: int
    bits: int = DEFAULT_LITERAL_WIDTH

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError("constant width must be positive")
        object.__setattr__(self, "value", mask(self.value, self.bits))

    def evaluate(self, ctx: EvalContext) -> int:
        return self.value

    def width(self, ctx: EvalContext) -> int:
        return self.bits

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return self

    def is_boolean(self) -> bool:
        return self.value in (0, 1)

    def to_verilog(self) -> str:
        return f"{self.bits}'d{self.value}"


@dataclass(frozen=True)
class Ref(Expr):
    """A reference to a whole signal."""

    name: str

    def evaluate(self, ctx: EvalContext) -> int:
        return ctx.read(self.name)

    def width(self, ctx: EvalContext) -> int:
        return ctx.width_of(self.name)

    def iter_refs(self) -> Iterator["Ref"]:
        yield self

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def to_verilog(self) -> str:
        return self.name


@dataclass(frozen=True)
class BitSelect(Expr):
    """A single-bit select ``signal[index]`` with a constant index."""

    name: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("bit-select index must be non-negative")

    def evaluate(self, ctx: EvalContext) -> int:
        return (ctx.read(self.name) >> self.index) & 1

    def width(self, ctx: EvalContext) -> int:
        return 1

    def iter_refs(self) -> Iterator[Ref]:
        yield Ref(self.name)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        if self.name in mapping:
            replacement = mapping[self.name]
            if isinstance(replacement, Ref):
                return BitSelect(replacement.name, self.index)
            return BinaryOp("&", BinaryOp(">>", replacement, Const(self.index)), Const(1, 1))
        return self

    def is_boolean(self) -> bool:
        return True

    def to_verilog(self) -> str:
        return f"{self.name}[{self.index}]"


@dataclass(frozen=True)
class PartSelect(Expr):
    """A constant part select ``signal[msb:lsb]``."""

    name: str
    msb: int
    lsb: int

    def __post_init__(self) -> None:
        if self.lsb < 0 or self.msb < self.lsb:
            raise ValueError(f"invalid part select [{self.msb}:{self.lsb}]")

    def evaluate(self, ctx: EvalContext) -> int:
        return mask(ctx.read(self.name) >> self.lsb, self.msb - self.lsb + 1)

    def width(self, ctx: EvalContext) -> int:
        return self.msb - self.lsb + 1

    def iter_refs(self) -> Iterator[Ref]:
        yield Ref(self.name)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        if self.name in mapping:
            replacement = mapping[self.name]
            if isinstance(replacement, Ref):
                return PartSelect(replacement.name, self.msb, self.lsb)
            shifted = BinaryOp(">>", replacement, Const(self.lsb))
            return BinaryOp("&", shifted, Const((1 << (self.msb - self.lsb + 1)) - 1))
        return self

    def to_verilog(self) -> str:
        return f"{self.name}[{self.msb}:{self.lsb}]"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operator: bitwise/logical negation, reductions, negation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unsupported unary operator '{self.op}'")

    def evaluate(self, ctx: EvalContext) -> int:
        value = self.operand.evaluate(ctx)
        width = self.operand.width(ctx)
        if self.op == "~":
            return mask(~value, width)
        if self.op == "!":
            return 0 if value else 1
        if self.op == "-":
            return mask(-value, width)
        if self.op == "&":
            return 1 if value == mask(-1, width) else 0
        if self.op == "|":
            return 1 if value != 0 else 0
        if self.op == "^":
            return bin(value).count("1") & 1
        if self.op == "~&":
            return 0 if value == mask(-1, width) else 1
        if self.op == "~|":
            return 0 if value != 0 else 1
        if self.op == "~^":
            return (bin(value).count("1") & 1) ^ 1
        raise EvaluationError(f"unsupported unary operator '{self.op}'")

    def width(self, ctx: EvalContext) -> int:
        if self.op in ("~", "-"):
            return self.operand.width(ctx)
        return 1

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return UnaryOp(self.op, self.operand.substitute(mapping))

    def is_boolean(self) -> bool:
        if self.op in ("!", "&", "|", "^", "~&", "~|", "~^"):
            return True
        return self.op == "~" and self.operand.is_boolean()

    def to_verilog(self) -> str:
        return f"{self.op}({self.operand.to_verilog()})"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operator covering bitwise, arithmetic, compare and shifts."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unsupported binary operator '{self.op}'")

    def evaluate(self, ctx: EvalContext) -> int:
        lhs = self.left.evaluate(ctx)
        rhs = self.right.evaluate(ctx)
        op = self.op
        if op == "&":
            return lhs & rhs
        if op == "|":
            return lhs | rhs
        if op == "^":
            return lhs ^ rhs
        if op in ("~^", "^~"):
            width = self.width(ctx)
            return mask(~(lhs ^ rhs), width)
        if op == "+":
            return mask(lhs + rhs, self.width(ctx))
        if op == "-":
            return mask(lhs - rhs, self.width(ctx))
        if op == "*":
            return mask(lhs * rhs, self.width(ctx))
        if op == "==":
            return 1 if lhs == rhs else 0
        if op == "!=":
            return 1 if lhs != rhs else 0
        if op == "<":
            return 1 if lhs < rhs else 0
        if op == "<=":
            return 1 if lhs <= rhs else 0
        if op == ">":
            return 1 if lhs > rhs else 0
        if op == ">=":
            return 1 if lhs >= rhs else 0
        if op == "&&":
            return 1 if (lhs and rhs) else 0
        if op == "||":
            return 1 if (lhs or rhs) else 0
        if op == "<<":
            return mask(lhs << rhs, self.width(ctx))
        if op == ">>":
            return lhs >> rhs
        raise EvaluationError(f"unsupported binary operator '{self.op}'")

    def width(self, ctx: EvalContext) -> int:
        if self.op in COMPARE_OPS or self.op in LOGICAL_OPS:
            return 1
        if self.op in SHIFT_OPS:
            return self.left.width(ctx)
        return max(self.left.width(ctx), self.right.width(ctx))

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return BinaryOp(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def is_boolean(self) -> bool:
        if self.op in COMPARE_OPS or self.op in LOGICAL_OPS:
            return True
        if self.op in ("&", "|", "^"):
            return self.left.is_boolean() and self.right.is_boolean()
        return False

    def to_verilog(self) -> str:
        return f"({self.left.to_verilog()} {self.op} {self.right.to_verilog()})"


@dataclass(frozen=True)
class Ternary(Expr):
    """The conditional operator ``cond ? then : other``."""

    cond: Expr
    then: Expr
    other: Expr

    def evaluate(self, ctx: EvalContext) -> int:
        if self.cond.evaluate(ctx):
            return self.then.evaluate(ctx)
        return self.other.evaluate(ctx)

    def width(self, ctx: EvalContext) -> int:
        return max(self.then.width(ctx), self.other.width(ctx))

    def children(self) -> Sequence[Expr]:
        return (self.cond, self.then, self.other)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Ternary(
            self.cond.substitute(mapping),
            self.then.substitute(mapping),
            self.other.substitute(mapping),
        )

    def is_boolean(self) -> bool:
        return self.then.is_boolean() and self.other.is_boolean()

    def to_verilog(self) -> str:
        return (
            f"({self.cond.to_verilog()} ? {self.then.to_verilog()}"
            f" : {self.other.to_verilog()})"
        )


@dataclass(frozen=True)
class Concat(Expr):
    """A concatenation ``{a, b, c}`` (left part is most significant)."""

    parts: tuple[Expr, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("concatenation requires at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def evaluate(self, ctx: EvalContext) -> int:
        result = 0
        for part in self.parts:
            width = part.width(ctx)
            result = (result << width) | mask(part.evaluate(ctx), width)
        return result

    def width(self, ctx: EvalContext) -> int:
        return sum(part.width(ctx) for part in self.parts)

    def children(self) -> Sequence[Expr]:
        return self.parts

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Concat(tuple(part.substitute(mapping) for part in self.parts))

    def to_verilog(self) -> str:
        inner = ", ".join(part.to_verilog() for part in self.parts)
        return "{" + inner + "}"


def disjoin(terms: Sequence[Expr]) -> Expr:
    """Return the logical OR of ``terms`` (1'd0 when empty)."""
    if not terms:
        return Const(0, 1)
    result = terms[0]
    for term in terms[1:]:
        result = BinaryOp("||", result, term)
    return result


def equals(name: str, value: int, width: int = 1) -> Expr:
    """Return the proposition ``name == value`` as an expression."""
    return BinaryOp("==", Ref(name), Const(value, max(width, value.bit_length() or 1)))
