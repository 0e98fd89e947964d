"""Procedural statement AST for always blocks.

The subset supports blocking/non-blocking assignments, ``if``/``else``,
``case`` with constant labels and a default arm, and ``begin``/``end``
blocks.  Statements carry integer ids so the coverage engines can key
statement and branch hits without relying on object identity.  Ids are
numbered per module, in pre-order, by :meth:`repro.hdl.module.Module.validate`
(which the parser calls): a statement built by hand has ``stmt_id`` 0 until
its module is validated, so two elaborations of one source carry equal ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.hdl.ast import Expr

@dataclass
class Statement:
    """Base class for procedural statements."""

    def iter_statements(self) -> Iterator["Statement"]:
        """Yield this statement and all nested statements (pre-order)."""
        yield self

    def assigned_signals(self) -> set[str]:
        """Return the names of signals assigned anywhere below this node."""
        return set()

    def read_signals(self) -> set[str]:
        """Return the names of signals read anywhere below this node."""
        return set()

    def to_verilog(self, indent: int = 0) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.to_verilog()


@dataclass
class Assign(Statement):
    """A procedural assignment to a whole signal.

    ``blocking`` selects ``=`` versus ``<=`` semantics.  In the bundled
    designs sequential blocks use non-blocking and combinational blocks use
    blocking assignments, matching standard RTL style.
    """

    target: str
    expr: Expr
    blocking: bool = False
    stmt_id: int = 0

    def assigned_signals(self) -> set[str]:
        return {self.target}

    def read_signals(self) -> set[str]:
        return self.expr.signals()

    def to_verilog(self, indent: int = 0) -> str:
        op = "=" if self.blocking else "<="
        return " " * indent + f"{self.target} {op} {self.expr.to_verilog()};"


@dataclass
class Block(Statement):
    """A ``begin ... end`` sequence of statements."""

    statements: list[Statement] = field(default_factory=list)
    stmt_id: int = 0

    def iter_statements(self) -> Iterator[Statement]:
        yield self
        for stmt in self.statements:
            yield from stmt.iter_statements()

    def assigned_signals(self) -> set[str]:
        result: set[str] = set()
        for stmt in self.statements:
            result |= stmt.assigned_signals()
        return result

    def read_signals(self) -> set[str]:
        result: set[str] = set()
        for stmt in self.statements:
            result |= stmt.read_signals()
        return result

    def to_verilog(self, indent: int = 0) -> str:
        pad = " " * indent
        body = "\n".join(stmt.to_verilog(indent + 2) for stmt in self.statements)
        return f"{pad}begin\n{body}\n{pad}end"


@dataclass
class If(Statement):
    """An ``if``/``else`` statement.  ``otherwise`` may be empty."""

    cond: Expr
    then: Block
    otherwise: Block | None = None
    stmt_id: int = 0

    def iter_statements(self) -> Iterator[Statement]:
        yield self
        yield from self.then.iter_statements()
        if self.otherwise is not None:
            yield from self.otherwise.iter_statements()

    def assigned_signals(self) -> set[str]:
        result = self.then.assigned_signals()
        if self.otherwise is not None:
            result |= self.otherwise.assigned_signals()
        return result

    def read_signals(self) -> set[str]:
        result = self.cond.signals() | self.then.read_signals()
        if self.otherwise is not None:
            result |= self.otherwise.read_signals()
        return result

    def to_verilog(self, indent: int = 0) -> str:
        pad = " " * indent
        text = f"{pad}if ({self.cond.to_verilog()})\n{self.then.to_verilog(indent)}"
        if self.otherwise is not None:
            text += f"\n{pad}else\n{self.otherwise.to_verilog(indent)}"
        return text


@dataclass
class CaseItem:
    """One arm of a ``case`` statement with one or more constant labels."""

    labels: tuple[int, ...]
    body: Block

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)


@dataclass
class Case(Statement):
    """A ``case`` statement over constant labels with an optional default."""

    subject: Expr
    items: list[CaseItem] = field(default_factory=list)
    default: Block | None = None
    stmt_id: int = 0

    def iter_statements(self) -> Iterator[Statement]:
        yield self
        for item in self.items:
            yield from item.body.iter_statements()
        if self.default is not None:
            yield from self.default.iter_statements()

    def assigned_signals(self) -> set[str]:
        result: set[str] = set()
        for item in self.items:
            result |= item.body.assigned_signals()
        if self.default is not None:
            result |= self.default.assigned_signals()
        return result

    def read_signals(self) -> set[str]:
        result = self.subject.signals()
        for item in self.items:
            result |= item.body.read_signals()
        if self.default is not None:
            result |= self.default.read_signals()
        return result

    def to_verilog(self, indent: int = 0) -> str:
        pad = " " * indent
        lines = [f"{pad}case ({self.subject.to_verilog()})"]
        for item in self.items:
            labels = ", ".join(str(label) for label in item.labels)
            lines.append(f"{pad}  {labels}:")
            lines.append(item.body.to_verilog(indent + 4))
        if self.default is not None:
            lines.append(f"{pad}  default:")
            lines.append(self.default.to_verilog(indent + 4))
        lines.append(f"{pad}endcase")
        return "\n".join(lines)
