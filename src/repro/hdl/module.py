"""Module-level RTL model: signals, ports, processes and validation.

A :class:`Module` is the unit every other subsystem operates on: the
simulator compiles its processes, the static analyzer extracts logic
cones from it, the synthesizer turns its processes into per-signal
next-value expressions, and the coverage engines instrument its statements
and expressions.

A module is read-only once :meth:`Module.validate` has run: the parser
hands out one shared instance per source text (see
:func:`repro.hdl.parser.parse_modules`), and what other layers derive
from it — the synthesized view, the lane netlist, generated simulator
code — is kept on the module itself (:meth:`Module.derived`).  The
``add_*`` helpers drop those artefacts, so a module still under
construction never serves a stale one; code that needs a changed design
builds a new module, as :mod:`repro.faults.mutation` does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from repro.hdl.ast import Expr, mask
from repro.hdl.errors import ElaborationError
from repro.hdl.stmt import Assign, Block, Statement

T = TypeVar("T")


class SignalKind(enum.Enum):
    """Role of a signal inside a module."""

    INPUT = "input"
    OUTPUT = "output"
    WIRE = "wire"
    REG = "reg"


@dataclass(frozen=True)
class Signal:
    """A named signal with a bit width and an optional reset value.

    ``is_state`` marks signals assigned from sequential processes; it is
    filled in by :meth:`Module.validate`.
    """

    name: str
    width: int = 1
    kind: SignalKind = SignalKind.WIRE
    reset_value: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"signal '{self.name}' must have positive width")
        object.__setattr__(self, "reset_value", mask(self.reset_value, self.width))

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class Port:
    """A module port: direction plus the backing signal name."""

    name: str
    direction: SignalKind
    width: int = 1

    def __post_init__(self) -> None:
        if self.direction not in (SignalKind.INPUT, SignalKind.OUTPUT):
            raise ValueError(f"port '{self.name}' must be input or output")


@dataclass
class ContinuousAssign:
    """A continuous ``assign target = expr;`` driving a wire."""

    target: str
    expr: Expr


class ProcessKind(enum.Enum):
    """Flavour of an always block."""

    COMBINATIONAL = "combinational"
    SEQUENTIAL = "sequential"


@dataclass
class AlwaysBlock:
    """An ``always`` process.

    Sequential processes are sensitive to ``posedge clock``; synchronous
    reset is expressed inside the body (``if (rst) ... else ...``) exactly
    as in the paper's arbiter RTL.  Combinational processes are sensitive
    to every signal they read (``always @*``).
    """

    kind: ProcessKind
    body: Block
    clock: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ProcessKind.SEQUENTIAL and not self.clock:
            raise ElaborationError("sequential always block requires a clock")

    def assigned_signals(self) -> set[str]:
        return self.body.assigned_signals()

    def read_signals(self) -> set[str]:
        return self.body.read_signals()

    def iter_statements(self) -> Iterator[Statement]:
        return self.body.iter_statements()


@dataclass
class Module:
    """A parsed-and-elaborated RTL module (read-only once validated)."""

    name: str
    ports: list[Port] = field(default_factory=list)
    signals: dict[str, Signal] = field(default_factory=dict)
    assigns: list[ContinuousAssign] = field(default_factory=list)
    processes: list[AlwaysBlock] = field(default_factory=list)
    clock: str | None = None
    reset: str | None = None
    #: Artefacts derived from this module, by key; see :meth:`derived`.
    _derived: dict = field(default_factory=dict, compare=False, repr=False)

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The artefact ``key`` derived from this module, built on first use.

        ``build`` must depend on the module alone.  A build that raises
        stores nothing, so it raises again on the next call.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def __getstate__(self) -> dict:
        # Derived artefacts hold compiled code; a pickled copy rebuilds them.
        return {**self.__dict__, "_derived": {}}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_signal(self, name: str, width: int = 1, kind: SignalKind = SignalKind.WIRE,
                   reset_value: int = 0) -> Signal:
        """Declare a signal, raising on duplicate declarations."""
        if name in self.signals:
            raise ElaborationError(f"signal '{name}' declared twice in module '{self.name}'")
        self._derived.clear()
        signal = Signal(name, width, kind, reset_value)
        self.signals[name] = signal
        if kind in (SignalKind.INPUT, SignalKind.OUTPUT):
            self.ports.append(Port(name, kind, width))
        return signal

    def add_assign(self, target: str, expr: Expr) -> ContinuousAssign:
        self._derived.clear()
        assign = ContinuousAssign(target, expr)
        self.assigns.append(assign)
        return assign

    def add_process(self, process: AlwaysBlock) -> AlwaysBlock:
        self._derived.clear()
        self.processes.append(process)
        return process

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def input_names(self) -> list[str]:
        return [port.name for port in self.ports if port.direction is SignalKind.INPUT]

    @property
    def output_names(self) -> list[str]:
        return [port.name for port in self.ports if port.direction is SignalKind.OUTPUT]

    @property
    def data_input_names(self) -> list[str]:
        """Input ports excluding the clock and reset."""
        skip = {self.clock, self.reset}
        return [name for name in self.input_names if name not in skip]

    @property
    def state_names(self) -> list[str]:
        """Signals assigned by sequential processes (the design's registers)."""
        return list(self.derived("state_names", self._state_names))

    def _state_names(self) -> tuple[str, ...]:
        result: list[str] = []
        for process in self.processes:
            if process.kind is ProcessKind.SEQUENTIAL:
                for name in sorted(process.assigned_signals()):
                    if name not in result:
                        result.append(name)
        return tuple(result)

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError as exc:
            raise ElaborationError(
                f"signal '{name}' is not declared in module '{self.name}'"
            ) from exc

    def width_of(self, name: str) -> int:
        return self.signal(name).width

    def has_signal(self, name: str) -> bool:
        return name in self.signals

    def iter_statements(self) -> Iterator[Statement]:
        """Every statement of every process, in pre-order (walked once)."""
        return iter(self.derived("statements", lambda: tuple(
            stmt for process in self.processes for stmt in process.iter_statements())))

    def iter_assignments(self) -> Iterator[Assign]:
        for stmt in self.iter_statements():
            if isinstance(stmt, Assign):
                yield stmt

    def iter_expressions(self) -> Iterator[Expr]:
        """Yield every right-hand side and condition expression in the module."""
        from repro.hdl.stmt import Case, If

        for assign in self.assigns:
            yield assign.expr
        for stmt in self.iter_statements():
            if isinstance(stmt, Assign):
                yield stmt.expr
            elif isinstance(stmt, If):
                yield stmt.cond
            elif isinstance(stmt, Case):
                yield stmt.subject

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural well-formedness; raise :class:`ElaborationError`.

        Also numbers the statements whose ``stmt_id`` is still 0, in
        pre-order after the highest id already set, so a parsed module's
        ids run 1, 2, ... and a mutant keeps the ids it carried over.
        The checks run once: a validated module is read-only, and the
        ``add_*`` helpers drop the mark along with every derived artefact.
        """
        self.derived("validated", self._validate)

    def _validate(self) -> None:
        self._check_references()
        self._check_drivers()
        self._check_clock_and_reset()
        self._number_statements()

    def _number_statements(self) -> None:
        statements = list(self.iter_statements())
        next_id = max((stmt.stmt_id for stmt in statements), default=0)
        for stmt in statements:
            if not stmt.stmt_id:
                next_id += 1
                stmt.stmt_id = next_id

    def _check_references(self) -> None:
        for expr in self.iter_expressions():
            for name in expr.signals():
                if name not in self.signals:
                    raise ElaborationError(
                        f"module '{self.name}' references undeclared signal '{name}'"
                    )
        for assign in self.assigns:
            if assign.target not in self.signals:
                raise ElaborationError(
                    f"continuous assign targets undeclared signal '{assign.target}'"
                )
        for stmt in self.iter_assignments():
            if stmt.target not in self.signals:
                raise ElaborationError(
                    f"procedural assign targets undeclared signal '{stmt.target}'"
                )

    def _check_drivers(self) -> None:
        drivers: dict[str, int] = {}
        for assign in self.assigns:
            drivers[assign.target] = drivers.get(assign.target, 0) + 1
        for process in self.processes:
            for name in process.assigned_signals():
                drivers[name] = drivers.get(name, 0) + 1
        for name, count in drivers.items():
            signal = self.signals.get(name)
            if signal is None:
                continue
            if signal.kind is SignalKind.INPUT:
                raise ElaborationError(
                    f"input port '{name}' is driven inside module '{self.name}'"
                )
            if count > 1:
                raise ElaborationError(
                    f"signal '{name}' has {count} drivers in module '{self.name}'"
                )

    def _check_clock_and_reset(self) -> None:
        for process in self.processes:
            if process.kind is ProcessKind.SEQUENTIAL:
                if process.clock not in self.signals:
                    raise ElaborationError(
                        f"clock '{process.clock}' is not declared in module '{self.name}'"
                    )
                if self.clock is None:
                    self.clock = process.clock
                elif self.clock != process.clock:
                    raise ElaborationError(
                        f"module '{self.name}' uses multiple clocks "
                        f"('{self.clock}' and '{process.clock}')"
                    )
        if self.reset is not None and self.reset not in self.signals:
            raise ElaborationError(
                f"reset '{self.reset}' is not declared in module '{self.name}'"
            )


def guess_reset(module: Module, candidates: Iterable[str] = ("rst", "reset", "rst_n", "resetn")) -> str | None:
    """Return the module's reset input name based on conventional names."""
    names = set(module.input_names)
    for candidate in candidates:
        if candidate in names:
            return candidate
    return None
