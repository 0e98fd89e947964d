"""Code generation for the compiled scalar simulator.

:func:`generate` turns a :class:`~repro.hdl.module.Module` and the coverage
collectors observing it into the Python source of one function,
``simulate(V, vectors, start, full, rows, P)``, that runs a whole input
sequence over local ints:

* ``V`` is the simulator's signal-value dict, loaded into locals on entry
  (or replaced by the reset state when ``start`` is :data:`RESET`) and
  written back on exit, also when an exception escapes;
* ``start`` is :data:`RESUME` (continue from ``V``), :data:`RESET` (reset
  state, settle) or :data:`SETTLE` (settle ``V`` as it is, the way
  ``load_state`` does);
* every cycle applies one input dict, settles the combinational network,
  samples a row (all signals when ``full``, else the trace columns),
  fires the clock edge — non-blocking writes go to shadow locals that are
  committed after every sequential process ran — and settles again;
* ``rows`` receives one tuple per completed cycle and ``P`` is the
  :class:`ProbeState` the coverage probes accumulate into.

Widths are static, so every mask is a literal.  Combinational constructs
run in the interpreter's topological order; a construct-level cycle gets
the bounded fixpoint loop, emitted as code, with the same
``SimulationError``.

Coverage probes sit at the interpreter's observation sites (reset settle,
pre-edge settle, clock edge, post-edge settle): statement and branch hits
and condition-atom / expression-bin outcomes set a byte of ``P.hits``;
toggle coverage keeps one rise and one fall mask per signal, FSM coverage
a seen-state set and a transition set per state register.
:meth:`ProbeState.fold` turns them into the collectors' ``covered_points``
after every call.

The source embeds no statement id and no object id — cover points map to
slots in emission order, and the :class:`ProbeLayout` names collectors by
their position in the ``collectors`` list — so structurally equal modules
generate byte-equal source, and :func:`compile_source` compiles each
distinct source once per process.  A :class:`Program` is thus independent
of the collector objects it was generated for: :func:`generate` keeps it
on the module (:meth:`~repro.hdl.module.Module.derived`) per trace-column
layout and collector configuration, and every later simulator of that
module with the same probes reuses it.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Sequence

from repro.hdl.ast import (
    COMPARE_OPS,
    LOGICAL_OPS,
    SHIFT_OPS,
    BinaryOp,
    BitSelect,
    Concat,
    Const,
    Expr,
    PartSelect,
    Ref,
    Ternary,
    UnaryOp,
)
from repro.hdl.module import AlwaysBlock, ContinuousAssign, Module, ProcessKind
from repro.hdl.stmt import Assign, Block, Case, If, Statement

#: Maximum passes over the combinational network before declaring divergence.
MAX_SETTLE_ITERATIONS = 64

#: Distinct generated sources whose code objects are kept per process.
CODE_CACHE_SIZE = 128

#: ``start`` modes of the generated function.
RESUME, RESET, SETTLE = 0, 1, 2


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def compile_source(source: str):
    """Compile generated source once; equal sources share one code object."""
    return compile(source, "<compiled design>", "exec")


def ordered_comb_constructs(module: Module
                            ) -> tuple[list[ContinuousAssign | AlwaysBlock], bool]:
    """Combinational constructs in evaluation order, and whether they form
    a construct-level cycle (then they keep declaration order and settle
    by fixpoint iteration)."""
    constructs: list[ContinuousAssign | AlwaysBlock] = list(module.assigns)
    constructs.extend(p for p in module.processes if p.kind is ProcessKind.COMBINATIONAL)
    if not constructs:
        return [], False
    sorter = TopologicalSorter()
    for index in range(len(constructs)):
        sorter.add(index)
    writes: list[set[str]] = []
    reads: list[set[str]] = []
    for construct in constructs:
        if isinstance(construct, ContinuousAssign):
            writes.append({construct.target})
            reads.append(construct.expr.signals())
        else:
            writes.append(construct.assigned_signals())
            reads.append(construct.read_signals())
    for i in range(len(constructs)):
        for j in range(len(constructs)):
            if i != j and writes[i] & reads[j]:
                sorter.add(j, i)
    try:
        order = list(sorter.static_order())
    except CycleError:
        return constructs, True
    return [constructs[i] for i in order], False


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass
class ProbeLayout:
    """What the generated probes record, and which cover points they feed.

    Collectors are named by their position in the list the program was
    generated for.  ``slots[k]`` lists the ``(position, point)`` pairs hit
    when byte ``k`` of ``ProbeState.hits`` is set;
    ``toggle_signals``/``fsm_signals`` name the signals behind the toggle
    masks and FSM sets, by position; ``toggles``, ``fsms`` and
    ``statements`` are the positions of the toggle, FSM and statement
    collectors.
    """

    slots: list[list[tuple[int, object]]] = field(default_factory=list)
    toggle_signals: list[str] = field(default_factory=list)
    fsm_signals: list[str] = field(default_factory=list)
    toggles: list[int] = field(default_factory=list)
    fsms: list[int] = field(default_factory=list)
    statements: list[int] = field(default_factory=list)


class ProbeState:
    """Coverage accumulated by one simulator's generated code.

    Everything grows monotonically; :meth:`fold` adds what is new since
    the previous fold to ``collectors`` (in the order the program was
    generated for), so folding after every call costs little once
    coverage saturates.
    """

    def __init__(self, layout: ProbeLayout, collectors: Sequence):
        self.layout = layout
        self.collectors = list(collectors)
        self.hits = bytearray(len(layout.slots))
        self._folded_hits = bytes(len(layout.slots))
        toggles = len(layout.toggle_signals)
        self.toggle_armed = False
        self.toggle_prev = [0] * toggles
        self.toggle_rise = [0] * toggles
        self.toggle_fall = [0] * toggles
        self._folded_toggles: tuple[list[int], list[int]] = ([0] * toggles, [0] * toggles)
        self.fsm_prev: list[int | None] = [None] * len(layout.fsm_signals)
        self.fsm_seen: list[set[int]] = [set() for _ in layout.fsm_signals]
        self.fsm_transitions: list[set[tuple[int, int]]] = [set() for _ in layout.fsm_signals]
        self._folded_fsm: list[tuple[int, int]] = [(0, 0) for _ in layout.fsm_signals]
        self._cycled = False

    def fold(self, cycles: int) -> None:
        """Add newly observed points to the collectors' ``covered_points``."""
        layout, collectors = self.layout, self.collectors
        if self.hits != self._folded_hits:
            for slot, (now, before) in enumerate(zip(self.hits, self._folded_hits)):
                if now and not before:
                    for position, point in layout.slots[slot]:
                        collectors[position]._hit(point)
            self._folded_hits = bytes(self.hits)
        if (self.toggle_rise, self.toggle_fall) != self._folded_toggles:
            self._fold_toggles()
        for k, name in enumerate(layout.fsm_signals):
            seen, transitions = self.fsm_seen[k], self.fsm_transitions[k]
            if (len(seen), len(transitions)) == self._folded_fsm[k]:
                continue
            for collector in (collectors[position] for position in layout.fsms):
                if name in collector.state_signals:
                    for value in seen:
                        collector._hit((name, value))
                    collector.transitions[name] |= transitions
            self._folded_fsm[k] = (len(seen), len(transitions))
        if cycles and not self._cycled:
            # Continuous assigns execute on every cycle.
            for position in layout.statements:
                collector = collectors[position]
                for index, _ in enumerate(collector.module.assigns):
                    collector.covered_points.add(("assign", index))
            self._cycled = True

    def _fold_toggles(self) -> None:
        index = {name: k for k, name in enumerate(self.layout.toggle_signals)}
        for position in self.layout.toggles:
            collector = self.collectors[position]
            for name in collector._tracked:
                k = index.get(name)
                if k is None:
                    continue
                for direction, mask in (("rise", self.toggle_rise[k]),
                                        ("fall", self.toggle_fall[k])):
                    for bit in range(collector.module.width_of(name)):
                        if (mask >> bit) & 1:
                            collector._hit((name, bit, direction))
        self._folded_toggles = (list(self.toggle_rise), list(self.toggle_fall))


@dataclass
class Program:
    """Generated source plus the probe layout its slots refer to."""

    source: str
    layout: ProbeLayout


def generate(module: Module, collectors: Sequence = (),
             columns: Sequence[str] = ()) -> Program:
    """Generate the whole-sequence function for ``module``.

    ``collectors`` are coverage collectors (the six types of
    :mod:`repro.coverage.collectors`); ``columns`` is the trace-row layout.
    When every collector observes ``module`` itself, the program is
    generated once per module, column layout and collector configuration
    and shared; it must not be mutated.
    """
    collectors, columns = list(collectors), list(columns)
    if any(collector.module is not module for collector in collectors):
        return _Emitter(module, collectors, columns).program()
    key = ("codegen", tuple(columns), tuple(_probe_key(c) for c in collectors))
    return module.derived(key, lambda: _Emitter(module, collectors, columns).program())


def _probe_key(collector) -> tuple:
    """What of ``collector``, besides its module, shapes the probes."""
    from repro.coverage.collectors import FsmCoverage, ToggleCoverage

    if isinstance(collector, ToggleCoverage):
        return (type(collector), tuple(collector._tracked))
    if isinstance(collector, FsmCoverage):
        return (type(collector), tuple(collector.state_signals))
    return (type(collector),)


class _Suite:
    """An indented block of generated code (``pass`` if it stays empty)."""

    __slots__ = ("emitter", "before")

    def __init__(self, emitter: "_Emitter"):
        self.emitter = emitter

    def __enter__(self) -> None:
        self.emitter.pad += "    "
        self.before = len(self.emitter.lines)

    def __exit__(self, *exc_info) -> None:
        if len(self.emitter.lines) == self.before:
            self.emitter.emit("pass")
        self.emitter.pad = self.emitter.pad[:-4]


class _Emitter:
    def __init__(self, module: Module, collectors: list, columns: list[str]):
        # Imported here: repro.coverage imports the simulator.
        from repro.coverage.collectors import (
            BranchCoverage,
            ConditionCoverage,
            ExpressionCoverage,
            FsmCoverage,
            StatementCoverage,
            ToggleCoverage,
        )

        self.module = module
        self.columns = columns
        self.inputs = set(module.input_names)
        self.widths = {name: signal.width for name, signal in module.signals.items()}
        #: Signal locals are ``v_<name>`` (``v<index>_`` for names that are
        #: no Python identifier); non-blocking shadows swap the ``v`` for ``n``.
        self.local = {name: f"v_{name}" if name.isidentifier() and name.isascii()
                      else f"v{index}_" for index, name in enumerate(module.signals)}
        self.lines: list[str] = []
        self.pad = ""
        #: The settle phase's lines, indentation stripped, once emitted:
        #: every later settle site replays them.
        self._settle_text: list[str] | None = None
        self.temps = 0
        self.layout = ProbeLayout()
        self._slot_of: dict[tuple, int] = {}
        self._widths: dict[int, int] = {}

        def positions(kind) -> list[int]:
            return [position for position, c in enumerate(collectors) if isinstance(c, kind)]

        self.statement_cov = positions(StatementCoverage)
        self.branch_cov = positions(BranchCoverage)
        self.atom_tables = [
            (position, c._atoms_by_expr if isinstance(c, ConditionCoverage) else c._bins_by_expr)
            for position, c in enumerate(collectors)
            if isinstance(c, (ConditionCoverage, ExpressionCoverage))
        ]
        self.layout.statements = self.statement_cov
        self.layout.toggles = positions(ToggleCoverage)
        self.layout.fsms = positions(FsmCoverage)
        for position in self.layout.toggles:
            for name in collectors[position]._tracked:
                if name in self.widths and name not in self.layout.toggle_signals:
                    self.layout.toggle_signals.append(name)
        for position in self.layout.fsms:
            for name in collectors[position].state_signals:
                if name not in self.layout.fsm_signals:
                    self.layout.fsm_signals.append(name)
        self.probed = bool(collectors)

        self.comb, self.comb_cycle = ordered_comb_constructs(module)
        self.sequential = [p for p in module.processes if p.kind is ProcessKind.SEQUENTIAL]
        #: Registers written non-blocking (in first-write order) and
        #: blocking by the sequential processes, collected while emitting.
        self.nonblocking: dict[str, None] = {}
        self.blocking: set[str] = set()

    # ------------------------------------------------------------------
    # output helpers
    # ------------------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append(self.pad + line)

    def suite(self, header: str) -> "_Suite":
        """``with emitter.suite(header):`` indents the body emitted inside."""
        self.emit(header)
        return _Suite(self)

    def _slot(self, key: tuple, targets: list[tuple[int, object]]) -> int:
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self.layout.slots)
            self.layout.slots.append(targets)
        return slot

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def width(self, expr: Expr) -> int:
        cached = self._widths.get(id(expr))
        if cached is not None:
            return cached
        if isinstance(expr, Const):
            width = expr.bits
        elif isinstance(expr, Ref):
            width = self.widths[expr.name]
        elif isinstance(expr, BitSelect):
            width = 1
        elif isinstance(expr, PartSelect):
            width = expr.msb - expr.lsb + 1
        elif isinstance(expr, UnaryOp):
            width = self.width(expr.operand) if expr.op in ("~", "-") else 1
        elif isinstance(expr, BinaryOp):
            if expr.op in COMPARE_OPS or expr.op in LOGICAL_OPS:
                width = 1
            elif expr.op in SHIFT_OPS:
                width = self.width(expr.left)
            else:
                width = max(self.width(expr.left), self.width(expr.right))
        elif isinstance(expr, Ternary):
            width = max(self.width(expr.then), self.width(expr.other))
        elif isinstance(expr, Concat):
            width = sum(self.width(part) for part in expr.parts)
        else:  # pragma: no cover - the parser produces no other node
            raise TypeError(f"unsupported expression {type(expr).__name__}")
        self._widths[id(expr)] = width
        return width

    def value(self, expr: Expr) -> str:
        """Python code for ``expr.evaluate``.  Every value is below
        ``2 ** width`` (stored values are masked and every operator masks
        or cannot grow), so only the operators that mask in the
        interpreter mask here."""
        if isinstance(expr, Const):
            return str(expr.value)
        if isinstance(expr, Ref):
            return self.local[expr.name]
        if isinstance(expr, BitSelect):
            return f"(({self.local[expr.name]} >> {expr.index}) & 1)"
        if isinstance(expr, PartSelect):
            mask = _mask(expr.msb - expr.lsb + 1)
            return f"(({self.local[expr.name]} >> {expr.lsb}) & {mask})"
        if isinstance(expr, UnaryOp):
            return self._unary(expr)
        if isinstance(expr, BinaryOp):
            return self._binary(expr)
        if isinstance(expr, Ternary):
            return (f"({self.value(expr.then)} if {self.truth(expr.cond)} "
                    f"else {self.value(expr.other)})")
        if isinstance(expr, Concat):
            shift = self.width(expr)
            terms = []
            for part in expr.parts:
                shift -= self.width(part)
                code = self.value(part)
                terms.append(f"({code} << {shift})" if shift else code)
            return "(" + " | ".join(terms) + ")"
        raise TypeError(f"unsupported expression {type(expr).__name__}")  # pragma: no cover

    def _unary(self, expr: UnaryOp) -> str:
        op, operand = expr.op, self.value(expr.operand)
        full = _mask(self.width(expr.operand))
        if op == "~":
            return f"(~{operand} & {full})"
        if op == "-":
            return f"(-{operand} & {full})"
        if op == "^":
            return f"(({operand}).bit_count() & 1)"
        if op == "~^":
            return f"((({operand}).bit_count() & 1) ^ 1)"
        return f"(1 if {self.truth(expr)} else 0)"

    def _binary(self, expr: BinaryOp) -> str:
        op = expr.op
        if op in COMPARE_OPS or op in LOGICAL_OPS:
            return f"(1 if {self.truth(expr)} else 0)"
        left, right = self.value(expr.left), self.value(expr.right)
        if op in ("&", "|", "^"):
            return f"({left} {op} {right})"
        if op == ">>":
            return f"({left} >> {right})"
        if op == "<<":
            return f"(({left} << {right}) & {_mask(self.width(expr.left))})"
        full = _mask(self.width(expr))
        if op in ("~^", "^~"):
            return f"(~({left} ^ {right}) & {full})"
        return f"(({left} {op} {right}) & {full})"  # + - *

    def truth(self, expr: Expr) -> str:
        """Python code whose truth value is ``bool(expr.evaluate)``."""
        if isinstance(expr, BinaryOp):
            if expr.op in COMPARE_OPS:
                return f"({self.value(expr.left)} {expr.op} {self.value(expr.right)})"
            if expr.op == "&&":
                return f"({self.truth(expr.left)} and {self.truth(expr.right)})"
            if expr.op == "||":
                return f"({self.truth(expr.left)} or {self.truth(expr.right)})"
        elif isinstance(expr, UnaryOp):
            if expr.op in ("!", "~|"):
                return f"(not {self.truth(expr.operand)})"
            if expr.op == "|":
                return self.truth(expr.operand)
            if expr.op in ("&", "~&"):
                compare = "==" if expr.op == "&" else "!="
                return f"({self.value(expr.operand)} {compare} {_mask(self.width(expr.operand))})"
        elif isinstance(expr, Ternary):
            return (f"({self.truth(expr.then)} if {self.truth(expr.cond)} "
                    f"else {self.truth(expr.other)})")
        return self.value(expr)

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def probe_expression(self, expr: Expr) -> None:
        """Condition atoms and expression bins of ``expr`` (the
        interpreter's ``on_expression`` site)."""
        for position, table in self.atom_tables:
            for index, atom in table.get(id(expr), ()):
                low = self._slot(("atom", position, index, 0), [(position, (index, 0))])
                high = self._slot(("atom", position, index, 1), [(position, (index, 1))])
                self.emit(f"H[{high} if {self.truth(atom)} else {low}] = 1")

    def probe_statement(self, stmt: Assign) -> None:
        if self.statement_cov:
            point = ("stmt", stmt.stmt_id)
            slot = self._slot(point, [(position, point) for position in self.statement_cov])
            self.emit(f"H[{slot}] = 1")

    def probe_branch(self, stmt: Statement, arm: str) -> None:
        if self.branch_cov:
            point = (stmt.stmt_id, arm)
            slot = self._slot(point, [(position, point) for position in self.branch_cov])
            self.emit(f"H[{slot}] = 1")

    def probe_toggles(self, site: str) -> None:
        """Toggle observation at ``reset``, cycle ``start`` or cycle ``end``."""
        signals = self.layout.toggle_signals
        if not signals:
            return
        if site == "reset":
            self.emit("tarm = True")
            for k, name in enumerate(signals):
                self.emit(f"tp{k} = {self.local[name]}")
        elif site == "start":
            # Unarmed only before the first reset: the first sample then
            # just becomes the previous one.
            with self.suite("if tarm:"):
                self.toggle_deltas(signals)
            with self.suite("else:"):
                self.probe_toggles("reset")
        else:
            # Inputs cannot change between the pre- and post-edge samples.
            self.toggle_deltas([name for name in signals if name not in self.inputs])

    def toggle_deltas(self, names: Sequence[str]) -> None:
        signals = self.layout.toggle_signals
        for name in names:
            k, local = signals.index(name), self.local[name]
            with self.suite(f"if tp{k} != {local}:"):
                self.emit(f"_t = tp{k} ^ {local}")
                self.emit(f"tr{k} |= _t & {local}")
                self.emit(f"tf{k} |= _t & tp{k}")
                self.emit(f"tp{k} = {local}")

    def probe_fsm(self) -> None:
        for k, name in enumerate(self.layout.fsm_signals):
            value = self.local.get(name, "0")
            self.emit(f"fs{k}({value})")
            with self.suite(f"if {value} != fp{k}:"):
                with self.suite(f"if fp{k} is not None:"):
                    self.emit(f"ft{k}((fp{k}, {value}))")
                self.emit(f"fp{k} = {value}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def assign(self, target: str, expr: Expr, local: str) -> None:
        full = _mask(self.widths[target])
        if isinstance(expr, Const):
            code = str(expr.value & full)
        elif self.width(expr) > self.widths[target]:
            code = f"({self.value(expr)} & {full})"
        else:
            code = self.value(expr)
        self.emit(f"{local} = {code}")

    def block(self, block: Block, sequential: bool) -> None:
        for stmt in block.statements:
            self.statement(stmt, sequential)

    def statement(self, stmt: Statement, sequential: bool) -> None:
        if isinstance(stmt, Block):
            self.block(stmt, sequential)
        elif isinstance(stmt, Assign):
            self.probe_expression(stmt.expr)
            local = self.local[stmt.target]
            if sequential and not stmt.blocking:
                self.nonblocking[stmt.target] = None
                local = "n" + local[1:]
            elif sequential:
                self.blocking.add(stmt.target)
            self.assign(stmt.target, stmt.expr, local)
            self.probe_statement(stmt)
        elif isinstance(stmt, If):
            self.probe_expression(stmt.cond)
            with self.suite(f"if {self.truth(stmt.cond)}:"):
                self.probe_branch(stmt, "then")
                self.block(stmt.then, sequential)
            if stmt.otherwise is not None or self.branch_cov:
                with self.suite("else:"):
                    self.probe_branch(stmt, "else")
                    if stmt.otherwise is not None:
                        self.block(stmt.otherwise, sequential)
        elif isinstance(stmt, Case):
            self.case(stmt, sequential)
        else:  # pragma: no cover - the parser produces no other statement
            raise TypeError(f"unsupported statement {type(stmt).__name__}")

    def case(self, stmt: Case, sequential: bool) -> None:
        self.probe_expression(stmt.subject)
        if isinstance(stmt.subject, Ref):
            subject = self.local[stmt.subject.name]
        else:
            subject = f"_c{self.temps}"
            self.temps += 1
            self.emit(f"{subject} = {self.value(stmt.subject)}")
        for index, item in enumerate(stmt.items):
            if len(item.labels) == 1:
                test = f"{subject} == {item.labels[0]}"
            else:
                test = f"{subject} in {tuple(item.labels)!r}"
            with self.suite(f"{'elif' if index else 'if'} {test}:"):
                self.probe_branch(stmt, f"item{index}")
                self.block(item.body, sequential)
        # Without items the default arm always runs.
        with self.suite("else:") if stmt.items else contextlib.nullcontext():
            self.probe_branch(stmt, "default")
            if stmt.default is not None:
                self.block(stmt.default, sequential)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def settle(self) -> None:
        if self._settle_text is not None:
            self.lines.extend(self.pad + line for line in self._settle_text)
            return
        start = len(self.lines)
        self._settle_once()
        self._settle_text = [line[len(self.pad):] for line in self.lines[start:]]

    def _settle_once(self) -> None:
        if not self.comb:
            return
        if self.comb_cycle:
            targets: list[str] = []
            for construct in self.comb:
                written = [construct.target] if isinstance(construct, ContinuousAssign) \
                    else sorted(construct.assigned_signals())
                targets.extend(name for name in written if name not in targets)
            state = "(" + ", ".join(self.local[name] for name in targets) + ",)"
            with self.suite(f"for _ in range({MAX_SETTLE_ITERATIONS}):"):
                self.emit(f"_b = {state}")
                self.constructs()
                with self.suite(f"if {state} == _b:"):
                    self.emit("break")
            message = (f"combinational logic in '{self.module.name}' did not settle "
                       f"after {MAX_SETTLE_ITERATIONS} iterations")
            with self.suite("else:"):
                self.emit(f"raise SimulationError({message!r})")
        else:
            self.constructs()

    def constructs(self) -> None:
        """One pass over the combinational constructs."""
        for construct in self.comb:
            if isinstance(construct, ContinuousAssign):
                self.probe_expression(construct.expr)
                self.assign(construct.target, construct.expr, self.local[construct.target])
            else:
                self.block(construct.body, sequential=False)

    def clock_edge(self) -> None:
        start = len(self.lines)
        for process in self.sequential:
            self.block(process.body, sequential=True)
        # Shadows start at the register's value; a register also written by
        # blocking assigns keeps those writes unless a non-blocking write
        # happened this edge.
        self.lines[start:start] = [
            f"{self.pad}n{self.local[name][1:]} = "
            f"{'None' if name in self.blocking else self.local[name]}"
            for name in self.nonblocking
        ]
        for name in self.nonblocking:
            local = self.local[name]
            if name in self.blocking:
                with self.suite(f"if n{local[1:]} is not None:"):
                    self.emit(f"{local} = n{local[1:]}")
            else:
                self.emit(f"{local} = n{local[1:]}")

    def apply_inputs(self) -> None:
        """Mask one input dict into the locals; any signal may be driven,
        an unknown name raises in dict order like the interpreter."""
        with self.suite("if vec.keys() <= _INPUTS:"):
            for name in self.module.input_names:
                self.emit(f"x = vec.get({name!r}, MISSING)")
                with self.suite("if x is not MISSING:"):
                    self.emit(f"{self.local[name]} = int(x) & {_mask(self.widths[name])}")
        with self.suite("else:"), self.suite("for k, x in vec.items():"):
            for index, name in enumerate(self.module.signals):
                with self.suite(f"{'elif' if index else 'if'} k == {name!r}:"):
                    self.emit(f"{self.local[name]} = int(x) & {_mask(self.widths[name])}")
            with self.suite("else:"):
                self.emit("raise SimulationError(\"unknown input '%s'\" % (k,))")

    def row(self, columns: Sequence[str]) -> str:
        return "(" + "".join(f"{self.local.get(name, '0')}, " for name in columns) + ")"

    # ------------------------------------------------------------------
    def program(self) -> Program:
        module = self.module
        signals = list(module.signals)
        toggles = range(len(self.layout.toggle_signals))
        fsms = range(len(self.layout.fsm_signals))

        self.emit(f"_INPUTS = frozenset({sorted(self.inputs)!r})")
        self.emit("MISSING = object()")
        self.emit("")
        with self.suite("def simulate(V, vectors, start, full, rows, P):"):
            self.emit("append = rows.append")
            registers = set(module.state_names)
            with self.suite(f"if start == {RESET}:"):
                for name in signals:
                    value = module.signals[name].reset_value if name in registers else 0
                    self.emit(f"{self.local[name]} = {value}")
            with self.suite("else:"):
                for name in signals:
                    self.emit(f"{self.local[name]} = V[{name!r}]")
            if self.probed:
                self.emit("H = P.hits")
            if toggles:
                self.emit("tarm = P.toggle_armed")
                for attribute, prefix in (("prev", "tp"), ("rise", "tr"), ("fall", "tf")):
                    names = "".join(f"{prefix}{k}, " for k in toggles)
                    self.emit(f"{names}= P.toggle_{attribute}")
            for k in fsms:
                self.emit(f"fp{k} = P.fsm_prev[{k}]")
                self.emit(f"fs{k} = P.fsm_seen[{k}].add")
                self.emit(f"ft{k} = P.fsm_transitions[{k}].add")
            with self.suite("try:"):
                with self.suite("if start:"):
                    self.settle()
                    with self.suite(f"if start == {RESET}:"):
                        self.probe_toggles("reset")
                        for k in fsms:
                            self.emit(f"fp{k} = None")
                with self.suite("for vec in vectors:"):
                    self.apply_inputs()
                    self.settle()
                    self.probe_toggles("start")
                    self.probe_fsm()
                    self.emit(f"r = {self.row(signals)} if full else {self.row(self.columns)}")
                    self.clock_edge()
                    self.settle()
                    self.probe_toggles("end")
                    self.emit("append(r)")
            with self.suite("finally:"):
                for name in signals:
                    self.emit(f"V[{name!r}] = {self.local[name]}")
                if toggles:
                    self.emit("P.toggle_armed = tarm")
                    for attribute, prefix in (("prev", "tp"), ("rise", "tr"), ("fall", "tf")):
                        values = ", ".join(f"{prefix}{k}" for k in toggles)
                        self.emit(f"P.toggle_{attribute} = [{values}]")
                for k in fsms:
                    self.emit(f"P.fsm_prev[{k}] = fp{k}")
        return Program("\n".join(self.lines) + "\n", self.layout)
