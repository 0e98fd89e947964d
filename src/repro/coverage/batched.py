"""Lane-parallel coverage measurement on the batched simulation engine.

The scalar :class:`~repro.coverage.runner.CoverageRunner` instruments the
compiled simulator with coverage probes, which limits it to one trial at a
time.  This module measures the same metrics — line, branch, condition,
expression, toggle and FSM coverage, with point-for-point identical
reports — while replaying up to ``W`` test sequences at once on the
bit-parallel :class:`~repro.sim.batched.BatchedSimulator`:

* every statement-level cover point is turned into a Boolean *guard*
  (the statement's path condition, a branch arm's condition, a condition
  atom or expression bin conjoined with its path condition), bit-blasted
  once and compiled into a straight-line lane program; a nonzero guard
  word on a sampled cycle means the point was hit in some lane,
* toggle coverage is computed directly on lane words (one XOR per
  signal bit observes all lanes), and
* FSM state coverage tests each declared state's equality lane word.

Guards from combinational constructs are evaluated on the reset
valuation and on both the pre-edge and post-edge samples of every cycle;
guards from sequential processes only on the pre-edge sample — the exact
observation schedule of the scalar engine, which is what makes the
reports match.  Reads of combinational signals that are re-assigned
later in the same ``always @*`` process are resolved by symbolic
substitution (mirroring procedural synthesis), so blocking-assignment
visibility is honoured too.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.coverage.collectors import (
    BranchCoverage,
    ConditionCoverage,
    CoverageCollector,
    ExpressionCoverage,
    FsmCoverage,
    StatementCoverage,
    ToggleCoverage,
)
from repro.hdl.ast import BinaryOp, Const, Expr, Ref, UnaryOp, conjoin, disjoin
from repro.hdl.module import Module, ProcessKind
from repro.hdl.stmt import Assign, Block, Case, If
from repro.hdl.synth import _merge
from repro.sim.batched import BatchedSimulator, CompiledNetlist, unpack_lanes
from repro.sim.simulator import SimulationError


def _not(expr: Expr) -> Expr:
    return UnaryOp("!", expr)


def _substituted(expr: Expr, env: Mapping[str, Expr]) -> Expr:
    mapping = {name: value for name, value in env.items()
               if not (isinstance(value, Ref) and value.name == name)}
    return expr.substitute(mapping) if mapping else expr


class BatchedCoverage:
    """Evaluates a set of scalar collectors' points lane-parallel.

    The collectors' statically enumerated ``total_points`` (and the
    condition/expression bin numbering) are reused verbatim; this engine
    only fills in ``covered_points``, so reports are directly comparable
    with — and in fact equal to — scalar runs of the same sequences.
    """

    def __init__(self, module: Module, collectors: Sequence[CoverageCollector],
                 lanes: int = 64, netlist: CompiledNetlist | None = None):
        if lanes < 1:
            raise ValueError("lane count must be positive")
        self.module = module
        self.lanes = lanes
        self.netlist = netlist if netlist is not None else CompiledNetlist(module)
        self._stmt: StatementCoverage | None = None
        self._branch: BranchCoverage | None = None
        self._cond: ConditionCoverage | None = None
        self._expr: ExpressionCoverage | None = None
        self._toggles: list[ToggleCoverage] = []
        self._fsms: list[FsmCoverage] = []
        for collector in collectors:
            if isinstance(collector, StatementCoverage):
                self._stmt = collector
            elif isinstance(collector, BranchCoverage):
                self._branch = collector
            elif isinstance(collector, ConditionCoverage):
                self._cond = collector
            elif isinstance(collector, ExpressionCoverage):
                self._expr = collector
            elif isinstance(collector, ToggleCoverage):
                self._toggles.append(collector)
            elif isinstance(collector, FsmCoverage):
                self._fsms.append(collector)
            else:
                raise ValueError(
                    f"collector {type(collector).__name__} has no batched implementation; "
                    "use the scalar coverage engine"
                )
        self._comb_points: list[tuple[CoverageCollector, object]] = []
        self._seq_points: list[tuple[CoverageCollector, object]] = []
        comb_conditions: list = []
        seq_conditions: list = []
        self._build_guards(comb_conditions, seq_conditions)
        self._comb_flags = self.netlist.compile_flags(comb_conditions)
        self._seq_flags = self.netlist.compile_flags(seq_conditions)
        self._fsm_slots = {
            name: self.netlist.slots[name]
            for fsm in self._fsms for name in fsm.state_signals
        }
        self._toggle_bits = [
            (collector, name, bit, self.netlist.slots[name][bit])
            for collector in self._toggles
            for name in collector._tracked
            for bit in range(module.width_of(name))
        ]

    # ------------------------------------------------------------------
    # static guard construction
    # ------------------------------------------------------------------
    def _build_guards(self, comb_conditions: list, seq_conditions: list) -> None:
        def add(sequential: bool, collector: CoverageCollector | None,
                point, terms: Sequence[Expr]) -> None:
            if collector is None or point not in collector.total_points:
                return
            condition = self.netlist.blast_condition(conjoin(list(terms)))
            if sequential:
                self._seq_points.append((collector, point))
                seq_conditions.append(condition)
            else:
                self._comb_points.append((collector, point))
                comb_conditions.append(condition)

        if self._expr is not None:
            for assign in self.module.assigns:
                for index, sub in self._expr._bins_by_expr.get(id(assign.expr), []):
                    add(False, self._expr, (index, 1), [sub])
                    add(False, self._expr, (index, 0), [_not(sub)])

        for process in self.module.processes:
            sequential = process.kind is ProcessKind.SEQUENTIAL
            blocking = not sequential
            env = {name: Ref(name) for name in process.assigned_signals()}
            self._walk_block(process.body, [], env, blocking, sequential, add)

    def _walk_block(self, block: Block, path: list[Expr], env: dict[str, Expr],
                    blocking: bool, sequential: bool, add) -> dict[str, Expr]:
        for stmt in block.statements:
            if isinstance(stmt, Block):
                env = self._walk_block(stmt, path, env, blocking, sequential, add)
            elif isinstance(stmt, Assign):
                add(sequential, self._stmt, ("stmt", stmt.stmt_id), path)
                if self._expr is not None:
                    for index, sub in self._expr._bins_by_expr.get(id(stmt.expr), []):
                        observed = _substituted(sub, env) if blocking else sub
                        add(sequential, self._expr, (index, 1), path + [observed])
                        add(sequential, self._expr, (index, 0), path + [_not(observed)])
                if blocking:
                    env = dict(env)
                    env[stmt.target] = _substituted(stmt.expr, env)
            elif isinstance(stmt, If):
                cond = _substituted(stmt.cond, env) if blocking else stmt.cond
                add(sequential, self._branch, (stmt.stmt_id, "then"), path + [cond])
                add(sequential, self._branch, (stmt.stmt_id, "else"), path + [_not(cond)])
                if self._cond is not None:
                    for index, atom in self._cond._atoms_by_expr.get(id(stmt.cond), []):
                        observed = _substituted(atom, env) if blocking else atom
                        add(sequential, self._cond, (index, 1), path + [observed])
                        add(sequential, self._cond, (index, 0), path + [_not(observed)])
                then_env = self._walk_block(stmt.then, path + [cond], dict(env),
                                            blocking, sequential, add)
                if stmt.otherwise is not None:
                    else_env = self._walk_block(stmt.otherwise, path + [_not(cond)],
                                                dict(env), blocking, sequential, add)
                else:
                    else_env = dict(env)
                env = _merge(cond, then_env, else_env, env)
            elif isinstance(stmt, Case):
                env = self._walk_case(stmt, path, env, blocking, sequential, add)
        return env

    def _walk_case(self, stmt: Case, path: list[Expr], env: dict[str, Expr],
                   blocking: bool, sequential: bool, add) -> dict[str, Expr]:
        subject = _substituted(stmt.subject, env) if blocking else stmt.subject
        matches = [
            disjoin([BinaryOp("==", subject, Const(label, max(label.bit_length(), 1)))
                     for label in item.labels])
            for item in stmt.items
        ]
        arm_envs: list[dict[str, Expr]] = []
        # Priority semantics: item N executes only when items 0..N-1 missed.
        misses: list[Expr] = []
        for index, item in enumerate(stmt.items):
            item_path = path + misses + [matches[index]]
            add(sequential, self._branch, (stmt.stmt_id, f"item{index}"), item_path)
            arm_envs.append(self._walk_block(item.body, item_path, dict(env),
                                             blocking, sequential, add))
            misses.append(_not(matches[index]))
        default_path = path + misses
        add(sequential, self._branch, (stmt.stmt_id, "default"), default_path)
        if stmt.default is not None:
            result = self._walk_block(stmt.default, default_path, dict(env),
                                      blocking, sequential, add)
        else:
            result = dict(env)
        for index in reversed(range(len(stmt.items))):
            result = _merge(matches[index], arm_envs[index], result, env)
        return result

    # ------------------------------------------------------------------
    # dynamic observation
    # ------------------------------------------------------------------
    def _observe_guards(self, words: Sequence[int], active: int, sequential: bool) -> None:
        if sequential:
            points, flags = self._seq_points, self._seq_flags
        else:
            points, flags = self._comb_points, self._comb_flags
        if not points:
            return
        for (collector, point), word in zip(points, flags(words, active)):
            if word & active:
                collector.covered_points.add(point)

    def _observe_toggles(self, words: Sequence[int], previous: dict[int, int],
                         active: int) -> None:
        for collector, name, bit, slot in self._toggle_bits:
            new = words[slot]
            changed = (previous[slot] ^ new) & active
            if changed:
                if changed & new:
                    collector.covered_points.add((name, bit, "rise"))
                if changed & ~new:
                    collector.covered_points.add((name, bit, "fall"))
            previous[slot] = (previous[slot] & ~active) | (new & active)

    def _observe_fsm(self, words: Sequence[int], active: int, lanes: int,
                     previous: dict[str, list[int | None]]) -> None:
        for fsm in self._fsms:
            for name in fsm.state_signals:
                prior = previous[name]
                values = unpack_lanes([words[slot] for slot in self._fsm_slots[name]], lanes)
                for lane, value in enumerate(values):
                    if not (active >> lane) & 1:
                        continue
                    fsm._hit((name, value))
                    if prior[lane] is not None and prior[lane] != value:
                        fsm.transitions[name].add((prior[lane], value))
                    prior[lane] = value

    # ------------------------------------------------------------------
    # suite replay
    # ------------------------------------------------------------------
    def run_suite(self, sequences: Sequence[Sequence[Mapping[str, int]]]) -> int:
        """Replay every sequence (each from reset, packed into lanes).

        Returns the total number of simulated cycles (sum of sequence
        lengths, matching the scalar runner's accounting).
        """
        sequences = [list(sequence) for sequence in sequences if sequence]
        total = 0
        for start in range(0, len(sequences), self.lanes):
            chunk = sequences[start:start + self.lanes]
            total += self._run_chunk(chunk)
        return total

    def _run_chunk(self, chunk: Sequence[Sequence[Mapping[str, int]]]) -> int:
        lanes = len(chunk)
        simulator = BatchedSimulator(self.module, lanes=lanes, netlist=self.netlist)
        full = simulator.lane_mask
        # Reset valuation: combinational constructs execute while settling.
        words = simulator.sample().raw_words
        self._observe_guards(words, full, sequential=False)
        toggle_previous = {slot: words[slot] for _, _, _, slot in self._toggle_bits}
        fsm_previous: dict[str, list[int | None]] = {
            name: [None] * lanes for name in self._fsm_slots
        }
        if self._stmt is not None and any(chunk):
            for index, _ in enumerate(self.module.assigns):
                self._stmt.covered_points.add(("assign", index))

        depth = max(len(sequence) for sequence in chunk)
        for t in range(depth):
            active = 0
            stacked: dict[str, list[int]] = {}
            for lane, sequence in enumerate(chunk):
                if t >= len(sequence):
                    continue
                active |= 1 << lane
                for name, value in sequence[t].items():
                    if name not in stacked:
                        if name not in self.module.signals:
                            raise SimulationError(f"unknown input '{name}'")
                        stacked[name] = simulator.peek(name)
                    stacked[name][lane] = int(value)
            pre = simulator.step(stacked).raw_words
            self._observe_guards(pre, active, sequential=False)
            self._observe_guards(pre, active, sequential=True)
            self._observe_toggles(pre, toggle_previous, active)
            self._observe_fsm(pre, active, lanes, fsm_previous)
            post = tuple(simulator.sample().raw_words)
            self._observe_guards(post, active, sequential=False)
            self._observe_toggles(post, toggle_previous, active)
        return sum(len(sequence) for sequence in chunk)
