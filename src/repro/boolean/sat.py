"""A CDCL SAT solver on a flat clause arena with blocker-literal watches.

This is the hot core under the formal queries in the closure loop that
are too wide for a truth table: each such BMC violation query, each such
induction check and each step of the canonical counterexample's prefix
walk (the witness bits before its truth-table tail) bottoms out in
:meth:`SatSolver.solve`.  The solver
keeps the public surface and query protocol of the earlier object-graph
implementation but lays its data out the way hardware solvers do:

* **Flat clause arena.**  All clause literals live in one contiguous
  flat buffer; a clause is an integer id indexing two parallel header
  arrays (offset, size).  There are no per-clause python objects on the
  hot path — propagation walks raw integers.  (The buffers are plain lists rather than ``array('i')``:
  CPython boxes a fresh int on every ``array`` access, which measures
  ~1.8x slower than list indexing on this loop.)
* **Blocker-literal watch lists.**  Watch lists are flat interleaved
  ``[clause_id, blocker, clause_id, blocker, ...]`` lists indexed by
  literal.  The blocker caches one literal of the clause; when it is
  already true the whole clause dereference (header load + arena scan)
  is skipped.  On BMC instances most watch visits end in a blocker hit.
* **Literal codes.**  Internally a DIMACS literal ``±v`` is the code
  ``v << 1 | (sign bit)`` so negation is ``code ^ 1`` and assignments are
  plain list indexing instead of dictionary lookups.
* **Append-only arena.**  Clauses are never deleted, so a clause id is
  stable and the arena has no holes.  A solver lives as long as one
  checker's slice context and sees only the queries too wide for a truth
  table, so there is no learned-clause reduction and no restart
  schedule: over every bundled design at windows 1-4 no solver learned
  more than 858 clauses, and a Luby schedule restarted 4 times in
  113,058 solves.

The CDCL machinery: two-watched-literal propagation, first-UIP learning
with non-chronological backjumping, VSIDS from a lazy heap with
per-variable membership flags, phase saving, assumptions (the
incremental layer assumes each query's goal literals directly), and
mid-life ``add_clause``.  One instance outlives many :meth:`solve`
calls; learned clauses, activities and saved phases carry over between
queries.

Instrumentation: every :class:`SatResult` carries a ``stats`` dict with
the per-solve propagation/decision/conflict counters, the
blocker hit rate and ``assigned`` (trail literals above the root when
the solve ended: the whole non-root assignment a SAT answer decides),
and :meth:`SatSolver.stats_total` exposes the process-lifetime totals
(surfaced as ``sat_*`` counters in ``VerifierStatistics.reuse`` by the
formal layer).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.boolean.cnf import Clause, CnfBuilder, canonical_clause
from repro.boolean.expr import BoolExpr


class SatBudgetExceeded(Exception):
    """Raised by :meth:`SatSolver.solve` when the interrupt callback fires.

    The solver unwinds the trail to the root level before raising, so the
    instance stays fully usable: clauses, root assignments, activities and
    saved phases survive, and the next :meth:`SatSolver.solve` behaves as
    if the interrupted query never ran.  The formal layer uses this for
    wall-clock per-query deadlines (``--formal-timeout``).
    """


@dataclass
class SatResult:
    """Outcome of a SAT query.

    ``conflicts``/``decisions``/``propagations`` are the solver's
    cumulative lifetime counters (historical surface); ``stats`` holds
    the counters of *this* solve only, including the blocker hit rate.
    """

    satisfiable: bool
    model: dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfiable


class SatSolver:
    """CDCL solver over integer literals (DIMACS convention)."""

    def __init__(self, clauses: Iterable[Clause] = (), variable_count: int = 0):
        # --- clause arena -------------------------------------------------
        #: All clause literals (internal codes), one flat contiguous
        #: buffer.  Plain lists, not ``array``: CPython boxes a fresh int
        #: on every ``array.__getitem__``, which measures ~1.8x slower
        #: than list indexing on the propagation loop's access pattern.
        self._arena: list[int] = []
        #: Parallel headers indexed by clause id.
        self._c_offset: list[int] = []
        self._c_size: list[int] = []
        #: Learned unit clauses (internal codes) awaiting root-level
        #: assignment at the next solve; problem units assign immediately
        #: at intake.  Units are never stored in the arena.
        self._units: list[int] = []
        self._has_empty = False
        self._problem_clauses = 0
        self._learned_live = 0
        # --- per-literal state (indexed by code = var << 1 | sign) --------
        #: 1 = true, -1 = false, 0 = unassigned (small ints are cached,
        #: so a list costs no allocation and indexes faster than a
        #: ``bytearray``/``array('b')``).
        self._values: list[int] = [0, 0]
        #: Interleaved [clause_id, blocker, ...] watcher lists for clauses
        #: of size >= 3.
        self._watches: list[list[int]] = [[], []]
        #: Interleaved [other_literal, clause_id, ...] watcher lists for
        #: binary clauses.  A binary watch entry is the whole clause, so
        #: these lists are scanned without blockers, never move a watch
        #: and never need compaction.
        self._bin_watches: list[list[int]] = [[], []]
        # --- per-variable state -------------------------------------------
        self._var_level: list[int] = [0]
        self._var_reason: list[int] = [-1]
        self._activity: list[float] = [0.0]
        #: 1 while the heap holds an entry keyed on the variable's current
        #: activity (MiniSat's heap membership), so a re-push is skipped.
        self._in_heap = bytearray(1)
        self._var_seen = bytearray(1)
        self._registered = 0
        #: External variable -> last polarity it held (phase saving).
        self._saved_phase: dict[int, bool] = {}
        # --- trail ---------------------------------------------------------
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._queue_head = 0
        #: Lazy VSIDS heap of (-activity, variable); stale entries are
        #: skipped on pop (entry activity no longer matches, or assigned).
        #: Every unassigned registered variable has exactly one entry
        #: keyed on its current activity (``_in_heap``).
        self._order: list[tuple[float, int]] = []
        self._var_increment = 1.0
        # --- instrumentation (cumulative over the solver's lifetime) ------
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.blocker_hits = 0
        self.watch_checks = 0
        self.solves = 0
        #: Trail literals above the root when each solve ended, summed.
        self.assigned = 0
        #: Optional interrupt callback polled at every conflict and every
        #: 128th decision; ``None`` keeps the hot loop free of the check.
        self._interrupt = None
        # Register declared variables before loading clauses so intake's
        # per-literal registration check is a cheap bytearray hit.
        for variable in range(1, variable_count + 1):
            self._register_variable(variable)
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # introspection used by the incremental formal layer
    # ------------------------------------------------------------------
    @property
    def clause_count(self) -> int:
        """Problem clauses currently in the database (excludes learned)."""
        return self._problem_clauses

    @property
    def learned_count(self) -> int:
        """Learned (non-unit) clauses currently retained."""
        return self._learned_live

    @property
    def variable_count(self) -> int:
        return self._registered

    def stats_total(self) -> dict[str, int]:
        """Cumulative solver counters, for the formal layer's telemetry."""
        return {
            "solves": self.solves,
            "propagations": self.propagations,
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "blocker_hits": self.blocker_hits,
            "watch_checks": self.watch_checks,
            "assigned": self.assigned,
            "arena_literals": len(self._arena),
        }

    def set_interrupt(self, callback) -> None:
        """Install (or clear, with ``None``) the solve interrupt hook.

        ``callback`` is a zero-argument callable polled at every conflict
        and every 128th decision; when it returns true the in-flight
        :meth:`solve` unwinds to the root level and raises
        :class:`SatBudgetExceeded`.  The poll sites are off the
        propagation inner loop, so an installed-but-quiet callback costs
        one attribute load per conflict/decision batch and an uninstalled
        one costs nothing.
        """
        self._interrupt = callback

    # ------------------------------------------------------------------
    # clause management
    # ------------------------------------------------------------------
    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a problem clause; legal at construction or between solves.

        Clauses are canonicalised once at this arena boundary
        (:func:`repro.boolean.cnf.canonical_clause`): duplicate literals
        collapse, tautologies are dropped, the empty clause marks the
        database unsatisfiable.

        Root-level (level-0) assignments persist across solves, so the
        new clause is evaluated against them here: units assign
        immediately, a clause with a single non-false literal implies it,
        and an all-false clause marks the database unsatisfiable.  The
        propagation queue head is left behind the new assignments, so the
        next solve picks up their consequences before anything else.
        """
        unique = canonical_clause(literals)
        if unique is None:
            return  # tautology
        if not unique:
            self._has_empty = True
            return
        seen = self._var_seen
        limit = len(seen)
        codes = []
        for literal in unique:
            if literal > 0:
                variable = literal
                code = literal << 1
            else:
                variable = -literal
                code = (variable << 1) | 1
            if variable >= limit or not seen[variable]:
                self._register_variable(variable)
                seen = self._var_seen
                limit = len(seen)
            codes.append(code)
        self._problem_clauses += 1
        values = self._values
        if len(codes) == 1:
            value = values[codes[0]]
            if value < 0:
                self._has_empty = True
            elif value == 0:
                self._assign(codes[0], -1)
            return
        # Fast path: both watch candidates non-false under the root-level
        # assignment (always true on a fresh solver).
        if values[codes[0]] >= 0 and values[codes[1]] >= 0:
            self._push_clause(codes)
            return
        # Reorder so two non-false literals sit in the watch slots.
        front = 0
        for index, code in enumerate(codes):
            if values[code] >= 0:
                codes[front], codes[index] = code, codes[front]
                front += 1
                if front == 2:
                    break
        if front == 0:
            self._has_empty = True  # conflicts with root-level facts
            return
        cid = self._push_clause(codes)
        if front == 1:
            # All but one literal false at root level: the clause implies
            # it there.  (If it is already true the clause is satisfied.)
            if values[codes[0]] == 0:
                self._assign(codes[0], cid)

    def _push_clause(self, codes: list[int]) -> int:
        """Append a clause to the arena and watch its first two literals.

        Binary clauses go to the dedicated binary watcher lists: the watch
        entry ``(other_literal, clause_id)`` already carries the whole
        clause, so propagation resolves them — satisfied, unit or conflict
        — without ever touching the arena.
        """
        cid = len(self._c_offset)
        arena = self._arena
        self._c_offset.append(len(arena))
        size = len(codes)
        self._c_size.append(size)
        arena.extend(codes)
        first, second = codes[0], codes[1]
        if size == 2:
            watch = self._bin_watches[first]
            watch.append(second)
            watch.append(cid)
            watch = self._bin_watches[second]
            watch.append(first)
            watch.append(cid)
            return cid
        watch = self._watches[first]
        watch.append(cid)
        watch.append(second)
        watch = self._watches[second]
        watch.append(cid)
        watch.append(first)
        return cid

    def _register_variable(self, variable: int) -> None:
        self._ensure_var(variable)
        if not self._var_seen[variable]:
            self._var_seen[variable] = 1
            self._registered += 1
            if not self._in_heap[variable]:
                self._in_heap[variable] = 1
                heapq.heappush(self._order, (-self._activity[variable], variable))

    def _ensure_var(self, variable: int) -> None:
        """Grow the per-variable/per-literal arrays to cover ``variable``."""
        needed = variable + 1 - len(self._var_level)
        if needed <= 0:
            return
        self._var_level.extend([0] * needed)
        self._var_reason.extend([-1] * needed)
        self._activity.extend([0.0] * needed)
        self._in_heap.extend(bytes(needed))
        self._var_seen.extend(bytes(needed))
        self._values.extend([0] * (2 * needed))
        self._watches.extend([] for _ in range(2 * needed))
        self._bin_watches.extend([] for _ in range(2 * needed))

    # ------------------------------------------------------------------
    # assignment helpers (cold paths; _propagate inlines all of this)
    # ------------------------------------------------------------------
    def _assign(self, code: int, reason: int) -> None:
        values = self._values
        values[code] = 1
        values[code ^ 1] = -1
        variable = code >> 1
        self._var_level[variable] = len(self._trail_limits)
        self._var_reason[variable] = reason
        self._trail.append(code)

    def _unassign_to(self, level: int) -> None:
        target = self._trail_limits[level]
        trail = self._trail
        values = self._values
        order = self._order
        activity = self._activity
        in_heap = self._in_heap
        phases = self._saved_phase
        while len(trail) > target:
            code = trail.pop()
            variable = code >> 1
            phases[variable] = not (code & 1)
            values[code] = 0
            values[code ^ 1] = 0
            if not in_heap[variable]:
                in_heap[variable] = 1
                heapq.heappush(order, (-activity[variable], variable))
        del self._trail_limits[level:]

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> int:
        """Unit propagation to fixpoint; returns a conflict clause id or -1.

        Two passes per trail literal.  The binary watcher lists first:
        each entry is the whole clause, so a value test resolves it with
        no arena access and the list is never rewritten.  Then the large
        (size >= 3) lists, where every entry is screened through its
        blocker literal — a true blocker keeps the watch without touching
        the clause header or the arena at all.  Large lists are compacted
        in place with a read/write cursor pair, but writes only start
        after the first removal (``dirty``) — an all-hits visit leaves
        the list untouched.
        """
        trail = self._trail
        values = self._values
        watches = self._watches
        bin_watches = self._bin_watches
        arena = self._arena
        offsets = self._c_offset
        sizes = self._c_size
        var_level = self._var_level
        var_reason = self._var_reason
        level = len(self._trail_limits)
        head = self._queue_head
        conflict = -1
        propagated = 0
        hits = 0
        checks = 0
        while head < len(trail):
            false_literal = trail[head] ^ 1
            head += 1
            binlist = bin_watches[false_literal]
            checks += len(binlist) >> 1
            for index in range(0, len(binlist), 2):
                other = binlist[index]
                value = values[other]
                if value > 0:
                    hits += 1
                    continue
                if value < 0:
                    conflict = binlist[index + 1]
                    break
                values[other] = 1
                values[other ^ 1] = -1
                variable = other >> 1
                var_level[variable] = level
                var_reason[variable] = binlist[index + 1]
                trail.append(other)
                propagated += 1
            if conflict >= 0:
                head = len(trail)
                break
            watchlist = watches[false_literal]
            total = len(watchlist)
            read = 0
            write = 0
            dirty = False
            while read < total:
                cid = watchlist[read]
                blocker = watchlist[read + 1]
                read += 2
                if values[blocker] > 0:
                    hits += 1
                    if dirty:
                        watchlist[write] = cid
                        watchlist[write + 1] = blocker
                    write += 2
                    continue
                offset = offsets[cid]
                # Ensure the false literal sits in slot 1.
                first = arena[offset]
                if first == false_literal:
                    first = arena[offset + 1]
                    arena[offset] = first
                    arena[offset + 1] = false_literal
                first_value = values[first]
                if first_value > 0:
                    # Keep the watch, upgrading the blocker to the
                    # satisfying watch literal.
                    if dirty:
                        watchlist[write] = cid
                    watchlist[write + 1] = first
                    write += 2
                    continue
                # Look for a replacement watch.
                end = offset + sizes[cid]
                slot = offset + 2
                moved = False
                while slot < end:
                    candidate = arena[slot]
                    if values[candidate] >= 0:
                        arena[offset + 1] = candidate
                        arena[slot] = false_literal
                        other = watches[candidate]
                        other.append(cid)
                        other.append(first)
                        moved = True
                        break
                    slot += 1
                if moved:
                    dirty = True
                    continue
                if dirty:
                    watchlist[write] = cid
                watchlist[write + 1] = first
                write += 2
                if first_value < 0:
                    conflict = cid
                    break
                # Unit: assign `first` with this clause as reason.
                values[first] = 1
                values[first ^ 1] = -1
                variable = first >> 1
                var_level[variable] = level
                var_reason[variable] = cid
                trail.append(first)
                propagated += 1
            checks += read >> 1
            if conflict >= 0:
                if dirty:
                    while read < total:  # keep the unvisited tail
                        watchlist[write] = watchlist[read]
                        write += 1
                        read += 1
                    del watchlist[write:]
                head = len(trail)
                break
            if dirty:
                del watchlist[write:]
        self._queue_head = head
        self.propagations += propagated
        self.blocker_hits += hits
        self.watch_checks += checks
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        arena = self._arena
        offsets = self._c_offset
        sizes = self._c_size
        levels = self._var_level
        reasons = self._var_reason
        trail = self._trail
        current_level = len(self._trail_limits)
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        resolved_variable = -1
        cid = conflict
        trail_index = len(trail) - 1

        while True:
            offset = offsets[cid]
            for slot in range(offset, offset + sizes[cid]):
                code = arena[slot]
                variable = code >> 1
                if variable == resolved_variable:
                    continue
                if variable in seen:
                    continue
                if levels[variable] == 0:
                    continue
                seen.add(variable)
                self._bump_variable(variable)
                if levels[variable] == current_level:
                    counter += 1
                else:
                    learned.append(code)
            # Find the next literal on the trail to resolve on.
            while trail_index >= 0 and (trail[trail_index] >> 1) not in seen:
                trail_index -= 1
            if trail_index < 0:
                break
            code = trail[trail_index]
            variable = code >> 1
            seen.discard(variable)
            counter -= 1
            trail_index -= 1
            if counter <= 0:
                learned.insert(0, code ^ 1)
                break
            cid = reasons[variable]
            if cid < 0:
                break
            resolved_variable = variable

        if not learned:
            return [], -1

        if len(learned) == 1:
            return learned, 0
        # Keep the asserting literal first and a literal from the backjump
        # level second so the clause watches stay well positioned.
        rest = sorted(learned[1:], key=lambda code: -levels[code >> 1])
        learned = [learned[0]] + rest
        backjump_level = levels[learned[1] >> 1]
        return learned, backjump_level

    def _bump_variable(self, variable: int) -> None:
        activity = self._activity[variable] + self._var_increment
        self._activity[variable] = activity
        if activity > 1e100:
            self._activity = [value * 1e-100 for value in self._activity]
            self._var_increment *= 1e-100
            self._rebuild_heap()  # every entry's key is stale now
        elif self._values[variable << 1] == 0:
            self._in_heap[variable] = 1
            heapq.heappush(self._order, (-activity, variable))
        else:
            # Any entry left is keyed on the old activity; the unassign
            # that frees the variable pushes the current one.
            self._in_heap[variable] = 0

    def _rebuild_heap(self) -> None:
        """One entry per unassigned registered variable, current keys."""
        activity = self._activity
        values = self._values
        seen = self._var_seen
        in_heap = bytearray(len(seen))
        entries = []
        for variable in range(1, len(seen)):
            if seen[variable] and values[variable << 1] == 0:
                in_heap[variable] = 1
                entries.append((-activity[variable], variable))
        heapq.heapify(entries)
        self._order = entries
        self._in_heap = in_heap

    def _attach_learned(self, codes: list[int]) -> int:
        """Store a learned clause; returns its id (-1 for learned units)."""
        if len(codes) == 1:
            # A learned unit is permanent level-0 knowledge: index it so
            # every later solve assigns it up front.
            self._units.append(codes[0])
            return -1
        cid = self._push_clause(codes)
        self._learned_live += 1
        return cid

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _pick_branch_variable(self) -> int | None:
        order = self._order
        activity = self._activity
        values = self._values
        in_heap = self._in_heap
        while order:
            negated, variable = heapq.heappop(order)
            if -negated != activity[variable]:
                continue  # stale entry (activity bumped since)
            in_heap[variable] = 0
            if values[variable << 1] != 0:
                continue
            return variable
        # Every unassigned registered variable has an entry, so an
        # exhausted heap means a total assignment.
        return None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Solve the current clause database under optional assumptions.

        The solver always returns with the trail unwound to the root
        level, so clauses can be added and :meth:`solve` called again.
        Root-level (level-0) assignments are formula consequences and
        **persist across calls** — a batch of assumption solves against a
        stable database re-propagates nothing at the root — as do learned
        clauses, activities and saved phases.
        """
        self.solves += 1
        base = (self.propagations, self.decisions, self.conflicts,
                self.blocker_hits, self.watch_checks)
        if self._has_empty:
            return self._finish(False, base)
        values = self._values
        # Assert units learned by earlier solves at the root level.
        if self._units:
            for code in self._units:
                value = values[code]
                if value < 0:
                    self._has_empty = True
                    return self._finish(False, base)
                if value == 0:
                    self._assign(code, -1)
            del self._units[:]
        # Propagate root assignments made since the last solve (clause
        # intake, learned units); a root conflict is permanent.
        conflict = self._propagate()
        if conflict >= 0:
            self._has_empty = True
            return self._finish(False, base)

        for literal in assumptions:
            if literal == 0:
                raise ValueError("literal 0 is not allowed")
            variable = abs(literal)
            self._ensure_var(variable)
            code = (literal << 1) if literal > 0 else (variable << 1) | 1
            value = values[code]
            if value < 0:
                return self._finish(False, base)
            if value == 0:
                self._trail_limits.append(len(self._trail))
                self._assign(code, -1)
                conflict = self._propagate()
                if conflict >= 0:
                    return self._finish(False, base)

        assumption_levels = len(self._trail_limits)
        interrupt = self._interrupt

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.conflicts += 1
                if len(self._trail_limits) <= assumption_levels:
                    # With no assumption levels this is a root conflict:
                    # the database itself is unsatisfiable, permanently.
                    # (Propagation stopped mid-conflict, so the root state
                    # is not a fixpoint; latching _has_empty retires it.)
                    if assumption_levels == 0:
                        self._has_empty = True
                    return self._finish(False, base)
                learned, backjump_level = self._analyze(conflict)
                if not learned or backjump_level < 0:
                    if assumption_levels == 0:
                        self._has_empty = True
                    return self._finish(False, base)
                backjump_level = max(backjump_level, assumption_levels)
                self._unassign_to(backjump_level)
                self._queue_head = len(self._trail)
                learned_cid = self._attach_learned(learned)
                asserting = learned[0]
                value = values[asserting]
                if value == 0:
                    self._assign(asserting, learned_cid)
                elif value < 0:
                    if assumption_levels == 0:
                        self._has_empty = True
                    return self._finish(False, base)
                self._var_increment /= 0.95  # VSIDS decay
                if interrupt is not None and interrupt():
                    self._abort()
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                model = {code >> 1: not (code & 1) for code in self._trail}
                return self._finish(True, base, model)
            self.decisions += 1
            if (interrupt is not None and (self.decisions & 127) == 0
                    and interrupt()):
                self._abort()
            self._trail_limits.append(len(self._trail))
            # Phase saving: re-try the polarity the variable last held;
            # first-time decisions default to False, which tends to work
            # well for BMC instances dominated by control logic.
            if self._saved_phase.get(variable, False):
                self._assign(variable << 1, -1)
            else:
                self._assign((variable << 1) | 1, -1)

    def _abort(self) -> None:
        """Unwind to the root level and raise :class:`SatBudgetExceeded`."""
        self._reset()
        raise SatBudgetExceeded(
            f"solve interrupted after {self.conflicts} lifetime conflicts")

    def _finish(self, satisfiable: bool, base: tuple[int, ...],
                model: dict[int, bool] | None = None) -> SatResult:
        limits = self._trail_limits
        assigned = len(self._trail) - limits[0] if limits else 0
        self.assigned += assigned
        self._reset()
        propagations = self.propagations - base[0]
        checks = self.watch_checks - base[4]
        hits = self.blocker_hits - base[3]
        stats = {
            "propagations": propagations,
            "decisions": self.decisions - base[1],
            "conflicts": self.conflicts - base[2],
            "blocker_hits": hits,
            "watch_checks": checks,
            "blocker_hit_rate": (hits / checks) if checks else 0.0,
            "assigned": assigned,
            "clauses": self._problem_clauses,
            "learned": self._learned_live,
            "arena_literals": len(self._arena),
        }
        return SatResult(satisfiable, model=model or {}, conflicts=self.conflicts,
                         decisions=self.decisions, propagations=self.propagations,
                         stats=stats)

    def _reset(self) -> None:
        # Only the assumption/decision levels unwind; root-level
        # assignments are formula consequences and persist, with the
        # queue head parked past the fully propagated root prefix.
        # Clause intake appends any new root assignments *behind* the
        # head, so the next solve propagates exactly the new material.
        if self._trail_limits:
            self._unassign_to(0)
        self._queue_head = len(self._trail)


def solve_clauses(clauses: Iterable[Clause], variable_count: int = 0,
                  assumptions: Sequence[int] = ()) -> SatResult:
    """One-shot convenience wrapper over :class:`SatSolver`."""
    solver = SatSolver(clauses, variable_count)
    return solver.solve(assumptions)


def solve_expr(expr: BoolExpr) -> tuple[SatResult, dict[str, bool]]:
    """Check satisfiability of a Boolean expression.

    Returns the raw :class:`SatResult` plus the named-variable model
    (empty when unsatisfiable).
    """
    builder = CnfBuilder()
    builder.assert_expr(expr)
    result = solve_clauses(builder.clauses, builder.variable_count)
    if not result.satisfiable:
        return result, {}
    return result, builder.decode_model(result.model)
