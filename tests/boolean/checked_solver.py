"""A :class:`~repro.boolean.sat.SatSolver` that checks itself.

The solver test battery runs :class:`CheckedSolver` in place of the
production solver.  It overrides three of the solver's own methods and
changes no search decision:

* :meth:`CheckedSolver._propagate` asserts the structural invariants
  (:meth:`CheckedSolver.check_invariants`) at every conflict-free
  propagation fixpoint;
* :meth:`CheckedSolver._attach_learned` records every learned clause, in
  external (DIMACS) literals, in :attr:`CheckedSolver.proof`;
* :meth:`CheckedSolver.solve` appends the empty clause to the proof after
  an assumption-free UNSAT answer, so :meth:`verify_refutation` can replay
  the whole refutation with the independent RUP checker (:mod:`rup`).

The class-wide counters :attr:`CheckedSolver.totals` record how many
fixpoint checks ran and how many refutations verified, so a battery can
assert that its checks were not vacuous: a solver refactor that stops
reaching one of the overridden methods would otherwise switch the checks
off without any test failing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.boolean.sat import SatResult, SatSolver
from rup import check_rup_proof


class CheckedSolver(SatSolver):
    """The CDCL solver with invariant checks and a recorded RUP proof."""

    #: Process-wide counts over every instance: conflict-free fixpoints
    #: whose invariants were checked, and refutations RUP-verified.
    totals = {"fixpoint_checks": 0, "proofs_verified": 0}

    def __init__(self, *args, **kwargs):
        #: Learned clauses (external literal tuples) in derivation order;
        #: ends with ``()`` after an assumption-free UNSAT answer.
        self.proof: list[tuple[int, ...]] = []
        super().__init__(*args, **kwargs)

    def _propagate(self) -> int:
        conflict = super()._propagate()
        if conflict < 0:
            self.check_invariants()
            CheckedSolver.totals["fixpoint_checks"] += 1
        return conflict

    def _attach_learned(self, codes: list[int]) -> int:
        self.proof.append(tuple(-(code >> 1) if code & 1 else code >> 1
                                for code in codes))
        return super()._attach_learned(codes)

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        result = super().solve(assumptions)
        if not result.satisfiable and not assumptions:
            # An assumption-free UNSAT answer claims the empty clause is
            # derivable; record it so the RUP checker can verify the claim.
            self.proof.append(())
        return result

    def verify_refutation(self, clauses: Iterable[Sequence[int]]) -> int:
        """RUP-check :attr:`proof` as a refutation of ``clauses`` (the
        problem this solver was given); returns the proof's step count."""
        steps = check_rup_proof(clauses, self.proof, expect_refutation=True)
        CheckedSolver.totals["proofs_verified"] += 1
        return steps

    def check_invariants(self) -> None:
        """Assert the solver's structural invariants.

        Called after every conflict-free propagation fixpoint (see
        :meth:`_propagate`); callable directly by tests.  Covers:

        * **watch integrity** — every live clause of size >= 2 is watched
          on exactly its first two arena literals, each watcher entry
          references one of those two slots, and each blocker is a
          literal of its clause;
        * **blocker soundness / two-watch invariant** — at a conflict-free
          fixpoint a watched literal may only be false if the clause is
          satisfied (its blocker or the other watch is true); equivalently
          every unresolved clause watches two non-false literals;
        * **arena header consistency** — headers are contiguous, sorted
          and exactly cover the arena (clauses are only ever appended);
        * **trail/decision-level monotonicity** — trail literals are all
          true, levels never decrease along the trail, and level
          boundaries match ``_trail_limits``;
        * **heap membership** — every unassigned registered variable, and
          every variable whose ``_in_heap`` flag is set, has a heap entry
          keyed on its current activity.

        A solver whose database is unsatisfiable (``_has_empty``) is
        retired — a root conflict legitimately stops propagation short of
        a fixpoint, every later solve short-circuits, and no watch state
        is ever read again — so only the arena structure is checked.
        """
        self._check_arena()
        if self._has_empty:
            return
        self._check_watches()
        self._check_trail()
        self._check_heap()

    def _check_arena(self) -> None:
        offsets = self._c_offset
        sizes = self._c_size
        expected = 0
        for cid in range(len(offsets)):
            assert offsets[cid] == expected, (
                f"arena hole before clause {cid}: offset {offsets[cid]}, "
                f"expected {expected}")
            assert sizes[cid] >= 2, f"arena clause {cid} has size {sizes[cid]}"
            expected += sizes[cid]
        assert expected == len(self._arena), (
            f"arena headers cover {expected} literals, arena has "
            f"{len(self._arena)}")

    def _check_watches(self) -> None:
        arena = self._arena
        offsets = self._c_offset
        sizes = self._c_size
        values = self._values
        watched: dict[int, list[int]] = {}
        for code, watchlist in enumerate(self._watches):
            assert len(watchlist) % 2 == 0
            for index in range(0, len(watchlist), 2):
                cid = watchlist[index]
                blocker = watchlist[index + 1]
                assert sizes[cid] >= 3, (
                    f"binary clause {cid} found in a large watcher list")
                offset = offsets[cid]
                clause = arena[offset:offset + sizes[cid]]
                assert code in (clause[0], clause[1]), (
                    f"clause {cid} watched on literal {code} which is not in "
                    f"its first two slots {clause[0]}, {clause[1]}")
                assert blocker in clause, (
                    f"watcher of clause {cid} caches blocker {blocker} "
                    f"not in the clause")
                # Blocker soundness: a false watched literal must be
                # excused by a true blocker (the skip that kept it).
                assert values[code] >= 0 or values[blocker] > 0, (
                    f"clause {cid}: watched literal {code} is false and its "
                    f"blocker {blocker} is not true")
                watched.setdefault(cid, []).append(code)
        for code, binlist in enumerate(self._bin_watches):
            assert len(binlist) % 2 == 0
            for index in range(0, len(binlist), 2):
                other = binlist[index]
                cid = binlist[index + 1]
                assert sizes[cid] == 2, (
                    f"clause {cid} (size {sizes[cid]}) found in a binary "
                    f"watcher list")
                offset = offsets[cid]
                clause = arena[offset:offset + 2]
                assert sorted((code, other)) == sorted(clause), (
                    f"binary watch entry ({code}, {other}) does not match "
                    f"clause {cid} literals {tuple(clause)}")
                watched.setdefault(cid, []).append(code)
        for cid in range(len(offsets)):
            offset = offsets[cid]
            clause = arena[offset:offset + sizes[cid]]
            watchers = sorted(watched.get(cid, []))
            assert watchers == sorted((clause[0], clause[1])), (
                f"clause {cid} watchers {watchers} != first two literals "
                f"{sorted((clause[0], clause[1]))}")
            # Two-watch invariant: an unresolved clause watches two
            # non-false literals.
            if not any(values[code] > 0 for code in clause):
                assert values[clause[0]] == 0 and values[clause[1]] == 0, (
                    f"unresolved clause {cid} watches a false literal")

    def _check_trail(self) -> None:
        values = self._values
        levels = self._var_level
        limits = self._trail_limits
        previous_level = 0
        seen_vars: set[int] = set()
        for position, code in enumerate(self._trail):
            variable = code >> 1
            assert values[code] == 1, (
                f"trail literal {code} at position {position} is not true")
            assert variable not in seen_vars, (
                f"variable {variable} appears twice on the trail")
            seen_vars.add(variable)
            level = levels[variable]
            assert level >= previous_level, (
                f"trail level decreased: {previous_level} -> {level} at "
                f"position {position}")
            previous_level = level
        for index, limit in enumerate(limits):
            assert 0 <= limit <= len(self._trail)
            if index:
                assert limit >= limits[index - 1], "trail limits not monotonic"
            if limit < len(self._trail):
                decision_level = levels[self._trail[limit] >> 1]
                assert decision_level == index + 1, (
                    f"decision at trail position {limit} has level "
                    f"{decision_level}, expected {index + 1}")

    def _check_heap(self) -> None:
        activity = self._activity
        current = {variable for negated, variable in self._order
                   if -negated == activity[variable]}
        seen = self._var_seen
        for variable in range(1, len(seen)):
            if seen[variable] and self._values[variable << 1] == 0:
                assert variable in current, (
                    f"unassigned variable {variable} has no heap entry keyed "
                    f"on its activity {activity[variable]}")
            if self._in_heap[variable]:
                assert variable in current, (
                    f"variable {variable} is flagged in the heap but has no "
                    f"entry keyed on its activity {activity[variable]}")
