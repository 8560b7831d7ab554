"""Scan-order decision strategies: the test oracle for the activity heap.

The production strategies (``repro.sat.heuristics``) pick decisions
from an activity heap.  These classes are the pre-heap
machinery — a periodically re-sorted literal list scanned with a
moving pointer — kept here as a reference: each heap strategy must
reproduce its scan twin's total order, so the two run byte-identical
searches (``tests/sat/test_activity_heap.py`` and the differential
fuzzer in ``tests/properties/test_solver_differential.py`` check it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro.sat.heuristics import DEFAULT_UPDATE_PERIOD, DecisionStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sat.solver import CdclSolver


class ChaffScores:
    """The per-literal ``cha_score`` array with Chaff's decay rule."""

    def __init__(self, num_vars: int, initial_counts: Sequence[int]) -> None:
        if len(initial_counts) != 2 * num_vars:
            raise ValueError("initial_counts must have one entry per literal")
        self.num_vars = num_vars
        self.score = [float(c) for c in initial_counts]
        self.new_counts = [0] * (2 * num_vars)

    def on_learned_clause(self, literals: Iterable[int]) -> None:
        """Count literals of a freshly learned conflict clause."""
        new_counts = self.new_counts
        for lit in literals:
            new_counts[lit] += 1

    def periodic_update(self) -> None:
        """Apply ``cha_score = cha_score / 2 + new_lit_counts``; reset counts."""
        self.score = [s * 0.5 + c for s, c in zip(self.score, self.new_counts)]
        self.new_counts = [0] * len(self.new_counts)


class _ScanOrderStrategy(DecisionStrategy):
    """Reference mechanics: a sorted literal order + scan pointer + lazy
    rebuilds driven by precomputed key arrays.  Order rebuilds apply each
    key array as a stable descending ``list.sort`` pass (least
    significant first), so ties resolve toward the lower literal index —
    the exact total order the heap strategies reproduce."""

    def __init__(self, update_period: int = DEFAULT_UPDATE_PERIOD) -> None:
        super().__init__()
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self._update_period = update_period
        self._scores: Optional[ChaffScores] = None
        self._order: list = []
        self._order_dirty = True
        self._ptr = 0
        self._conflicts_since_update = 0

    def attach(self, solver: "CdclSolver") -> None:
        super().attach(solver)
        self._scores = ChaffScores(solver.num_vars, solver.original_literal_counts())
        self._order_dirty = True

    def _sort_passes(self) -> list:
        """Per-literal key arrays, least-significant first; each is
        applied as a stable descending sort.  Subclasses override."""
        return [self._scores.score]

    def _invalidate_order(self) -> None:
        self._order_dirty = True

    def _rebuild_order(self) -> None:
        order = list(range(2 * self._scores.num_vars))
        for keys in self._sort_passes():
            order.sort(key=keys.__getitem__, reverse=True)
        self._order = order
        self._order_dirty = False
        self._ptr = 0

    def on_conflict(self, learned_literals: Sequence[int]) -> None:
        self._scores.on_learned_clause(learned_literals)
        self._conflicts_since_update += 1
        if self._conflicts_since_update >= self._update_period:
            self._conflicts_since_update = 0
            self._scores.periodic_update()
            self._order_dirty = True

    def on_backtrack(self) -> None:
        self._ptr = 0

    def decide(self) -> int:
        if self._order_dirty:
            self._rebuild_order()
        truth = self._solver.lit_truth
        order = self._order
        ptr = self._ptr
        n = len(order)
        while ptr < n:
            lit = order[ptr]
            if truth[lit] == 2:
                self._ptr = ptr
                return lit
            ptr += 1
        self._ptr = ptr
        return -1


class ScanOrderVsidsStrategy(_ScanOrderStrategy):
    """Seed (pre-heap) VSIDS: the differential-fuzzing reference."""

    name = "vsids-scan"


class ScanOrderRankedStrategy(_ScanOrderStrategy):
    """Seed (pre-heap) ranked ordering: the differential-fuzzing
    reference for :class:`RankedStrategy` (both modes)."""

    name = "ranked-scan"

    def __init__(
        self,
        var_rank: Mapping[int, float],
        dynamic: bool = False,
        switch_divisor: int = 64,
        update_period: int = DEFAULT_UPDATE_PERIOD,
    ) -> None:
        super().__init__(update_period=update_period)
        if switch_divisor <= 0:
            raise ValueError("switch_divisor must be positive")
        self._var_rank = dict(var_rank)
        self._rank_keys: list = []
        self._dynamic = dynamic
        self._switch_divisor = switch_divisor
        self._switched = False
        self._switch_threshold = 0
        self.name = "ranked-dynamic-scan" if dynamic else "ranked-static-scan"

    @property
    def switched(self) -> bool:
        return self._switched

    def attach(self, solver: "CdclSolver") -> None:
        self._switch_threshold = solver.num_original_literals() // self._switch_divisor
        rank = self._var_rank
        self._rank_keys = [
            rank.get(lit >> 1, 0.0) for lit in range(2 * solver.num_vars)
        ]
        super().attach(solver)

    def _sort_passes(self) -> list:
        if self._switched:
            return [self._scores.score]
        # cha_score pass first, then the stable bmc_score pass on top:
        # net order is (bmc_score desc, cha_score desc, literal asc).
        return [self._scores.score, self._rank_keys]

    def decide(self) -> int:
        if (
            self._dynamic
            and not self._switched
            and self._solver.stats.decisions > self._switch_threshold
        ):
            self._switched = True
            self._invalidate_order()
        return super().decide()
