"""Property tests for the variable activity heap.

Two families:

* structural — after arbitrary push/reinsert/increase/update/refresh/
  set_keys/compaction sequences, every ``pop`` returns the brute-force
  maximum over the current members by ``(rank, score, -lit)``, the
  lazy-deletion layout stays consistent, and the raw entry array stays
  within the compaction bound;
* semantic — the decide order equals the stable-sorted scan order under
  each strategy's tie-break keys, including equal-activity ties.
"""

import random

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig, VariableActivityHeap
from repro.sat.activity_heap import _SLACK
from repro.sat.heuristics import BerkMinStrategy, RankedStrategy, VsidsStrategy
from tests.conftest import random_formula
from tests.sat.scan_order import ScanOrderRankedStrategy, ScanOrderVsidsStrategy


def best_key(score, rank, var):
    """Oracle key of ``var``: its better polarity under
    ``(rank, score, -lit)``; ``rank=None`` ranks every variable 0."""
    r = 0.0 if rank is None else rank[var]
    a, b = 2 * var, 2 * var + 1
    return max((r, score[a], -a), (r, score[b], -b))


def oracle_pop(score, rank, members):
    """The literal a correct ``pop`` returns: the maximum member's
    better polarity."""
    var = max(members, key=lambda v: best_key(score, rank, v))
    return -best_key(score, rank, var)[2]


def truth_for(members, num_vars):
    """A ``lit_truth`` array whose unassigned variables are ``members``."""
    truth = bytearray(2 * num_vars)
    for var in members:
        truth[2 * var] = truth[2 * var + 1] = 2
    return truth


def within_bound(heap):
    return len(heap._heap) <= 2 * len(heap) + _SLACK


class TestHeapInvariant:
    def test_invariant_under_random_operation_sequences(self):
        """Every pop equals the brute-force oracle, and the lazy layout
        stays consistent, under random operation sequences."""
        rng = random.Random(20040607)
        for trial in range(150):
            n = rng.randint(1, 60)
            score = [float(rng.randint(0, 6)) for _ in range(2 * n)]
            rank = (
                [float(rng.randint(0, 3)) for _ in range(n)]
                if rng.random() < 0.5 else None
            )
            heap = VariableActivityHeap(score, rank)
            members = {v for v in range(n) if rng.random() < 0.75}
            heap.rebuild(truth_for(members, n))
            assert heap.check_invariant()
            for step in range(120):
                op = rng.random()
                if op < 0.25:
                    if members:
                        lit = heap.pop()
                        assert lit == oracle_pop(score, rank, members), (
                            trial, step,
                        )
                        members.discard(lit >> 1)
                    else:
                        assert heap.pop() == -1
                elif op < 0.35:
                    var = rng.randrange(n)
                    heap.push(var)
                    members.add(var)
                elif op < 0.45:
                    lits = [
                        2 * v + rng.randint(0, 1)
                        for v in rng.sample(range(n), rng.randint(0, n))
                    ]
                    heap.reinsert(lits)
                    members.update(lit >> 1 for lit in lits)
                elif op < 0.70:
                    lit = rng.randrange(2 * n)
                    score[lit] += rng.randint(1, 4)
                    heap.increase(lit)
                elif op < 0.80:
                    # update takes a key change in either direction.
                    lit = rng.randrange(2 * n)
                    score[lit] = float(rng.randint(0, 8))
                    heap.update(lit)
                elif op < 0.88:
                    # Uniform positive scaling is order-preserving;
                    # refresh re-keys every member.
                    for lit in range(2 * n):
                        score[lit] *= 2.0
                    heap.refresh()
                elif op < 0.93:
                    # Comparator swap (the dynamic ranked -> VSIDS
                    # switch, and back).
                    rank = (
                        [float(rng.randint(0, 3)) for _ in range(n)]
                        if rank is None else None
                    )
                    heap.set_keys(score, rank)
                    heap.refresh()
                else:
                    assert heap.check_invariant(), (trial, step)
                assert len(heap) == len(members)
                assert within_bound(heap), (trial, step)
            assert heap.check_invariant(), trial
            while members:
                lit = heap.pop()
                assert lit == oracle_pop(score, rank, members)
                members.discard(lit >> 1)
            assert heap.pop() == -1
            assert len(heap) == 0

    def test_compaction_keeps_pop_order(self):
        # Re-keying a few members many times piles up stale entries
        # until compaction runs; the pop order is the oracle's.
        rng = random.Random(3)
        n = 200
        score = [float(rng.randint(0, 9)) for _ in range(2 * n)]
        heap = VariableActivityHeap(score)
        heap.rebuild(truth_for(range(n), n))
        members = set(range(n))
        for _ in range(150):
            lit = heap.pop()
            assert lit == oracle_pop(score, None, members)
            members.discard(lit >> 1)
        compactions = 0
        for _ in range(2000):
            lit = 2 * rng.choice(sorted(members)) + rng.randint(0, 1)
            before = len(heap._heap)
            score[lit] += 1.0
            heap.increase(lit)
            if len(heap._heap) < before:
                compactions += 1
            assert within_bound(heap)
        assert compactions > 0
        assert heap.check_invariant()
        while members:
            lit = heap.pop()
            assert lit == oracle_pop(score, None, members)
            members.discard(lit >> 1)


    def test_pop_returns_max_by_key_and_tiebreak(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randint(1, 40)
            score = [float(rng.randint(0, 3)) for _ in range(2 * n)]
            heap = VariableActivityHeap(score)
            members = set(range(n))
            heap.rebuild(truth_for(members, n))
            while members:
                lit = heap.pop()
                # The returned literal is the better polarity itself.
                assert lit == oracle_pop(score, None, members)
                members.discard(lit >> 1)
            assert heap.pop() == -1

    def test_push_is_idempotent_for_present_vars(self):
        score = [1.0, 0.0, 5.0, 0.0, 3.0, 0.0]
        heap = VariableActivityHeap(score)
        heap.rebuild(truth_for(range(3), 3))
        heap.push(1)
        heap.push(1)
        assert len(heap) == 3
        assert [heap.pop() >> 1 for _ in range(3)] == [1, 2, 0]

    def test_reinsert_filters_present_variables(self):
        score = [float(v) for v in range(10)]
        heap = VariableActivityHeap(score)
        heap.rebuild(truth_for(range(5), 5))
        top = heap.pop() >> 1  # var 4 leaves
        assert top == 4
        heap.reinsert([2 * 4, 2 * 1, 2 * 0])  # 1 and 0 are still present
        assert len(heap) == 5
        assert heap.check_invariant()

    def test_set_key_arrays_reorders_membership(self):
        score = [float(lit) for lit in range(8)]
        rank = [0.0, 9.0, 0.0, 0.0]  # favours var 1
        heap = VariableActivityHeap(score, rank)
        heap.rebuild(truth_for(range(4), 4))
        assert heap.pop() >> 1 == 1
        heap.set_keys(score)
        heap.refresh()
        assert heap.pop() >> 1 == 3
        assert heap.check_invariant()

    def test_requires_key_arrays(self):
        # The rank array, when given, holds one key per variable.
        with pytest.raises(ValueError):
            VariableActivityHeap([0.0] * 4, [0.0] * 4)
        heap = VariableActivityHeap([0.0] * 4, [0.0, 1.0])
        with pytest.raises(ValueError):
            heap.set_keys([0.0] * 4, [0.0])


class TestLazyLayout:
    def test_raw_entries_stay_within_twice_live_plus_slack(self):
        rng = random.Random(11)
        n = 500
        score = [float(rng.randint(0, 3)) for _ in range(2 * n)]
        heap = VariableActivityHeap(score)
        heap.rebuild(truth_for(range(n), n))
        for step in range(20000):
            if rng.random() < 0.1 and len(heap):
                heap.pop()
            else:
                lit = rng.randrange(2 * n)
                score[lit] += rng.randint(1, 5)
                heap.increase(lit)
            assert within_bound(heap), step

    def test_popping_live_entries_keeps_the_bound(self):
        # Stale entries deep in the array must not outlive a heap that
        # shrinks by pops alone.
        n = 300
        score = [0.0] * (2 * n)
        heap = VariableActivityHeap(score)
        heap.rebuild(truth_for(range(n), n))
        for var in range(n):
            score[2 * var] += 1.0
            heap.increase(2 * var)
        while len(heap):
            heap.pop()
            assert within_bound(heap)
        assert heap.pop() == -1

    def test_len_counts_live_members_not_raw_entries(self):
        score = [1.0, 0.0, 5.0, 0.0, 3.0, 0.0]
        heap = VariableActivityHeap(score)
        heap.rebuild(truth_for(range(3), 3))
        for bump in range(5):
            score[0] += 10.0
            heap.increase(0)
        assert len(heap._heap) > 3  # stale entries linger
        assert len(heap) == 3
        assert heap.pop() == 0
        assert len(heap) == 2

    def test_rebuild_takes_membership_from_lit_truth(self):
        score = [float(lit) for lit in range(8)]
        truth = truth_for({0, 2, 3}, 4)
        truth[2], truth[3] = 1, 0  # var 1 assigned true
        heap = VariableActivityHeap(score)
        heap.rebuild(truth)
        assert len(heap) == 3
        assert 1 not in heap and 3 in heap
        assert [heap.pop() >> 1 for _ in range(3)] == [3, 2, 0]

    def test_increase_of_the_losing_polarity_pushes_nothing(self):
        score = [5.0, 1.0, 0.0, 0.0]
        heap = VariableActivityHeap(score)
        heap.rebuild(truth_for(range(2), 2))
        raw = len(heap._heap)
        score[1] += 1.0  # ~x0 still loses to x0
        heap.increase(1)
        assert len(heap._heap) == raw
        assert heap.check_invariant()


def collect_decide_order(formula, strategy):
    """Attach to a fresh solver and drain decide() without search: the
    strategy's static ordering over all unassigned variables."""
    solver = CdclSolver(formula, strategy=strategy)
    strategy.attach(solver)
    order = []
    while True:
        lit = strategy.decide()
        if lit == -1:
            break
        # Emulate the decision assignment so the drain progresses
        # (write both polarities of the literal-truth pair, as the
        # solver's _enqueue does).
        solver.lit_truth[lit] = 1
        solver.lit_truth[lit ^ 1] = 0
        order.append(lit)
    return order


class TestDecideOrderMatchesStableSort:
    """decide() order == stable-sorted scan order, per strategy key.

    Formulas with many equal literal counts force tie-breaks; the scan
    reference's stable sort defines the expected order.
    """

    def _tie_heavy_formula(self, rng):
        # Few distinct counts -> many equal-activity ties.
        n = rng.randint(4, 12)
        formula = CnfFormula(n)
        for _ in range(rng.randint(3, 14)):
            width = rng.randint(1, 3)
            chosen = rng.sample(range(n), min(width, n))
            formula.add_clause(2 * v + rng.randint(0, 1) for v in chosen)
        return formula

    def test_vsids_matches_scan_reference(self, rng):
        for _ in range(40):
            formula = self._tie_heavy_formula(rng)
            heap_order = collect_decide_order(formula, VsidsStrategy())
            scan_order = collect_decide_order(formula, ScanOrderVsidsStrategy())
            assert heap_order == scan_order

    def test_ranked_matches_scan_reference(self, rng):
        for _ in range(40):
            formula = self._tie_heavy_formula(rng)
            rank = {
                v: float(rng.randint(0, 2)) for v in range(formula.num_vars)
            }
            heap_order = collect_decide_order(formula, RankedStrategy(rank))
            scan_order = collect_decide_order(
                formula, ScanOrderRankedStrategy(rank)
            )
            assert heap_order == scan_order

    def test_berkmin_quiet_fallback_matches_vsids_scan(self, rng):
        # Without conflicts BerkMin's recency stack is empty: its decide
        # order is exactly the VSIDS heap order.
        for _ in range(20):
            formula = self._tie_heavy_formula(rng)
            heap_order = collect_decide_order(formula, BerkMinStrategy())
            scan_order = collect_decide_order(formula, ScanOrderVsidsStrategy())
            assert heap_order == scan_order

    def test_vsids_order_is_count_sort_explicit(self):
        formula = CnfFormula(3)
        formula.add_clause([mk_lit(2), mk_lit(1)])
        formula.add_clause([mk_lit(2), mk_lit(1, True)])
        formula.add_clause([mk_lit(2), mk_lit(0)])
        order = collect_decide_order(formula, VsidsStrategy())
        # Counts: x2+ -> 3, x1+ -> 1, ~x1 -> 1, x0+ -> 1; ties resolve
        # toward the lower literal index.
        assert order == [mk_lit(2), mk_lit(0), mk_lit(1)]


class TestSearchEquivalence:
    """Full solves: heap and scan strategies walk identical searches
    (same decisions/conflicts/propagations) under the legacy phase
    policy with pruning off."""

    CFG = dict(phase_mode="default", prune_root_satisfied=False)

    def _stats(self, formula, strategy):
        outcome = CdclSolver(
            formula, strategy=strategy, config=SolverConfig(**self.CFG)
        ).solve()
        stats = outcome.stats
        return (stats.decisions, stats.conflicts, stats.propagations)

    def test_vsids_full_search_equivalence(self, rng):
        for _ in range(30):
            formula = random_formula(rng, rng.randint(3, 10), rng.randint(4, 40))
            assert self._stats(formula, VsidsStrategy()) == self._stats(
                formula, ScanOrderVsidsStrategy()
            )

    def test_ranked_dynamic_full_search_equivalence(self, rng):
        for _ in range(20):
            formula = random_formula(rng, rng.randint(3, 10), rng.randint(4, 40))
            rank = {v: float(rng.randint(0, 4)) for v in range(formula.num_vars)}
            assert self._stats(
                formula, RankedStrategy(rank, dynamic=True)
            ) == self._stats(formula, ScanOrderRankedStrategy(rank, dynamic=True))

    def test_pigeonhole_equivalence_with_many_periodic_updates(self):
        from repro.workloads.cnf_families import pigeonhole

        formula = pigeonhole(6)
        assert self._stats(
            formula, VsidsStrategy(update_period=32)
        ) == self._stats(formula, ScanOrderVsidsStrategy(update_period=32))

    def test_repeated_solves_stay_equivalent(self, rng):
        """The decay countdown persists across solve() calls on one
        solver in both engines, so multi-solve (incremental-style) runs
        keep identical searches too."""
        from repro.cnf import CnfFormula

        for _ in range(10):
            formula = random_formula(rng, rng.randint(4, 9), rng.randint(6, 30))
            per_engine = []
            for strategy in (
                VsidsStrategy(update_period=4),
                ScanOrderVsidsStrategy(update_period=4),
            ):
                solver = CdclSolver(
                    formula, strategy=strategy, config=SolverConfig(**self.CFG)
                )
                seen = []
                for _solve in range(3):
                    outcome = solver.solve()
                    seen.append(
                        (
                            outcome.status,
                            outcome.stats.decisions,
                            outcome.stats.conflicts,
                            outcome.stats.propagations,
                        )
                    )
                per_engine.append(seen)
            assert per_engine[0] == per_engine[1]
