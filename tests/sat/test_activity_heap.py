"""Property tests for the variable activity heaps.

Three families:

* structural — after arbitrary push/reinsert/increase/update/refresh/
  set_keys/compaction sequences, every ``pop`` returns the brute-force
  maximum over the current members by ``(rank, score, -lit)``, the
  layout stays consistent and, for the lazy-deletion ``heapq`` heap,
  the raw entry array stays within the compaction bound.  Each class
  runs on :class:`VariableActivityHeap` and, through a ``TestNative…``
  subclass, on the native kernel's indexed heap;
* differential — the two heaps driven in lockstep through the same
  random operations return the same literals and keep the same
  members;
* semantic — the decide order equals the stable-sorted scan order under
  each strategy's tie-break keys, including equal-activity ties.
"""

import random
from array import array

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig, VariableActivityHeap
from repro.sat.activity_heap import _SLACK
from repro.sat.heuristics import BerkMinStrategy, RankedStrategy, VsidsStrategy
from repro.sat.kernel import NativeActivityHeap, native_available
from tests.conftest import random_formula
from tests.sat.scan_order import ScanOrderRankedStrategy, ScanOrderVsidsStrategy

needs_native = pytest.mark.skipif(
    not native_available(), reason="the native kernel cannot be built here"
)


def keys(values):
    """A key array both heaps accept (the native heap views doubles)."""
    return array("d", values)


def lits(values):
    """A trail slice as the solver hands it over."""
    return array("i", values)


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
    """The lazy heap's compaction bound; the indexed heap keeps no
    stale entries, so it has none to check."""
    if not isinstance(heap, VariableActivityHeap):
        return True
    return len(heap._heap) <= 2 * len(heap) + _SLACK


class StructuralFamily:
    """The heap class under test; ``lazy`` marks the ``heapq`` layout
    whose raw entry array the lazy-layout asserts inspect."""

    heap_cls = VariableActivityHeap
    lazy = True

    def require_lazy(self):
        if not self.lazy:
            pytest.skip("asserts the lazy-deletion layout")


class TestHeapInvariant(StructuralFamily):
    def test_invariant_under_random_operation_sequences(self):
        """Every pop equals the brute-force oracle, and the lazy layout
        stays consistent, under random operation sequences."""
        rng = random.Random(20040607)
        for trial in range(150):
            n = rng.randint(1, 60)
            score = keys(float(rng.randint(0, 6)) for _ in range(2 * n))
            rank = (
                keys(float(rng.randint(0, 3)) for _ in range(n))
                if rng.random() < 0.5 else None
            )
            heap = self.heap_cls(score, rank)
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
                    undone = lits(
                        2 * v + rng.randint(0, 1)
                        for v in rng.sample(range(n), rng.randint(0, n))
                    )
                    heap.reinsert(undone)
                    members.update(lit >> 1 for lit in undone)
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
                        keys(float(rng.randint(0, 3)) for _ in range(n))
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
        self.require_lazy()
        rng = random.Random(3)
        n = 200
        score = keys(float(rng.randint(0, 9)) for _ in range(2 * n))
        heap = self.heap_cls(score)
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
            score = keys(float(rng.randint(0, 3)) for _ in range(2 * n))
            heap = self.heap_cls(score)
            members = set(range(n))
            heap.rebuild(truth_for(members, n))
            while members:
                lit = heap.pop()
                # The returned literal is the better polarity itself.
                assert lit == oracle_pop(score, None, members)
                members.discard(lit >> 1)
            assert heap.pop() == -1

    def test_push_is_idempotent_for_present_vars(self):
        score = keys([1.0, 0.0, 5.0, 0.0, 3.0, 0.0])
        heap = self.heap_cls(score)
        heap.rebuild(truth_for(range(3), 3))
        heap.push(1)
        heap.push(1)
        assert len(heap) == 3
        assert [heap.pop() >> 1 for _ in range(3)] == [1, 2, 0]

    def test_reinsert_filters_present_variables(self):
        score = keys(float(v) for v in range(10))
        heap = self.heap_cls(score)
        heap.rebuild(truth_for(range(5), 5))
        top = heap.pop() >> 1  # var 4 leaves
        assert top == 4
        heap.reinsert(lits([2 * 4, 2 * 1, 2 * 0]))  # 1 and 0 are still present
        assert len(heap) == 5
        assert heap.check_invariant()

    def test_set_key_arrays_reorders_membership(self):
        score = keys(float(lit) for lit in range(8))
        rank = keys([0.0, 9.0, 0.0, 0.0])  # favours var 1
        heap = self.heap_cls(score, rank)
        heap.rebuild(truth_for(range(4), 4))
        assert heap.pop() >> 1 == 1
        heap.set_keys(score)
        heap.refresh()
        assert heap.pop() >> 1 == 3
        assert heap.check_invariant()

    def test_requires_key_arrays(self):
        # The rank array, when given, holds one key per variable.
        with pytest.raises(ValueError):
            self.heap_cls(keys([0.0] * 4), keys([0.0] * 4))
        heap = self.heap_cls(keys([0.0] * 4), keys([0.0, 1.0]))
        with pytest.raises(ValueError):
            heap.set_keys(keys([0.0] * 4), keys([0.0]))


class TestLazyLayout(StructuralFamily):
    def test_raw_entries_stay_within_twice_live_plus_slack(self):
        self.require_lazy()
        rng = random.Random(11)
        n = 500
        score = keys(float(rng.randint(0, 3)) for _ in range(2 * n))
        heap = self.heap_cls(score)
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
        score = keys([0.0] * (2 * n))
        heap = self.heap_cls(score)
        heap.rebuild(truth_for(range(n), n))
        for var in range(n):
            score[2 * var] += 1.0
            heap.increase(2 * var)
        while len(heap):
            heap.pop()
            assert within_bound(heap)
        assert heap.pop() == -1

    def test_len_counts_live_members_not_raw_entries(self):
        score = keys([1.0, 0.0, 5.0, 0.0, 3.0, 0.0])
        heap = self.heap_cls(score)
        heap.rebuild(truth_for(range(3), 3))
        for bump in range(5):
            score[0] += 10.0
            heap.increase(0)
        if self.lazy:
            assert len(heap._heap) > 3  # stale entries linger
        assert len(heap) == 3
        assert heap.pop() == 0
        assert len(heap) == 2

    def test_rebuild_takes_membership_from_lit_truth(self):
        score = keys(float(lit) for lit in range(8))
        truth = truth_for({0, 2, 3}, 4)
        truth[2], truth[3] = 1, 0  # var 1 assigned true
        heap = self.heap_cls(score)
        heap.rebuild(truth)
        assert len(heap) == 3
        assert 1 not in heap and 3 in heap
        assert [heap.pop() >> 1 for _ in range(3)] == [3, 2, 0]

    def test_increase_of_the_losing_polarity_pushes_nothing(self):
        score = keys([5.0, 1.0, 0.0, 0.0])
        heap = self.heap_cls(score)
        heap.rebuild(truth_for(range(2), 2))
        raw = len(heap._heap) if self.lazy else None
        score[1] += 1.0  # ~x0 still loses to x0
        heap.increase(1)
        if self.lazy:
            assert len(heap._heap) == raw
        assert heap.check_invariant()
        assert heap.pop() == 0


@needs_native
class TestNativeHeapInvariant(TestHeapInvariant):
    heap_cls = NativeActivityHeap
    lazy = False


@needs_native
class TestNativeLazyLayout(TestLazyLayout):
    """The lazy-layout family's membership and order checks on the
    indexed heap (its raw-entry bounds skip)."""

    heap_cls = NativeActivityHeap
    lazy = False



#: Score values with many ties, both signed zeros, and magnitudes at and
#: beyond 2**53, where adding 1.0 is absorbed and keys tie again.
TIE_SCORES = (0.0, -0.0, 1.0, 2.0, 2.0 ** 53, 2.0 ** 53 + 2.0, 2.0 ** 60)
TIE_RANKS = (0.0, -0.0, 1.0, 3.0)


@needs_native
class TestLockstep:
    """The ``heapq`` heap and the native indexed heap, driven through
    the same random operation stream over shared key arrays and one
    ``lit_truth``: every returned literal, ``len`` and membership
    agree."""

    @staticmethod
    def _same_state(ref, nat, n):
        assert len(ref) == len(nat)
        assert [v in ref for v in range(n)] == [v in nat for v in range(n)]
        assert nat.check_invariant()

    def _run(self, rng, n, steps, check_every=1):
        score = keys(rng.choice(TIE_SCORES) for _ in range(2 * n))
        rank = (
            keys(rng.choice(TIE_RANKS) for _ in range(n))
            if rng.random() < 0.5 else None
        )
        truth = truth_for({v for v in range(n) if rng.random() < 0.7}, n)
        ref = VariableActivityHeap(score, rank)
        nat = NativeActivityHeap(score, rank)
        for heap in (ref, nat):
            heap.rebuild(truth)
        trail = array("i")  # literals assigned since the last rebuild
        for step in range(steps):
            op = rng.random()
            if op < 0.2:
                # BCP assigns some variables behind the heap's back.
                for var in rng.sample(range(n), rng.randint(0, min(3, n))):
                    if truth[2 * var] == 2:
                        lit = 2 * var + rng.randint(0, 1)
                        truth[lit], truth[lit ^ 1] = 1, 0
                        trail.append(lit)
            elif op < 0.4:
                got = ref.pop_unassigned()
                assert nat.pop_unassigned() == got, step
                if got >= 0:
                    truth[got], truth[got ^ 1] = 1, 0
                    trail.append(got)
            elif op < 0.45:
                assert nat.pop() == ref.pop(), step
            elif op < 0.6:
                # Backtrack: unassign a trail suffix, reinsert the slice.
                cut = rng.randint(0, len(trail))
                undone = trail[cut:]
                del trail[cut:]
                for lit in undone:
                    truth[lit] = truth[lit ^ 1] = 2
                ref.reinsert(undone)
                nat.reinsert(undone)
            elif op < 0.75:
                lit = rng.randrange(2 * n)
                score[lit] += rng.choice((1.0, 2.0, 2.0 ** 53))
                ref.increase(lit)
                nat.increase(lit)
            elif op < 0.85:
                lit = rng.randrange(2 * n)
                score[lit] = rng.choice(TIE_SCORES)
                ref.update(lit)
                nat.update(lit)
            elif op < 0.9:
                scale = rng.choice((0.5, 2.0, 2.0 ** -40))
                for lit in range(2 * n):
                    score[lit] *= scale
                ref.refresh()
                nat.refresh()
            elif op < 0.95:
                rank = (
                    keys(rng.choice(TIE_RANKS) for _ in range(n))
                    if rank is None else None
                )
                for heap in (ref, nat):
                    heap.set_keys(score, rank)
                    heap.refresh()
            else:
                del trail[:]
                for heap in (ref, nat):
                    heap.rebuild(truth)
            assert len(ref) == len(nat), step
            if step % check_every == 0:
                self._same_state(ref, nat, n)
        while True:
            got = ref.pop_unassigned()
            assert nat.pop_unassigned() == got
            if got < 0:
                break
        self._same_state(ref, nat, n)

    def test_random_operation_streams_agree(self):
        rng = random.Random(20040610)
        for _ in range(120):
            self._run(rng, rng.randint(1, 40), 150)

    def test_large_heap_agrees(self):
        self._run(random.Random(5), 2000, 3000, check_every=250)

    def test_release_drops_the_truth_view(self):
        truth = truth_for(range(3), 3)
        heap = NativeActivityHeap(keys([1.0, 0.0, 2.0, 0.0, 3.0, 0.0]))
        heap.rebuild(truth)
        with pytest.raises(BufferError):
            truth.extend(b"\x02\x02")
        heap.release()
        truth.extend(b"\x02\x02")  # no view pins it any more
        with pytest.raises(RuntimeError):
            heap.pop_unassigned()

    def test_out_of_range_literals_raise(self):
        heap = NativeActivityHeap(keys([0.0] * 4))
        with pytest.raises(IndexError):
            heap.reinsert(lits([0, 4]))
        assert 0 in heap  # the literals before the bad one went in
        with pytest.raises(IndexError):
            heap.increase(4)
        with pytest.raises(TypeError):
            NativeActivityHeap([0.0] * 4)  # keys must be array('d')


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
