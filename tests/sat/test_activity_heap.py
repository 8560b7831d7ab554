"""Property tests for the variable activity heap (PR 3 tentpole).

Two families:

* structural — the heap invariant (parent >= children, position index
  consistent) after arbitrary bump/decay/insert/pop sequences;
* semantic — the pop order equals the stable-sorted scan order under
  each strategy's tie-break key stack, including equal-activity ties.
"""

import random

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import CdclSolver, SolverConfig, VariableActivityHeap
from repro.sat.heuristics import BerkMinStrategy, RankedStrategy, VsidsStrategy
from tests.conftest import random_formula
from tests.sat.scan_order import ScanOrderRankedStrategy, ScanOrderVsidsStrategy


def best_entry(keys_stack, var):
    """Reference comparison tuple: the better polarity of ``var``."""
    a, b = 2 * var, 2 * var + 1
    ea = tuple(k[a] for k in keys_stack) + (-a,)
    eb = tuple(k[b] for k in keys_stack) + (-b,)
    return max(ea, eb)


class TestHeapInvariant:
    def test_invariant_under_random_operation_sequences(self):
        rng = random.Random(20040607)
        for trial in range(120):
            n = rng.randint(1, 60)
            nkeys = rng.choice((1, 1, 2))
            keys = [
                [float(rng.randint(0, 6)) for _ in range(2 * n)]
                for _ in range(nkeys)
            ]
            heap = VariableActivityHeap(keys)
            members = {v for v in range(n) if rng.random() < 0.75}
            heap.rebuild(sorted(members), n)
            assert heap.check_invariant()
            for step in range(80):
                op = rng.random()
                if op < 0.30 and members:
                    lit = heap.pop()
                    var = lit >> 1
                    assert var in members
                    members.discard(var)
                elif op < 0.55:
                    var = rng.randrange(n)
                    heap.push(var)
                    members.add(var)
                elif op < 0.80:
                    lit = rng.randrange(2 * n)
                    keys[rng.randrange(nkeys)][lit] += rng.randint(1, 4)
                    heap.increase(lit)
                elif op < 0.90:
                    # Uniform positive scaling is order-preserving;
                    # refresh re-keys entries in place.
                    for key in keys:
                        for lit in range(2 * n):
                            key[lit] *= 2.0
                    heap.refresh()
                else:
                    assert heap.check_invariant(), (trial, step)
                assert len(heap) == len(members)
            assert heap.check_invariant(), trial

    def test_pop_returns_max_by_key_and_tiebreak(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randint(1, 40)
            keys = [[float(rng.randint(0, 3)) for _ in range(2 * n)]]
            heap = VariableActivityHeap(keys)
            members = set(range(n))
            heap.rebuild(range(n), n)
            while members:
                lit = heap.pop()
                expected_var = max(members, key=lambda v: best_entry(keys, v))
                assert lit >> 1 == expected_var
                # The returned literal is the better polarity itself.
                assert best_entry(keys, expected_var)[-1] == -lit
                members.discard(expected_var)
            assert heap.pop() == -1

    def test_push_is_idempotent_for_present_vars(self):
        keys = [[1.0, 0.0, 5.0, 0.0, 3.0, 0.0]]
        heap = VariableActivityHeap(keys)
        heap.rebuild(range(3), 3)
        heap.push(1)
        heap.push(1)
        assert len(heap) == 3
        assert [heap.pop() >> 1 for _ in range(3)] == [1, 2, 0]

    def test_reinsert_filters_present_variables(self):
        keys = [[float(v) for v in range(10)]]
        heap = VariableActivityHeap(keys)
        heap.rebuild(range(5), 5)
        top = heap.pop() >> 1  # var 4 leaves
        assert top == 4
        heap.reinsert([2 * 4, 2 * 1, 2 * 0])  # 1 and 0 are still present
        assert len(heap) == 5
        assert heap.check_invariant()

    def test_set_key_arrays_reorders_membership(self):
        primary = [0.0] * 8
        secondary = [float(lit) for lit in range(8)]
        rank = [0.0, 0.0, 9.0, 9.0, 0.0, 0.0, 0.0, 0.0]  # favours var 1
        heap = VariableActivityHeap([rank, secondary])
        heap.rebuild(range(4), 4)
        assert heap.pop() >> 1 == 1
        heap.set_key_arrays([secondary])
        assert heap.pop() >> 1 == 3
        assert heap.check_invariant()

    def test_requires_key_arrays(self):
        with pytest.raises(ValueError):
            VariableActivityHeap([])
        heap = VariableActivityHeap([[0.0, 0.0]])
        with pytest.raises(ValueError):
            heap.set_key_arrays([])


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
