"""BMC engine tests: depth loop, traces, budgets, statuses."""

import pytest

from repro.bmc import BmcEngine, BmcStatus
from repro.circuit import Circuit, words
from repro.sat import SolverConfig
from repro.workloads import counter_tripwire


def small_counter(target=5, width=3):
    c = Circuit("cnt")
    en = c.add_input("en")
    bits = words.word_latches(c, width, "c", init=0)
    inc = words.word_increment(c, bits)
    words.connect_register(c, bits, words.word_mux(c, en, inc, bits))
    bad = words.word_eq_const(c, bits, target)
    prop = c.g_not(bad, name="prop")
    c.set_output("prop", prop)
    return c, prop


class TestInstallSpan:
    """Every engine times each depth's install apart from its solve."""

    def test_every_depth_has_an_install_time(self):
        from repro.bmc import IncrementalBmcEngine, PortfolioBmcEngine

        c, prop = small_counter(target=7)
        engines = [
            BmcEngine(c, prop, max_depth=6),
            IncrementalBmcEngine(c, prop, max_depth=6),
            PortfolioBmcEngine(c, prop, max_depth=6, deterministic=True,
                               race_min_clauses=0),
            PortfolioBmcEngine(c, prop, max_depth=6, deterministic=True),
        ]
        for engine in engines:
            result = engine.run()
            assert len(result.per_depth) == 7
            for depth in result.per_depth:
                assert 0 < depth.install_time < result.total_time


class TestDepthLoop:
    def test_failing_property_found_at_exact_depth(self):
        c, prop = small_counter(target=5)
        result = BmcEngine(c, prop, max_depth=10).run()
        assert result.status is BmcStatus.FAILED
        assert result.depth_reached == 5
        assert result.trace is not None
        assert result.trace.depth == 5

    def test_passing_to_bound(self):
        c, prop = small_counter(target=7)
        result = BmcEngine(c, prop, max_depth=6).run()
        assert result.status is BmcStatus.PASSED_BOUNDED
        assert result.depth_reached == 6
        assert result.trace is None

    def test_per_depth_stats_cover_all_depths(self):
        c, prop = small_counter(target=7)
        result = BmcEngine(c, prop, max_depth=5).run()
        assert [d.k for d in result.per_depth] == [0, 1, 2, 3, 4, 5]
        assert all(d.status == "unsat" for d in result.per_depth)
        assert all(d.core_clauses is not None for d in result.per_depth)

    def test_sat_depth_has_no_core(self):
        c, prop = small_counter(target=3)
        result = BmcEngine(c, prop, max_depth=5).run()
        last = result.per_depth[-1]
        assert last.status == "sat"
        assert last.core_clauses is None

    def test_start_depth(self):
        c, prop = small_counter(target=5)
        result = BmcEngine(c, prop, max_depth=10, start_depth=3).run()
        assert result.per_depth[0].k == 3
        assert result.status is BmcStatus.FAILED
        assert result.depth_reached == 5

    def test_bad_depth_range_rejected(self):
        c, prop = small_counter()
        with pytest.raises(ValueError):
            BmcEngine(c, prop, max_depth=2, start_depth=5)


class TestTraces:
    def test_trace_replays_to_violation(self):
        c, prop = small_counter(target=4)
        result = BmcEngine(c, prop, max_depth=6).run()
        frames = c.simulate(result.trace.inputs, initial_state=result.trace.initial_state)
        assert frames[result.trace.depth][prop] == 0
        # And the property holds at all earlier frames (shortest cex).
        for frame in frames[: result.trace.depth]:
            assert frame[prop] == 1

    def test_trace_inputs_have_every_frame(self):
        c, prop = small_counter(target=4)
        result = BmcEngine(c, prop, max_depth=6).run()
        assert len(result.trace.inputs) == result.trace.depth + 1


class TestBudgets:
    def test_per_instance_budget_stops_run(self):
        circuit, prop = counter_tripwire(
            counter_width=5, target=31, distractor_words=4, distractor_width=8
        )
        config = SolverConfig(max_decisions=20)
        result = BmcEngine(circuit, prop, max_depth=12, solver_config=config).run()
        assert result.status is BmcStatus.BUDGET_EXHAUSTED
        assert result.per_depth[-1].status == "unknown"
        # depth_reached is the last *completed* depth.
        assert result.depth_reached == result.per_depth[-1].k - 1

    def test_time_budget_stops_run(self):
        circuit, prop = counter_tripwire(
            counter_width=6, target=63, distractor_words=5, distractor_width=8
        )
        result = BmcEngine(circuit, prop, max_depth=200, time_budget=0.5).run()
        assert result.status is BmcStatus.BUDGET_EXHAUSTED
        assert result.depth_reached < 200


class TestResultAggregates:
    def test_totals_sum_per_depth(self):
        c, prop = small_counter(target=6)
        result = BmcEngine(c, prop, max_depth=5).run()
        assert result.total_decisions == sum(d.decisions for d in result.per_depth)
        assert result.total_propagations == sum(d.propagations for d in result.per_depth)
        assert result.total_conflicts == sum(d.conflicts for d in result.per_depth)

    def test_summary_mentions_status(self):
        c, prop = small_counter(target=6)
        result = BmcEngine(c, prop, max_depth=4).run()
        assert "passed-bounded" in result.summary()
