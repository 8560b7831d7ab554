"""Incremental BMC engine tests."""

import pytest

from repro.bmc import BmcEngine, BmcStatus, IncrementalBmcEngine, RefineOrderBmc
from repro.sat import CdclSolver, SolverConfig
from repro.workloads import counter_tripwire, token_ring


SMALL = dict(counter_width=3, target=5, distractor_words=2, distractor_width=4)


class TestVerdicts:
    @pytest.mark.parametrize("mode", ["vsids", "static", "dynamic"])
    def test_failing_property_all_modes(self, mode):
        circuit, prop = counter_tripwire(**SMALL)
        result = IncrementalBmcEngine(circuit, prop, max_depth=8, mode=mode).run()
        assert result.status is BmcStatus.FAILED
        assert result.depth_reached == 5
        assert result.trace is not None

    @pytest.mark.parametrize("mode", ["vsids", "dynamic"])
    def test_passing_property_all_modes(self, mode):
        circuit, prop = token_ring(
            num_nodes=4, distractor_words=2, distractor_width=4
        )
        result = IncrementalBmcEngine(circuit, prop, max_depth=7, mode=mode).run()
        assert result.status is BmcStatus.PASSED_BOUNDED
        assert result.depth_reached == 7

    def test_matches_one_shot_engine(self):
        circuit, prop = counter_tripwire(**SMALL)
        one_shot = BmcEngine(circuit, prop, max_depth=8).run()
        circuit2, prop2 = counter_tripwire(**SMALL)
        incremental = IncrementalBmcEngine(circuit2, prop2, max_depth=8).run()
        assert incremental.status == one_shot.status
        assert incremental.depth_reached == one_shot.depth_reached
        assert [d.status for d in incremental.per_depth] == [
            d.status for d in one_shot.per_depth
        ]

    def test_trace_replays(self):
        circuit, prop = counter_tripwire(**SMALL)
        result = IncrementalBmcEngine(circuit, prop, max_depth=8).run()
        frames = circuit.simulate(
            result.trace.inputs, initial_state=result.trace.initial_state
        )
        assert frames[result.trace.depth][prop] == 0


class TestRefinementOnIncremental:
    def test_cores_feed_ranking(self):
        circuit, prop = counter_tripwire(
            counter_width=4, target=15, distractor_words=3, distractor_width=6
        )
        engine = IncrementalBmcEngine(circuit, prop, max_depth=6, mode="static")
        result = engine.run()
        assert result.status is BmcStatus.PASSED_BOUNDED
        assert engine.var_rank
        assert all(d.core_clauses is not None for d in result.per_depth)

    def test_refined_beats_vsids_on_distractors(self):
        kwargs = dict(
            counter_width=4, target=15, distractor_words=5, distractor_width=8
        )
        circuit, prop = counter_tripwire(**kwargs)
        baseline = IncrementalBmcEngine(circuit, prop, max_depth=10, mode="vsids").run()
        circuit2, prop2 = counter_tripwire(**kwargs)
        refined = IncrementalBmcEngine(circuit2, prop2, max_depth=10, mode="static").run()
        assert refined.total_decisions < baseline.total_decisions / 2

    def test_combination_beats_one_shot_wall_time(self, monkeypatch):
        """The paper's closing claim: refined ordering composes with
        incremental solving.  Both engines now install each encoded
        clause once — the one-shot engine forks every depth's solver
        from a growing install template — so wall time no longer
        separates them (their ratio sits around 1 with a wide spread).
        The claim is pinned where it is deterministic instead: refined
        incremental needs fewer decisions than refined one-shot, and
        the install work of both is counted at the one install loop."""
        installed = []
        install = CdclSolver._install

        def counting_install(solver, clauses, *args, **kwargs):
            batch = list(clauses)
            installed.append(len(batch))
            return install(solver, batch, *args, **kwargs)

        monkeypatch.setattr(CdclSolver, "_install", counting_install)
        kwargs = dict(
            counter_width=4, target=15, distractor_words=4, distractor_width=8
        )
        circuit, prop = counter_tripwire(**kwargs)
        engine = RefineOrderBmc(circuit, prop, max_depth=12, mode="static")
        one_shot = engine.run()
        one_shot_installs = sum(installed)
        del installed[:]
        circuit2, prop2 = counter_tripwire(**kwargs)
        incremental_engine = IncrementalBmcEngine(
            circuit2, prop2, max_depth=12, mode="static"
        )
        incremental = incremental_engine.run()
        assert one_shot.depth_reached == incremental.depth_reached == 12
        assert incremental.total_decisions < one_shot.total_decisions
        # One-shot: every encoded clause once, plus one property clause
        # per depth.  Incremental: every encoded clause once (the
        # property is an assumption).
        depths = len(one_shot.per_depth)
        assert one_shot_installs == engine.unroller.clause_watermark(12) + depths
        assert sum(installed) == incremental_engine.unroller.clause_watermark(12)


class TestConfiguration:
    def test_invalid_mode_rejected(self):
        circuit, prop = counter_tripwire(**SMALL)
        with pytest.raises(ValueError):
            IncrementalBmcEngine(circuit, prop, max_depth=3, mode="hybrid")

    def test_refined_requires_cdg(self):
        circuit, prop = counter_tripwire(**SMALL)
        with pytest.raises(ValueError):
            IncrementalBmcEngine(
                circuit, prop, max_depth=3, mode="static",
                solver_config=SolverConfig(record_cdg=False),
            )

    def test_vsids_mode_allows_cdg_off(self):
        circuit, prop = counter_tripwire(**SMALL)
        result = IncrementalBmcEngine(
            circuit, prop, max_depth=6, mode="vsids",
            solver_config=SolverConfig(record_cdg=False),
        ).run()
        assert result.status is BmcStatus.FAILED

    def test_budget_exhaustion(self):
        circuit, prop = counter_tripwire(
            counter_width=5, target=31, distractor_words=4, distractor_width=8
        )
        result = IncrementalBmcEngine(
            circuit, prop, max_depth=12,
            solver_config=SolverConfig(max_decisions=10),
        ).run()
        assert result.status is BmcStatus.BUDGET_EXHAUSTED

    @pytest.mark.parametrize(
        "budget",
        [
            dict(solver_config=SolverConfig(max_conflicts=1)),
            dict(solver_config=SolverConfig(max_propagations=1)),
            dict(time_budget=0),
        ],
        ids=["max_conflicts", "max_propagations", "time_budget"],
    )
    def test_every_budget_kind_ends_in_budget_exhausted(self, budget):
        # A property that holds to depth 12, so only a budget can stop
        # the run early, and never with a verdict.
        circuit, prop = counter_tripwire(
            counter_width=5, target=31, distractor_words=4, distractor_width=8
        )
        result = IncrementalBmcEngine(circuit, prop, max_depth=12, **budget).run()
        assert result.status is BmcStatus.BUDGET_EXHAUSTED
        assert result.trace is None
        statuses = [d.status for d in result.per_depth]
        solved = statuses[:-1] if statuses[-1:] == ["unknown"] else statuses
        assert solved == ["unsat"] * len(solved)
        assert result.depth_reached == len(solved) - 1 < 12

    def test_negative_depth_rejected(self):
        circuit, prop = counter_tripwire(**SMALL)
        with pytest.raises(ValueError):
            IncrementalBmcEngine(circuit, prop, max_depth=-1)
