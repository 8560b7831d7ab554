"""Determinism and cross-engine agreement: every run of every engine on
the same design must produce byte-identical statistics, and all engines
must agree on every verdict."""

import pytest

from repro.bmc import (
    BmcEngine,
    BmcStatus,
    IncrementalBmcEngine,
    RefineOrderBmc,
    ShtrichmanBmc,
)
from repro.bmc.cegar import CegarBmc
from repro.encode import Unroller
from repro.sat import CdclSolver
from repro.workloads import (
    counter_tripwire,
    fifo_controller,
    instance_by_name,
    token_ring,
)


KWARGS = dict(counter_width=3, target=5, distractor_words=2, distractor_width=4)


class TestRunDeterminism:
    def test_bmc_stats_identical_across_runs(self):
        results = []
        for _ in range(2):
            circuit, prop = counter_tripwire(**KWARGS)
            results.append(BmcEngine(circuit, prop, max_depth=7).run())
        first, second = results
        assert [d.decisions for d in first.per_depth] == [
            d.decisions for d in second.per_depth
        ]
        assert [d.conflicts for d in first.per_depth] == [
            d.conflicts for d in second.per_depth
        ]
        assert first.trace.inputs == second.trace.inputs

    def test_refined_stats_identical_across_runs(self):
        results = []
        for _ in range(2):
            circuit, prop = counter_tripwire(**KWARGS)
            results.append(RefineOrderBmc(circuit, prop, max_depth=7).run())
        assert [d.decisions for d in results[0].per_depth] == [
            d.decisions for d in results[1].per_depth
        ]

    def test_suite_row_deterministic(self):
        row = instance_by_name("01_b")
        outcomes = []
        for _ in range(2):
            circuit, prop = row.build()
            result = RefineOrderBmc(circuit, prop, max_depth=row.max_depth).run()
            outcomes.append(result.total_decisions)
        assert outcomes[0] == outcomes[1]

    def test_solver_core_deterministic(self):
        cores = []
        for _ in range(2):
            circuit, prop = counter_tripwire(**KWARGS)
            instance = Unroller(circuit, prop).instance(4)
            cores.append(CdclSolver(instance.formula).solve().core_clauses)
        assert cores[0] == cores[1]


class TestCrossEngineAgreement:
    @pytest.mark.parametrize(
        "builder,expected_status,expected_depth",
        [
            (lambda: counter_tripwire(**KWARGS), BmcStatus.FAILED, 5),
            (
                lambda: token_ring(num_nodes=4, distractor_words=2, distractor_width=4),
                BmcStatus.PASSED_BOUNDED,
                7,
            ),
            (
                lambda: fifo_controller(depth_log2=2, buggy_arm_depth=4,
                                        distractor_words=2, distractor_width=4),
                BmcStatus.FAILED,
                4,
            ),
        ],
    )
    def test_all_engines_agree(self, builder, expected_status, expected_depth):
        engines = [
            lambda c, p: BmcEngine(c, p, max_depth=7),
            lambda c, p: ShtrichmanBmc(c, p, max_depth=7),
            lambda c, p: RefineOrderBmc(c, p, 7, mode="static"),
            lambda c, p: RefineOrderBmc(c, p, 7, mode="dynamic"),
            lambda c, p: IncrementalBmcEngine(c, p, 7, mode="vsids"),
            lambda c, p: IncrementalBmcEngine(c, p, 7, mode="dynamic"),
            lambda c, p: CegarBmc(c, p, max_depth=7),
        ]
        for make in engines:
            circuit, prop = builder()
            result = make(circuit, prop).run()
            assert result.status is expected_status, make
            assert result.depth_reached == expected_depth, make

    def test_coi_engine_agrees(self):
        circuit, prop = counter_tripwire(**KWARGS)
        full = BmcEngine(circuit, prop, max_depth=7).run()
        circuit2, prop2 = counter_tripwire(**KWARGS)
        pruned = BmcEngine(circuit2, prop2, max_depth=7, use_coi=True).run()
        assert pruned.status == full.status
        assert pruned.depth_reached == full.depth_reached
        # COI strictly shrinks the formulas.
        assert pruned.per_depth[-1].num_clauses < full.per_depth[-1].num_clauses


class TestRendererGoldens:
    """Renderers must be stable in *structure* (headers, row counts) even
    as numbers vary run to run."""

    def test_table1_render_structure(self):
        from repro.experiments import run_table1
        from repro.workloads import instance_by_name

        report = run_table1(rows=[instance_by_name("01_b")])
        lines = report.render().splitlines()
        assert lines[0].startswith("model")
        assert any(line.startswith("TOTAL") for line in lines)
        assert any(line.startswith("RATIO") for line in lines)
        assert lines[-1].startswith("improved circuits")

    def test_overhead_render_structure(self):
        from repro.experiments import run_overhead
        from repro.workloads import instance_by_name

        text = run_overhead(rows=[instance_by_name("01_b")], repeats=1).render()
        assert "aggregate CDG overhead" in text

    def test_correlation_render_structure(self):
        from repro.experiments import run_correlation
        from repro.workloads import instance_by_name

        text = run_correlation(rows=[instance_by_name("17_1_b2")]).render()
        assert text.splitlines()[0].startswith("model")
        assert "mean consecutive-core overlap" in text
