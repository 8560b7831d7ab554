"""Portfolio BMC engines: per-depth deterministic racing, the row-level
race, and the incremental epoch-raced portfolio (ISSUE 5 tentpole)."""

from __future__ import annotations

import pytest

from repro.bmc import BmcEngine, PortfolioBmcEngine
from repro.bmc.result import BmcStatus
from repro.sat import CdclSolver, PortfolioSolver, SolverConfig
from repro.sat import race as race_module
from repro.sat.kernel import native_available
from repro.workloads import counter_tripwire, instance_by_name

PLANES = ["python"] + (["native"] if native_available() else [])


@pytest.fixture(scope="module")
def passing_row():
    instance = instance_by_name("17_1_b2")
    circuit, prop = instance.build()
    return instance, circuit, prop


@pytest.fixture(scope="module")
def failing_row():
    instance = instance_by_name("01_b")
    circuit, prop = instance.build()
    return instance, circuit, prop


@pytest.fixture(scope="module")
def baseline(passing_row):
    instance, circuit, prop = passing_row
    return BmcEngine(circuit, prop, max_depth=instance.max_depth).run()


class TestDepthGranularity:
    def test_deterministic_matches_baseline_verdict(self, passing_row, baseline):
        instance, circuit, prop = passing_row
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth,
            deterministic=True, race_min_clauses=0,
        )
        result = engine.run()
        assert result.status is baseline.status
        assert result.depth_reached == baseline.depth_reached
        assert all(d.winner for d in result.per_depth)
        assert len(engine.sharing_log) == len(result.per_depth)

    def test_deterministic_reproducible_across_jobs(self, passing_row):
        instance, circuit, prop = passing_row

        def fingerprint(jobs):
            engine = PortfolioBmcEngine(
                circuit, prop, max_depth=instance.max_depth,
                deterministic=True, race_min_clauses=0, jobs=jobs,
            )
            result = engine.run()
            return tuple(
                (d.k, d.status, d.decisions, d.propagations, d.conflicts,
                 d.winner)
                for d in result.per_depth
            )

        assert fingerprint(None) == fingerprint(2)

    def test_small_depths_fall_back_to_serial_lead(self, passing_row):
        instance, circuit, prop = passing_row
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth,
            deterministic=True, race_min_clauses=10**9,
        )
        result = engine.run()
        assert all(
            d.winner.startswith("serial:") for d in result.per_depth
        )
        assert result.status is BmcStatus.PASSED_BOUNDED

    def test_depth_stats_report_cumulative_winner_work(self):
        # The winner's SolveOutcome.stats cover only its final epoch;
        # DepthStats must carry the member's cumulative work for the
        # depth (code-review regression: Table-1 'port dec' was the
        # last epoch only).  PHP-style hard depths need many epochs, so
        # use a small epoch budget on a row with real conflicts.
        instance = instance_by_name("03_b")
        circuit, prop = instance.build()
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth,
            deterministic=True, race_min_clauses=0, epoch_conflicts=16,
        )
        result = engine.run()
        raced = [
            (k, winner, epochs)
            for (k, winner, raced, epochs, *_rest) in engine.sharing_log
            if raced and epochs > 1
        ]
        assert raced, "no depth needed more than one epoch; weaken epoch_conflicts"
        multi_epoch_depths = {k for k, _w, _e in raced}
        for depth_stats in result.per_depth:
            if depth_stats.k in multi_epoch_depths:
                # A second epoch only runs after the first exhausted its
                # 16-conflict budget, so the cumulative count must be at
                # least one full epoch (the pre-fix last-epoch-only
                # numbers were strictly below it).
                assert depth_stats.conflicts >= 16

    def test_counterexample_row(self, failing_row):
        instance, circuit, prop = failing_row
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth,
            deterministic=True, race_min_clauses=0,
        )
        result = engine.run()
        assert result.status is BmcStatus.FAILED
        assert result.depth_reached == instance.cex_depth
        assert result.trace is not None  # engine re-simulates it


class TestSharingCounters:
    @pytest.mark.parametrize("plane", PLANES)
    def test_epoch_sharing_counters_pinned(self, plane, passing_row):
        """One 16-conflict epoch run of ``17_1_b2``: ``shared`` counts
        distinct published clauses and ``deliveries`` every (clause,
        peer) pair queued, whether or not the peer installs it."""
        instance, circuit, prop = passing_row
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth, deterministic=True,
            race_min_clauses=0, epoch_conflicts=16,
            solver_config=SolverConfig(kernel=plane),
        )
        engine.run()
        shared, deliveries = (
            sum(entry[index] for entry in engine.sharing_log)
            for index in (4, 5)
        )
        assert (shared, deliveries) == (202, 606)


class TestRacedDepthInstall:
    @pytest.mark.parametrize("plane", PLANES)
    def test_raced_depths_install_each_clause_once(self, plane, monkeypatch):
        """The install loop runs over a linear number of clauses.

        Depth ``k``'s instance is the clause log's prefix ``P(k)``
        (frames ``0..k``) plus one property clause.  The engine grows
        one install template per run, from ``P(k-1)`` to ``P(k)``, so
        over depths ``0..K`` it installs ``|P(K)|`` clauses in all.  At
        each depth every one of the ``M`` members forks that template
        and installs the one clause past it, the property clause::

            installed = |P(K)| + M * (K + 1)

        A private install of each raced depth's whole formula would
        make it ``sum_k (|P(k)| + 1)``, quadratic in ``K``.  Peer
        imports run the install loop too (``count_literals=False``);
        they are counted apart, and the pinned ``epoch_conflicts=16``
        runs of the two rows must make some, so forks of the template
        take part in clause sharing.
        """
        counts = {"installed": 0, "imports": 0}
        outcomes = []
        install = CdclSolver._install
        solve = PortfolioSolver.solve

        def counting_install(solver, clauses, count_literals=True):
            batch = list(clauses)
            counts["installed" if count_literals else "imports"] += len(batch)
            return install(solver, batch, count_literals)

        def recording_solve(portfolio):
            outcome = solve(portfolio)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(CdclSolver, "_install", counting_install)
        monkeypatch.setattr(PortfolioSolver, "solve", recording_solve)
        pinned_imports = 0
        for row in ("17_1_b2", "01_b"):
            instance = instance_by_name(row)
            circuit, prop = instance.build()
            for epoch_conflicts in (256, 16):
                counts.update(installed=0, imports=0)
                del outcomes[:]
                engine = PortfolioBmcEngine(
                    circuit, prop, max_depth=instance.max_depth,
                    deterministic=True, race_min_clauses=0,
                    epoch_conflicts=epoch_conflicts,
                    solver_config=SolverConfig(kernel=plane),
                )
                result = engine.run()
                last = result.per_depth[-1].k
                assert [d.k for d in result.per_depth] == list(range(last + 1))
                assert len(outcomes) == last + 1  # every depth was raced
                prefix, _origins = engine.unroller.formula_up_to(last)
                members = len(engine.member_specs)
                assert counts["installed"] == (
                    prefix.num_clauses + members * (last + 1)
                )
                imported = sum(
                    report.imported
                    for outcome in outcomes for report in outcome.reports
                )
                assert counts["imports"] == imported
                if epoch_conflicts == 16:
                    pinned_imports += imported
        assert pinned_imports > 0


class TestBudgets:
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
        result = PortfolioBmcEngine(
            circuit, prop, max_depth=12, deterministic=True,
            race_min_clauses=0, **budget,
        ).run()
        assert result.status is BmcStatus.BUDGET_EXHAUSTED
        assert result.trace is None
        statuses = [d.status for d in result.per_depth]
        solved = statuses[:-1] if statuses[-1:] == ["unknown"] else statuses
        assert solved == ["unsat"] * len(solved)
        assert result.depth_reached == len(solved) - 1 < 12


class TestRowGranularity:
    def test_serial_width_one_fallback(self, passing_row, baseline, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 1)
        instance, circuit, prop = passing_row
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth,
        )
        result = engine.run()
        assert result.status is baseline.status
        assert result.depth_reached == baseline.depth_reached
        assert engine.row_winner == "serial:vsids"
        assert engine.reports[0].winner
        assert {r.status for r in engine.reports[1:]} == {"skipped"}

    def test_process_row_race(self, passing_row, baseline, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
        instance, circuit, prop = passing_row
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth,
        )
        result = engine.run()
        assert result.status is baseline.status
        assert result.depth_reached == baseline.depth_reached
        assert engine.row_winner in ("vsids", "berkmin")
        assert all(d.winner == engine.row_winner for d in result.per_depth)

    def test_row_race_keeps_winner_capture_pairs(self, monkeypatch, tmp_path):
        # Promotion covers both capture suffixes: only canonical
        # names survive, and every trace keeps its access sidecar.
        import re

        from repro.experiments.runner import make_engine

        monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
        instance = instance_by_name("17_1_b2")
        engine = make_engine(
            instance, "portfolio", trace_dir=str(tmp_path),
            profile_access=True,
        )
        result = engine.run()
        assert engine.row_winner in ("vsids", "berkmin")
        names = sorted(p.name for p in tmp_path.iterdir())
        pattern = re.compile(r"17_1_b2_portfolio_d(\d{3})\.(rtrc|racc)")
        assert names and all(pattern.fullmatch(name) for name in names), names
        traces = {name[:-5] for name in names if name.endswith(".rtrc")}
        sidecars = {name[:-5] for name in names if name.endswith(".racc")}
        assert traces == sidecars
        assert len(traces) == len(result.per_depth)

    def test_counterexample_row_race(self, failing_row, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
        instance, circuit, prop = failing_row
        result = PortfolioBmcEngine(
            circuit, prop, max_depth=instance.max_depth,
        ).run()
        assert result.status is BmcStatus.FAILED
        assert result.depth_reached == instance.cex_depth


class TestExperimentIntegration:
    def test_make_engine_and_run_instance(self, monkeypatch):
        # Pin to the in-process serial paths so the test is hermetic.
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 1)
        from repro.experiments.runner import make_engine, run_instance

        instance = instance_by_name("17_1_b2")
        engine = make_engine(instance, "portfolio")
        assert isinstance(engine, PortfolioBmcEngine)
        result = run_instance(instance, "portfolio")
        assert result.status == "passed-bounded"
        assert result.strategy == "portfolio"

    def test_members_inherit_caller_phase_and_minimize(self):
        # --phase-mode must reach the portfolio members exactly as it
        # reaches the single-strategy columns (code-review regression:
        # depth-granularity members silently reverted to the defaults).
        from repro.bmc.portfolio import default_bmc_members
        from repro.sat.solver import SolverConfig

        config = SolverConfig(phase_mode="inverted", minimize_learned="off")
        members = default_bmc_members(base_config=config)
        assert all(m.phase_mode == "inverted" for m in members)
        assert all(m.minimize_learned == "off" for m in members)
        overlaid = members[0].overlay_config(config, 8)
        assert overlaid.phase_mode == "inverted"
        assert overlaid.minimize_learned == "off"

    def test_portfolio_opts_deterministic(self, monkeypatch):
        from repro.experiments.runner import make_engine

        # Two CPUs make a row race possible; deterministic=True must
        # still take the per-depth epoch path.
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
        instance = instance_by_name("17_1_b2")
        engine = make_engine(
            instance, "portfolio",
            portfolio_opts={"deterministic": True, "epoch_conflicts": 99},
        )
        assert engine.deterministic is True
        assert engine.epoch_conflicts == 99
        result = engine.run()
        assert engine.row_winner is None
        assert [entry[0] for entry in engine.sharing_log] == [
            d.k for d in result.per_depth
        ]
