"""Portfolio solving subsystem tests (ISSUE 5 tentpole).

The deterministic mode's contract — byte-reproducible winner, verdict
and per-member statistics across repeated runs and every ``jobs``
value — is pinned here, together with verdict agreement against serial
solving on the differential fuzzer's seeded instance stream (the CI
``portfolio-smoke`` job runs this file with a reduced instance count
via ``PORTFOLIO_FUZZ_INSTANCES``).
"""

from __future__ import annotations

import os

import pytest

from repro.cnf import CnfFormula, mk_lit
from repro.sat import (
    CdclSolver,
    PortfolioMember,
    PortfolioSolver,
    SharedClauseBus,
    SolverConfig,
    default_members,
)
from repro.sat import race as race_module
from repro.sat.types import SolveResult

#: Seeded instances checked for portfolio-vs-serial verdict agreement
#: (CI runs 24 via the env knob; locally 60).
PORTFOLIO_FUZZ_INSTANCES = int(os.environ.get("PORTFOLIO_FUZZ_INSTANCES", "60"))

#: Kernel (``SolverConfig.kernel``) the verdict-agreement race runs
#: under; unset means the default choice (the CI portfolio-smoke job
#: sets it per matrix leg; searches are byte-identical across kernels,
#: so the expectations never change).
PORTFOLIO_BCP_BACKEND = os.environ.get("PORTFOLIO_BCP_BACKEND") or None

TWO_MEMBERS = [
    PortfolioMember(name="vsids/save", strategy="vsids"),
    PortfolioMember(name="berkmin/save", strategy="berkmin"),
]


# The canonical PHP encoder (same instances as the bench workloads).
from repro.workloads.cnf_families import pigeonhole  # noqa: E402


def outcome_fingerprint(outcome):
    """Every search-derived field the determinism contract covers."""
    return (
        outcome.status,
        outcome.winner,
        outcome.epochs,
        outcome.shared_clauses,
        outcome.deliveries,
        tuple(
            (
                report.name, report.status, report.winner, report.epochs,
                report.conflicts, report.decisions, report.propagations,
                report.restarts, report.exported, report.imported,
            )
            for report in outcome.reports
        ),
    )


class TestMembers:
    def test_default_members_are_diverse_and_stable(self):
        members = default_members(4)
        assert [m.name for m in members] == [
            "vsids/save/local", "berkmin/save/local",
            "vsids/inverted/local", "berkmin/default/recursive",
        ]
        assert default_members(4) == members  # pure function

    def test_member_validation(self):
        with pytest.raises(ValueError):
            PortfolioMember(name="x", strategy="nope")
        with pytest.raises(ValueError):
            PortfolioMember(name="x", phase_mode="nope")
        with pytest.raises(ValueError):
            PortfolioMember(name="x", minimize_learned="nope")
        with pytest.raises(ValueError):
            default_members(0)

    def test_unique_names_required(self):
        formula = pigeonhole(3)
        with pytest.raises(ValueError):
            PortfolioSolver(
                formula,
                members=[TWO_MEMBERS[0], TWO_MEMBERS[0]],
            )

    def test_overlay_config_keeps_base(self):
        base = SolverConfig(record_cdg=False, restart_base=50)
        config = TWO_MEMBERS[1].overlay_config(base, 6)
        assert config.record_cdg is False
        assert config.restart_base == 50
        assert config.export_learned_max_len == 6
        assert base.export_learned_max_len is None  # base untouched


class TestSharedClauseBus:
    def test_dedupe_and_fanout(self):
        bus = SharedClauseBus(3)
        bus.publish(0, [(2, 4), (4, 2), (2, 2, 4)])  # one canonical clause
        assert bus.shared == 1
        assert bus.collect(1) == [(2, 4)]
        assert bus.collect(2) == [(2, 4)]
        assert bus.collect(0) == []  # own export never comes back
        bus.publish(1, [(2, 4)])     # known everywhere: no new deliveries
        assert bus.collect(0) == []
        assert bus.collect(2) == []
        assert bus.deliveries == 2


class TestDeterministicMode:
    def test_reproducible_across_runs_and_jobs(self):
        fingerprints = []
        for jobs in (None, None, 2, 3):
            outcome = PortfolioSolver(
                pigeonhole(6),
                members=list(TWO_MEMBERS),
                base_config=SolverConfig(record_cdg=False),
                deterministic=True,
                jobs=jobs,
                epoch_conflicts=128,
            ).solve()
            assert outcome.status is SolveResult.UNSAT
            fingerprints.append(outcome_fingerprint(outcome))
        assert len(set(fingerprints)) == 1, (
            "deterministic portfolio differs across runs/jobs"
        )

    def test_sharing_happens(self):
        outcome = PortfolioSolver(
            pigeonhole(6),
            members=list(TWO_MEMBERS),
            base_config=SolverConfig(record_cdg=False),
            deterministic=True,
            epoch_conflicts=64,
        ).solve()
        assert outcome.shared_clauses > 0
        assert sum(r.imported for r in outcome.reports) > 0

    def test_winner_outcome_carries_core_and_reproves(self):
        outcome = PortfolioSolver(
            pigeonhole(5),
            members=list(TWO_MEMBERS),
            deterministic=True,
            epoch_conflicts=64,
        ).solve()
        assert outcome.status is SolveResult.UNSAT
        assert outcome.core_clauses
        # The winner ran in a worker; rebuild the core standalone.
        # Core IDs index original clauses of PHP(5) plus any imports;
        # imports are peers' learned clauses over the same variables.
        # (Literal access needs the winning solver, so just check the
        # portfolio's verdict against a fresh serial solver instead.)
        assert CdclSolver(pigeonhole(5)).solve().status is SolveResult.UNSAT

    def test_sat_model_returned(self):
        formula = CnfFormula(4)
        formula.add_clause([0, 2])
        formula.add_clause([5, 6])
        outcome = PortfolioSolver(
            formula, members=list(TWO_MEMBERS), deterministic=True
        ).solve()
        assert outcome.status is SolveResult.SAT
        assert formula.evaluate(outcome.model)

    def test_max_epochs_unknown(self):
        outcome = PortfolioSolver(
            pigeonhole(7),
            members=list(TWO_MEMBERS),
            base_config=SolverConfig(record_cdg=False),
            deterministic=True,
            epoch_conflicts=16,
            max_epochs=2,
        ).solve()
        assert outcome.status is SolveResult.UNKNOWN
        assert outcome.winner is None
        assert outcome.outcome is None
        assert outcome.epochs == 2

    def test_time_budget_rejected(self):
        with pytest.raises(ValueError):
            PortfolioSolver(
                pigeonhole(3), deterministic=True, time_budget=1.0
            )

    def test_ranked_dynamic_switch_survives_epoch_slicing(self):
        # The dynamic->VSIDS fallback counts decisions per solve();
        # under epoch slicing those reset every barrier, so a warm
        # (persist_activity) strategy counts its own cumulative
        # decide() calls instead (code-review regression).
        from repro.sat import RankedStrategy

        formula = pigeonhole(6)
        strategy = RankedStrategy({0: 5.0}, dynamic=True)
        strategy.persist_activity = True
        solver = CdclSolver(
            formula, strategy=strategy,
            config=SolverConfig(record_cdg=False, max_conflicts=64),
        )
        threshold = None
        for _epoch in range(80):
            outcome = solver.solve()
            if threshold is None:
                threshold = strategy._switch_threshold
            if outcome.status is not SolveResult.UNKNOWN:
                break
        assert outcome.status is SolveResult.UNSAT
        # Cumulative decisions far exceed the threshold on this run;
        # the per-epoch count (< 64 conflicts' worth) never would.
        assert strategy._decide_calls > threshold
        assert strategy.switched

    def test_base_max_conflicts_caps_cumulative_work(self):
        # A caller budget of N conflicts per member must survive the
        # epoch slicing: the portfolio returns UNKNOWN instead of
        # silently running to a verdict (code-review regression).
        outcome = PortfolioSolver(
            pigeonhole(7),
            members=list(TWO_MEMBERS),
            base_config=SolverConfig(record_cdg=False, max_conflicts=100),
            deterministic=True,
            epoch_conflicts=40,
        ).solve()
        assert outcome.status is SolveResult.UNKNOWN
        for report in outcome.reports:
            assert report.conflicts <= 100

    def test_base_max_propagations_caps_cumulative_work(self):
        # Propagation/decision budgets must survive epoch slicing just
        # like conflict budgets (code-review regression: they were
        # re-granted in full every epoch).
        outcome = PortfolioSolver(
            pigeonhole(7),
            members=list(TWO_MEMBERS),
            base_config=SolverConfig(
                record_cdg=False, max_propagations=2000
            ),
            deterministic=True,
            epoch_conflicts=40,
        ).solve()
        assert outcome.status is SolveResult.UNKNOWN
        for report in outcome.reports:
            # One epoch may overshoot by its in-flight propagations,
            # but the next barrier must cut the member off.
            assert report.propagations < 2 * 2000

    def test_root_unsat_formula(self):
        formula = CnfFormula(1)
        formula.add_clause([0])
        formula.add_clause([1])
        outcome = PortfolioSolver(
            formula, members=list(TWO_MEMBERS), deterministic=True
        ).solve()
        assert outcome.status is SolveResult.UNSAT
        assert outcome.winner == "vsids/save"  # lowest index ties win


class TestBorrowedTemplate:
    @pytest.mark.parametrize(
        "start_method, jobs, shipped",
        [("fork", 2, True), ("spawn", 2, False), ("spawn", None, True)],
        ids=["fork-groups", "spawn-groups", "in-process"],
    )
    def test_members_fork_the_template_unless_it_must_be_pickled(
        self, monkeypatch, start_method, jobs, shipped
    ):
        # A spawn-started worker group would need the template pickled:
        # its step must carry none and install the formula itself.
        from contextlib import contextmanager

        from repro.sat import portfolio as portfolio_module
        from repro.sat.solver import InstallTemplate

        steps = []
        epoch_step = portfolio_module.epoch_step

        @contextmanager
        def recording_epoch_step(make_step, members, workers):
            steps.append(make_step)
            # Run in-process: the check is on what the groups receive.
            with epoch_step(make_step, members, 1) as step:
                yield step

        monkeypatch.setattr(portfolio_module, "START_METHOD", start_method)
        monkeypatch.setattr(portfolio_module, "epoch_step", recording_epoch_step)
        formula = pigeonhole(4)
        template = InstallTemplate(formula)
        portfolio = PortfolioSolver(
            formula, members=list(TWO_MEMBERS), deterministic=True,
            jobs=jobs, template=template,
        )
        outcome = portfolio.solve()
        assert outcome.status is SolveResult.UNSAT
        [make_step] = steps
        assert any(arg is template for arg in make_step.args) is shipped
        assert portfolio._template is None  # borrowed for one solve()
        untemplated = PortfolioSolver(
            formula, members=list(TWO_MEMBERS), deterministic=True,
        ).solve()
        assert outcome_fingerprint(outcome) == outcome_fingerprint(untemplated)


class TestRaceMode:
    def test_single_cpu_falls_back_to_deterministic(self, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 1)
        outcome = PortfolioSolver(
            pigeonhole(5), members=list(TWO_MEMBERS)
        ).solve()
        assert outcome.status is SolveResult.UNSAT
        assert outcome.deterministic is True

    def test_real_process_race(self, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
        outcome = PortfolioSolver(
            pigeonhole(6),
            members=list(TWO_MEMBERS),
            base_config=SolverConfig(record_cdg=False),
        ).solve()
        assert outcome.status is SolveResult.UNSAT
        assert outcome.deterministic is False
        assert outcome.winner in {m.name for m in TWO_MEMBERS}
        winner_reports = [r for r in outcome.reports if r.winner]
        assert len(winner_reports) == 1
        assert winner_reports[0].status == "unsat"

    def test_unknown_member_does_not_win_the_race(self, monkeypatch):
        # One member has a tiny conflict budget and reports UNKNOWN
        # quickly; the race must wait for a deciding member instead of
        # cancelling it (code-review regression).
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
        members = [
            PortfolioMember(name="tiny", strategy="vsids"),
            PortfolioMember(name="full", strategy="berkmin"),
        ]
        # Budgets live in base_config, shared by both members — so give
        # everyone a cap the *winner* can finish under but the UNSAT
        # proof needs more than one epoch... instead: cap low enough
        # that neither finishes: the race must return UNKNOWN only
        # after BOTH report, never crown an UNKNOWN winner.
        outcome = PortfolioSolver(
            pigeonhole(7),
            members=members,
            base_config=SolverConfig(record_cdg=False, max_conflicts=50),
        ).solve()
        assert outcome.status is SolveResult.UNKNOWN
        assert outcome.winner is None
        assert all(r.status == "unknown" for r in outcome.reports)

    def test_time_budget_honored_on_serial_fallback(self, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 1)
        import time as time_module

        start = time_module.perf_counter()
        outcome = PortfolioSolver(
            pigeonhole(9),  # far too hard for the budget
            members=list(TWO_MEMBERS),
            base_config=SolverConfig(record_cdg=False),
            time_budget=0.3,
            epoch_conflicts=64,
        ).solve()
        elapsed = time_module.perf_counter() - start
        assert outcome.status is SolveResult.UNKNOWN
        assert elapsed < 10.0  # epoch-granular, but it must stop

    def test_race_width_truncates_members(self, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
        members = default_members(4)
        outcome = PortfolioSolver(
            pigeonhole(5),
            members=members,
            base_config=SolverConfig(record_cdg=False),
        ).solve()
        assert outcome.status is SolveResult.UNSAT
        skipped = [r for r in outcome.reports if r.status == "skipped"]
        assert [r.name for r in skipped] == [m.name for m in members[2:]]


def _fuzz_instance(index: int):
    from tests.properties.test_solver_differential import make_instance

    return make_instance(index)


def test_portfolio_verdicts_agree_with_serial():
    """The CI portfolio-smoke gate: a deterministic 2-member race on
    the differential fuzzer's seeded instance stream must return the
    serial solver's verdict on every instance."""
    checked = 0
    for index in range(PORTFOLIO_FUZZ_INSTANCES):
        formula, expected = _fuzz_instance(index)
        serial = CdclSolver(formula).solve()
        portfolio = PortfolioSolver(
            formula,
            members=list(TWO_MEMBERS),
            base_config=SolverConfig(kernel=PORTFOLIO_BCP_BACKEND),
            deterministic=True,
            epoch_conflicts=64,
        ).solve()
        assert portfolio.status is serial.status, (
            f"instance {index}: portfolio {portfolio.status} "
            f"vs serial {serial.status}"
        )
        if portfolio.status is SolveResult.SAT:
            assert formula.evaluate(portfolio.model), (
                f"instance {index}: portfolio model does not satisfy"
            )
        if expected is not None:
            assert (portfolio.status is SolveResult.SAT) == expected
        checked += 1
    assert checked == PORTFOLIO_FUZZ_INSTANCES
    print(f"portfolio fuzz agreement: {checked} instances")
