"""The race driver (``repro.sat.race``) under both portfolios.

Every child kind — a SAT race member, a BMC row-race member and a
deterministic epoch group — reports a failure as ``Type: message`` and
the parent raises one :class:`PortfolioWorkerError`.  A race member
killed mid-solve loses to its surviving peer, and no child outlives a
race.  Failures and kills are injected into forked children by
monkeypatching the parent before the fork.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.bmc import BmcEngine, PortfolioBmcEngine
from repro.sat import CdclSolver, PortfolioMember, PortfolioSolver, SolverConfig
from repro.sat import portfolio as sat_portfolio
from repro.sat import race as race_module
from repro.sat.race import PortfolioWorkerError, epoch_workers, race_width
from repro.workloads import instance_by_name
from repro.workloads.cnf_families import pigeonhole

TWO_MEMBERS = [
    PortfolioMember(name="vsids/save", strategy="vsids"),
    PortfolioMember(name="berkmin/save", strategy="berkmin"),
]

ROW = "17_1_b2"


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)


def _explode(message):
    def fail(*_args, **_kwargs):
        raise ValueError(message)
    return fail


def _row_engine(**kwargs):
    instance = instance_by_name(ROW)
    circuit, prop = instance.build()
    return PortfolioBmcEngine(
        circuit, prop, max_depth=instance.max_depth,
        member_specs=("vsids", "berkmin"), **kwargs,
    )


class TestWidth:
    def test_race_width_caps(self, monkeypatch):
        monkeypatch.setattr(race_module, "_available_cpus", lambda: 3)
        assert race_width(4, None) == 3
        assert race_width(4, 0) == 3
        assert race_width(4, 2) == 2
        assert race_width(1, None) == 1
        monkeypatch.setattr(race_module, "_in_daemon", lambda: True)
        assert race_width(4, None) == 0

    def test_epoch_workers(self, monkeypatch):
        assert epoch_workers(4, None) == 1
        assert epoch_workers(4, 1) == 1
        assert epoch_workers(4, 3) == 3
        assert epoch_workers(2, 8) == 2
        monkeypatch.setattr(race_module, "_in_daemon", lambda: True)
        assert epoch_workers(4, 3) == 1


class TestWorkerFailures:
    def test_race_member_failure(self, monkeypatch, two_cpus):
        monkeypatch.setattr(
            sat_portfolio, "_build_solver", _explode("build exploded")
        )
        with pytest.raises(
            PortfolioWorkerError, match="ValueError: build exploded"
        ):
            PortfolioSolver(pigeonhole(5), members=list(TWO_MEMBERS)).solve()
        assert multiprocessing.active_children() == []

    def test_row_race_member_failure(self, monkeypatch, two_cpus):
        import repro.bmc.portfolio as bmc_portfolio

        monkeypatch.setattr(
            bmc_portfolio, "_member_engine", _explode("engine exploded")
        )
        with pytest.raises(
            PortfolioWorkerError, match="ValueError: engine exploded"
        ):
            _row_engine().run()
        assert multiprocessing.active_children() == []

    def test_epoch_group_failure(self, monkeypatch):
        monkeypatch.setattr(
            sat_portfolio, "run_member_epoch", _explode("member exploded")
        )
        with pytest.raises(
            PortfolioWorkerError, match="ValueError: member exploded"
        ):
            PortfolioSolver(
                pigeonhole(5), members=list(TWO_MEMBERS),
                deterministic=True, jobs=2,
            ).solve()
        assert multiprocessing.active_children() == []

    def test_killed_epoch_group(self, monkeypatch):
        def die(*_args, **_kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(sat_portfolio, "run_member_epoch", die)
        with pytest.raises(PortfolioWorkerError, match="died without a result"):
            PortfolioSolver(
                pigeonhole(5), members=list(TWO_MEMBERS),
                deterministic=True, jobs=2,
            ).solve()
        assert multiprocessing.active_children() == []


def _kill_member_zero_at(monkeypatch, tag):
    """SIGKILL member 0 in its child when it first exports under
    ``tag`` (a restart point of the SAT race, a depth of the row race)."""
    export = race_module.Channel.export

    def export_or_die(self, at, clauses, snapshot=None):
        if self.index == 0 and at == tag:
            os.kill(os.getpid(), signal.SIGKILL)
        export(self, at, clauses, snapshot)

    monkeypatch.setattr(race_module.Channel, "export", export_or_die)


class TestFaultInjection:
    def test_killed_race_member_loses_to_survivor(self, monkeypatch, two_cpus):
        _kill_member_zero_at(monkeypatch, None)
        config = SolverConfig(record_cdg=False)
        outcome = PortfolioSolver(
            pigeonhole(8), members=list(TWO_MEMBERS), base_config=config,
        ).solve()
        assert multiprocessing.active_children() == []
        serial = CdclSolver(pigeonhole(8), config=config).solve()
        assert outcome.status is serial.status
        assert outcome.winner == TWO_MEMBERS[1].name
        assert outcome.reports[0].status == "cancelled"
        assert not outcome.reports[0].winner

    def test_killed_row_member_loses_to_survivor(self, monkeypatch, two_cpus):
        _kill_member_zero_at(monkeypatch, 3)
        engine = _row_engine()
        result = engine.run()
        assert multiprocessing.active_children() == []
        instance = instance_by_name(ROW)
        circuit, prop = instance.build()
        serial = BmcEngine(circuit, prop, max_depth=instance.max_depth).run()
        assert result.status is serial.status
        assert result.depth_reached == serial.depth_reached
        assert engine.row_winner == "berkmin"
        assert engine.reports[0].status == "cancelled"
        assert not engine.reports[0].winner
