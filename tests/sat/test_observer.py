"""The search-observer seam (``repro.sat.observer``): hook counts, the
tee, and the callers that must not hand a config's observer or
registry to solvers they do not own."""

from __future__ import annotations

import pytest

from repro.metrics import MetricsRegistry, render_json
from repro.sat import (
    CdclSolver,
    PortfolioMember,
    PortfolioSolver,
    SearchObserver,
    SolverConfig,
    TraceRecorder,
    TraceWriter,
    replay_trace,
    tee,
)
from repro.sat import race as race_module
from repro.sat.kernel import native_available
from repro.sat.observer import Tee
from repro.sat.types import SolveResult
from repro.workloads.cnf_families import pigeonhole


def _backends():
    return ["python"] + (["native"] if native_available() else [])


class _Counting(SearchObserver):
    def __init__(self):
        self.calls = {}
        self.deleted = 0
        self.statuses = []

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def begin(self, solver):
        self._count("begin")

    def on_conflict(self, solver, level):
        self._count("conflict")

    def on_learn(self, solver, learned, btlevel, antecedents):
        self._count("learn")

    def on_decide(self, solver, lit):
        self._count("decide")

    def on_assume(self, solver, lit):
        self._count("assume")

    def on_restart(self, solver, level):
        self._count("restart")

    def on_reduce(self, solver, deleted):
        self._count("reduce")
        self.deleted += deleted

    def end(self, solver, status):
        self.statuses.append(status)


@pytest.mark.parametrize("kernel", _backends())
def test_hook_counts_match_solver_stats(kernel):
    observer = _Counting()
    # Small restart/reduction bases so every hook fires many times.
    config = SolverConfig(
        kernel=kernel, observer=observer, restart_base=8, reduce_base=20,
    )
    outcome = CdclSolver(pigeonhole(7), config=config).solve()
    stats = outcome.stats
    assert outcome.status is SolveResult.UNSAT
    assert stats.restarts > 10 and stats.deleted_clauses > 0
    assert observer.calls["begin"] == 1
    assert observer.statuses == [SolveResult.UNSAT]
    assert observer.calls["decide"] == stats.decisions
    assert observer.calls["conflict"] == stats.conflicts
    assert observer.calls["learn"] == stats.learned_clauses
    assert observer.calls["restart"] == stats.restarts
    assert observer.deleted == stats.deleted_clauses
    assert "assume" not in observer.calls


def test_assume_hook_fires_per_assumption_level():
    observer = _Counting()
    solver = CdclSolver(pigeonhole(3), config=SolverConfig(observer=observer))
    solver.solve(assumptions=[0, 2])
    assert observer.calls["assume"] >= 2


def test_observed_search_is_unchanged():
    plain = CdclSolver(pigeonhole(7)).solve().stats.as_dict()
    observed = CdclSolver(
        pigeonhole(7),
        config=SolverConfig(observer=tee(_Counting(), TraceRecorder([]))),
    ).solve().stats.as_dict()
    plain.pop("solve_time")
    observed.pop("solve_time")
    assert observed == plain


def test_tee_flattens_and_drops_none():
    a, b, c = _Counting(), _Counting(), _Counting()
    assert tee() is None
    assert tee(None, None) is None
    assert tee(None, a) is a
    combined = tee(tee(a, b), None, c)
    assert isinstance(combined, Tee)
    assert combined.observers == (a, b, c)
    CdclSolver(pigeonhole(4), config=SolverConfig(observer=combined)).solve()
    assert a.calls == b.calls == c.calls
    assert a.calls["conflict"] > 0


def test_end_sees_none_when_search_raises():
    class Boom(SearchObserver):
        def on_decide(self, solver, lit):
            raise RuntimeError("boom")

    counting = _Counting()
    solver = CdclSolver(
        pigeonhole(4), config=SolverConfig(observer=tee(Boom(), counting))
    )
    with pytest.raises(RuntimeError, match="boom"):
        solver.solve()
    assert counting.statuses == [None]


def test_file_observer_rewrites_its_file_per_solve(tmp_path):
    path = tmp_path / "t.rtrc"
    solver = CdclSolver(
        pigeonhole(5), config=SolverConfig(observer=TraceWriter(str(path)))
    )
    solver.solve()
    first = path.read_bytes()
    solver.solve()
    second = path.read_bytes()
    # The second solve starts from a solved (UNSAT) solver: its trace
    # is a fresh, short file, not an append to the first.
    assert second[:4] == b"RTRC"
    assert len(second) < len(first)


def test_trace_replay_leaves_callers_registry_alone(tmp_path):
    # A replay re-runs the recorded search: with the caller's registry
    # attached it would publish every counter a second time.
    registry = MetricsRegistry()
    path = tmp_path / "php6.rtrc"
    config = SolverConfig(observer=TraceWriter(str(path)), metrics=registry)
    formula = pigeonhole(6)
    outcome = CdclSolver(formula, config=config).solve()
    before = render_json(registry)
    assert registry.value("solver_conflicts_total") == outcome.stats.conflicts
    trace_bytes = path.read_bytes()
    report = replay_trace(formula, str(path), config=config)
    assert report.matches, report.mismatch
    assert render_json(registry) == before
    assert path.read_bytes() == trace_bytes


class _Tripwire(TraceWriter):
    begun = 0

    def begin(self, solver):
        type(self).begun += 1
        super().begin(solver)


@pytest.mark.parametrize("mode", ["race", "deterministic"])
def test_portfolio_members_never_see_the_base_observer(
    mode, tmp_path, monkeypatch
):
    # A member holding the base trace writer would interleave two
    # searches into one file (race) or leave one member's last epoch
    # slice in it (epochs).
    monkeypatch.setattr(race_module, "_available_cpus", lambda: 2)
    monkeypatch.setattr(_Tripwire, "begun", 0)
    path = tmp_path / "base.rtrc"
    result = PortfolioSolver(
        pigeonhole(7),
        members=[
            PortfolioMember(name="vsids", strategy="vsids"),
            PortfolioMember(name="berkmin", strategy="berkmin"),
        ],
        base_config=SolverConfig(observer=_Tripwire(str(path))),
        deterministic=(mode == "deterministic"),
        jobs=2,
    ).solve()
    assert result.status is SolveResult.UNSAT
    assert _Tripwire.begun == 0
    assert not path.exists()
