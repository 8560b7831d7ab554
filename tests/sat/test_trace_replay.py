"""Trace-replay differential oracle tests (PR 8).

``repro.sat.replay.replay_trace`` re-drives a fresh solver from a
captured trace's DECIDE literals and checks three things at once: the
replayed verdict matches the recorded one, the replayed solver's real
state matches the state the events imply, and the replayed event
stream is byte-for-byte the recorded one.  These tests cover SAT,
UNSAT and budget-UNKNOWN traces, prefix (truncated) replays,
assumption runs, and detection of tampered traces.
"""

from __future__ import annotations

import random

import pytest

from repro.sat import CdclSolver, SolverConfig, VsidsStrategy, tee
from repro.sat.replay import ReplayStrategy, TraceExhausted, replay_trace
from repro.sat.trace import (
    EV_DECIDE,
    EV_END,
    EV_LEARN,
    TraceEvent,
    TraceRecorder,
    TraceWriter,
    encode_events,
)
from repro.sat.types import SolveResult
from repro.workloads.cnf_families import pigeonhole
from tests.conftest import random_formula


def _capture(formula, config=None, assumptions=()):
    events = []
    base = config if config is not None else SolverConfig()
    from dataclasses import replace

    solver = CdclSolver(
        formula,
        strategy=VsidsStrategy(),
        config=replace(base, observer=TraceRecorder(events)),
    )
    outcome = solver.solve(assumptions)
    return solver, outcome, events


def test_replay_reproduces_random_runs(rng):
    statuses = set()
    for _ in range(30):
        formula = random_formula(rng, rng.randint(4, 12), rng.randint(8, 60))
        solver, outcome, events = _capture(formula)
        statuses.add(outcome.status)
        report = replay_trace(formula, events)
        assert report.matches, report.mismatch
        assert report.status == outcome.status.value.upper()
        assert report.final_trail == list(solver._trail[: solver._trail_len])
        assert report.decisions_replayed == outcome.stats.decisions
    # The stream must have exercised both verdicts.
    assert statuses == {SolveResult.SAT, SolveResult.UNSAT}


def test_replay_from_file_and_bytes(tmp_path, rng):
    formula = pigeonhole(5)
    path = tmp_path / "php5.rtrc"
    events = []
    config = SolverConfig(
        observer=tee(TraceWriter(str(path)), TraceRecorder(events))
    )
    CdclSolver(formula, strategy=VsidsStrategy(), config=config).solve()
    for source in (str(path), path.read_bytes()):
        report = replay_trace(formula, source)
        assert report.matches, report.mismatch
        assert report.status == "UNSAT"


def test_replay_unknown_budget_run():
    formula = pigeonhole(7)
    config = SolverConfig(max_conflicts=20)
    solver, outcome, events = _capture(formula, config)
    assert outcome.status is SolveResult.UNKNOWN
    # Replaying under the same budget reproduces the UNKNOWN stop.
    report = replay_trace(formula, events, config=config)
    assert report.matches, report.mismatch
    assert report.status == "UNKNOWN"


def test_replay_prefix_is_exhausted_not_sat(rng):
    # Replaying a truncated trace must never invent a verdict: the
    # strategy raises instead of returning the all-assigned sentinel.
    for _ in range(20):
        formula = random_formula(rng, 10, rng.randint(20, 60))
        solver, outcome, events = _capture(formula)
        decisions = [e for e in events if e.kind == EV_DECIDE]
        if len(decisions) < 4:
            continue
        # Cut the stream right after an early decision.
        cut_at = events.index(decisions[len(decisions) // 2])
        prefix = events[: cut_at + 1]
        report = replay_trace(formula, prefix)
        assert report.status == "EXHAUSTED"
        assert report.matches, report.mismatch


def test_replay_strategy_raises_on_exhaustion():
    strategy = ReplayStrategy([4, 7])
    assert strategy.decide() == 4
    assert strategy.decide() == 7
    assert strategy.consumed == 2
    with pytest.raises(TraceExhausted):
        strategy.decide()


def test_replay_with_assumptions(rng):
    for _ in range(10):
        formula = random_formula(rng, 10, rng.randint(15, 40))
        assumptions = [0, 3]
        solver, outcome, events = _capture(formula, assumptions=assumptions)
        report = replay_trace(formula, events, assumptions=assumptions)
        assert report.matches, report.mismatch
        assert report.status == outcome.status.value.upper()


def test_replay_detects_tampered_trace():
    formula = pigeonhole(5)
    solver, outcome, events = _capture(formula)
    # Flip the recorded verdict: UNSAT -> SAT.
    tampered = [
        TraceEvent(e.kind, 1 if e.kind == EV_END else e.arg) for e in events
    ]
    report = replay_trace(formula, tampered)
    assert not report.matches
    assert "verdict" in report.mismatch

    # Corrupt a learned-clause length: the replayed stream differs.
    learn_at = next(i for i, e in enumerate(events) if e.kind == EV_LEARN)
    tampered = list(events)
    tampered[learn_at] = TraceEvent(EV_LEARN, events[learn_at].arg + 1)
    report = replay_trace(formula, tampered)
    assert not report.matches
    assert "event" in report.mismatch


def test_replay_detects_wrong_formula(rng):
    # A trace replayed against a different formula must not silently
    # "match": decisions drive a different search whose events diverge.
    f1 = random_formula(random.Random(11), 10, 40)
    f2 = random_formula(random.Random(12), 10, 40)
    solver, outcome, events = _capture(f1)
    report = replay_trace(f2, events)
    assert not report.matches


def test_replay_accepts_encoded_bytes_round_trip(rng):
    formula = random_formula(rng, 8, 30)
    solver, outcome, events = _capture(formula)
    blob = encode_events(events, formula.num_vars)
    report = replay_trace(formula, blob)
    assert report.matches, report.mismatch
