"""Unit and property tests for the binary solver-trace codec (PR 8).

Covers the ``repro.sat.trace`` wire format — varint/zigzag round-trips,
header validation, truncation/garbage rejection — and the solver
integration: file and in-memory sinks record identical streams, the
:class:`TraceState` simulator reconstructs the solver's final trail,
and tracing never perturbs the search.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.cnf import CnfFormula
from repro.sat import CdclSolver, SolverConfig, VsidsStrategy, tee
from repro.sat.trace import (
    EV_ASSUME,
    EV_BACKTRACK,
    EV_CONFLICT,
    EV_DECIDE,
    EV_END,
    EV_ENQUEUE,
    EV_LEARN,
    EV_REDUCE,
    EV_RESTART,
    EVENT_NAMES,
    LIT_EVENTS,
    STATUS_NAMES,
    STATUS_SAT,
    STATUS_UNKNOWN,
    STATUS_UNSAT,
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceEvent,
    TraceFormatError,
    TraceReader,
    TraceRecorder,
    TraceState,
    TraceVersionError,
    TraceWriter,
    decode_trace,
    encode_events,
    unzigzag,
    zigzag,
)
from repro.sat.types import SolveResult
from repro.workloads.cnf_families import pigeonhole
from tests.conftest import random_formula


# ----------------------------------------------------------------------
# Varint / zigzag primitives.
# ----------------------------------------------------------------------


def test_zigzag_round_trip_small_values():
    for value in range(-300, 300):
        encoded = zigzag(value)
        assert encoded >= 0
        assert unzigzag(encoded) == value


def test_zigzag_orders_by_magnitude():
    # Small magnitudes (either sign) must encode small — that is the
    # whole point of zigzag for the delta chain.
    assert zigzag(0) == 0
    assert zigzag(-1) == 1
    assert zigzag(1) == 2
    assert zigzag(-2) == 3
    assert zigzag(2) == 4


# ----------------------------------------------------------------------
# Random event-stream round trips.
# ----------------------------------------------------------------------


def _random_events(rng: random.Random, num_vars: int, count: int):
    """A random but *structurally unconstrained* event stream: the codec
    must round-trip any (tag, arg) sequence, not just legal searches."""
    events = []
    for _ in range(count):
        kind = rng.randrange(EV_END + 1)
        if kind in LIT_EVENTS:
            arg = rng.randrange(2 * num_vars)
        elif kind == EV_END:
            arg = rng.choice((STATUS_SAT, STATUS_UNSAT, STATUS_UNKNOWN))
        else:
            arg = rng.randrange(1 << rng.randrange(1, 24))
        events.append(TraceEvent(kind, arg))
    return events


def test_round_trip_random_streams(rng):
    for trial in range(50):
        num_vars = rng.choice((1, 3, 50, 4096, 2**20, 2**40))
        events = _random_events(rng, num_vars, rng.randrange(0, 200))
        blob = encode_events(events, num_vars)
        got_vars, got_events = decode_trace(blob)
        assert got_vars == num_vars, f"trial {trial}"
        assert got_events == events, f"trial {trial}"


def test_round_trip_extreme_level_jumps(rng):
    # Alternating far-apart literals force maximal deltas through the
    # zigzag chain in both directions.
    num_vars = 2**40
    lits = [0, 2 * num_vars - 1] * 50 + [rng.randrange(2 * num_vars) for _ in range(100)]
    events = [TraceEvent(EV_ENQUEUE, lit) for lit in lits]
    assert decode_trace(encode_events(events, num_vars)) == (num_vars, events)


def test_round_trip_empty_trace():
    blob = encode_events([], num_vars=17)
    num_vars, events = decode_trace(blob)
    assert num_vars == 17
    assert events == []


def test_file_and_memory_encodings_identical(tmp_path, rng):
    events = _random_events(rng, 500, 300)
    path = tmp_path / "t.rtrc"
    writer = TraceWriter(str(path))
    writer.open(500)
    for event in events:
        writer.write_event(event)
    writer.close()
    assert path.read_bytes() == encode_events(events, 500)
    # BinaryIO sink produces the same bytes too.
    sink = io.BytesIO()
    writer = TraceWriter(sink)
    writer.open(500)
    for event in events:
        writer.write_event(event)
    writer.flush()
    assert sink.getvalue() == path.read_bytes()


def test_writer_buffers_past_flush_threshold(tmp_path):
    # >64 KiB of events must stream through the internal buffer without
    # corrupting the delta chain across flush boundaries.
    path = tmp_path / "big.rtrc"
    writer = TraceWriter(str(path))
    writer.open(2**30)
    rng = random.Random(8)
    lits = [rng.randrange(2**31) for _ in range(60_000)]
    writer.enqueue_run(lits, 0, len(lits))
    writer.write_event(TraceEvent(EV_END, STATUS_UNKNOWN))
    writer.close()
    assert path.stat().st_size > 64 * 1024
    _, events = decode_trace(str(path))
    assert [e.arg for e in events[:-1]] == lits
    assert events[-1] == TraceEvent(EV_END, STATUS_UNKNOWN)


# ----------------------------------------------------------------------
# Header validation and corrupt-stream rejection.
# ----------------------------------------------------------------------


def test_reader_rejects_bad_magic():
    blob = bytearray(encode_events([], 4))
    blob[:4] = b"XXXX"
    with pytest.raises(TraceFormatError):
        TraceReader(bytes(blob))


def test_reader_rejects_version_mismatch():
    blob = bytearray(encode_events([], 4))
    blob[4] = TRACE_VERSION + 1
    with pytest.raises(TraceVersionError):
        TraceReader(bytes(blob))
    # TraceVersionError is a TraceFormatError: one except clause covers
    # both "not a trace" and "a trace from the future".
    assert issubclass(TraceVersionError, TraceFormatError)


def test_reader_rejects_reserved_flags():
    blob = bytearray(encode_events([], 4))
    # Header layout: magic(4) version(1) varint(num_vars=4 -> 1 byte)
    # varint(flags).  Flip the reserved flags byte.
    blob[6] = 1
    with pytest.raises(TraceFormatError):
        TraceReader(bytes(blob))


def test_reader_rejects_truncated_header_and_stream():
    full = encode_events([TraceEvent(EV_CONFLICT, 5)], 4)
    header_len = len(encode_events([], 4))
    for cut in range(1, len(full)):
        if cut == header_len:
            continue  # a complete header with no events IS a valid trace
        truncated = full[:cut]
        with pytest.raises(TraceFormatError):
            TraceReader(truncated).events()


def test_reader_rejects_unknown_event_tag():
    blob = encode_events([], 4) + bytes([EV_END + 1, 0])
    with pytest.raises(TraceFormatError):
        TraceReader(blob).events()


def test_event_names_cover_all_tags():
    assert len(EVENT_NAMES) == EV_END + 1
    assert TraceEvent(EV_DECIDE, 3).name == "DECIDE"
    assert set(STATUS_NAMES) == {STATUS_SAT, STATUS_UNSAT, STATUS_UNKNOWN}


# ----------------------------------------------------------------------
# Solver integration.
# ----------------------------------------------------------------------


def _solve_traced(formula, tmp_path, **config_kwargs):
    events = []
    path = tmp_path / "solve.rtrc"
    config = SolverConfig(
        observer=tee(TraceWriter(str(path)), TraceRecorder(events)),
        **config_kwargs,
    )
    solver = CdclSolver(formula, strategy=VsidsStrategy(), config=config)
    outcome = solver.solve()
    return solver, outcome, events, path


def test_solver_file_and_memory_streams_identical(tmp_path, rng):
    for _ in range(20):
        formula = random_formula(rng, rng.randint(4, 12), rng.randint(8, 50))
        solver, outcome, events, path = _solve_traced(formula, tmp_path)
        num_vars, decoded = decode_trace(str(path))
        assert num_vars == formula.num_vars
        assert decoded == events


def test_trace_state_reconstructs_final_trail(tmp_path, rng):
    for _ in range(20):
        formula = random_formula(rng, rng.randint(4, 12), rng.randint(8, 50))
        solver, outcome, events, _ = _solve_traced(formula, tmp_path)
        state = TraceState(formula.num_vars)
        state.apply_all(events)
        assert state.trail == list(solver._trail[: solver._trail_len])
        assert state.level == solver._decision_level
        expected = {
            SolveResult.SAT: STATUS_SAT,
            SolveResult.UNSAT: STATUS_UNSAT,
        }[outcome.status]
        assert state.status == expected
        assert state.status_name == outcome.status.value.upper()


def test_tracing_does_not_perturb_search(tmp_path):
    formula = pigeonhole(6)
    plain = CdclSolver(
        formula, strategy=VsidsStrategy(), config=SolverConfig()
    ).solve()
    solver, traced, events, _ = _solve_traced(formula, tmp_path)
    assert traced.status is plain.status
    assert (
        traced.stats.decisions,
        traced.stats.propagations,
        traced.stats.conflicts,
        traced.stats.learned_clauses,
    ) == (
        plain.stats.decisions,
        plain.stats.propagations,
        plain.stats.conflicts,
        plain.stats.learned_clauses,
    )


def test_tracing_disabled_by_default():
    config = SolverConfig()
    assert config.observer is None
    solver = CdclSolver(pigeonhole(3), strategy=VsidsStrategy(), config=config)
    solver.solve()
    assert solver._observer is None


def test_trace_records_assumptions(tmp_path):
    formula = random_formula(random.Random(3), 8, 20)
    events = []
    config = SolverConfig(observer=TraceRecorder(events))
    solver = CdclSolver(formula, strategy=VsidsStrategy(), config=config)
    outcome = solver.solve(assumptions=[0, 2])
    kinds = [e.kind for e in events]
    if outcome.status is SolveResult.SAT:
        # A SAT answer means every assumption level was opened (and the
        # search may have re-opened them after deep backtracks).
        assert kinds.count(EV_ASSUME) >= 2
    state = TraceState(formula.num_vars)
    state.apply_all(events)
    assert state.trail == list(solver._trail[: solver._trail_len])


def test_trace_end_status_unknown_on_budget(tmp_path):
    formula = pigeonhole(7)
    events = []
    config = SolverConfig(observer=TraceRecorder(events), max_conflicts=5)
    outcome = CdclSolver(formula, strategy=VsidsStrategy(), config=config).solve()
    assert outcome.status is SolveResult.UNKNOWN
    assert events[-1] == TraceEvent(EV_END, STATUS_UNKNOWN)


def test_trace_event_counts_match_solver_stats(tmp_path, rng):
    formula = pigeonhole(6)
    solver, outcome, events, _ = _solve_traced(formula, tmp_path)
    kinds = [e.kind for e in events]
    assert kinds.count(EV_DECIDE) == outcome.stats.decisions
    assert kinds.count(EV_CONFLICT) == outcome.stats.conflicts
    assert kinds.count(EV_LEARN) == outcome.stats.learned_clauses
    assert kinds.count(EV_RESTART) == outcome.stats.restarts
    deleted = sum(e.arg for e in events if e.kind == EV_REDUCE)
    assert deleted == outcome.stats.deleted_clauses
    # Learned-clause lengths are real lengths, never zero.
    assert all(e.arg >= 1 for e in events if e.kind == EV_LEARN)
    # Every BACKTRACK lands at or below the preceding conflict level.
    assert all(e.arg >= 0 for e in events if e.kind == EV_BACKTRACK)


def test_trace_header_constants():
    blob = encode_events([], 9)
    assert blob[:4] == TRACE_MAGIC
    assert blob[4] == TRACE_VERSION
