"""Trace replay: re-drive a solver from a recorded event stream.

A trace (``repro.sat.trace``) records every search-level choice the
solver made — in particular the exact DECIDE literals, *after* the
phase policy was applied.  Feeding those literals back as the decision
strategy on the same formula therefore reproduces the entire run:
every propagation, conflict, learned clause, backtrack and restart
falls out of the solver's own deterministic machinery.  That makes a
trace a run-reproducing bug artifact and a differential oracle in one:

* the **replayed solver's real state** (trail, per-variable levels,
  learned count, verdict) must equal the state the *recorded events
  imply* (:class:`repro.sat.trace.TraceState`), and
* the replayed solver's own event stream must be byte-for-byte the
  recorded one (modulo the END record when replaying a prefix).

Any divergence means either the trace is corrupt or the two solver
builds disagree — exactly what a differential oracle is for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.cnf.formula import CnfFormula
from repro.sat.heuristics import DecisionStrategy
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.trace import (
    EV_DECIDE,
    EV_END,
    STATUS_NAMES,
    TraceError,
    TraceEvent,
    TraceReader,
    TraceRecorder,
    TraceState,
)
from repro.sat.types import SolveResult

__all__ = [
    "ReplayStrategy",
    "ReplayReport",
    "TraceExhausted",
    "replay_trace",
]


class TraceExhausted(TraceError):
    """The replayed search asked for a decision beyond the recorded
    prefix.  Deliberately an exception, not a sentinel: returning ``-1``
    from a strategy means "all variables assigned" and would turn an
    incomplete trace into a bogus SAT verdict."""


class ReplayStrategy(DecisionStrategy):
    """Feed recorded DECIDE literals back to the solver, in order.

    Must run under ``phase_mode="default"``: the recorded literals are
    post-phase-policy, so re-applying a non-identity policy (e.g.
    ``inverted``) would rewrite them a second time.
    :func:`replay_trace` forces that; direct users must do the same.
    """

    name = "replay"

    def __init__(self, decisions: Sequence[int]) -> None:
        super().__init__()
        self._decisions = list(decisions)
        self._next = 0

    @property
    def consumed(self) -> int:
        return self._next

    def decide(self) -> int:
        i = self._next
        decisions = self._decisions
        if i >= len(decisions):
            raise TraceExhausted(
                f"replay consumed all {len(decisions)} recorded decisions "
                f"but the search wants another"
            )
        self._next = i + 1
        return decisions[i]


@dataclass
class ReplayReport:
    """Outcome of one :func:`replay_trace` run.

    ``status`` is the replayed solver's verdict name (``"SAT"`` /
    ``"UNSAT"`` / ``"UNKNOWN"``) or ``"EXHAUSTED"`` when the recorded
    decision prefix ran out mid-search (expected when replaying a
    truncated trace).  ``matches`` is the oracle verdict; on a
    mismatch, ``mismatch`` names the first divergence.
    """

    status: str
    matches: bool
    mismatch: Optional[str]
    decisions_replayed: int
    #: The replayed solver's own event stream (in-memory recording).
    events: List[TraceEvent]
    #: State implied by the *recorded* events.
    expected: TraceState
    solver: CdclSolver

    @property
    def final_trail(self) -> List[int]:
        return list(self.solver._trail[: self.solver._trail_len])


def _solver_mismatch(
    solver: CdclSolver, expected: TraceState
) -> Optional[str]:
    """First divergence between a solver's real state and the
    event-implied state, or None."""
    trail = list(solver._trail[: solver._trail_len])
    if trail != expected.trail:
        n = min(len(trail), len(expected.trail))
        for i in range(n):
            if trail[i] != expected.trail[i]:
                return (
                    f"trail diverges at position {i}: solver has literal "
                    f"{trail[i]}, trace implies {expected.trail[i]}"
                )
        return (
            f"trail length {len(trail)} != trace-implied "
            f"{len(expected.trail)}"
        )
    levels = solver._levels
    for lit in expected.trail:
        var = lit >> 1
        if levels[var] != expected.levels[var]:
            return (
                f"variable {var} assigned at level {levels[var]}, trace "
                f"implies level {expected.levels[var]}"
            )
    if solver._decision_level != expected.level:
        return (
            f"decision level {solver._decision_level} != trace-implied "
            f"{expected.level}"
        )
    if solver.stats.learned_clauses != expected.learned:
        return (
            f"learned {solver.stats.learned_clauses} clauses, trace "
            f"implies {expected.learned}"
        )
    if solver.stats.conflicts != expected.conflicts:
        return (
            f"saw {solver.stats.conflicts} conflicts, trace implies "
            f"{expected.conflicts}"
        )
    return None


def _events_mismatch(
    recorded: Sequence[TraceEvent],
    replayed: Sequence[TraceEvent],
    prefix_only: bool,
) -> Optional[str]:
    if prefix_only:
        # An exhausted replay ran past the recorded suffix; everything
        # up to the recorded stream's end (sans END) must still agree.
        reference = [ev for ev in recorded if ev[0] != EV_END]
        candidate = list(replayed[: len(reference)])
    else:
        reference = list(recorded)
        candidate = list(replayed)
    if candidate == reference:
        return None
    n = min(len(reference), len(candidate))
    for i in range(n):
        if reference[i] != candidate[i]:
            return (
                f"event {i}: recorded {TraceEvent(*reference[i])!r}, "
                f"replay produced {TraceEvent(*candidate[i])!r}"
            )
    return (
        f"replay produced {len(candidate)} events, recorded stream has "
        f"{len(reference)}"
    )


def replay_trace(
    formula: CnfFormula,
    trace: Union[str, bytes, bytearray, Sequence[Tuple[int, int]]],
    config: Optional[SolverConfig] = None,
    assumptions: Sequence[int] = (),
) -> ReplayReport:
    """Drive a fresh solver's decisions from a captured trace and check
    that it reproduces the recorded search.

    ``trace`` is a trace file path, raw trace bytes, or an
    already-decoded event sequence.  ``config`` should be the original
    run's config (budgets included — an UNKNOWN trace only replays to
    byte equality under the same budgets); ``phase_mode`` is forced to
    ``"default"``, the config's observer is replaced by the replay's
    own :class:`TraceRecorder` and its ``metrics`` registry is dropped,
    so a replay writes no capture file and publishes nothing.  For
    runs made under assumptions, pass the same ``assumptions``.
    """
    if isinstance(trace, (str, bytes, bytearray)):
        events = TraceReader(trace).events()
    else:
        events = [TraceEvent(kind, arg) for kind, arg in trace]

    expected = TraceState(formula.num_vars)
    expected.apply_all(events)

    decisions = [arg for kind, arg in events if kind == EV_DECIDE]
    strategy = ReplayStrategy(decisions)

    replayed: List[TraceEvent] = []
    base = config if config is not None else SolverConfig()
    replay_config = replace(
        base,
        phase_mode="default",
        observer=TraceRecorder(replayed),
        metrics=None,
    )
    solver = CdclSolver(formula, strategy=strategy, config=replay_config)
    exhausted = False
    try:
        outcome = solver.solve(assumptions)
    except TraceExhausted:
        exhausted = True

    if exhausted:
        status = "EXHAUSTED"
        mismatch = _events_mismatch(events, replayed, prefix_only=True)
    else:
        status = {
            SolveResult.SAT: STATUS_NAMES[1],
            SolveResult.UNSAT: STATUS_NAMES[2],
            SolveResult.UNKNOWN: STATUS_NAMES[3],
        }[outcome.status]
        mismatch = None
        if expected.status is not None and expected.status_name != status:
            mismatch = (
                f"verdict {status}, trace recorded {expected.status_name}"
            )
        if mismatch is None:
            mismatch = _solver_mismatch(solver, expected)
        if mismatch is None:
            mismatch = _events_mismatch(events, replayed, prefix_only=False)

    return ReplayReport(
        status=status,
        matches=mismatch is None,
        mismatch=mismatch,
        decisions_replayed=strategy.consumed,
        events=replayed,
        expected=expected,
        solver=solver,
    )
