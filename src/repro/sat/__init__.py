"""CDCL SAT solving with unsat-core extraction via a simplified CDG.

Public surface:

* :class:`CdclSolver` / :func:`solve_formula` — the solver.
* :class:`SolverConfig` — tunables and budgets.
* :class:`SolveOutcome`, :class:`SolveResult` — results.
* Strategies: :class:`VsidsStrategy`, :class:`RankedStrategy`,
  :class:`BerkMinStrategy`, :class:`FixedOrderStrategy` — heap-backed
  via :class:`VariableActivityHeap` on the python kernel and the C
  ``NativeActivityHeap`` on the native one (see
  ``repro.sat.heuristics``).
* :class:`ConflictDependencyGraph` — the paper's §3.1 structure.
* :func:`check_proof` / :class:`ResolutionProof` — independent UNSAT
  verification.
* :class:`ClauseArena` — the flat literal store every clause lives in
  (see ``docs/architecture.md`` for the memory layout).
* :class:`SearchObserver` / :func:`tee` (``repro.sat.observer``) — the
  one capture seam, ``SolverConfig.observer``.
* Trace telemetry: :class:`TraceWriter` / :class:`TraceRecorder` /
  :class:`TraceReader` / :class:`TraceEvent` / :class:`TraceState`
  (``repro.sat.trace``) and :func:`replay_trace` /
  :class:`ReplayReport` (``repro.sat.replay``).
"""

from repro.sat.activity_heap import VariableActivityHeap
from repro.sat.arena import ClauseArena
from repro.sat.cdg import ConflictDependencyGraph
from repro.sat.observer import SearchObserver, tee
from repro.sat.heuristics import (
    BerkMinStrategy,
    DecisionStrategy,
    FixedOrderStrategy,
    RankedStrategy,
    VsidsStrategy,
)
from repro.sat.portfolio import (
    PortfolioMember,
    PortfolioOutcome,
    PortfolioSolver,
    default_members,
)
from repro.sat.race import MemberReport, PortfolioWorkerError, SharedClauseBus
from repro.sat.proof import ProofError, ResolutionProof, check_proof
from repro.sat.solver import (
    MINIMIZE_MODES,
    PHASE_MODES,
    CdclSolver,
    InstallTemplate,
    SolverConfig,
    luby,
    solve_formula,
)
from repro.sat.elimination import EliminationResult, eliminate_variables
from repro.sat.proof import drup_str, write_drup
from repro.sat.simplify import SimplifyResult, simplify
from repro.sat.trim import TrimResult, trim_core
from repro.sat.replay import (
    ReplayReport,
    ReplayStrategy,
    TraceExhausted,
    replay_trace,
)
from repro.sat.stats import SolverStats
from repro.sat.trace import (
    TraceError,
    TraceEvent,
    TraceFormatError,
    TraceReader,
    TraceRecorder,
    TraceState,
    TraceVersionError,
    TraceWriter,
)
from repro.sat.types import SolveOutcome, SolveResult

__all__ = [
    "CdclSolver",
    "InstallTemplate",
    "ClauseArena",
    "SolverConfig",
    "MINIMIZE_MODES",
    "PHASE_MODES",
    "VariableActivityHeap",
    "solve_formula",
    "luby",
    "SolveOutcome",
    "SolveResult",
    "SolverStats",
    "DecisionStrategy",
    "VsidsStrategy",
    "RankedStrategy",
    "BerkMinStrategy",
    "FixedOrderStrategy",
    "ConflictDependencyGraph",
    "ResolutionProof",
    "ProofError",
    "check_proof",
    "TrimResult",
    "trim_core",
    "SimplifyResult",
    "simplify",
    "EliminationResult",
    "eliminate_variables",
    "write_drup",
    "drup_str",
    "PortfolioSolver",
    "PortfolioMember",
    "PortfolioOutcome",
    "MemberReport",
    "PortfolioWorkerError",
    "SharedClauseBus",
    "default_members",
    "SearchObserver",
    "tee",
    "TraceWriter",
    "TraceRecorder",
    "TraceReader",
    "TraceEvent",
    "TraceState",
    "TraceError",
    "TraceFormatError",
    "TraceVersionError",
    "ReplayStrategy",
    "ReplayReport",
    "TraceExhausted",
    "replay_trace",
]
