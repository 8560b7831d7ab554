"""Incremental BMC: one persistent solver across all depths.

The paper's related work ([17] SATIRE, [5] Eén–Sörensson) exploits BMC's
incremental nature by *reusing the solver* — transition clauses are added
once per frame and learned conflict clauses survive into later depths.
The paper notes its refined ordering "can be combined with these
incremental techniques to further improve their performance"; this module
is that combination.

Mechanics:

* frames are streamed into a single :class:`~repro.sat.solver.CdclSolver`
  via the unroller's incremental clause interface;
* the depth-``k`` property constraint is not a clause but a unit
  *assumption* ``not P(V_k)``, so it vanishes automatically at ``k+1``
  (no activation variables needed, and learned clauses remain valid);
* UNSAT-under-assumption answers yield relative cores, which feed the
  same ``bmc_score`` ranking as in the one-shot engine — realising the
  paper's Fig. 5 loop on an incremental substrate.

Learned-clause reuse is the second transfer channel: VSIDS tie-breaking
inside the ranked ordering sees conflict clauses from *all* previous
depths, not just the current one.

The engine runs the shared depth loop, :meth:`BmcEngine.run
<repro.bmc.engine.BmcEngine.run>` — budgets, per-depth records, metrics,
counterexample decoding — and supplies only its depth step (feed the
frame batch, solve under the assumption) and its refinement step.  The
persistent solver is per-run state: created when ``run()`` starts and
dropped when it returns, like the one-shot engines' install template.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.circuit.netlist import Circuit
from repro.cnf.literals import lit_neg
from repro.encode.unroll import Unroller
from repro.sat.heuristics import DecisionStrategy, RankedStrategy, VsidsStrategy
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.types import SolveOutcome
from repro.bmc.engine import BmcEngine, DepthSolve
from repro.bmc.refine import WEIGHTINGS, bmc_score_update
from repro.bmc.result import BmcResult

_MODES = ("vsids", "static", "dynamic")


def feed_frames(solver: CdclSolver, unroller: Unroller, k: int, fed: int) -> int:
    """Stream unroller frames up to depth ``k`` into a persistent solver.

    Returns the new clause watermark (pass it back as ``fed`` on the
    next call).  The feed is bounded by the depth-``k`` watermarks, not
    by whatever the unroller happens to hold: a shared unroller (the
    encoding cache, or several portfolio solvers drawing from one
    unroller) may already have encoded deeper frames for another
    engine, and ingesting those early would change every search-derived
    statistic.  Bounded this way, the clause stream is byte-identical
    warm or cold, and identical for every consumer of the same
    unroller.
    """
    stop = unroller.clause_watermark(k)
    solver.ensure_num_vars(unroller.var_watermark(k))
    solver.add_clauses(unroller.clauses_since(fed, stop).literals())
    return stop


class IncrementalBmcEngine(BmcEngine):
    """Bounded model checking on a single growing SAT instance.

    ``mode`` selects the decision ordering: ``"vsids"`` (incremental
    baseline), or ``"static"`` / ``"dynamic"`` for the paper's refined
    orderings driven by relative unsat cores.  ``var_rank`` is the
    run's ``bmc_score`` table, reset when ``run()`` starts.
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        mode: str = "vsids",
        switch_divisor: int = 64,
        weighting: str = "linear",
        solver_config: Optional[SolverConfig] = None,
        use_coi: bool = False,
        time_budget: Optional[float] = None,
        verify_traces: bool = True,
        unroller: Optional[Unroller] = None,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")
        config = solver_config or SolverConfig()
        if mode != "vsids" and not config.record_cdg:
            raise ValueError("refined incremental BMC requires record_cdg=True")
        super().__init__(
            circuit, property_net, max_depth, solver_config=config,
            use_coi=use_coi, time_budget=time_budget,
            verify_traces=verify_traces, unroller=unroller,
        )
        self.mode = mode
        self.switch_divisor = switch_divisor
        self.weighting = weighting
        self.var_rank: Dict[int, float] = {}
        # The run's persistent solver and its clause watermark.
        self._solver: Optional[CdclSolver] = None
        self._clauses_fed = 0

    def run(self) -> BmcResult:
        """The shared depth loop on one persistent solver; see
        :meth:`BmcEngine.run` (kept in this class so the incremental
        engine's runs can be timed apart from the one-shot engines')."""
        return super().run()

    def _begin_run(self) -> None:
        super()._begin_run()
        self.var_rank = {}
        self._solver = CdclSolver(config=self.solver_config)
        self._clauses_fed = 0

    def _end_run(self) -> None:
        super()._end_run()
        self._solver = None

    def _solve_depth(self, k: int) -> DepthSolve:
        solver = self._solver
        assert solver is not None
        # Encode first, so the install span times the batch alone.
        self.unroller.ensure_frames(k)
        install_start = time.perf_counter()
        self._clauses_fed = feed_frames(solver, self.unroller, k, self._clauses_fed)
        install_time = time.perf_counter() - install_start
        strategy: DecisionStrategy
        if self.mode == "vsids":
            strategy = VsidsStrategy()
        else:
            strategy = RankedStrategy(
                self.var_rank,
                dynamic=(self.mode == "dynamic"),
                switch_divisor=self.switch_divisor,
            )
        property_lit = self.unroller.lit_of(self.property_net, k)
        outcome = solver.solve(assumptions=[lit_neg(property_lit)], strategy=strategy)
        extras: Dict[str, Any] = {
            "num_vars": solver.num_vars,
            "num_clauses": self._clauses_fed,
            "install_time": install_time,
        }
        if isinstance(strategy, RankedStrategy):
            extras["switched"] = strategy.switched
        return outcome, extras

    def on_unsat(self, k: int, outcome: SolveOutcome) -> None:
        """The ``bmc_score`` update from the relative core (refined
        modes only)."""
        if self.mode != "vsids" and outcome.core_vars is not None:
            bmc_score_update(self.var_rank, outcome.core_vars, k, self.weighting)
