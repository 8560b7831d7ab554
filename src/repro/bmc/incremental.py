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
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.circuit.netlist import Circuit
from repro.cnf.literals import lit_neg
from repro.encode.unroll import Unroller
from repro.sat.heuristics import DecisionStrategy, RankedStrategy, VsidsStrategy
from repro.sat.solver import CdclSolver, SolverConfig
from repro.sat.types import SolveResult
from repro.bmc.engine import resolve_unroller
from repro.bmc.refine import WEIGHTINGS, bmc_score_update
from repro.bmc.result import BmcResult, BmcStatus, DepthStats, Trace

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


class IncrementalBmcEngine:
    """Bounded model checking on a single growing SAT instance.

    ``mode`` selects the decision ordering: ``"vsids"`` (incremental
    baseline), or ``"static"`` / ``"dynamic"`` for the paper's refined
    orderings driven by relative unsat cores.
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
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        config = solver_config or SolverConfig()
        if mode != "vsids" and not config.record_cdg:
            raise ValueError("refined incremental BMC requires record_cdg=True")
        self.circuit = circuit
        self.property_net = property_net
        self.max_depth = max_depth
        self.mode = mode
        self.switch_divisor = switch_divisor
        self.weighting = weighting
        self.solver_config = config
        self.time_budget = time_budget
        self.verify_traces = verify_traces
        self.unroller = resolve_unroller(circuit, property_net, use_coi, unroller)
        self.var_rank: Dict[int, float] = {}
        self._solver = CdclSolver(config=config)
        self._clauses_fed = 0

    def _feed_frames(self, k: int) -> None:
        """Stream frames up to ``k`` into the persistent solver (the
        shared :func:`feed_frames` helper, watermark kept per engine)."""
        self._clauses_fed = feed_frames(
            self._solver, self.unroller, k, self._clauses_fed
        )

    def _strategy_for_depth(self) -> DecisionStrategy:
        if self.mode == "vsids":
            return VsidsStrategy()
        return RankedStrategy(
            self.var_rank,
            dynamic=(self.mode == "dynamic"),
            switch_divisor=self.switch_divisor,
        )

    def run(self) -> BmcResult:
        """Execute the incremental depth loop; see :class:`BmcResult`."""
        start = time.perf_counter()
        result = BmcResult(status=BmcStatus.PASSED_BOUNDED, depth_reached=-1)
        for k in range(self.max_depth + 1):
            if (
                self.time_budget is not None
                and time.perf_counter() - start > self.time_budget
            ):
                result.status = BmcStatus.BUDGET_EXHAUSTED
                break
            # Encode first, so the install span times the batch alone.
            self.unroller.ensure_frames(k)
            install_start = time.perf_counter()
            self._feed_frames(k)
            install_time = time.perf_counter() - install_start
            property_lit = self.unroller.lit_of(self.property_net, k)
            strategy = self._strategy_for_depth()
            outcome = self._solver.solve(
                assumptions=[lit_neg(property_lit)], strategy=strategy
            )
            depth_stats = DepthStats(
                k=k,
                status=outcome.status.value,
                num_vars=self._solver.num_vars,
                num_clauses=self._clauses_fed,
                decisions=outcome.stats.decisions,
                propagations=outcome.stats.propagations,
                conflicts=outcome.stats.conflicts,
                solve_time=outcome.stats.solve_time,
                core_clauses=(
                    len(outcome.core_clauses)
                    if outcome.core_clauses is not None
                    else None
                ),
                core_vars=(
                    len(outcome.core_vars) if outcome.core_vars is not None else None
                ),
                switched=(
                    strategy.switched if isinstance(strategy, RankedStrategy) else None
                ),
                root_pruned=outcome.stats.root_pruned_clauses,
                install_time=install_time,
            )
            result.per_depth.append(depth_stats)
            if outcome.status is SolveResult.UNKNOWN:
                result.status = BmcStatus.BUDGET_EXHAUSTED
                break
            result.depth_reached = k
            if outcome.status is SolveResult.SAT:
                result.status = BmcStatus.FAILED
                result.trace = self._build_trace(k, outcome.model)
                break
            if self.mode != "vsids" and outcome.core_vars is not None:
                bmc_score_update(self.var_rank, outcome.core_vars, k, self.weighting)
        result.total_time = time.perf_counter() - start
        return result

    def _build_trace(self, k: int, model) -> Trace:
        return decode_trace(
            self.circuit, self.unroller, self.property_net, k, model,
            verify=self.verify_traces,
        )


def decode_trace(
    circuit: Circuit,
    unroller: Unroller,
    property_net: int,
    k: int,
    model,
    verify: bool = True,
) -> Trace:
    """Decode a depth-``k`` model from an incremental unroller into a
    :class:`Trace` (shared by the incremental and portfolio engines);
    optionally re-simulate the counterexample before returning it."""
    inputs = [
        {
            net: model[unroller.lit_of(net, frame) >> 1]
            ^ (unroller.lit_of(net, frame) & 1)
            for net in unroller.nets_inputs
        }
        for frame in range(k + 1)
    ]
    initial_state = {
        net: model[unroller.lit_of(net, 0) >> 1]
        ^ (unroller.lit_of(net, 0) & 1)
        for net in unroller.nets_latches
    }
    trace = Trace(
        depth=k,
        inputs=inputs,
        initial_state=initial_state,
        property_net=property_net,
    )
    if verify:
        frames = circuit.simulate(inputs, initial_state=initial_state)
        if frames[k][property_net] != 0:
            raise AssertionError(
                "internal error: counterexample fails re-simulation"
            )
    return trace
