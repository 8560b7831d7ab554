"""The paper's contribution: BMC with successively refined decision
orderings (Fig. 5, §3.2–3.3).

``RefineOrderBmc`` keeps a ``varRank`` table over CNF variables.  After
every UNSAT depth ``j`` it adds ``j`` to the rank of each variable that
appears in that instance's unsatisfiable core::

    bmc_score(x) = sum_{1 <= j <= k} in_unsat(x, j) * j

(recent cores weigh more; no single core is trusted alone).  The next
instance is then solved with a :class:`~repro.sat.heuristics.RankedStrategy`
that sorts decisions primarily by ``bmc_score`` with ``cha_score`` (VSIDS)
as the tiebreaker — statically for the whole solve, or dynamically with a
fallback to pure VSIDS once the decision count exceeds 1/64 of the
original literal count.

Ranks transfer across instances because the unroller gives the same CNF
variable to the same (net, time-frame) pair in every instance.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.circuit.netlist import Circuit
from repro.encode.unroll import BmcInstance
from repro.sat.heuristics import DecisionStrategy, RankedStrategy
from repro.sat.solver import SolverConfig
from repro.sat.types import SolveOutcome
from repro.bmc.engine import BmcEngine

_MODES = ("static", "dynamic")

#: Core-accumulation schemes for the §3.2 ablation.  ``linear`` is the
#: paper's rule; ``uniform`` ignores recency; ``last`` trusts only the
#: most recent core (the failure mode the paper's reason (2) warns about).
WEIGHTINGS = ("linear", "uniform", "last")


def bmc_score_update(
    var_rank: Dict[int, float],
    core_vars: FrozenSet[int],
    k: int,
    weighting: str = "linear",
) -> None:
    """Apply the paper's ``update_ranking`` (or an ablation variant).

    * ``linear``: add weight ``k`` to every core variable —
      ``bmc_score(x) = sum_j in_unsat(x, j) * j``.
    * ``uniform``: add weight 1 regardless of depth.
    * ``last``: discard history; rank only the latest core's variables.

    Core variables are visited in sorted order so ``var_rank``'s dict
    insertion order (and anything that ever iterates it) never inherits
    set hash ordering.
    """
    if weighting == "linear":
        if k <= 0:
            return  # the j = 0 instance carries weight 0 in the paper's sum
        for var in sorted(core_vars):
            var_rank[var] = var_rank.get(var, 0.0) + k
    elif weighting == "uniform":
        for var in sorted(core_vars):
            var_rank[var] = var_rank.get(var, 0.0) + 1.0
    elif weighting == "last":
        var_rank.clear()
        for var in sorted(core_vars):
            var_rank[var] = 1.0
    else:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")


class RefineOrderBmc(BmcEngine):
    """BMC with the refined decision ordering (the paper's
    ``refine_order_bmc``).

    ``mode`` selects the static or dynamic application of the ordering
    (§3.3); ``switch_divisor`` is the dynamic fallback threshold
    denominator (64 in the paper).
    """

    def __init__(
        self,
        circuit: Circuit,
        property_net: int,
        max_depth: int,
        mode: str = "dynamic",
        switch_divisor: int = 64,
        weighting: str = "linear",
        solver_config: Optional[SolverConfig] = None,
        use_coi: bool = False,
        start_depth: int = 0,
        time_budget: Optional[float] = None,
        verify_traces: bool = True,
        unroller=None,
        trace_dir: Optional[str] = None,
        trace_name: str = "bmc",
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if weighting not in WEIGHTINGS:
            raise ValueError(
                f"weighting must be one of {WEIGHTINGS}, got {weighting!r}"
            )
        self.mode = mode
        self.switch_divisor = switch_divisor
        self.weighting = weighting
        self.var_rank: Dict[int, float] = {}
        config = solver_config or SolverConfig()
        if not config.record_cdg:
            raise ValueError(
                "refine-order BMC requires CDG recording (record_cdg=True)"
            )
        super().__init__(
            circuit,
            property_net,
            max_depth,
            solver_config=config,
            use_coi=use_coi,
            start_depth=start_depth,
            time_budget=time_budget,
            verify_traces=verify_traces,
            unroller=unroller,
            trace_dir=trace_dir,
            trace_name=trace_name,
        )

    def make_strategy(self, instance: BmcInstance, k: int) -> DecisionStrategy:
        return RankedStrategy(
            self.var_rank,
            dynamic=(self.mode == "dynamic"),
            switch_divisor=self.switch_divisor,
        )

    def _begin_run(self) -> None:
        super()._begin_run()
        self.var_rank = {}

    def on_unsat(self, k: int, outcome: SolveOutcome) -> None:
        """Fig. 5's ``update_ranking`` step."""
        if outcome.core_vars is None:
            raise AssertionError("UNSAT outcome without a core (CDG disabled?)")
        bmc_score_update(self.var_rank, outcome.core_vars, k, self.weighting)
