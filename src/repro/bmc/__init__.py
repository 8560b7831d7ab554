"""Bounded model checking: the depth-loop engine, the paper's
refine-order algorithm, the Shtrichman baseline, and core-to-abstraction
mapping."""

from repro.bmc.cegar import CegarBmc, CegarResult, abstract_circuit
from repro.bmc.cnf_cache import EncodingCache
from repro.bmc.engine import BmcEngine, StrategyFactory, vsids_factory
from repro.bmc.incremental import IncrementalBmcEngine
from repro.bmc.induction import (
    InductionResult,
    InductionStatus,
    KInductionEngine,
    recurrence_diameter_at_least,
)
from repro.bmc.multi import MultiPropertyBmc, PropertyOutcome
from repro.bmc.portfolio import (
    BMC_MEMBER_SPECS,
    PortfolioBmcEngine,
    default_bmc_members,
)
from repro.bmc.refine import WEIGHTINGS, RefineOrderBmc, bmc_score_update
from repro.bmc.result import BmcResult, BmcStatus, DepthStats, Trace
from repro.bmc.shtrichman import ShtrichmanBmc, shtrichman_factory, shtrichman_rank
from repro.bmc.abstraction import AbstractModel, abstract_model, core_overlap

__all__ = [
    "BmcEngine",
    "EncodingCache",
    "StrategyFactory",
    "vsids_factory",
    "RefineOrderBmc",
    "bmc_score_update",
    "WEIGHTINGS",
    "ShtrichmanBmc",
    "shtrichman_factory",
    "shtrichman_rank",
    "BmcResult",
    "BmcStatus",
    "DepthStats",
    "Trace",
    "AbstractModel",
    "abstract_model",
    "core_overlap",
    "IncrementalBmcEngine",
    "PortfolioBmcEngine",
    "BMC_MEMBER_SPECS",
    "default_bmc_members",
    "MultiPropertyBmc",
    "PropertyOutcome",
    "KInductionEngine",
    "InductionResult",
    "InductionStatus",
    "recurrence_diameter_at_least",
    "CegarBmc",
    "CegarResult",
    "abstract_circuit",
]
