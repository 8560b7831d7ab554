"""Bounded model checking: the depth-loop engine, the paper's
refine-order algorithm, the Shtrichman baseline, and core-to-abstraction
mapping."""

from repro.bmc.cnf_cache import EncodingCache
from repro.bmc.engine import BmcEngine, StrategyFactory
from repro.bmc.incremental import IncrementalBmcEngine
from repro.bmc.induction import (
    InductionResult,
    InductionStatus,
    KInductionEngine,
    recurrence_diameter_at_least,
)
from repro.bmc.multi import MultiPropertyBmc, PropertyOutcome
from repro.bmc.portfolio import PortfolioBmcEngine
from repro.bmc.refine import WEIGHTINGS, RefineOrderBmc, bmc_score_update
from repro.bmc.result import BmcResult, BmcStatus, DepthStats, Trace
from repro.bmc.shtrichman import ShtrichmanBmc
from repro.bmc.abstraction import AbstractModel, abstract_model, core_overlap

__all__ = [
    "BmcEngine",
    "EncodingCache",
    "StrategyFactory",
    "RefineOrderBmc",
    "bmc_score_update",
    "WEIGHTINGS",
    "ShtrichmanBmc",
    "BmcResult",
    "BmcStatus",
    "DepthStats",
    "Trace",
    "AbstractModel",
    "abstract_model",
    "core_overlap",
    "IncrementalBmcEngine",
    "PortfolioBmcEngine",
    "MultiPropertyBmc",
    "PropertyOutcome",
    "KInductionEngine",
    "InductionResult",
    "InductionStatus",
    "recurrence_diameter_at_least",
]
