"""Pinned Table-1 rows, the three workloads that drive them, and the
verdict oracle.

One operation is one (row, method) verdict.  Every workload runs the six
rows of ``small_suite()`` (one row per regime: the failing counter and
token-ring rows 01_b and 03_b, and the capped FIFO, traffic, counter and
token-ring rows 17_1_b2, 24_1_b1, 02_1_b2 and 31_1_b3) through a public
engine entry point:

* ``table1_oneshot``: ``make_engine(row, m).run()`` for m in bmc, static,
  dynamic, the call ``run_instance`` makes for ``python -m
  repro.experiments table1``;
* ``table1_incremental``: ``IncrementalBmcEngine(..., mode=m).run()`` for
  m in vsids, static, dynamic (the ``repro-bmc --incremental`` path);
* ``portfolio_epochs``: ``make_engine(row, "portfolio",
  portfolio_opts={"deterministic": True}).run()``, the in-process
  epoch-barrier race behind ``--portfolio-deterministic``.

A pass runs every operation of a workload once, with one fresh
``EncodingCache`` shared by that pass's operations, as a fresh Table-1
process would.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.bmc.cnf_cache import EncodingCache
from repro.bmc.incremental import IncrementalBmcEngine
from repro.bmc.result import BmcResult, BmcStatus
from repro.experiments import runner
from repro.workloads.suite import SuiteInstance, small_suite

#: Methods per workload.  The first one is the baseline the paper's
#: RATIO row divides by.
METHODS: Dict[str, Tuple[str, ...]] = {
    "table1_oneshot": ("bmc", "static", "dynamic"),
    "table1_incremental": ("vsids", "static", "dynamic"),
    "portfolio_epochs": ("portfolio",),
}


def manifest(seed: int) -> List[SuiteInstance]:
    """The pinned rows with every builder's ``seed=`` offset by ``seed``.

    The builder seed drives only ``attach_distractors``, which adds logic
    outside the property cone, so each row keeps its expectation.  Seed 0
    is the suite exactly.
    """
    rows = []
    for row in small_suite():
        builder = row.builder
        if not isinstance(builder, partial) or "seed" not in builder.keywords:
            raise ValueError(f"{row.name}: builder takes no seed= keyword")
        keywords = dict(builder.keywords, seed=builder.keywords["seed"] + seed)
        rows.append(
            replace(row, builder=partial(builder.func, *builder.args, **keywords))
        )
    return rows


@dataclass
class Verdict:
    """What one operation produced, kept for the oracle and the metrics."""

    row: SuiteInstance
    method: str
    wall_s: float
    result: Optional[BmcResult] = None
    circuit: object = None
    property_net: int = -1
    sharing_log: List[Tuple] = field(default_factory=list)
    error: Optional[str] = None
    #: The oracle's reason once :func:`settle` ran; None when right.
    problem: Optional[str] = None

    def depth_tuples(self) -> List[Tuple]:
        """The search-determinism key of this verdict, one tuple a depth."""
        if self.result is None:
            return [(self.row.name, self.method, "error")]
        return [
            (
                self.row.name, self.method, d.k, d.status, d.decisions,
                d.conflicts, d.propagations,
                -1 if d.core_vars is None else d.core_vars,
            )
            for d in self.result.per_depth
        ]

    def digest(self) -> str:
        return hashlib.sha1(repr(self.depth_tuples()).encode()).hexdigest()


def _oneshot(row: SuiteInstance, method: str, cache: EncodingCache):
    # make_engine reads portfolio_opts only for the "portfolio" strategy.
    engine = runner.make_engine(
        row, method, encoding_cache=cache,
        portfolio_opts={"deterministic": True},
    )
    return engine, engine.run()


def _incremental(row: SuiteInstance, method: str, cache: EncodingCache):
    circuit, prop, unroller = cache.unroller_for(row)
    engine = IncrementalBmcEngine(
        circuit, prop, max_depth=row.max_depth, mode=method, unroller=unroller
    )
    return engine, engine.run()


_RUNNERS: Dict[str, Callable] = {
    "table1_oneshot": _oneshot,
    "table1_incremental": _incremental,
    "portfolio_epochs": _oneshot,
}


def operations(workload: str, rows: List[SuiteInstance]) -> List[Tuple]:
    return [(row, method) for row in rows for method in METHODS[workload]]


def run_verdict(
    workload: str, row: SuiteInstance, method: str, cache: EncodingCache,
) -> Verdict:
    """Produce one verdict; an exception is recorded, not raised."""
    clock = time.perf_counter
    start = clock()
    try:
        engine, result = _RUNNERS[workload](row, method, cache)
    except Exception as exc:  # a crashing verdict is a failed operation
        return Verdict(row, method, clock() - start,
                       error=f"{type(exc).__name__}: {exc}")
    wall = clock() - start
    return Verdict(
        row, method, wall, result=result, circuit=engine.circuit,
        property_net=engine.property_net,
        sharing_log=list(getattr(engine, "sharing_log", ())),
    )


def check(verdict: Verdict) -> Optional[str]:
    """The oracle: None when the verdict is right, else the reason.

    A failing row must report FAILED at exactly ``cex_depth`` with a
    counterexample that drives the property net to 0 at that frame when
    re-simulated here; a capped row must report PASSED_BOUNDED through
    ``max_depth``.  UNKNOWN (budget exhausted) is always wrong.
    """
    if verdict.error is not None:
        return verdict.error
    row, result = verdict.row, verdict.result
    if row.expected == "fail":
        if result.status is not BmcStatus.FAILED:
            return f"expected a counterexample, got {result.status.value}"
        if result.depth_reached != row.cex_depth:
            return (f"counterexample at depth {result.depth_reached}, "
                    f"expected {row.cex_depth}")
        trace = result.trace
        if trace is None or trace.depth != row.cex_depth:
            return "counterexample missing or at the wrong depth"
        frames = verdict.circuit.simulate(
            trace.inputs, initial_state=trace.initial_state
        )
        if frames[trace.depth][verdict.property_net] != 0:
            return "counterexample fails re-simulation"
        return None
    if result.status is not BmcStatus.PASSED_BOUNDED:
        return f"expected no counterexample, got {result.status.value}"
    if result.depth_reached != row.max_depth:
        return (f"checked through depth {result.depth_reached}, "
                f"expected {row.max_depth}")
    return None


def settle(verdicts: List[Verdict]) -> None:
    """Run the oracle on each verdict, then drop its circuit, so a pass
    starts on the same heap whatever passes ran before it."""
    for verdict in verdicts:
        verdict.problem = check(verdict)
        verdict.circuit = None
