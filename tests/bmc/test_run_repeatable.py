"""``run()`` is repeatable: a second run on the same engine object
repeats the first.

Per-run state — the install template, the persistent solver of the
incremental engines, ``var_rank``/``var_ranks`` and the portfolio's
``sharing_log`` — is created when ``run()`` starts, so nothing the first
run leaves behind can steer the second.  Each engine runs twice on one
object and the two runs' search-derived records (everything but times)
must be equal, on both kernels.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.bmc import (
    BmcEngine,
    IncrementalBmcEngine,
    KInductionEngine,
    MultiPropertyBmc,
    PortfolioBmcEngine,
    RefineOrderBmc,
    ShtrichmanBmc,
)
from repro.sat import SolverConfig
from repro.sat.kernel import native_available
from repro.workloads import instance_by_name

PLANES = ["python"] + (["native"] if native_available() else [])

#: A failing row (cex at 7) and two passing rows.
ROWS = ("01_b", "03_b", "17_1_b2")

#: Induction's step cases grow with k; this bound keeps them small.
MAX_K = 6

ENGINES = {
    "bmc": lambda c, p, d, cfg: BmcEngine(c, p, d, solver_config=cfg),
    "static": lambda c, p, d, cfg: RefineOrderBmc(
        c, p, d, mode="static", solver_config=cfg),
    "dynamic": lambda c, p, d, cfg: RefineOrderBmc(
        c, p, d, mode="dynamic", solver_config=cfg),
    "shtrichman": lambda c, p, d, cfg: ShtrichmanBmc(c, p, d, solver_config=cfg),
    "incremental-vsids": lambda c, p, d, cfg: IncrementalBmcEngine(
        c, p, d, mode="vsids", solver_config=cfg),
    "incremental-static": lambda c, p, d, cfg: IncrementalBmcEngine(
        c, p, d, mode="static", solver_config=cfg),
    "incremental-dynamic": lambda c, p, d, cfg: IncrementalBmcEngine(
        c, p, d, mode="dynamic", solver_config=cfg),
    "portfolio": lambda c, p, d, cfg: PortfolioBmcEngine(
        c, p, d, deterministic=True, solver_config=cfg),
    "multi": lambda c, p, d, cfg: MultiPropertyBmc(c, [p], d, solver_config=cfg),
    "induction": lambda c, p, d, cfg: KInductionEngine(
        c, p, min(d, MAX_K), solver_config=cfg),
}


@pytest.mark.skipif(
    not os.environ.get("REPRO_KERNEL_NATIVE_REQUIRED"),
    reason="the native plane is optional outside the kernel CI job",
)
def test_native_plane_is_covered():
    assert "native" in PLANES


def _depths(per_depth):
    return [
        dataclasses.replace(d, solve_time=0.0, install_time=0.0)
        for d in per_depth
    ]


def _record(engine, result):
    """Everything search-derived that a run leaves: verdict, per-depth
    records, trace, and the engine's per-run tables."""
    if isinstance(engine, MultiPropertyBmc):
        record = [
            (o.status, o.depth_reached, o.trace, _depths(o.per_depth))
            for o in result.values()
        ]
        return record, dict(engine.var_ranks)
    if isinstance(engine, KInductionEngine):
        return (
            result.status, result.k, result.trace,
            _depths(result.base_stats), _depths(result.step_stats),
        )
    record = (result.status, result.depth_reached, result.trace,
              _depths(result.per_depth))
    if isinstance(engine, PortfolioBmcEngine):
        return record, dict(engine.var_rank), [
            entry[:6] for entry in engine.sharing_log
        ]
    return record, dict(getattr(engine, "var_rank", {}))


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("row_name", ROWS)
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_second_run_repeats_the_first(name, row_name, plane):
    row = instance_by_name(row_name)
    circuit, prop = row.build()
    engine = ENGINES[name](
        circuit, prop, row.max_depth, SolverConfig(kernel=plane)
    )
    first = _record(engine, engine.run())
    second = _record(engine, engine.run())
    assert second == first
