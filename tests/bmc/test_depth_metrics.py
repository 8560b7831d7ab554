"""Every single-property engine publishes the depth-loop metrics.

The ``bmc_*`` series come from the shared depth loop
(``BmcEngine._publish_depth_metrics``), so an engine that runs on that
loop publishes one depth per record: ``bmc_depths_total`` counts the
records and the ``bmc_depth`` gauge holds the last depth solved.
"""

from __future__ import annotations

import pytest

from repro.bmc import (
    BmcEngine,
    IncrementalBmcEngine,
    PortfolioBmcEngine,
    RefineOrderBmc,
    ShtrichmanBmc,
)
from repro.metrics import MetricsRegistry
from repro.sat import SolverConfig
from repro.sat.kernel import native_available
from repro.workloads import instance_by_name

PLANES = ["python"] + (["native"] if native_available() else [])

ENGINES = {
    "bmc": lambda c, p, d, cfg: BmcEngine(c, p, d, solver_config=cfg),
    "static": lambda c, p, d, cfg: RefineOrderBmc(
        c, p, d, mode="static", solver_config=cfg),
    "dynamic": lambda c, p, d, cfg: RefineOrderBmc(
        c, p, d, mode="dynamic", solver_config=cfg),
    "shtrichman": lambda c, p, d, cfg: ShtrichmanBmc(c, p, d, solver_config=cfg),
    "incremental-vsids": lambda c, p, d, cfg: IncrementalBmcEngine(
        c, p, d, mode="vsids", solver_config=cfg),
    "incremental-dynamic": lambda c, p, d, cfg: IncrementalBmcEngine(
        c, p, d, mode="dynamic", solver_config=cfg),
    "portfolio": lambda c, p, d, cfg: PortfolioBmcEngine(
        c, p, d, deterministic=True, solver_config=cfg),
}


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("row_name", ["01_b", "03_b"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_depth_metrics_match_the_records(name, row_name, plane):
    row = instance_by_name(row_name)
    circuit, prop = row.build()
    registry = MetricsRegistry()
    engine = ENGINES[name](
        circuit, prop, row.max_depth,
        SolverConfig(kernel=plane, metrics=registry),
    )
    result = engine.run()
    assert result.per_depth
    assert registry.value("bmc_depths_total") == len(result.per_depth)
    assert registry.value("bmc_depth") == result.per_depth[-1].k
    statuses = [d.status for d in result.per_depth]
    for status in set(statuses):
        assert registry.value(
            "bmc_depth_status_total", {"status": status}
        ) == statuses.count(status)
