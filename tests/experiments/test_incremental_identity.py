"""Byte-identity pin for the incremental engine across kernels.

:class:`~repro.bmc.incremental.IncrementalBmcEngine` keeps one live
solver per verdict and feeds it each new frame through ``add_clauses``,
so its watch layout is built by appends onto warm columns rather than by
the one-shot fork's bulk install.  Every kernel must still give the same
search: the per-depth ``(status, decisions, conflicts, propagations,
core_vars)`` of the ``small_suite()`` rows under vsids, static and
dynamic are pinned to the checked-in capture
``tests/data/incremental_baseline.json``, so a kernel change cannot pass
by moving both kernels in lockstep.

Regenerate the capture (only when the search changes on purpose) with
``PYTHONPATH=src python -m tests.experiments.test_incremental_identity``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import pytest

from repro.bmc.incremental import IncrementalBmcEngine
from repro.sat import SolverConfig
from repro.sat.kernel import native_available
from repro.workloads.suite import small_suite

BASELINE = (
    Path(__file__).resolve().parent.parent / "data" / "incremental_baseline.json"
)

MODES = ("vsids", "static", "dynamic")


def capture(kernel: Optional[str]) -> dict:
    """The pinned counters of every (row, mode) verdict on ``kernel``."""
    counters = {}
    for row in small_suite():
        circuit, prop = row.build()
        per_mode = {}
        for mode in MODES:
            result = IncrementalBmcEngine(
                circuit, prop, max_depth=row.max_depth, mode=mode,
                solver_config=SolverConfig(kernel=kernel),
            ).run()
            per_mode[mode] = {
                "status": result.status.value,
                "depth_reached": result.depth_reached,
                "per_depth": [
                    [d.status, d.decisions, d.conflicts, d.propagations,
                     d.core_vars]
                    for d in result.per_depth
                ],
            }
        counters[row.name] = per_mode
    return counters


@pytest.mark.slow
@pytest.mark.parametrize(
    "kernel",
    [
        None,
        "python",
        pytest.param(
            "native",
            marks=pytest.mark.skipif(
                not native_available(), reason="native kernel not buildable here"
            ),
        ),
    ],
)
def test_incremental_engine_identical_across_kernels(kernel):
    expected = json.loads(BASELINE.read_text())
    assert set(expected) == {row.name for row in small_suite()}
    assert capture(kernel) == expected, (
        f"kernel {kernel or 'default'} drifted from the incremental capture"
    )


if __name__ == "__main__":
    BASELINE.write_text(json.dumps(capture("python"), indent=1, sort_keys=True) + "\n")
