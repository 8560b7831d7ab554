"""Byte-identity pin: the kernels may not change the search.

The python and native kernels are two implementations of one data
plane — flat ``array('i')`` columns scanned in Python or in C — with
the same algorithm, watch-list order discipline and tie breaks.  So the
whole Table-1 pipeline (BMC unrolling, incremental solving, strategy
reordering, restarts, clause reduction) must produce byte-identical
search counters under either kernel, and under the default choice.

The pin is anchored on the checked-in baseline capture
``tests/data/table1_pr5_baseline.json`` (the 4-row subset
``test_pr5_identity.py`` also uses), so a kernel change cannot "pass"
by moving both kernels in lockstep.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.table1 import run_table1
from repro.sat.kernel import native_available
from repro.workloads.suite import small_suite

BASELINE = Path(__file__).resolve().parent.parent / "data" / "table1_pr5_baseline.json"

#: Search-derived counters only (times are wall-clock, not search state).
_PINNED_FIELDS = ("status", "depth_reached", "decisions", "implications", "conflicts")


def _counters(report):
    return {
        row.instance.name: {
            method: {
                field: getattr(result, field) for field in _PINNED_FIELDS
            }
            for method, result in row.results.items()
        }
        for row in report.rows
    }


@pytest.mark.slow
def test_table1_subset_identical_across_backends():
    expected = json.loads(BASELINE.read_text())
    rows = [r for r in small_suite() if r.name in expected]
    assert {r.name for r in rows} == set(expected), "baseline rows missing from suite"

    kernels = [None, "python"] + (["native"] if native_available() else [])
    for kernel in kernels:
        counters = _counters(run_table1(rows=rows, kernel=kernel))
        assert counters == expected, (
            f"kernel {kernel or 'default'} drifted from the baseline capture"
        )
