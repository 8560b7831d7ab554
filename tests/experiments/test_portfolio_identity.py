"""Portfolio byte-identity pins.

The deterministic portfolio's contract is that every search-derived
number is a pure function of (formula, members, ``epoch_conflicts``,
share cap): the same across runs and across ``jobs``.  These pins
anchor that output on SHA-256 digests, so a rewrite of the
coordination layer (worker lifecycle, epoch barrier, bus, report
folding) cannot move a single counter unnoticed:

* ``PortfolioOutcome.as_dict()`` minus wall-clock fields for PHP and
  fuzzer-stream instances under ``jobs`` 1 and 2 (both must give the
  one anchored digest), plus the cold-activity ``portfolio_race``
  bench cell;
* per-depth search numbers and the sharing log of the deterministic
  :class:`PortfolioBmcEngine` on one passing and one failing
  ``small_suite()`` row, in-process and under ``jobs=2`` (worker
  groups forked with the engine's install template) against the one
  anchored digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bmc import PortfolioBmcEngine
from repro.sat import (
    PortfolioMember, PortfolioSolver, SolverConfig, default_members,
)
from repro.workloads.cnf_families import pigeonhole
from repro.workloads.suite import small_suite
from tests.properties.test_solver_differential import make_instance

TWO_MEMBERS = [
    PortfolioMember(name="vsids/save", strategy="vsids"),
    PortfolioMember(name="berkmin/save", strategy="berkmin"),
]

#: SHA-256 over the SAT-level cells (see ``_sat_cells``), captured
#: before the coordinators were merged into one driver.
SAT_CELLS_DIGEST = (
    "5676da5dee51765c0f2d73335ea755a03d28d5deeef8b0ec70d556c153975590"
)

#: SHA-256 over the cold-activity ``portfolio_race`` bench cell,
#: captured at the same point.
BENCH_CELL_DIGEST = (
    "273843622743818159f3f7ec298909b16b3bca8376af7eb3cfa621dde8ef19e7"
)

#: SHA-256 over the deterministic BMC engine's records on the two rows
#: (see ``_bmc_capture``), split out of a digest that also covered a
#: since-deleted incremental portfolio engine, and computed by the code
#: that passed that digest.
DEPTH_EPOCHS_DIGEST = (
    "60f2b8028af9074ce896181bd05930de5260c4a2f0191b19d3fc0d2f82785303"
)

_WALL_KEYS = ("wall_time", "solve_time")


def _strip_wall(value):
    if isinstance(value, dict):
        return {
            key: _strip_wall(item)
            for key, item in value.items()
            if key not in _WALL_KEYS
        }
    if isinstance(value, list):
        return [_strip_wall(item) for item in value]
    return value


def _digest(records) -> str:
    return hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()
    ).hexdigest()


def _sat_cells():
    """(name, formula, PortfolioSolver keyword arguments) cells: short
    epochs so most cells cross several barriers, both member orders,
    and two UNKNOWN endings (``max_epochs`` and a cumulative cap)."""
    reversed_members = TWO_MEMBERS[::-1]
    cells = [
        ("php5", pigeonhole(5), dict(members=TWO_MEMBERS, epoch_conflicts=16)),
        ("php6x4", pigeonhole(6), dict(
            members=default_members(4), epoch_conflicts=32,
            base_config=SolverConfig(record_cdg=False),
        )),
        ("php6-rev", pigeonhole(6), dict(
            members=reversed_members, epoch_conflicts=16,
        )),
        ("php7-max-epochs", pigeonhole(7), dict(
            members=TWO_MEMBERS, epoch_conflicts=16, max_epochs=3,
            base_config=SolverConfig(record_cdg=False),
        )),
        ("php7-capped", pigeonhole(7), dict(
            members=TWO_MEMBERS, epoch_conflicts=40,
            base_config=SolverConfig(record_cdg=False, max_conflicts=100),
        )),
    ]
    for index in range(16):
        formula, _expected = make_instance(index)
        members = TWO_MEMBERS if index % 2 else reversed_members
        cells.append((f"fuzz{index}", formula, dict(
            members=members, epoch_conflicts=4,
        )))
    return cells


@pytest.mark.parametrize("jobs", [1, 2])
def test_deterministic_portfolio_outcomes_pinned(jobs):
    records = []
    for name, formula, kwargs in _sat_cells():
        outcome = PortfolioSolver(
            formula, deterministic=True, jobs=jobs, **kwargs
        ).solve()
        records.append([name, _strip_wall(outcome.as_dict())])
    assert _digest(records) == SAT_CELLS_DIGEST


def test_portfolio_race_bench_cell_pinned():
    outcome = PortfolioSolver(
        pigeonhole(7),
        members=list(TWO_MEMBERS),
        base_config=SolverConfig(record_cdg=False),
        deterministic=True,
        epoch_conflicts=256,
        warm_activity=False,
    ).solve()
    assert outcome.status.value == "unsat"
    assert _digest(_strip_wall(outcome.as_dict())) == BENCH_CELL_DIGEST


def _depth_rows(result):
    return [
        [d.k, d.status, d.decisions, d.conflicts, d.propagations,
         d.core_vars, d.winner]
        for d in result.per_depth
    ]


def _bmc_capture(jobs=None):
    rows = {row.name: row for row in small_suite()}
    records = []
    for name in ("17_1_b2", "01_b"):
        circuit, prop = rows[name].build()
        max_depth = rows[name].max_depth
        engine = PortfolioBmcEngine(
            circuit, prop, max_depth=max_depth,
            deterministic=True, race_min_clauses=0, epoch_conflicts=16,
            jobs=jobs,
        )
        result = engine.run()
        records.append([
            name, "depth-epochs", result.status.value,
            _depth_rows(result),
            [list(entry[:6]) for entry in engine.sharing_log],
        ])
    return records


def test_bmc_portfolio_engines_pinned():
    assert _digest(_bmc_capture()) == DEPTH_EPOCHS_DIGEST


def test_bmc_depth_epochs_pinned_under_process_groups():
    assert _digest(_bmc_capture(jobs=2)) == DEPTH_EPOCHS_DIGEST
