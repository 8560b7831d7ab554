"""Byte-identity pins for the capture sinks other than the trace.

The ``.rtrc`` trace has its own pins (``test_trace_identity.py``).
These anchor the other three artifacts a solve can leave behind, each
captured as a SHA-256 digest from the per-option capture code the
search-observer seam (``repro.sat.observer``) replaced, and required
of every kernel:

* the ``.racc`` access sidecars of the Table-1 identity subset run
  with ``profile_access=True`` and a ``trace_dir`` (the traces of that
  run must still match ``TABLE1_TRACE_DIGEST``: profiling and sampling
  never change the search);
* the ``progress_snapshot()`` payload sequence a progress observer
  sees on the first 40 fuzzer instances, at two intervals;
* the rendered registry after a restart-heavy ``pigeonhole(7)`` solve
  with ``metrics`` and ``profile_access`` (its one wall-clock series,
  ``solver_solve_time_total``, zeroed).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.experiments.runner import ProgressPrinter
from repro.experiments.table1 import run_table1
from repro.metrics import MetricsRegistry, render_json
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import native_available
from repro.workloads.cnf_families import pigeonhole
from repro.workloads.suite import small_suite
from tests.experiments.test_trace_identity import (
    BASELINE,
    TABLE1_TRACE_DIGEST,
    _table1_digest,
)
from tests.properties.test_solver_differential import (
    FUZZ_SEED,
    _strategy_pairs,
    make_instance,
)

#: SHA-256 over the subset's 111 ``.racc`` files (sorted by name; each
#: contributes ``name NUL bytes``).
TABLE1_ACCESS_DIGEST = (
    "e9f36fa9325f78c85b20b1e134b29f674d2f6a33f06690029f21f913c3e92179"
)

#: SHA-256 over the per-instance ``json.dumps(payloads, sort_keys=True)``
#: of the first 40 fuzzer instances, by progress interval (5 and 67
#: payloads in total).
PROGRESS_DIGESTS = {
    8: "6714baa9aa829047127572dc30ba114138b264bedb4363e5bc09375480ef5ca9",
    1: "d25e3480b663c177a6d0d05c5be75ddc4d6fa347272c1eff658ccd06e77522fb",
}

#: SHA-256 of ``render_json`` (re-dumped with sorted keys) after
#: ``pigeonhole(7)`` under ``restart_base=8`` (2858 conflicts, 124
#: restarts).
REGISTRY_DIGEST = (
    "16041cedd2d942f4db1a8cd8797ffe96d7bda11b68ce0eec516eec97d0ef828b"
)


def _backends():
    return ["python"] + (["native"] if native_available() else [])


class _Collect(ProgressPrinter):
    """The progress printer's firing rule, collecting instead of
    printing."""

    def __init__(self, every):
        super().__init__("fuzz", every)
        self.payloads = []

    def report(self, snap):
        self.payloads.append(snap)


@pytest.mark.slow
def test_table1_subset_access_streams_pinned(tmp_path):
    expected = json.loads(BASELINE.read_text())
    rows = [r for r in small_suite() if r.name in expected]
    for backend in _backends():
        capture_dir = tmp_path / backend
        run_table1(
            rows=rows, kernel=backend, trace_dir=str(capture_dir),
            profile_access=True,
        )
        files = {p.name: p.read_bytes() for p in capture_dir.iterdir()}
        racc = {n: b for n, b in files.items() if n.endswith(".racc")}
        rtrc = {n: b for n, b in files.items() if n.endswith(".rtrc")}
        assert len(racc) == len(rtrc) == 111, backend
        assert {n[:-5] for n in racc} == {n[:-5] for n in rtrc}, backend
        assert _table1_digest(racc) == TABLE1_ACCESS_DIGEST, backend
        assert _table1_digest(rtrc) == TABLE1_TRACE_DIGEST, backend


@pytest.mark.parametrize("every", sorted(PROGRESS_DIGESTS))
def test_fuzzer_progress_payloads_pinned(every):
    for backend in _backends():
        digest = hashlib.sha256()
        for index in range(40):
            formula, _ = make_instance(index)
            rng = random.Random(FUZZ_SEED + index + 1_000_000)
            production, _ = _strategy_pairs(rng, formula.num_vars, index % 4)
            observer = _Collect(every)
            config = SolverConfig(kernel=backend, observer=observer)
            CdclSolver(formula, strategy=production, config=config).solve()
            digest.update(json.dumps(observer.payloads, sort_keys=True).encode())
        assert digest.hexdigest() == PROGRESS_DIGESTS[every], backend


def test_restart_heavy_registry_pinned():
    for backend in _backends():
        registry = MetricsRegistry()
        config = SolverConfig(
            kernel=backend, metrics=registry, profile_access=True,
            restart_base=8,
        )
        outcome = CdclSolver(pigeonhole(7), config=config).solve()
        assert (outcome.stats.conflicts, outcome.stats.restarts) == (2858, 124)
        doc = json.loads(render_json(registry))
        for sample in doc["solver_solve_time_total"]["samples"]:
            sample["value"] = 0
        blob = json.dumps(doc, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == REGISTRY_DIGEST, backend
