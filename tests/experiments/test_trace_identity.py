"""Cross-kernel trace byte-identity pins.

The trace stream records search-level events only (decisions,
conflicts, learned lengths, backtracks, restarts, reductions, trail
batches) — nothing from inside the kernels.  Since the python and
native kernels are search-identical by contract, the traces they emit
must be **byte-identical**, not merely equivalent.  Two pins:

* the Table-1 identity subset (the same 4 rows
  ``test_kernel_identity.py`` uses) traced under every kernel produces
  identical per-depth trace files, and
* a slice of the differential fuzzer's seeded instances produces
  identical trace bytes across kernels on plain solver runs.

Both are also anchored on SHA-256 digests captured from the in-solver
tuple-table plane the kernels replaced, so neither kernel can drift,
even in lockstep with the other.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.table1 import run_table1
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import native_available
from repro.sat.trace import TraceRecorder, encode_events
from repro.workloads.suite import small_suite
from tests.properties.test_solver_differential import (
    _strategy_pairs,
    make_instance,
)

BASELINE = Path(__file__).resolve().parent.parent / "data" / "table1_pr5_baseline.json"

#: SHA-256 over the Table-1 subset's trace files (sorted by name; each
#: file contributes ``name NUL bytes``), captured from the replaced
#: tuple-table plane: 111 files.
TABLE1_TRACE_DIGEST = (
    "245d5095e20b02551499700414152c7131c3de946ecef1945b87763b6658592d"
)

#: SHA-256 over the first 40 fuzzer instances' encoded traces, in
#: index order, captured from the same plane.
FUZZ_TRACE_DIGEST = (
    "cc18a0afee1aa22f4160e1b306c6baf7f680db590fbf6fb9ff98efe13f6c7762"
)


def _backends():
    return ["python"] + (["native"] if native_available() else [])


def _table1_digest(capture):
    digest = hashlib.sha256()
    for name in sorted(capture):
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(capture[name])
    return digest.hexdigest()


@pytest.mark.slow
def test_table1_subset_traces_byte_identical_across_backends(tmp_path):
    expected = json.loads(BASELINE.read_text())
    rows = [r for r in small_suite() if r.name in expected]
    assert {r.name for r in rows} == set(expected), "baseline rows missing from suite"

    captures = {}
    for backend in _backends():
        trace_dir = tmp_path / backend
        run_table1(rows=rows, kernel=backend, trace_dir=str(trace_dir))
        captures[backend] = {
            p.name: p.read_bytes() for p in sorted(trace_dir.iterdir())
        }
        assert captures[backend], f"{backend}: no traces written"

    reference = captures.pop("python")
    # One file per (row, method, depth); every method of every row
    # traced at least one depth.
    assert len(reference) >= len(rows) * 3
    assert _table1_digest(reference) == TABLE1_TRACE_DIGEST, (
        "python kernel traces drifted from the pinned digest"
    )
    for backend, capture in captures.items():
        assert capture.keys() == reference.keys(), (
            f"{backend}: trace file set differs"
        )
        for name, blob in reference.items():
            assert capture[name] == blob, (
                f"{backend}: trace {name} is not byte-identical to python"
            )


def test_fuzzer_kernel_traces_byte_identical_across_backends():
    """Every kernel — the native one through its fused step, where the
    trace's conflict/learned events come from the C-produced analysis
    — emits the pinned trace bytes."""
    import random

    from tests.properties.test_solver_differential import FUZZ_SEED

    for backend in _backends():
        digest = hashlib.sha256()
        for index in range(40):
            formula, _ = make_instance(index)
            rng = random.Random(FUZZ_SEED + index + 1_000_000)
            production, _ = _strategy_pairs(rng, formula.num_vars, index % 4)
            events = []
            config = SolverConfig(kernel=backend, observer=TraceRecorder(events))
            CdclSolver(formula, strategy=production, config=config).solve()
            blob = encode_events(events, formula.num_vars)
            assert blob, f"instance {index}: empty trace"
            digest.update(blob)
        assert digest.hexdigest() == FUZZ_TRACE_DIGEST, (
            f"{backend} kernel traces drifted from the pinned digest"
        )
