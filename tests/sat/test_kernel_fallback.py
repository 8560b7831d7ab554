"""The default kernel choice degrades to python when native cannot load.

``SolverConfig(kernel=None)`` picks the native kernel when it builds
and the python reference otherwise.  These tests break the native
build on purpose — the cache directory (``REPRO_KERNEL_CACHE``) holds a
garbage shared object under the current source revision's name — and
run the solver in a fresh process, where the build outcome is not yet
memoized.  The default must then run python with the identical search,
and an explicit ``kernel="native"`` must raise ``RuntimeError``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import repro
from repro.sat.kernel import native_available

#: Runs a fixed workload in the child; prints one JSON line.
_CHILD = r"""
import hashlib, json, random, sys
from repro.cnf import CnfFormula
from repro.sat import CdclSolver, SolverConfig
from repro.sat.kernel import native_available
from repro.sat.trace import TraceRecorder, encode_events

def digest(kernel):
    h = hashlib.sha256()
    names = set()
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(8, 20)
        formula = CnfFormula(n)
        for _ in range(int(4.3 * n)):
            formula.add_clause(
                2 * v + rng.randint(0, 1) for v in rng.sample(range(n), 3)
            )
        events = []
        solver = CdclSolver(
            formula, config=SolverConfig(kernel=kernel, observer=TraceRecorder(events))
        )
        outcome = solver.solve()
        names.add(solver._kernel.name)
        h.update(repr((outcome.status.value, outcome.model)).encode())
        h.update(encode_events(events, formula.num_vars))
    return h.hexdigest(), sorted(names)

kernel = None if sys.argv[1] == "default" else sys.argv[1]
result = {"available": native_available()}
try:
    result["digest"], result["kernels"] = digest(kernel)
except Exception as exc:
    result["error_type"] = type(exc).__name__
    result["error"] = str(exc)
print(json.dumps(result))
"""


def _child(kernel: str, cache: Optional[Path] = None) -> dict:
    """Run the workload in a fresh process; ``cache`` overrides the
    native build cache (None keeps the caller's)."""
    env = dict(os.environ)
    if cache is not None:
        env["REPRO_KERNEL_CACHE"] = str(cache)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, kernel],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _garbage_cache(tmp_path: Path, monkeypatch) -> Path:
    """A cache directory whose build for this source revision is junk."""
    from repro.sat.kernel import native

    cache = tmp_path / "kernel-cache"
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_KERNEL_CACHE", str(cache))
        _, so_path = native._module_paths()
    cache.mkdir()
    Path(so_path).write_bytes(b"this is not a shared object\n")
    return cache


def test_default_kernel_falls_back_to_python_with_identical_search(
    tmp_path, monkeypatch
):
    fallback = _child("default", _garbage_cache(tmp_path, monkeypatch))
    assert fallback["available"] is False
    assert fallback["kernels"] == ["python"]
    # The reference: the python kernel beside a working (or absent)
    # native build — the search may not depend on which.
    reference = _child("python")
    assert fallback["digest"] == reference["digest"]
    if native_available():
        native = _child("native")
        assert native["kernels"] == ["native"]
        assert native["digest"] == reference["digest"]


def test_explicit_native_raises_runtime_error(tmp_path, monkeypatch):
    result = _child("native", _garbage_cache(tmp_path, monkeypatch))
    assert result["available"] is False
    assert result["error_type"] == "RuntimeError"
    assert "native kernel unavailable" in result["error"]
    assert "kernel='python'" in result["error"]
