"""The solver's data-plane kernel: BCP and first-UIP analysis.

The solver has one data plane — flat typed arrays for the assignment
state, the trail, the clause arena, the watch columns and the
install-order literal mirror every analysis reads — and one kernel
object that owns the watch columns and the mirror and runs the loops
over them, through one hot call, ``search_step(num_assumptions,
budget=0) -> (conflict, analysis_or_None)``: propagate (on the native
kernel, deciding and propagating again within ``budget``), then
analyze a conflict that lands above the assumption prefix.  Two
implementations, selected by
``SolverConfig.kernel``, search byte-identically:

``"native"``
    :class:`~repro.sat.kernel.native.NativeKernel`: the loops compiled
    to C (cffi, built on demand, cached), aliasing the solver's arrays
    zero-copy, fused into one C call (one FFI crossing per conflict)
    that also makes the decisions that are plain pops of the C decision
    heap :class:`~repro.sat.kernel.native.NativeActivityHeap`, within
    the budget the solver passes; backtracking is one C call too.
    Needs cffi and a C compiler.
``"python"``
    :class:`~repro.sat.kernel.pykernel.PythonKernel`: the same loops in
    pure Python, composed in Python, deciding from the ``heapq`` heap
    :class:`~repro.sat.activity_heap.VariableActivityHeap`.  Always
    available; the reference the native kernel and the tests are
    checked against.

``kernel=None`` (the default) picks ``"native"`` when
:func:`native_available` is true and ``"python"`` otherwise.

See :mod:`repro.sat.kernel.base` for the seam contract and
``docs/architecture.md`` ("Propagation data plane" / "Conflict-analysis
plane") for the layouts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sat.kernel.base import KernelBase
from repro.sat.kernel.columns import ClauseLitMirror, WatchColumns
from repro.sat.kernel.native import (
    NativeActivityHeap,
    NativeKernel,
    native_available,
    native_unavailable_reason,
)
from repro.sat.kernel.pykernel import PythonKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sat.solver import CdclSolver

#: Explicit values of ``SolverConfig.kernel`` (``None`` also allowed).
KERNELS = ("python", "native")


def resolve_kernel(kernel: Optional[str]) -> str:
    """The kernel a ``SolverConfig.kernel`` value selects: ``None``
    means native when it builds on this host, python otherwise."""
    if kernel is None:
        return "native" if native_available() else "python"
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS} or None, got {kernel!r}")
    return kernel


def create_kernel(solver: "CdclSolver", kernel: str) -> KernelBase:
    """The kernel for a resolved kernel name.

    ``"native"`` raises :class:`RuntimeError` with the build failure
    when the compiled kernel cannot be had on this host.
    """
    if kernel == "native":
        return NativeKernel(solver)
    return PythonKernel(solver)


__all__ = [
    "ClauseLitMirror",
    "KERNELS",
    "KernelBase",
    "NativeActivityHeap",
    "NativeKernel",
    "PythonKernel",
    "WatchColumns",
    "create_kernel",
    "native_available",
    "native_unavailable_reason",
    "resolve_kernel",
]
