"""The solver's data-plane kernels: BCP and first-UIP analysis.

The solver has one data plane — flat typed arrays for the assignment
state, the trail, the clause arena and the watch columns — with two
implementations of the loops that run over it, selected by
``SolverConfig.kernel``.  Both search byte-identically:

``"native"``
    :class:`~repro.sat.kernel.native.NativeBcpKernel` /
    :class:`~repro.sat.kernel.native.NativeAnalyzeKernel`: the loops
    compiled to C (cffi, built on demand, cached), aliasing the solver's
    arrays zero-copy.  The search loop runs them as one fused
    ``search_step`` (propagate, then analyze the conflict without
    re-crossing the FFI boundary).  Needs cffi and a C compiler.
``"python"``
    :class:`~repro.sat.kernel.pykernel.PythonBcpKernel` /
    :class:`~repro.sat.kernel.pykernel.PythonAnalyzeKernel`: the same
    loops in pure Python.  Always available; the reference the native
    kernels and the tests are checked against.

``kernel=None`` (the default) picks ``"native"`` when
:func:`native_available` is true and ``"python"`` otherwise.

See :mod:`repro.sat.kernel.base` for the seam contracts and
``docs/architecture.md`` ("Propagation data plane" / "Conflict-analysis
plane") for the layouts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.sat.kernel.base import AnalyzeKernelBase, BcpKernelBase
from repro.sat.kernel.columns import ClauseLitMirror, WatchColumns
from repro.sat.kernel.native import (
    NativeAnalyzeKernel,
    NativeBcpKernel,
    native_available,
    native_unavailable_reason,
)
from repro.sat.kernel.pykernel import PythonAnalyzeKernel, PythonBcpKernel

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


def create_kernels(
    solver: "CdclSolver", kernel: str
) -> Tuple[BcpKernelBase, AnalyzeKernelBase]:
    """The ``(bcp, analysis)`` kernel pair for a resolved kernel name.

    ``"native"`` raises :class:`RuntimeError` with the build failure
    when the compiled kernels cannot be had on this host.
    """
    if kernel == "native":
        bcp = NativeBcpKernel(solver)
        return bcp, NativeAnalyzeKernel(solver, bcp)
    return PythonBcpKernel(solver), PythonAnalyzeKernel(solver)


__all__ = [
    "AnalyzeKernelBase",
    "BcpKernelBase",
    "ClauseLitMirror",
    "KERNELS",
    "NativeAnalyzeKernel",
    "NativeBcpKernel",
    "PythonAnalyzeKernel",
    "PythonBcpKernel",
    "WatchColumns",
    "create_kernels",
    "native_available",
    "native_unavailable_reason",
    "resolve_kernel",
]
