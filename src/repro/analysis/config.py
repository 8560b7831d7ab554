"""Analyzer configuration: the repo's rule scopes and strictness table.

Defaults below describe this repository; ``pyproject.toml``'s
``[tool.solcheck]`` table overrides them field by field, so the config
file is the single place reviewers look to see what is enforced where.
The mypy strictness ratchet reads the *same* module list: the
``strict_modules`` entries mirror the per-module mypy overrides, and
rule TYP01 enforces annotation completeness on them even on hosts
without mypy installed.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional


def _default_det_modules() -> List[str]:
    return ["repro/sat", "repro/bmc"]


def _default_sharing_modules() -> List[str]:
    return [
        "repro/sat/portfolio.py",
        "repro/sat/race.py",
        "repro/bmc/portfolio.py",
    ]


def _default_strict_modules() -> List[str]:
    return [
        "repro.sat.arena",
        "repro.sat.types",
        "repro.sat.stats",
        "repro.sat.profile",
        "repro.metrics",
        "repro.metrics.access",
        "repro.analysis",
    ]


def _default_hot_required() -> List[str]:
    return [
        "repro.sat.kernel.pykernel::PythonKernel.propagate",
        "repro.sat.kernel.pykernel::PythonKernel.analyze",
        "repro.sat.activity_heap::VariableActivityHeap.pop",
        "repro.sat.activity_heap::VariableActivityHeap.increase",
        "repro.sat.activity_heap::VariableActivityHeap.reinsert",
        "repro.sat.kernel.native::NativeActivityHeap.pop_unassigned",
        "repro.sat.kernel.native::NativeActivityHeap.reinsert",
        "repro.sat.kernel.native::NativeActivityHeap.increase",
        "repro.sat.kernel.native::NativeKernel.search_step",
        "repro.sat.kernel.native::NativeKernel.backtrack",
        "repro.sat.kernel.base::KernelBase.backtrack",
        "repro.sat.trace::TraceWriter.enqueue_run",
        "repro.sat.trace::TraceSink.sync_trail",
        "repro.metrics.access::AccessStreamWriter.record_block",
    ]


@dataclass
class AnalysisConfig:
    """Scopes and registries the rules consult.

    Paths in ``det_modules``/``sharing_modules`` are prefixes of the
    module's source-root-relative POSIX path (``repro/sat`` matches
    every file under ``src/repro/sat/``).  ``strict_modules`` entries
    are dotted module names; an entry covers the module itself and its
    submodules.  ``hot_required`` entries are
    ``dotted.module::Qual.Name`` pairs naming functions that MUST carry
    the ``# solcheck: hot`` marker (the registry cannot silently rot
    when someone renames a hot function).
    """

    det_modules: List[str] = field(default_factory=_default_det_modules)
    sharing_modules: List[str] = field(default_factory=_default_sharing_modules)
    strict_modules: List[str] = field(default_factory=_default_strict_modules)
    hot_required: List[str] = field(default_factory=_default_hot_required)
    baseline: str = "analysis_baseline.txt"

    def in_det_scope(self, relpath: str) -> bool:
        return any(
            relpath == prefix or relpath.startswith(prefix.rstrip("/") + "/")
            for prefix in self.det_modules
        )

    def in_sharing_scope(self, relpath: str) -> bool:
        return relpath in self.sharing_modules

    def in_strict_scope(self, dotted: str) -> bool:
        return any(
            dotted == entry or dotted.startswith(entry + ".")
            for entry in self.strict_modules
        )


def load_config(root: Optional[Path] = None) -> AnalysisConfig:
    """Read ``[tool.solcheck]`` from ``pyproject.toml`` under ``root``
    (default: the current directory), falling back to the built-in
    defaults for any missing field."""
    config = AnalysisConfig()
    base = root if root is not None else Path.cwd()
    pyproject = base / "pyproject.toml"
    if not pyproject.is_file():
        return config
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("solcheck", {})
    for name in (
        "det_modules",
        "sharing_modules",
        "strict_modules",
        "hot_required",
    ):
        value = table.get(name)
        if isinstance(value, list):
            setattr(config, name, [str(item) for item in value])
    baseline = table.get("baseline")
    if isinstance(baseline, str):
        config.baseline = baseline
    return config
