"""PRF rules — proof/CDG soundness of clause lifecycle sites.

Every clause the solver learns, imports or deletes participates in the
proof story: learned clauses carry complete CDG antecedent lists (PR 2
learned that the minimizer's consumed reasons must be recorded too, or
replay breaks), deleted clauses stay exportable while a CDG pins them
(PR 4's compaction contract), and imported peer clauses are CDG
*leaves* installed only through ``add_shared_clause`` (PR 5 — any other
entry point would inflate cha_score seeds or skip leaf registration,
silently corrupting cores).

* PRF01 — a function that tombstones arena clauses or installs a
  LEARNED arena block must be CDG-aware: it must reference the CDG
  itself or call a same-module helper that does.  "I deleted a clause
  and never thought about the proof" is exactly the bug class this
  catches.
* PRF02 — ``add_shared_clause`` is the only legal clause-import entry
  point: the solver's private install machinery
  (``_install``/``_import_shared``/``_add_learned``/
  ``_attach_clause``/``_load_unit``) may not be called from outside
  ``repro/sat/solver.py``, and the clause-sharing modules may not
  smuggle peer clauses through plain ``add_clause``/``add_clauses``
  (which would count their literals into the input-formula
  statistics).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple, Union

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Diagnostic, SourceModule, register

_PRIVATE_INSTALL_PATHS = {
    "_install",
    "_import_shared",
    "_add_learned",
    "_attach_clause",
    "_load_unit",
}

_SOLVER_MODULE = "repro/sat/solver.py"

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _references_cdg(func: _FuncDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and "cdg" in node.attr.lower():
            return True
        if isinstance(node, ast.Name) and "cdg" in node.id.lower():
            return True
    return False


def _called_helpers(func: _FuncDef) -> Set[str]:
    """Names of same-module callables invoked as ``self.X(...)`` or
    ``X(...)`` — the one-level indirection PRF01 accepts."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            if callee.value.id in ("self", "cls"):
                names.add(callee.attr)
        elif isinstance(callee, ast.Name):
            names.add(callee.id)
    return names


def _lifecycle_sites(func: _FuncDef) -> Iterator[Tuple[ast.Call, str]]:
    """Calls inside ``func`` that delete or install proof-relevant
    clauses: ``<arena>.tombstone(...)`` and ``<arena>.add(..., LEARNED
    ...)``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if not isinstance(callee, ast.Attribute):
            continue
        if callee.attr == "tombstone":
            yield node, "tombstone"
        elif callee.attr == "add" and _mentions_learned(node):
            yield node, "learned-install"


def _mentions_learned(call: ast.Call) -> bool:
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id == "LEARNED":
                return True
            if isinstance(node, ast.Attribute) and node.attr == "LEARNED":
                return True
    return False


@register(
    "PRF01",
    "arena tombstone/learned-install sites must be CDG-aware",
)
def check_lifecycle_cdg(
    module: SourceModule, config: AnalysisConfig
) -> Iterator[Diagnostic]:
    if not config.in_det_scope(module.relpath):
        return
    funcs: List[_FuncDef] = [
        node for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    cdg_aware: Dict[str, bool] = {
        func.name: _references_cdg(func) for func in funcs
    }
    for func in funcs:
        sites = list(_lifecycle_sites(func))
        if not sites:
            continue
        if _references_cdg(func):
            continue
        if any(cdg_aware.get(helper, False) for helper in _called_helpers(func)):
            continue
        for call, kind in sites:
            yield Diagnostic(
                path=module.relpath,
                line=call.lineno,
                col=call.col_offset,
                rule="PRF01",
                message=(
                    f"{kind} site in {func.name} with no CDG/proof "
                    f"recording in reach; deletion and learned-install "
                    f"must stay dominated by proof bookkeeping"
                ),
            )


@register(
    "PRF02",
    "add_shared_clause is the only legal clause-import entry point",
)
def check_import_entry_point(
    module: SourceModule, config: AnalysisConfig
) -> Iterator[Diagnostic]:
    if module.relpath == _SOLVER_MODULE:
        return
    sharing = config.in_sharing_scope(module.relpath)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if not isinstance(callee, ast.Attribute):
            continue
        if callee.attr in _PRIVATE_INSTALL_PATHS:
            yield Diagnostic(
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                rule="PRF02",
                message=(
                    f"call to private solver install path "
                    f"{callee.attr}(); peer clauses enter only through "
                    f"add_shared_clause()"
                ),
            )
        elif sharing and callee.attr in ("add_clause", "add_clauses"):
            yield Diagnostic(
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                rule="PRF02",
                message=(
                    f"{callee.attr}() inside a clause-sharing module; "
                    "imported peer clauses must use add_shared_clause() "
                    "(CDG leaf + no cha_score/threshold inflation)"
                ),
            )
