"""Layer spans for the traced run, recorded from the benchmark's own files.

Every public call in :data:`CALLS` is wrapped for the length of a traced
pass and records a span ``[name, start, end, parent, calls]``.  Spans are
kept in memory and written out when the run ends.  Nothing under ``src/``
is changed: the wrappers are installed on the classes and modules and
removed again after the pass.

A span's self time is its duration minus the time its direct children
cover.  Each span name belongs to one layer metric, so the self times of
a pass add up to its wall time, the sum of its root spans.  The root
spans are the benchmark's own ``bench.verdict`` spans, one a verdict, and
their self time is the unattributed part.

Consecutive ``CdclSolver.add_clause`` calls under one parent are merged
into one span whose ``calls`` field counts them: the incremental engine
feeds tens of thousands of clauses a pass, and the caller's loop between
two calls is counted as clause feeding.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: (module, class or None for a module function, attribute, layer metric).
CALLS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.workloads.suite", "SuiteInstance", "build", "workloads.build_s"),
    ("repro.bmc.cnf_cache", "EncodingCache", "unroller_for", "workloads.build_s"),
    ("repro.experiments.runner", None, "make_engine", "experiments.make_engine_s"),
    ("repro.encode.unroll", "Unroller", "instance", "encode.unroll_s"),
    ("repro.encode.unroll", "Unroller", "ensure_frames", "encode.unroll_s"),
    ("repro.sat.solver", "CdclSolver", "__init__", "sat.install_s"),
    ("repro.sat.solver", "CdclSolver", "add_clause", "sat.add_clause_s"),
    ("repro.sat.solver", "CdclSolver", "solve", "sat.solve_self_s"),
    ("repro.sat.cdg", "ConflictDependencyGraph", "unsat_core", "sat.core_s"),
    ("repro.bmc.refine", "RefineOrderBmc", "on_unsat", "bmc.refine_s"),
    # bmc_score_update is imported by name into each engine module.
    ("repro.bmc.refine", None, "bmc_score_update", "bmc.refine_s"),
    ("repro.bmc.incremental", None, "bmc_score_update", "bmc.refine_s"),
    ("repro.bmc.portfolio", None, "bmc_score_update", "bmc.refine_s"),
    ("repro.bmc.engine", "BmcEngine", "run", "bmc.engine_self_s"),
    ("repro.bmc.incremental", "IncrementalBmcEngine", "run", "bmc.engine_self_s"),
    ("repro.bmc.portfolio", "PortfolioBmcEngine", "run", "bmc.engine_self_s"),
    ("repro.circuit.netlist", "Circuit", "simulate", "circuit.simulate_s"),
    ("repro.sat.portfolio", "PortfolioSolver", "solve",
     "portfolio.coordinator_self_s"),
)

UNATTRIBUTED = "trace.unattributed_s"


def span_name(owner: Optional[str], attr: str) -> str:
    return f"{owner}.{attr}" if owner else attr


LAYER_OF: Dict[str, str] = {
    span_name(owner, attr): layer for _m, owner, attr, layer in CALLS
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values())) + (UNATTRIBUTED,)

MERGED = {"CdclSolver.add_clause"}


class Tracer:
    """Spans of one run, in opening order; ``parent`` is an index or -1."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), 0.0, parent, 1])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def merge_leaf(self, name: str, start: float, end: float) -> None:
        """Record a childless span, extending the last one when it is the
        same call under the same parent with nothing opened in between."""
        parent = self.stack[-1]
        last = self.spans[-1]
        if last[0] == name and last[3] == parent:
            last[2] = end
            last[4] += 1
        else:
            self.spans.append([name, start, end, parent, 1])

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for sid, (name, start, end, parent, calls) in enumerate(self.spans):
                out.write(json.dumps([sid, name, start, end, parent, calls]) + "\n")


# -- counters read at the span boundaries ---------------------------------

def _install_counts(counts, _token, args, kwargs, _result) -> None:
    formula = args[1] if len(args) > 1 else kwargs.get("formula")
    counts["sat.install_calls"] += 1
    counts["sat.installed_clauses"] += formula.num_clauses if formula else 0


def _solve_counts(counts, _token, _args, _kwargs, outcome) -> None:
    stats = outcome.stats
    counts["sat.solves"] += 1
    counts["sat.decisions"] += stats.decisions
    counts["sat.propagations"] += stats.propagations
    counts["sat.conflicts"] += stats.conflicts
    if outcome.core_vars is not None:
        counts["sat.core_vars"] += len(outcome.core_vars)


def _encoded_before(args, _kwargs) -> int:
    return args[0].num_encoded_clauses


def _encoded_counts(counts, before, args, _kwargs, _result) -> None:
    counts["encode.clauses"] += args[0].num_encoded_clauses - before


_HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "CdclSolver.__init__": (None, _install_counts),
    "CdclSolver.solve": (None, _solve_counts),
    "Unroller.ensure_frames": (_encoded_before, _encoded_counts),
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if name in MERGED:
        def merged(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            tracer.merge_leaf(name, start, clock())
            return result
        return merged
    before, after = _HOOKS.get(name, (None, None))

    def traced(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        token = before(args, kwargs) if before else None
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after:
            after(tracer.counts, token, args, kwargs, result)
        return result
    return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every call in :data:`CALLS`; restore the originals on exit."""
    undo = []
    try:
        for module_name, owner_name, attr, _layer in CALLS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            fn = vars(owner)[attr]
            undo.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, span_name(owner_name, attr), fn))
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


def self_times(spans: List[list], lo: int, hi: int) -> Dict[str, float]:
    """Self time by layer of the spans ``lo..hi-1`` (one pass), plus
    ``portfolio.race_s``, the total of the ``PortfolioSolver.solve``
    spans (they never nest)."""
    covered: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, _calls in spans[lo:hi]:
        covered[parent] += end - start
    layers: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    layers["portfolio.race_s"] = 0.0
    for sid in range(lo, hi):
        name, start, end, parent, _calls = spans[sid]
        layer = LAYER_OF.get(name, UNATTRIBUTED)
        layers[layer] += end - start - covered[sid]
        if name == "PortfolioSolver.solve":
            layers["portfolio.race_s"] += end - start
    return layers


def call_count(spans: List[list], lo: int, hi: int, name: str) -> int:
    return sum(span[4] for span in spans[lo:hi] if span[0] == name)
