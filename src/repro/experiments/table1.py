"""Table 1: CPU time of standard BMC vs refine-order BMC (static &
dynamic) over the 37-instance suite, with TOTAL and RATIO rows.

Reproduces the layout of the paper's Table 1: model name, T/F column
(``F`` for failing properties, ``(k)`` for capped true rows), and one
time column per method.  Adds the decision counts, the per-row paper
reference times, and the two §4 summary claims (average speedup; number
of improved circuits).
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import InstanceResult, run_instances
from repro.workloads.suite import SuiteInstance, table1_suite

_METHODS = ("bmc", "static", "dynamic")

#: Column abbreviations for the rendered table.
_TIME_ABBREV = {"bmc": "bmc", "static": "sta.", "dynamic": "dyn.",
                "portfolio": "port."}
_DEC_ABBREV = {"bmc": "bmc", "static": "sta", "dynamic": "dyn",
               "portfolio": "port"}


@dataclass
class Table1Row:
    """One model row: results for all three methods."""

    instance: SuiteInstance
    results: Dict[str, InstanceResult]

    @property
    def tf_label(self) -> str:
        if self.instance.expected == "fail":
            return "F"
        return f"({self.instance.max_depth})"

    def time_of(self, method: str) -> float:
        """SAT-search seconds of one method on this row."""
        return self.results[method].solve_time

    def decisions_of(self, method: str) -> int:
        """Total decisions of one method on this row."""
        return self.results[method].decisions


@dataclass
class Table1Report:
    """The full table plus the §4 aggregate claims.

    ``methods`` lists the table's columns in order; the classic report
    carries the paper's three, ``run_table1(portfolio=True)`` appends a
    ``portfolio`` column (the race over all strategies per depth).
    """

    rows: List[Table1Row]

    @property
    def methods(self) -> tuple:
        if not self.rows:
            return _METHODS
        return tuple(self.rows[0].results.keys())

    def total(self, method: str) -> float:
        """The TOTAL row: summed time of a method."""
        return sum(row.time_of(method) for row in self.rows)

    def ratio(self, method: str) -> float:
        """The RATIO row: a method's total over standard BMC's."""
        base = self.total("bmc")
        return self.total(method) / base if base else float("nan")

    def wins(self, method: str) -> int:
        """Rows where ``method`` beats standard BMC (paper: 26 static,
        32 dynamic out of 37)."""
        return sum(1 for row in self.rows if row.time_of(method) < row.time_of("bmc"))

    def average_speedup(self, method: str) -> float:
        """Mean per-row relative time reduction (paper: 38% static,
        42% dynamic)."""
        reductions = [
            1.0 - row.time_of(method) / row.time_of("bmc")
            for row in self.rows
            if row.time_of("bmc") > 0
        ]
        return sum(reductions) / len(reductions) if reductions else float("nan")

    def render(self, show_paper: bool = True) -> str:
        """Format in the style of the paper's Table 1 (one time and one
        decision column per method — the classic three, plus the
        portfolio race when it was run)."""
        methods = self.methods
        out = io.StringIO()
        header = f"{'model':10s} {'T/F':6s}"
        for method in methods:
            label = f"{_TIME_ABBREV.get(method, method[:5])}(s)"
            header += f" {label:>9s}"
        for method in methods:
            label = f"{_DEC_ABBREV.get(method, method[:4])} dec"
            header += f" {label:>8s}" if method != "bmc" else f" {label:>9s}"
        if show_paper:
            header += f"   {'paper bmc/sta/dyn (s)':>24s}"
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for row in self.rows:
            line = f"{row.instance.name:10s} {row.tf_label:6s}"
            for method in methods:
                line += f" {row.time_of(method):9.3f}"
            for method in methods:
                width = 9 if method == "bmc" else 8
                line += f" {row.decisions_of(method):{width}d}"
            if show_paper:
                paper = row.instance.paper
                line += f"   {paper.bmc_s:8.0f}/{paper.static_s:5.0f}/{paper.dynamic_s:5.0f}"
            out.write(line + "\n")
        out.write("-" * len(header) + "\n")
        total_line = f"{'TOTAL':10s} {'':6s}"
        for method in methods:
            total_line += f" {self.total(method):9.3f}"
        out.write(total_line + "\n")
        ratio_line = f"{'RATIO':10s} {'':6s} {100.0:8.0f}%"
        for method in methods[1:]:
            ratio_line += f" {100 * self.ratio(method):8.0f}%"
        ratio_line += "   (paper: 100% / 62% / 57%)"
        out.write(ratio_line + "\n")
        out.write("\n")
        out.write(
            f"average speedup: static {100 * self.average_speedup('static'):.0f}%, "
            f"dynamic {100 * self.average_speedup('dynamic'):.0f}%  "
            f"(paper: 38% / 42%)\n"
        )
        out.write(
            f"improved circuits: static {self.wins('static')}/{len(self.rows)}, "
            f"dynamic {self.wins('dynamic')}/{len(self.rows)}  "
            f"(paper: 26/37, 32/37)\n"
        )
        if "portfolio" in methods:
            out.write(
                f"portfolio race: total {self.total('portfolio'):.3f}s "
                f"({100 * self.ratio('portfolio'):.0f}% of bmc), beats the "
                f"best single strategy on "
                f"{self.portfolio_wins()}/{len(self.rows)} rows\n"
            )
        return out.getvalue()

    def portfolio_wins(self) -> int:
        """Rows where the portfolio race is faster than every single
        strategy (the race's per-row value-add beyond min-picking)."""
        singles = [m for m in self.methods if m != "portfolio"]
        return sum(
            1
            for row in self.rows
            if row.time_of("portfolio")
            < min(row.time_of(m) for m in singles)
        )

    def to_csv(self) -> str:
        """CSV export of the full table (with paper references)."""
        methods = self.methods
        out = io.StringIO()
        out.write(
            "model,tf,"
            + ",".join(f"{m}_s" for m in methods) + ","
            + ",".join(f"{m}_decisions" for m in methods)
            + ",paper_bmc_s,paper_static_s,paper_dynamic_s\n"
        )
        for row in self.rows:
            paper = row.instance.paper
            out.write(
                f"{row.instance.name},{row.tf_label},"
                + ",".join(f"{row.time_of(m):.6f}" for m in methods) + ","
                + ",".join(str(row.decisions_of(m)) for m in methods)
                + f",{paper.bmc_s},{paper.static_s},{paper.dynamic_s}\n"
            )
        return out.getvalue()


def run_table1(
    rows: Optional[Sequence[SuiteInstance]] = None,
    methods: Sequence[str] = _METHODS,
    verbose: bool = False,
    jobs: Optional[int] = None,
    phase_mode: Optional[str] = None,
    kernel: Optional[str] = None,
    portfolio: bool = False,
    portfolio_opts: Optional[dict] = None,
    trace_dir: Optional[str] = None,
    progress: Optional[int] = None,
    profile_access: bool = False,
) -> Table1Report:
    """Run the full Table 1 experiment (or a subset of rows).

    ``jobs`` > 1 spreads the (instance, method) grid over a process
    pool (0 = one worker per CPU); the report's rows and every
    search-derived number are identical to a serial run.
    ``phase_mode``/``kernel`` override the matching solver
    configuration fields for every run (default: the
    :class:`SolverConfig` defaults).  ``portfolio=True`` appends a
    ``portfolio`` column — the strategy race with clause sharing
    (``repro.bmc.portfolio``) — whose verdicts are checked against the
    same row expectations; with ``jobs`` > 1 the pool switches to
    non-daemonic workers so each race can spawn its own solver
    processes (``repro.experiments.parallel`` nested dispatch).
    ``trace_dir`` writes one binary solver trace per (row, method,
    depth) into that directory (created if missing); see
    ``repro.sat.trace`` and ``python -m repro.trace``.
    ``progress=N`` prints a live stderr line every ``N`` conflicts
    inside each solve; ``profile_access=True`` adds per-structure
    access counting (and, with ``trace_dir``, per-depth ``.racc``
    sidecars for ``python -m repro.trace``) — both are
    search-identical (see ``repro.experiments.runner.make_engine``).
    """
    suite = list(rows) if rows is not None else table1_suite()
    methods = tuple(methods)
    if portfolio and "portfolio" not in methods:
        methods = methods + ("portfolio",)
    pairs = [(instance, method) for instance in suite for method in methods]
    extra = {}
    if phase_mode is not None:
        extra["phase_mode"] = phase_mode
    if kernel is not None:
        extra["kernel"] = kernel
    if portfolio_opts is not None:
        extra["portfolio_opts"] = portfolio_opts
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        extra["trace_dir"] = trace_dir
    if progress is not None:
        extra["progress"] = progress
    if profile_access:
        extra["profile_access"] = True

    def progress(r: InstanceResult) -> None:
        print(
            f"  {r.name} {r.strategy}: {r.status} k={r.depth_reached} "
            f"t={r.solve_time:.3f}s dec={r.decisions}",
            flush=True,
        )

    flat = run_instances(
        pairs,
        jobs=jobs,
        on_result=progress if verbose else None,
        nested="portfolio" in methods,
        **extra,
    )
    table_rows: List[Table1Row] = []
    cursor = 0
    for instance in suite:
        results = {}
        for method in methods:
            results[method] = flat[cursor]
            cursor += 1
        table_rows.append(Table1Row(instance=instance, results=results))
    return Table1Report(rows=table_rows)
