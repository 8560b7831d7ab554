"""Table-1 end-to-end benchmark with a per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_oneshot --seed 0 \
        --seconds 40 --trace 0

Workloads (see ``table1.py`` and ``BENCHMARK.json`` for why each is run):
``table1_oneshot``, ``table1_incremental``, ``portfolio_epochs``.  One
operation is one (row, method) verdict; a pass runs every operation of
the workload once, serially, in this process.  Passes repeat while the
next one still fits in ``--seconds``, and there is always at least one.
``--seed`` offsets the builder seed of every pinned row (0 is the suite
exactly).

Every verdict is checked against its row's expectation, and every pass
must reproduce the first pass's search (status, decisions, conflicts,
propagations and core size at every depth); a verdict that does not is a
failed operation.  The command prints ``failed / attempted``, the search
digest and each metric with its unit, then one JSON object as the last
line, and exits 1 when any operation failed.

``--trace 0`` reports the end-to-end metrics from untraced passes:
``table_wall_s`` (median over passes of the summed verdict wall times,
circuit build and encoding included), ``solve_s`` (median summed
per-depth ``solve_time``, the paper's Table-1 quantity), ``decisions``,
``setup_s`` (median time from process start to a built manifest, over
several fresh processes) and ``peak_rss_mb`` of this process.  Times are
rescaled towards reference-host seconds: each pass by the host
calibration sampled between its verdicts (see ``calibrate.py``).  The
measured times are printed next to them.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self times by layer from the traced passes (median
over traced passes), counts read at the same boundaries, verdict wall
percentiles from the untraced passes, ``trace.overhead`` (traced over
untraced median wall) and ``trace.unattributed_share``.  The paper
ratios compare each refined method with the workload's first method
(bmc or vsids); a workload without that method reports 0.  Spans are
written to ``.perfbench_traces/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import calibrate
import spans

# table1 imports the program, so it is imported once the source tree has
# been found and put on the path (see main).

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

clock = time.perf_counter


@dataclass
class Pass:
    """One run of every operation.  ``wall_s`` is the sum of the verdict
    times; ``samples`` are the host calibration samples taken between its
    verdicts (see calibrate.py)."""

    wall_s: float
    verdicts: list
    samples: List[float]
    span_range: Optional[Tuple[int, int]] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def calibration_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def scale(self) -> float:
        """Reference-host seconds per measured second."""
        return calibrate.scale(self.calibration_s)


def run_pass(workload, rows, tracer=None) -> Pass:
    """Every operation once, a calibration sample before each verdict and
    after the last.  With a tracer, every verdict is a root span.  The
    verdicts are checked after the pass, untimed."""
    import table1
    from repro.bmc.cnf_cache import EncodingCache

    cache = EncodingCache()
    samples = []
    verdicts = []
    if tracer is not None:
        tracer.counts = defaultdict(float)
        lo = len(tracer.spans)
    gc.collect()
    with spans.installed(tracer) if tracer else nullcontext():
        for row, method in table1.operations(workload, rows):
            samples.append(calibrate.kernel())
            with tracer.span("bench.verdict") if tracer else nullcontext():
                verdicts.append(
                    table1.run_verdict(workload, row, method, cache))
    samples.append(calibrate.kernel())
    table1.settle(verdicts)
    if tracer is None:
        return Pass(sum(v.wall_s for v in verdicts), verdicts, samples)
    hi = len(tracer.spans)
    wall = sum(end - start for _n, start, end, parent, _c in tracer.spans[lo:hi]
               if parent == -1)
    return Pass(wall, verdicts, samples, (lo, hi), dict(tracer.counts))


def measure(workload, rows, seconds, tracer):
    """Untraced (and, with a tracer, traced) passes while the next round
    still fits in ``seconds``; always one round."""
    untraced: List[Pass] = []
    traced: List[Pass] = []
    start = clock()
    longest = 0.0
    while True:
        round_start = clock()
        untraced.append(run_pass(workload, rows))
        if tracer is not None:
            traced.append(run_pass(workload, rows, tracer))
        longest = max(longest, clock() - round_start)
        if clock() - start + longest > seconds:
            return untraced, traced


def measure_setup(seed: int) -> float:
    """Median set-up time over several fresh processes, in reference-host
    seconds (a calibration sample before each probe and after the last)."""
    samples = [calibrate.kernel()]
    times = []
    for _ in range(SETUP_PROBES):
        times.append(probe_setup(seed))
        samples.append(calibrate.kernel())
    return statistics.median(times) * calibrate.scale(statistics.median(samples))


def probe_setup(seed: int) -> float:
    """Seconds from starting a fresh interpreter to its built manifest."""
    start = clock()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


def account(passes: List[Pass]):
    """Oracle verdicts and the determinism check over every pass."""
    reference = [v.digest() for v in passes[0].verdicts]
    problems = []
    attempted = 0
    for index, p in enumerate(passes):
        for verdict, expected in zip(p.verdicts, reference):
            attempted += 1
            reason = verdict.problem
            if reason is None and verdict.digest() != expected:
                reason = "search differs from the first pass"
            if reason is not None:
                problems.append(
                    f"{verdict.row.name}/{verdict.method} pass {index}: {reason}"
                )
    digest = hashlib.sha1("".join(reference).encode()).hexdigest()
    return attempted, problems, digest


def _results(p: Pass):
    return [v.result for v in p.verdicts if v.result is not None]


def solve_s(p: Pass, method: Optional[str] = None) -> float:
    return sum(
        d.solve_time
        for v in p.verdicts
        if v.result is not None and method in (None, v.method)
        for d in v.result.per_depth
    )


def decisions(p: Pass, method: Optional[str] = None) -> int:
    return sum(
        v.result.total_decisions
        for v in p.verdicts
        if v.result is not None and method in (None, v.method)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(untraced: List[Pass], setup_s: float) -> Dict[str, tuple]:
    med = statistics.median
    return {
        "table_wall_s": (med(p.wall_s * p.scale for p in untraced), "s"),
        "solve_s": (med(solve_s(p) * p.scale for p in untraced), "s"),
        "decisions": (med(decisions(p) for p in untraced), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def pass_layers(p: Pass, tracer) -> Dict[str, tuple]:
    """Per-layer metrics of one traced pass."""
    lo, hi = p.span_range
    t = {name: value * p.scale
         for name, value in spans.self_times(tracer.spans, lo, hi).items()}
    c = defaultdict(float, p.counts)
    wall = p.wall_s * p.scale
    depths = [d for r in _results(p) for d in r.per_depth]
    log = [entry for v in p.verdicts for entry in v.sharing_log]
    add_calls = spans.call_count(tracer.spans, lo, hi, "CdclSolver.add_clause")
    return {
        "workloads.build_s": (t["workloads.build_s"], "s"),
        "experiments.make_engine_s": (t["experiments.make_engine_s"], "s"),
        "encode.unroll_s": (t["encode.unroll_s"], "s"),
        "encode.clauses": (c["encode.clauses"], "count"),
        "sat.install_s": (t["sat.install_s"], "s"),
        "sat.install_calls": (c["sat.install_calls"], "count"),
        "sat.installed_clauses": (c["sat.installed_clauses"], "count"),
        "sat.install_clauses_per_s": (
            _ratio(c["sat.installed_clauses"], t["sat.install_s"]), "1/s"),
        "sat.add_clause_s": (t["sat.add_clause_s"], "s"),
        "sat.add_clause_calls": (add_calls, "count"),
        "sat.solve_self_s": (t["sat.solve_self_s"], "s"),
        "sat.solves": (c["sat.solves"], "count"),
        "sat.decisions": (c["sat.decisions"], "count"),
        "sat.propagations": (c["sat.propagations"], "count"),
        "sat.conflicts": (c["sat.conflicts"], "count"),
        "sat.propagations_per_s": (
            _ratio(c["sat.propagations"], t["sat.solve_self_s"]), "1/s"),
        "sat.conflicts_per_s": (
            _ratio(c["sat.conflicts"], t["sat.solve_self_s"]), "1/s"),
        "sat.core_s": (t["sat.core_s"], "s"),
        "sat.core_vars": (c["sat.core_vars"], "count"),
        "sat.install_share": (_ratio(t["sat.install_s"], wall), "ratio"),
        "sat.search_share": (
            _ratio(t["sat.solve_self_s"] + t["sat.core_s"], wall), "ratio"),
        "bmc.refine_s": (t["bmc.refine_s"], "s"),
        "bmc.engine_self_s": (t["bmc.engine_self_s"], "s"),
        "bmc.ranked_depths": (
            sum(d.switched is not None for d in depths), "count"),
        "bmc.switched_depths": (sum(bool(d.switched) for d in depths), "count"),
        "circuit.simulate_s": (t["circuit.simulate_s"], "s"),
        "portfolio.race_s": (t["portfolio.race_s"], "s"),
        "portfolio.coordinator_self_s": (t["portfolio.coordinator_self_s"], "s"),
        "portfolio.raced_depths": (sum(bool(e[2]) for e in log), "count"),
        "portfolio.serial_depths": (sum(not e[2] for e in log), "count"),
        "portfolio.epochs": (sum(e[3] for e in log), "count"),
        "portfolio.shared_clauses": (sum(e[4] for e in log), "count"),
        "portfolio.deliveries": (sum(e[5] for e in log), "count"),
        "trace.table_wall_s": (wall, "s"),
        "trace.unattributed_share": (_ratio(t[spans.UNATTRIBUTED], wall), "ratio"),
    }


def fidelity(workload: str, untraced: List[Pass], rows) -> Dict[str, tuple]:
    """Our refined-vs-baseline ratios next to the paper's, same rows."""
    import table1

    methods = table1.METHODS[workload]
    base = methods[0]
    med = statistics.median
    out = {}
    for method in ("static", "dynamic"):
        present = method in methods
        out[f"bmc.{method}_vs_bmc_solve"] = (
            med(_ratio(solve_s(p, method), solve_s(p, base)) for p in untraced)
            if present else 0.0, "ratio")
        out[f"bmc.{method}_vs_bmc_decisions"] = (
            _ratio(decisions(untraced[0], method), decisions(untraced[0], base))
            if present else 0.0, "ratio")
        paper = sum(getattr(r.paper, f"{method}_s") for r in rows)
        out[f"bmc.paper_{method}_vs_bmc"] = (
            _ratio(paper, sum(r.paper.bmc_s for r in rows)), "ratio")
    return out


def per_layer(workload, rows, untraced, traced, tracer) -> Dict[str, tuple]:
    med = statistics.median
    per_pass = [pass_layers(p, tracer) for p in traced]
    out = {
        name: (med(m[name][0] for m in per_pass), unit)
        for name, (_value, unit) in per_pass[0].items()
    }
    walls = [v.wall_s * p.scale for p in untraced for v in p.verdicts]
    out["experiments.verdict_wall_s.p50"] = (med(walls), "s")
    out["experiments.verdict_wall_s.p90"] = (
        statistics.quantiles(walls, n=10)[-1], "s")
    out["experiments.verdict_wall_s.samples"] = (len(walls), "count")
    out["trace.overhead"] = (
        _ratio(out["trace.table_wall_s"][0],
               med(p.wall_s * p.scale for p in untraced)), "ratio")
    out.update(fidelity(workload, untraced, rows))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1_oneshot", "table1_incremental",
                                 "portfolio_epochs"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no source tree at {SRC}/repro; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import table1

    setup_s = None if args.trace else measure_setup(args.seed)
    rows = table1.manifest(args.seed)
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = measure(args.workload, rows, args.seconds, tracer)
    attempted, problems, digest = account(untraced + traced)
    if args.trace:
        metrics = per_layer(args.workload, rows, untraced, traced, tracer)
    else:
        metrics = end_to_end(untraced, setup_s)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced, {len(traced)} traced passes; "
          f"measured pass walls {[round(p.wall_s, 3) for p in untraced]} s, "
          f"calibration {[round(p.calibration_s, 4) for p in untraced]} s")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"verdicts: {len(problems)} failed / {attempted} attempted")
    print(f"search digest: {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    if tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
