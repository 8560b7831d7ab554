"""Command-line entry point: ``python -m repro.experiments <experiment>``.

Experiments: ``table1``, ``fig6``, ``fig7``, ``overhead``, ``ablations``,
``all``.  Use ``--small`` for the 6-row subset (quick smoke run),
``--csv DIR`` to also write CSV files, and ``--jobs N`` to spread the
Table-1/ablation grids over N worker processes (0 = one per CPU; the
reported numbers are identical to a serial run, see
:mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.ablations import (
    run_axis_ablation,
    run_incremental_ablation,
    run_threshold_ablation,
    run_weighting_ablation,
)
from repro.experiments.fig6 import fig6_csv, render_fig6
from repro.experiments.fig7 import fig7_csv, render_fig7, run_fig7
from repro.experiments.overhead import run_overhead
from repro.experiments.table1 import run_table1
from repro.sat.kernel import KERNELS
from repro.sat.solver import PHASE_MODES
from repro.workloads.suite import small_suite, table1_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=(
            "table1", "fig6", "fig7", "overhead", "ablations",
            "correlation", "all",
        ),
    )
    parser.add_argument(
        "--small", action="store_true",
        help="run on the 6-row subset instead of all 37 rows",
    )
    parser.add_argument("--csv", metavar="DIR", help="also write CSV output here")
    from repro.experiments.parallel import jobs_argument

    parser.add_argument(
        "--jobs", type=jobs_argument, default=None, metavar="N",
        help="worker processes for Table-1/ablation sweeps "
        "(0 = one per CPU; default serial)",
    )
    parser.add_argument(
        "--phase-mode", choices=PHASE_MODES, default=None,
        help="decision-phase policy for Table-1 runs (default: the "
        "solver default, phase saving)",
    )
    parser.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="solver data-plane kernel for Table-1 runs: 'native' (BCP "
        "and conflict analysis compiled via cffi; needs a C compiler) or "
        "'python' (the pure-Python reference).  Default: native when it "
        "builds, python otherwise — search-identical either way",
    )
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="binary solver-trace telemetry for Table-1 runs: write one "
        "versioned trace per (row, method, depth) into DIR (created if "
        "missing); inspect with `python -m repro.trace FILE` "
        "(see repro.sat.trace for the format)",
    )
    parser.add_argument(
        "--progress", type=int, nargs="?", const=2048, default=None,
        metavar="N",
        help="print a live stderr progress line every N conflicts "
        "inside each Table-1 solve (default N when the flag is given "
        "bare: 2048); conflict rates are computed from wall-clock "
        "deltas in the experiment layer, never in the solver",
    )
    parser.add_argument(
        "--profile-access", action="store_true",
        help="per-structure access profiling for Table-1 runs "
        "(SolverConfig.profile_access): counts arena/watch/trail/heap "
        "touches without changing the search; with --trace DIR also "
        "writes per-depth .racc access-stream sidecars for "
        "`python -m repro.trace DIR`",
    )
    parser.add_argument(
        "--portfolio", action="store_true",
        help="add a 'portfolio' column to Table 1: race all strategies "
        "per depth with learned-clause sharing (repro.bmc.portfolio); "
        "the first strategy to finish decides each depth",
    )
    parser.add_argument(
        "--portfolio-deterministic", action="store_true",
        help="run the portfolio column in deterministic epoch-barrier "
        "mode (byte-reproducible winners/statistics; implies "
        "--portfolio)",
    )
    args = parser.parse_args(argv)
    if args.portfolio_deterministic:
        args.portfolio = True

    rows = small_suite() if args.small else None
    want = args.experiment

    def save(name: str, text: str) -> None:
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"[wrote {path}]")

    report = None
    if want in ("table1", "fig6", "all"):
        n_methods = 4 if args.portfolio else 3
        print(f"running Table 1 ({n_methods} methods x "
              f"{len(rows) if rows else 37} instances)...", flush=True)
        report = run_table1(
            rows=rows,
            verbose=True,
            jobs=args.jobs,
            phase_mode=args.phase_mode,
            kernel=args.kernel,
            portfolio=args.portfolio,
            portfolio_opts=(
                {"deterministic": True} if args.portfolio_deterministic else None
            ),
            trace_dir=args.trace,
            progress=args.progress,
            profile_access=args.profile_access,
        )
    if want in ("table1", "all"):
        print(report.render())
        save("table1.csv", report.to_csv())
    if want in ("fig6", "all"):
        print(render_fig6(report))
        save("fig6.csv", fig6_csv(report))
    if want in ("fig7", "all"):
        print("running Fig. 7 (02_3_b2 analogue)...", flush=True)
        data = run_fig7()
        print(render_fig7(data))
        save("fig7.csv", fig7_csv(data))
    if want in ("correlation", "all"):
        from repro.experiments.correlation import run_correlation

        print("running core-correlation study...", flush=True)
        print(run_correlation(rows=rows if args.small else None).render())
    if want in ("overhead", "all"):
        print("running CDG overhead measurement...", flush=True)
        print(run_overhead(rows=rows).render())
    if want in ("ablations", "all"):
        print("running ablations...", flush=True)
        print(run_weighting_ablation(rows=rows, jobs=args.jobs).render())
        print(run_threshold_ablation(rows=rows, jobs=args.jobs).render())
        print(run_axis_ablation(rows=rows, jobs=args.jobs).render())
        print(run_incremental_ablation(rows=rows, jobs=args.jobs).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
