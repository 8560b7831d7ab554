"""Experiment-layer portfolio wiring: the Table-1 portfolio column,
the ``--portfolio``/``--kernel`` CLI flags, and nested
(non-daemonic) pool dispatch."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.experiments import run_table1
from repro.experiments.parallel import ParallelRunner
from repro.workloads import instance_by_name


@pytest.fixture(scope="module")
def portfolio_report():
    rows = [instance_by_name("01_b"), instance_by_name("17_1_b2")]
    return run_table1(
        rows=rows, portfolio=True, portfolio_opts={"deterministic": True}
    )


class TestTable1PortfolioColumn:
    def test_methods_include_portfolio(self, portfolio_report):
        assert portfolio_report.methods == (
            "bmc", "static", "dynamic", "portfolio"
        )

    def test_portfolio_results_match_expectations(self, portfolio_report):
        for row in portfolio_report.rows:
            result = row.results["portfolio"]
            if row.instance.expected == "fail":
                assert result.status == "failed"
                assert result.depth_reached == row.instance.cex_depth
            else:
                assert result.status == "passed-bounded"

    def test_render_has_portfolio_columns(self, portfolio_report):
        text = portfolio_report.render()
        assert "port.(s)" in text
        assert "port dec" in text
        assert "portfolio race:" in text

    def test_csv_has_portfolio_columns(self, portfolio_report):
        csv = portfolio_report.to_csv()
        header = csv.splitlines()[0]
        assert "portfolio_s" in header
        assert "portfolio_decisions" in header

    def test_classic_render_unchanged_without_portfolio(self):
        rows = [instance_by_name("17_1_b2")]
        report = run_table1(rows=rows)
        text = report.render()
        assert "port.(s)" not in text
        assert "(paper: 100% / 62% / 57%)" in text
        csv = report.to_csv()
        assert csv.splitlines()[0].startswith(
            "model,tf,bmc_s,static_s,dynamic_s,bmc_decisions"
        )

    def test_kernel_overlay_matches_default(self):
        rows = [instance_by_name("17_1_b2")]
        default = run_table1(rows=rows)
        python = run_table1(rows=rows, kernel="python")
        for row_default, row_python in zip(default.rows, python.rows):
            for method in default.methods:
                a = row_default.results[method]
                b = row_python.results[method]
                assert (a.status, a.depth_reached, a.decisions, a.conflicts) \
                    == (b.status, b.depth_reached, b.decisions, b.conflicts)


def _spawn_child_and_report(_index):
    """Pool task that itself spawns a child process — only legal in a
    nested (non-daemonic) pool."""
    context = multiprocessing.get_context("fork")
    queue = context.Queue()

    def child(q):
        q.put(multiprocessing.current_process().pid)

    process = context.Process(target=child, args=(queue,))
    process.start()
    pid = queue.get(timeout=10)
    process.join()
    return pid


class TestNestedPool:
    def test_plain_pool_workers_are_daemonic(self):
        runner = ParallelRunner(jobs=2)
        tasks = [(_probe_daemon, (), {}) for _ in range(2)]
        assert all(runner.map(tasks))

    def test_nested_pool_workers_can_spawn_children(self):
        runner = ParallelRunner(jobs=2, nested=True)
        tasks = [(_spawn_child_and_report, (index,), {}) for index in range(2)]
        pids = runner.map(tasks)
        assert all(isinstance(pid, int) for pid in pids)

    def test_nested_preserves_task_order(self):
        runner = ParallelRunner(jobs=2, nested=True)
        tasks = [(_identity, (index,), {}) for index in range(6)]
        assert runner.map(tasks) == list(range(6))


def _probe_daemon():
    return multiprocessing.current_process().daemon


def _identity(value):
    return value


class TestCli:
    def test_main_portfolio_flag(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main([
            "table1", "--small", "--portfolio-deterministic",
            "--csv", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 methods" in out
        assert "port.(s)" in out
        assert (tmp_path / "table1.csv").read_text().splitlines()[0].count(
            "portfolio"
        ) == 2

    def test_main_kernel_flag(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["table1", "--small", "--kernel", "python"])
        assert code == 0
        assert "TOTAL" in capsys.readouterr().out
