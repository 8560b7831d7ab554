"""The shipped tree is analyzer-clean with an EMPTY baseline.

This is the acceptance gate the CI job re-runs: every violation in
``src/`` is either fixed or carries a reasoned inline suppression, and
the baseline file contains no adopted findings.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths, load_config
from repro.analysis.baseline import load_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_is_analyzer_clean():
    config = load_config(REPO_ROOT)
    findings, checked, _lines = analyze_paths([REPO_ROOT / "src"], config)
    assert checked > 50  # the whole tree, not an accidental subset
    assert not findings, "analyzer findings on src/:\n" + "\n".join(
        diag.format() for diag in findings
    )


def test_shipped_baseline_is_empty():
    baseline = REPO_ROOT / "analysis_baseline.txt"
    assert baseline.exists()
    assert load_baseline(baseline) == set()


def test_hot_registry_entries_resolve():
    """Every [tool.solcheck] hot_required entry names a module that
    exists under src/ (the not-found arm of HOT04 is exercised by the
    fixture corpus; here we pin that the real registry is not stale)."""
    config = load_config(REPO_ROOT)
    assert config.hot_required
    for entry in config.hot_required:
        dotted, _, qual = entry.partition("::")
        module_path = REPO_ROOT / "src" / Path(*dotted.split("."))
        assert module_path.with_suffix(".py").exists(), entry
        assert qual


def test_builtin_defaults_match_pyproject():
    """Each ``_default_*()`` list equals its ``[tool.solcheck]`` entry,
    so the analyzer enforces the same scopes and hot registry when run
    without the repo's pyproject.toml."""
    import tomllib

    from repro.analysis import config as config_module

    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        table = tomllib.load(fh)["tool"]["solcheck"]
    for name in (
        "det_modules", "sharing_modules", "strict_modules", "hot_required",
    ):
        default = getattr(config_module, f"_default_{name}")()
        assert default == table[name], name
