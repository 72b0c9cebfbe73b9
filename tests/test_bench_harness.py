"""Unit tests for the ``repro-bench`` harness (repro.bench).

Covers the timer (calibration, median-of-k statistics, pedantic mode),
suite discovery without pytest (parametrize expansion, fixture
injection), report schema round-trips, the regression gate, the CLI
end-to-end against a synthetic suite in a temporary repo layout, and the
committed baselines against the gated suites (without timing anything).
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro import contracts
from repro.bench import discovery
from repro.bench.cli import main
from repro.bench.discovery import (
    SUITES,
    DiscoveryError,
    collect_cases,
    discover_suites,
    find_benchmarks_dir,
    load_suite_module,
    run_case,
    run_suite,
)
from repro.bench.report import (
    GATE,
    SCHEMA_VERSION,
    ReportError,
    build_document,
    compare,
    format_gate_result,
    git_rev,
    load_document,
    write_document,
)
from repro.bench.timing import BenchTimer, TimerConfig, TimingStats

#: Contract mode compiled into this pytest process; the CLI is always
#: invoked with it so _ensure_contract_mode never needs to re-exec (an
#: os.execve would replace the test runner).
CURRENT_MODE = "off" if contracts.COMPILED_OUT else "on"

#: Near-instant timer knobs for tests.
FAST = TimerConfig(warmup_rounds=0, rounds=2, min_round_ns=0)

#: The toy suite pins its rounds, so CLI runs (which always use the
#: default TimerConfig) stay near-instant.
SUITE_SOURCE = textwrap.dedent(
    """
    import pytest

    def test_plain(benchmark):
        benchmark.pedantic(sum, args=(range(16),), rounds=2)

    @pytest.mark.parametrize("n", [2, 4])
    def test_param(benchmark, n):
        benchmark.pedantic(sum, args=(range(n),), rounds=2)
        benchmark.extra_info["n"] = n
    """
)


@pytest.fixture()
def fake_repo(tmp_path: Path, monkeypatch) -> Path:
    """A minimal repo layout: pyproject.toml + benchmarks/bench_toy.py,
    with ``toy`` as the only gated suite."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'toy'\n")
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_toy.py").write_text(SUITE_SOURCE)
    monkeypatch.setattr(discovery, "SUITES", ("toy",))
    return tmp_path


# ----------------------------------------------------------------------
# Timer
# ----------------------------------------------------------------------
def test_timer_config_validation():
    TimerConfig().validate()
    with pytest.raises(ValueError):
        TimerConfig(rounds=0).validate()
    with pytest.raises(ValueError):
        TimerConfig(warmup_rounds=-1).validate()
    with pytest.raises(ValueError):
        TimerConfig(min_round_ns=-1).validate()
    with pytest.raises(ValueError):
        TimerConfig(max_iterations=0).validate()


def test_timing_stats_from_round_times():
    stats = TimingStats.from_round_times([10, 20, 30], iterations=10)
    assert stats.median_ns == 2.0
    assert stats.min_ns == 1.0
    assert stats.max_ns == 3.0
    assert stats.rounds == 3
    assert stats.iterations == 10
    assert set(stats.as_dict()) == {
        "median_ns", "mean_ns", "stddev_ns", "min_ns", "max_ns",
        "rounds", "iterations",
    }
    with pytest.raises(ValueError):
        TimingStats.from_round_times([], iterations=1)


def test_bench_timer_call_returns_last_result_and_records_stats():
    timer = BenchTimer(FAST)
    calls = []

    def target(x):
        calls.append(x)
        return x * 2

    assert timer(target, 21) == 42
    assert timer.stats is not None
    assert timer.stats.rounds == FAST.rounds
    # calibration call + timed rounds (no warmup under FAST)
    assert len(calls) >= 1 + FAST.rounds


def test_bench_timer_calibration_scales_iterations():
    timer = BenchTimer(TimerConfig(min_round_ns=1_000, max_iterations=50))
    assert timer._calibrate(single_ns=2_000) == 1
    assert timer._calibrate(single_ns=100) == 10
    assert timer._calibrate(single_ns=30) == 34  # ceil(1000/30)
    assert timer._calibrate(single_ns=1) == 50  # capped at max_iterations


def test_bench_timer_pedantic_pins_rounds():
    timer = BenchTimer(FAST)
    seen = []
    timer.pedantic(seen.append, args=(1,), rounds=3, iterations=2)
    assert timer.stats is not None
    assert timer.stats.rounds == 3
    assert timer.stats.iterations == 2
    assert len(seen) == 6


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def test_find_benchmarks_dir_walks_up(fake_repo: Path):
    nested = fake_repo / "src" / "deep"
    nested.mkdir(parents=True)
    assert find_benchmarks_dir(nested) == fake_repo / "benchmarks"
    with pytest.raises(DiscoveryError):
        find_benchmarks_dir(Path("/nonexistent-root-for-bench"))


def test_discover_suites_maps_names(fake_repo: Path, monkeypatch):
    bench_dir = fake_repo / "benchmarks"
    assert discover_suites(bench_dir) == {"toy": bench_dir / "bench_toy.py"}
    monkeypatch.setattr(discovery, "SUITES", ("toy", "nope"))
    with pytest.raises(DiscoveryError, match="bench_nope.py"):
        discover_suites(bench_dir)


def test_repo_default_suites_are_discoverable():
    bench_dir = find_benchmarks_dir(Path(__file__).resolve().parent)
    assert list(discover_suites(bench_dir)) == list(SUITES)


def test_collect_cases_expands_parametrize(fake_repo: Path):
    module = load_suite_module(fake_repo / "benchmarks" / "bench_toy.py")
    names = [case.name for case in collect_cases(module)]
    assert names == ["test_plain", "test_param[n=2]", "test_param[n=4]"]


def test_run_case_injects_fixtures(fake_repo: Path):
    bench_dir = fake_repo / "benchmarks"
    (bench_dir / "bench_calibrated.py").write_text(
        "def test_sum(benchmark):\n    benchmark(sum, range(8))\n"
    )
    module = load_suite_module(bench_dir / "bench_calibrated.py")
    result = run_case(collect_cases(module)[0], FAST)
    assert result.stats["rounds"] == FAST.rounds
    module = load_suite_module(bench_dir / "bench_toy.py")
    cases = {c.name: c for c in collect_cases(module)}
    result = run_case(cases["test_param[n=4]"], FAST)
    assert result.params == {"n": 4}
    assert result.extra_info == {"n": 4}
    assert result.stats["rounds"] == 2  # pinned by pedantic


def test_run_case_rejects_unknown_fixture(fake_repo: Path):
    # ``quick`` belongs to the figure drivers, which run only under
    # pytest; a gated suite gets the timer and nothing else.
    bench_dir = fake_repo / "benchmarks"
    (bench_dir / "bench_bad.py").write_text(
        "def test_needs_quick(benchmark, quick):\n    benchmark(sum, [])\n"
    )
    module = load_suite_module(bench_dir / "bench_bad.py")
    with pytest.raises(DiscoveryError, match="quick"):
        run_case(collect_cases(module)[0], FAST)


def test_run_case_requires_timer_use(fake_repo: Path):
    bench_dir = fake_repo / "benchmarks"
    (bench_dir / "bench_lazy.py").write_text(
        "def test_never_measures(benchmark):\n    pass\n"
    )
    module = load_suite_module(bench_dir / "bench_lazy.py")
    with pytest.raises(DiscoveryError, match="never invoked"):
        run_case(collect_cases(module)[0], FAST)


def test_run_suite_end_to_end(fake_repo: Path):
    results = run_suite(fake_repo / "benchmarks" / "bench_toy.py", FAST)
    assert len(results) == 3
    assert all(r.stats["median_ns"] > 0 for r in results)


# ----------------------------------------------------------------------
# Report + gate
# ----------------------------------------------------------------------
def make_document(fake_repo: Path, **overrides):
    results = run_suite(fake_repo / "benchmarks" / "bench_toy.py", FAST)
    doc = build_document(
        "toy",
        results,
        config=FAST,
        contracts=CURRENT_MODE,
        rev=git_rev(fake_repo),
    )
    doc.update(overrides)
    return doc


def test_document_roundtrip_and_schema(fake_repo: Path, tmp_path: Path):
    doc = make_document(fake_repo)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["suite"] == "toy"
    assert doc["git_rev"] == "unknown"  # tmp repo is outside git
    assert {"warmup_rounds", "rounds", "min_round_ns"} <= set(doc["timer"])
    assert "seed" not in doc and "quick" not in doc
    path = tmp_path / "BENCH_toy.json"
    write_document(doc, path)
    assert load_document(path) == doc
    # stable, diff-friendly formatting
    assert path.read_text().endswith("\n")


def test_load_document_rejects_bad_inputs(tmp_path: Path):
    bad_json = tmp_path / "corrupt.json"
    bad_json.write_text("{nope")
    with pytest.raises(ReportError, match="not valid JSON"):
        load_document(bad_json)
    for version in (1, 999):  # 1: the seed/quick layout, never comparable
        wrong_version = tmp_path / f"v{version}.json"
        wrong_version.write_text(
            json.dumps({"schema_version": version, "results": []})
        )
        with pytest.raises(ReportError, match="schema_version"):
            load_document(wrong_version)
    no_results = tmp_path / "empty.json"
    no_results.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    with pytest.raises(ReportError, match="results"):
        load_document(no_results)


def result_entry(name: str, median: float) -> dict:
    return {"name": name, "median_ns": median}


def test_compare_flags_regressions_only_past_gate():
    current = {"suite": "toy", "results": [
        result_entry("a", 130.0),  # +30% -> breach at 25%
        result_entry("b", 120.0),  # +20% -> ok
        result_entry("new", 50.0),
    ]}
    baseline = {"results": [
        result_entry("a", 100.0),
        result_entry("b", 100.0),
        result_entry("gone", 10.0),
    ]}
    verdict = compare(current, baseline)
    assert [c.name for c in verdict.compared] == ["a", "b"]
    assert [c.name for c in verdict.regressions] == ["a"]
    assert verdict.only_current == ["new"]
    assert verdict.only_baseline == ["gone"]
    assert not verdict.passed
    text = format_gate_result(verdict)
    assert "REGRESSION" in text and "FAIL at +25%" in text
    within = compare({"suite": "toy", "results": current["results"][1:]}, baseline)
    assert within.passed
    assert "PASS" in format_gate_result(within)


def test_compare_zero_baseline_is_not_a_breach():
    current = {"suite": "toy", "results": [result_entry("a", 5.0)]}
    baseline = {"results": [result_entry("a", 0.0)]}
    assert compare(current, baseline).passed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def cli(fake_repo: Path, *extra: str, output_dir: Path | None = None) -> int:
    return main([
        "--benchmarks-dir", str(fake_repo / "benchmarks"),
        "--output-dir", str(output_dir or fake_repo),
        "--contracts", CURRENT_MODE,
        *extra,
    ])


def test_cli_writes_reports_and_skips_gate_without_baseline(
    fake_repo: Path, capsys
):
    assert cli(fake_repo) == 0
    out = capsys.readouterr().out
    assert "gate skipped" in out
    document = load_document(fake_repo / "BENCH_toy.json")
    assert document["suite"] == "toy"
    assert len(document["results"]) == 3


def test_cli_creates_missing_output_dir(fake_repo: Path, tmp_path: Path):
    output_dir = tmp_path / "a" / "b"
    assert cli(fake_repo, output_dir=output_dir) == 0
    assert load_document(output_dir / "BENCH_toy.json")["suite"] == "toy"


def test_cli_help_lists_only_the_kept_options(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {
        "--help", "--suites", "--list", "--no-gate", "--update-baseline",
        "--contracts", "--benchmarks-dir", "--output-dir", "--baseline-dir",
    }


def test_cli_update_baseline_then_gate_passes(fake_repo: Path, capsys):
    assert cli(fake_repo, "--update-baseline") == 0
    baseline_path = fake_repo / "benchmarks" / "baselines" / "BENCH_toy.json"
    assert baseline_path.is_file()
    # Single-round sub-microsecond timings are wildly noisy, so the PASS
    # path is made deterministic: inflate the baseline medians until no
    # rerun can breach — this stays a pure plumbing test (reports found,
    # cases matched by name, verdict PASS, exit 0).
    doc = load_document(baseline_path)
    for entry in doc["results"]:
        entry["median_ns"] = entry["median_ns"] * 1e6
    write_document(doc, baseline_path)
    assert cli(fake_repo) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_gate_breach_exits_one(fake_repo: Path, capsys):
    assert cli(fake_repo, "--update-baseline") == 0
    baseline_path = fake_repo / "benchmarks" / "baselines" / "BENCH_toy.json"
    doc = load_document(baseline_path)
    for entry in doc["results"]:
        entry["median_ns"] = entry["median_ns"] / 1e6  # force huge slowdown
    write_document(doc, baseline_path)
    assert cli(fake_repo) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # --no-gate measures without comparing.
    assert cli(fake_repo, "--no-gate") == 0


def test_cli_list_and_unknown_suite(fake_repo: Path, capsys):
    assert main([
        "--benchmarks-dir", str(fake_repo / "benchmarks"), "--list",
    ]) == 0
    assert "toy" in capsys.readouterr().out
    assert cli(fake_repo, "--suites", "nope") == 2
    assert "unknown suite" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Committed baselines
# ----------------------------------------------------------------------
def test_baselines_match_the_gated_suites():
    # Static, times nothing: a case added to or dropped from a suite
    # without refreshing its baseline would otherwise only show as
    # "new"/"missing" and pass the gate.
    bench_dir = find_benchmarks_dir(Path(__file__).resolve().parent)
    baseline_dir = bench_dir / "baselines"
    assert sorted(p.name for p in baseline_dir.glob("BENCH_*.json")) == sorted(
        f"BENCH_{name}.json" for name in SUITES
    )
    revs = set()
    for name, path in discover_suites(bench_dir).items():
        document = load_document(baseline_dir / f"BENCH_{name}.json")
        revs.add(document["git_rev"])
        cases = [case.name for case in collect_cases(load_suite_module(path))]
        assert [r["name"] for r in document["results"]] == cases, name
        for r in document["results"]:
            # Rounds steady enough for the 25% gate to decide.
            assert r["stddev_ns"] / r["median_ns"] < GATE / 3, r["name"]
    assert len(revs) == 1, f"baselines come from several revisions: {revs}"
