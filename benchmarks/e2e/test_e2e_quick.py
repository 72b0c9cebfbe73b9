"""Smoke test of the end-to-end benchmark at its quick shapes.

Run with ``python -m pytest benchmarks/e2e`` (about 30 s).  It checks the
benchmark, not the simulator's speed: every metric BENCHMARK.json names is
emitted, every run conserves requests and replays to one digest, and the
workloads that bypass a layer really do.
"""

import json

import pytest

import run

BYPASS_ROUTER = ("fig6-r1", "synth-2k-t10", "fig6-limp-digest")
NULL_SINK = ("fig6-r1", "fig6-r3-jsq2", "synth-2k-t10", "fs-ops-r2-jsq2")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    assert run.main(["--quick", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        return str(out), json.load(fh)["workloads"]


def test_every_workload_runs_correctly(quick):
    _, results = quick
    assert sorted(results) == sorted(run.WORKLOADS)
    for name, m in results.items():
        assert m["digests_equal"], name
        assert m["failed"] == 0, name
        assert m["attempted"] >= m["requests"] > 0, name


def test_every_named_metric_is_emitted(quick):
    _, results = quick
    spec = run.load_spec()
    for name, m in results.items():
        line = run.result_line(m, trace=False)
        assert set(line["metrics"]) == {x["name"] for x in spec["end_to_end"]}, name
        assert all(v["value"] > 0 for v in line["metrics"].values()), name
        line = run.result_line(m, trace=True)
        assert set(line["metrics"]) == {x["name"] for x in spec["per_layer"]}, name


def test_bypassed_layers_do_no_work(quick):
    _, results = quick
    layers = {name: run.per_layer(m) for name, m in results.items()}
    for name in BYPASS_ROUTER:
        assert layers[name]["routing.decisions_per_req"] == 0, name
    assert layers["fig6-r3-jsq2"]["routing.decisions_per_req"] >= 0.9
    for name in NULL_SINK:
        assert layers[name]["telemetry.records_per_req"] == 0, name
    assert layers["fig6-limp-digest"]["telemetry.records_per_req"] > 0


def test_compare_against_itself_finds_no_change(quick, capsys):
    path, _ = quick
    capsys.readouterr()
    assert run.main(["--compare", path, path]) == 0
    verdicts = [line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert verdicts and not {"better", "worse"} & set(verdicts)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([10.0, 10.1, 10.2, 9.9], [11.5, 11.6, 11.4, 11.5], "worse"),
        ([10.0, 10.1, 10.2, 9.9], [8.0, 8.1, 8.2, 7.9], "better"),
        ([10.0, 10.1, 10.2, 9.9], [10.3, 10.2, 10.1, 10.4], "unchanged"),
        ([8.0, 10.0, 12.0, 14.0], [10.5, 11.0, 11.5, 12.0], "unresolved"),
        ([8.0, 10.0, 12.0, 14.0], [5.0, 5.5, 6.0, 7.0], "better"),
    ],
)
def test_verdict(a, b, expected):
    med = sorted(a)[len(a) // 2]
    assert run.verdict(med, a, sorted(b)[len(b) // 2], b, 0.10) == expected
