"""The parallel sweep engine: plans, executors, merges, and resume.

The engine's contract is byte-identity: the merged output of a sweep is
a pure function of its plan, regardless of executor kind, worker count,
completion order, or whether the run was interrupted and resumed.  The
process-executor tests spawn real worker processes (spawn start method,
the strictest), so they double as an integration test of the
``register_process_cache`` contract.
"""

from __future__ import annotations

import json

import pytest

from repro.core.interval import MappedInterval
from repro.sweep import (
    Cell,
    GridSpec,
    PlanError,
    SweepPlan,
    cell_id_for,
    clear_process_caches,
    register_process_cache,
    run_sweep,
)
from repro.sweep.worker import _scenario_for, run_cell

#: Small-but-real grid: 2 policies x 3 seeds at the quick cell size.
QUICK = {"n_filesets": 12, "n_requests": 60, "duration": 120.0,
         "tuning_interval": 30.0}


def quick_spec(policies=("anu", "simple-random"), seeds=(0, 1, 2)) -> GridSpec:
    return GridSpec(
        axes={"policy": list(policies)}, seeds=list(seeds), base=dict(QUICK)
    )


# ----------------------------------------------------------------------
# Cell ids and plans
# ----------------------------------------------------------------------
def test_cell_id_ignores_param_insertion_order():
    a = cell_id_for(7, {"policy": "anu", "n_requests": 60})
    b = cell_id_for(7, {"n_requests": 60, "policy": "anu"})
    assert a == b
    assert len(a) == 16


def test_cell_id_distinguishes_seed_and_params():
    base = cell_id_for(7, {"policy": "anu"})
    assert cell_id_for(8, {"policy": "anu"}) != base
    assert cell_id_for(7, {"policy": "simple-random"}) != base


def test_plan_is_stable_under_axis_reordering():
    one = GridSpec(
        axes={"policy": ["anu", "simple-random"], "alpha": [3.0, 4.0]},
        seeds=[0, 1],
    ).build_plan()
    two = GridSpec(
        axes={"alpha": [4.0, 3.0], "policy": ["simple-random", "anu"]},
        seeds=[1, 0],
    ).build_plan()
    assert one.digest() == two.digest()
    assert [c.cell_id for c in one.cells] == [c.cell_id for c in two.cells]


def test_plan_cells_are_sorted_and_unique():
    plan = quick_spec().build_plan()
    ids = [c.cell_id for c in plan.cells]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids) == 6


def test_plan_round_trips_through_json():
    plan = quick_spec().build_plan()
    again = SweepPlan.from_json(plan.to_json())
    assert again == plan
    assert again.digest() == plan.digest()


def test_plan_json_digest_guard_rejects_tampering():
    plan = quick_spec().build_plan()
    doc = json.loads(plan.to_json())
    doc["cells"][0]["seed"] += 1
    with pytest.raises(PlanError):
        SweepPlan.from_json(json.dumps(doc))


def test_grid_rejects_non_scalar_axis_values_and_duplicate_seeds():
    with pytest.raises(PlanError):
        GridSpec(axes={"policy": [object()]}, seeds=[0])
    with pytest.raises(PlanError):
        GridSpec(axes={"policy": ["anu"]}, seeds=[0, 0])


def test_cell_rejects_id_mismatch():
    good = Cell.build(seed=1, params={"policy": "anu"})
    with pytest.raises(PlanError):
        Cell(cell_id="0" * 16, seed=good.seed, params=good.params)


# ----------------------------------------------------------------------
# Byte-identity across executors, worker counts, and resume
# ----------------------------------------------------------------------
def _merged_bytes(outdir):
    return (outdir / "merged.jsonl").read_bytes()


def test_serial_sweep_is_deterministic(tmp_path):
    plan = quick_spec().build_plan()
    one = run_sweep(plan, tmp_path / "one", executor="serial")
    two = run_sweep(plan, tmp_path / "two", executor="serial")
    assert one.complete and two.complete
    assert one.merged_digest == two.merged_digest
    assert _merged_bytes(tmp_path / "one") == _merged_bytes(tmp_path / "two")


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_process_executor_matches_serial_at_any_worker_count(tmp_path, jobs):
    plan = quick_spec().build_plan()
    serial = run_sweep(plan, tmp_path / "serial", executor="serial")
    result = run_sweep(
        plan, tmp_path / f"process{jobs}", executor="process", jobs=jobs
    )
    assert result.complete
    assert result.merged_digest == serial.merged_digest
    assert _merged_bytes(tmp_path / f"process{jobs}") == _merged_bytes(
        tmp_path / "serial"
    )


def test_futures_executor_matches_serial(tmp_path):
    plan = quick_spec(seeds=(0, 1)).build_plan()
    serial = run_sweep(plan, tmp_path / "serial", executor="serial")
    futures = run_sweep(
        plan, tmp_path / "futures", executor="futures", jobs=2
    )
    assert futures.complete
    assert futures.merged_digest == serial.merged_digest


def test_resume_from_partial_is_bit_identical(tmp_path):
    plan = quick_spec().build_plan()
    whole = run_sweep(plan, tmp_path / "whole", executor="serial")

    partial = run_sweep(
        plan, tmp_path / "resumed", executor="serial", max_cells=2
    )
    assert not partial.complete and partial.ran == 2
    finished = run_sweep(
        plan, tmp_path / "resumed", executor="process", jobs=2
    )
    assert finished.complete
    assert finished.resumed == 2 and finished.ran == len(plan) - 2
    assert finished.merged_digest == whole.merged_digest
    assert _merged_bytes(tmp_path / "resumed") == _merged_bytes(
        tmp_path / "whole"
    )


def test_resume_rejects_a_different_plan(tmp_path):
    outdir = tmp_path / "out"
    run_sweep(quick_spec().build_plan(), outdir, max_cells=1)
    other = quick_spec(seeds=(5, 6)).build_plan()
    with pytest.raises(PlanError):
        run_sweep(other, outdir)


def test_manifest_records_per_cell_digests(tmp_path):
    plan = quick_spec(policies=("anu",), seeds=(0, 1)).build_plan()
    result = run_sweep(plan, tmp_path / "out", executor="serial")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["merged_digest"] == result.merged_digest
    assert manifest["plan_digest"] == plan.digest()
    assert sorted(manifest["cell_digests"]) == [
        c.cell_id for c in plan.cells
    ]
    assert all(manifest["cell_digests"].values())


# ----------------------------------------------------------------------
# The worker and the process-cache contract
# ----------------------------------------------------------------------
def test_run_cell_is_deterministic_and_validates_params():
    payload = Cell.build(
        seed=3, params={"policy": "anu", **QUICK}
    ).payload()
    assert run_cell(payload) == run_cell(dict(payload))
    bad = Cell.build(seed=3, params={"policy": "anu", "bogus": 1}).payload()
    with pytest.raises(ValueError):
        run_cell(bad)


def test_worker_summary_matches_bare_scenario():
    # run_cell adds bookkeeping around Scenario, never work: the worker's
    # summary is exactly what a bare seeded scenario run produces.
    cell = quick_spec().build_plan().cells[0]
    row = run_cell(cell.payload())
    result = _scenario_for(cell.seed, cell.params_dict).run_cluster()
    assert row["summary"]["mean_latency"] == result.mean_latency
    assert row["summary"]["completed"] == result.completed


def test_clear_process_caches_resets_interval_segment_cache():
    # The latent fork hazard: a warm segments() cache inherited by a
    # forked child must be droppable at worker start.  The WeakSet hook
    # registered by repro.core.interval clears every live interval.
    interval = MappedInterval(["s0", "s1", "s2"])
    for server in interval.servers:
        interval.segments(server)
    assert interval._segments_cache
    clear_process_caches()
    assert not interval._segments_cache
    assert interval._segments_gen == -1
    for server in interval.servers:
        assert interval.segments(server) == interval._build_segments(server)


def test_register_process_cache_is_idempotent_and_decoratable():
    from repro.sweep import api

    calls = []

    def hook():
        calls.append(1)

    before = len(api._HOOKS)
    assert register_process_cache(hook) is hook
    register_process_cache(hook)  # second registration is a no-op
    try:
        assert len(api._HOOKS) == before + 1
        clear_process_caches()
        assert calls == [1]
    finally:
        api._HOOKS.remove(hook)
