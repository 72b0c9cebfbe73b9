"""Replay-equivalence against pre-refactor golden summaries.

``tests/golden/harness_goldens.json`` was captured from the harnesses as
they existed BEFORE the ``repro.runtime`` extraction (commit 10d9516).
These tests demand that the adapter-based harnesses reproduce those runs
bit-for-bit — scalar metrics by float equality and the full windowed
latency series by SHA-256 — and that attaching a telemetry sink does not
perturb a single bit of any of it.

If one of these fails, the refactored stack changed simulation behaviour.
That is only acceptable for an *intentional* semantic change, in which
case regenerate the goldens (see ``tests/golden/capture_goldens.py``) and
say so in the commit message.
"""

import importlib.util
import json
from pathlib import Path

from repro.cluster.protocol_driver import ProtocolDrivenCluster
from repro.runtime import DigestSink, MemorySink

GOLDEN_DIR = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "capture_goldens", GOLDEN_DIR / "capture_goldens.py"
)
cg = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cg)

GOLDEN = json.loads((GOLDEN_DIR / "harness_goldens.json").read_text())


def _assert_matches(got: dict, key: str) -> None:
    want = GOLDEN[key]
    # Compare field-by-field first so a mismatch names the culprit.
    for field in want:
        assert got[field] == want[field], f"{key}: {field} diverged"
    assert got == want


def test_cluster_matches_pre_refactor_golden():
    result = cg.run_cluster(7)
    _assert_matches(cg.cluster_golden(result), "cluster_anu_seed7")


def test_cluster_fault_path_matches_pre_refactor_golden():
    result = cg.run_cluster(5, cg.cluster_fault_schedule())
    _assert_matches(cg.cluster_golden(result), "cluster_anu_faults_seed5")


def test_full_system_matches_pre_refactor_golden():
    result = cg.run_full_system(11)
    _assert_matches(cg.full_system_golden(result), "full_system_seed11")


# ----------------------------------------------------------------------
# The routing plane at r=1 is invisible: SingleOwnerRouter + replication=1
# must replay the pre-refactor goldens bit-for-bit on every stack.
# ----------------------------------------------------------------------
def test_cluster_single_router_matches_golden():
    from repro.runtime.routing import SingleOwnerRouter

    result = cg.run_cluster(7, router=SingleOwnerRouter(), replication=1)
    _assert_matches(cg.cluster_golden(result), "cluster_anu_seed7")


def test_cluster_single_router_fault_path_matches_golden():
    from repro.runtime.routing import SingleOwnerRouter

    result = cg.run_cluster(
        5, cg.cluster_fault_schedule(),
        router=SingleOwnerRouter(), replication=1,
    )
    _assert_matches(cg.cluster_golden(result), "cluster_anu_faults_seed5")


def test_full_system_single_router_matches_golden():
    from repro.runtime.routing import SingleOwnerRouter

    result = cg.run_full_system(
        11, router=SingleOwnerRouter(), replication=1
    )
    _assert_matches(cg.full_system_golden(result), "full_system_seed11")


def test_protocol_single_router_replays_identically():
    from repro import ClusterConfig, paper_servers
    from repro.runtime.routing import SingleOwnerRouter
    from repro.workloads import SyntheticConfig, generate_synthetic

    def run(router, replication):
        trace = generate_synthetic(
            SyntheticConfig(n_filesets=20, n_requests=1500,
                            duration=400.0, seed=9)
        )
        config = ClusterConfig(
            servers=paper_servers(), tuning_interval=60.0,
            sample_window=30.0, seed=9,
        )
        return ProtocolDrivenCluster(
            config, trace, router=router, replication=replication
        ).run()

    default = run(None, 1)
    routed = run(SingleOwnerRouter(), 1)
    a, b = default.run, routed.run
    assert a.mean_latency == b.mean_latency
    assert a.completed == b.completed
    assert a.final_assignment == b.final_assignment
    assert a.moves_started == b.moves_started
    assert default.delegate_history == routed.delegate_history
    assert default.messages_sent == routed.messages_sent


# ----------------------------------------------------------------------
# Telemetry is observational: enabling a sink changes nothing.
# ----------------------------------------------------------------------
def test_cluster_telemetry_does_not_perturb_replay():
    from repro import ClusterConfig, ClusterSimulation, paper_servers
    from repro.placement.anu_policy import ANUPolicy
    from repro.workloads import SyntheticConfig, generate_synthetic

    def run(sink):
        trace = generate_synthetic(
            SyntheticConfig(n_filesets=30, n_requests=4000,
                            duration=1000.0, seed=5)
        )
        config = ClusterConfig(
            servers=paper_servers(), tuning_interval=120.0,
            sample_window=60.0, seed=5,
        )
        return ClusterSimulation(
            config, ANUPolicy(), trace, cg.cluster_fault_schedule(),
            telemetry=sink,
        ).run()

    sink = MemorySink()
    observed = run(sink)
    _assert_matches(cg.cluster_golden(observed), "cluster_anu_faults_seed5")
    # The stream is complete and consistent with the result it observed.
    counts = sink.counts()
    assert counts["arrival"] == 4000
    assert counts["completion"] == observed.total_requests
    assert counts["tuning"] == observed.tuning_rounds
    assert counts["move-finish"] == observed.moves_completed
    assert counts["fault"] == 4
    # moves can start from the fault path's re-route as well as tuning;
    # every started move must be in the stream.
    assert counts["move-start"] >= observed.moves_started
    # The sanitizer's sink, which hashes every record, is as observational.
    _assert_matches(cg.cluster_golden(run(DigestSink())), "cluster_anu_faults_seed5")


def test_full_system_telemetry_does_not_perturb_replay():
    sink = MemorySink()
    result = cg.run_full_system(11, telemetry=sink)
    _assert_matches(cg.full_system_golden(result), "full_system_seed11")
    counts = sink.counts()
    # Every semantic op arrives and (the fleet is static) is served.
    assert counts["arrival"] == result.total_requests
    assert counts["completion"] == result.total_requests
    assert counts["tuning"] == result.tuning_rounds
    assert counts["move-finish"] == result.moves_completed


def test_protocol_stack_replays_identically_with_telemetry():
    from repro import ClusterConfig, paper_servers
    from repro.workloads import SyntheticConfig, generate_synthetic

    def run(sink):
        trace = generate_synthetic(
            SyntheticConfig(n_filesets=20, n_requests=1500,
                            duration=400.0, seed=9)
        )
        config = ClusterConfig(
            servers=paper_servers(), tuning_interval=60.0,
            sample_window=30.0, seed=9,
        )
        return ProtocolDrivenCluster(config, trace, telemetry=sink).run()

    sink = MemorySink()
    with_telemetry = run(sink)
    silent = run(None)
    a, b = with_telemetry.run, silent.run
    assert a.mean_latency == b.mean_latency
    assert a.completed == b.completed
    assert a.final_assignment == b.final_assignment
    assert a.moves_started == b.moves_started
    assert with_telemetry.delegate_history == silent.delegate_history
    assert (
        with_telemetry.config_updates_applied == silent.config_updates_applied
    )
    assert with_telemetry.messages_sent == silent.messages_sent
    # Protocol-level records flow into the same stream as queueing ones.
    counts = sink.counts()
    assert counts.get("election", 0) >= 1
    assert counts.get("tuning", 0) >= 1
    assert counts["completion"] == a.total_requests


def test_jsonl_round_trip_preserves_stream():
    import io

    from repro.runtime import JsonlSink, TeeSink, read_jsonl

    memory = MemorySink()
    buffer = io.StringIO()
    with JsonlSink(buffer) as jsonl:
        cg.run_full_system(11, telemetry=TeeSink(memory, jsonl))
    parsed = read_jsonl(buffer.getvalue().splitlines())
    assert parsed == memory.records


def test_jsonl_file_path_round_trip(tmp_path):
    # read_jsonl(path) must round-trip what JsonlSink(path) wrote — the
    # same str | IO duality on both ends.
    from repro.runtime import JsonlSink, TeeSink, read_jsonl

    memory = MemorySink()
    path = str(tmp_path / "run.jsonl")
    with JsonlSink(path) as jsonl:
        cg.run_cluster(7, telemetry=TeeSink(memory, jsonl))
    assert read_jsonl(path) == memory.records
