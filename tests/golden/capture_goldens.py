"""Capture seeded golden summaries for the replay-equivalence tests.

Run from the repo root (``PYTHONPATH=src python tests/golden/capture_goldens.py``)
to regenerate ``tests/golden/harness_goldens.json``.  The committed file was
captured from the pre-``repro.runtime`` harnesses (commit 10d9516), except
``protocol_faults_seed9``, recaptured when the protocol delegate took the
other stacks' tuning rules (history dropped on every membership change,
reports in name order, no idle tuning loop beside it); the
adapter-based harnesses must reproduce it bit-for-bit, so ONLY regenerate it
for a change that is *intended* to alter simulation behaviour — and say so in
the commit message.

Floats survive the JSON round trip exactly (``json`` serializes via
``float.__repr__``, which is shortest-roundtrip), so equality checks against
the stored values are bit-exact, not approximate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import (
    ClusterConfig,
    ClusterSimulation,
    FaultSchedule,
    SyntheticConfig,
    generate_synthetic,
    paper_servers,
)
from repro.cluster.protocol_driver import ProtocolDrivenCluster
from repro.fs import FsWorkloadConfig, MetadataCluster, generate_operations, populate
from repro.fs.simulation import FullSystemConfig, FullSystemSimulation
from repro.placement.anu_policy import ANUPolicy

GOLDEN_PATH = Path(__file__).with_name("harness_goldens.json")

FS_ROOTS = {f"fs{i}": f"/p{i}" for i in range(6)}
FS_SPEEDS = {f"server{i}": float(2 * i + 1) for i in range(4)}


def series_fingerprint(series) -> dict:
    """Every array in a LatencySeries as JSON-exact lists."""
    return {
        "window": float(series.window),
        "times": series.times.tolist(),
        "mean_latency": {s: series.mean_latency[s].tolist() for s in series.servers},
        "counts": {s: series.counts[s].tolist() for s in series.servers},
    }


def series_hash(series) -> str:
    """Stable digest of the full windowed series (keeps the file small)."""
    blob = json.dumps(series_fingerprint(series), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_cluster(
    seed: int,
    faults: FaultSchedule | None = None,
    telemetry=None,
    router=None,
    replication: int = 1,
):
    trace = generate_synthetic(
        SyntheticConfig(n_filesets=30, n_requests=4000, duration=1000.0, seed=seed)
    )
    config = ClusterConfig(
        servers=paper_servers(), tuning_interval=120.0, sample_window=60.0, seed=seed
    )
    return ClusterSimulation(
        config, ANUPolicy(), trace, faults, telemetry=telemetry,
        router=router, replication=replication,
    ).run()


def cluster_fault_schedule() -> FaultSchedule:
    """Covers fail, recover, commission and delegate-crash membership paths."""
    return (
        FaultSchedule()
        .fail(300.0, "server2")
        .delegate_crash(420.0)
        .recover(550.0, "server2")
        .commission(700.0, "server5", speed=4.0)
    )


def cluster_golden(result) -> dict:
    return {
        "policy_name": result.policy_name,
        "duration": result.duration,
        "mean_latency": result.mean_latency,
        "total_requests": result.total_requests,
        "completed": result.completed,
        "utilization": result.utilization,
        "moves_started": result.moves_started,
        "moves_completed": result.moves_completed,
        "retries": result.retries,
        "tuning_rounds": result.tuning_rounds,
        "final_assignment": result.final_assignment,
        "ledger": result.ledger.summary(),
        "series_sha256": series_hash(result.series),
    }


def run_full_system(seed: int, telemetry=None, router=None, replication: int = 1):
    workload = FsWorkloadConfig(
        n_operations=1500, duration=900.0, seed=seed, popularity_skew=1.2
    )
    gen_cluster = MetadataCluster(["gen"], FS_ROOTS)
    ops = generate_operations(gen_cluster, workload)
    sim = FullSystemSimulation(
        FullSystemConfig(
            server_speeds=FS_SPEEDS, fileset_roots=FS_ROOTS,
            tuning_interval=120.0, sample_window=60.0,
            mean_op_cost=0.2, seed=seed, replication=replication,
        ),
        ops,
        telemetry=telemetry,
        router=router,
    )
    populate(sim.cluster, workload)
    return sim.run()


def full_system_golden(result) -> dict:
    return {
        "ops_completed": result.total_requests - result.ops_failed,
        "ops_failed": result.ops_failed,
        "moves": result.moves_completed,
        "tuning_rounds": result.tuning_rounds,
        "ownership": result.cluster.ownership(),
        "shares": result.cluster.placement.shares(),
        "series_sha256": series_hash(result.series),
    }


def protocol_fault_schedule() -> FaultSchedule:
    """Fail, recover, a delegate crash and commission, mirrored onto the
    protocol nodes."""
    return (
        FaultSchedule()
        .fail(90.0, "server2")
        .recover(170.0, "server2")
        .delegate_crash(210.0)
        .commission(260.0, "server5", speed=4.0)
    )


def run_protocol(seed: int, telemetry=None):
    """The queueing cluster tuned by the message-level delegate protocol,
    with membership churn and one delegate crash (healed by election)."""
    trace = generate_synthetic(
        SyntheticConfig(n_filesets=20, n_requests=1500, duration=400.0, seed=seed)
    )
    config = ClusterConfig(
        servers=paper_servers(), tuning_interval=60.0, sample_window=30.0, seed=seed
    )
    return ProtocolDrivenCluster(
        config, trace, faults=protocol_fault_schedule(), telemetry=telemetry,
    ).run()


def protocol_golden(result) -> dict:
    return {
        "run": cluster_golden(result.run),
        "delegate_history": [list(entry) for entry in result.delegate_history],
        "config_updates_applied": result.config_updates_applied,
        "messages_sent": result.messages_sent,
    }


def capture() -> dict:
    return {
        "_comment": (
            "Pre-refactor golden summaries; see capture_goldens.py. "
            "Regenerate only for intentional behaviour changes."
        ),
        "cluster_anu_seed7": cluster_golden(run_cluster(7)),
        "cluster_anu_faults_seed5": cluster_golden(
            run_cluster(5, cluster_fault_schedule())
        ),
        "full_system_seed11": full_system_golden(run_full_system(11)),
        "protocol_faults_seed9": protocol_golden(run_protocol(9)),
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
