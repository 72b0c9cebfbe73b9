"""The five end-to-end workloads: seeded inputs, a fresh simulator per run,
and the checks every run must pass.

Each workload is an open-loop, fixed-size simulated trace replayed by a
batch simulator, so the benchmark reports host work per simulated request
at the stated input size.  Inputs come only from the seed; a workload
builds a fresh simulator for every run because policies, routers and
telemetry sinks are stateful.

Imports of ``repro`` happen inside the functions: the runner sets
``REPRO_CONTRACTS`` and ``PYTHONHASHSEED`` in the child process before the
package is first imported.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable

#: Root name -> path for the fs workload's 21 file sets (the DFSTrace
#: slice's file-set count).
FS_ROOTS = {f"vol{i:02d}": f"/vol{i:02d}" for i in range(21)}


@dataclass(frozen=True)
class Workload:
    """One named workload: how to make its inputs and build its simulator."""

    name: str
    #: ``(seed, quick) -> inputs``; everything the simulator replays.
    inputs: Callable[[int, bool], Any]
    #: ``(inputs, seed) -> simulator`` with a ``run()`` method.
    build: Callable[[Any, int], Any]
    #: ``inputs -> number of simulated requests`` (fs: operations).
    size: Callable[[Any], int]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _fig6_inputs(seed: int, quick: bool) -> dict[str, Any]:
    from repro.experiments.config import figure6
    from repro.experiments.runner import generate_trace

    config = figure6(quick=quick, seed=seed)
    return {"cluster": config.cluster, "trace": generate_trace(config.dfstrace)}


def _limp_inputs(seed: int, quick: bool) -> dict[str, Any]:
    from repro.membership.injector import LIMP_CHURN, FaultInjector
    from repro.units import Seconds

    inputs = _fig6_inputs(seed, quick)
    injector = FaultInjector(inputs["cluster"].speeds, LIMP_CHURN, seed=seed + 11)
    inputs["faults"] = injector.generate(Seconds(inputs["trace"].duration))
    return inputs


def _synth_inputs(seed: int, quick: bool) -> dict[str, Any]:
    from repro.experiments.config import figure8
    from repro.experiments.runner import generate_trace

    config = figure8(seed=seed)
    # 10 s rounds: 400 rounds at full size, 100 in the quick shape.
    workload = replace(
        config.synthetic,
        n_filesets=500 if quick else 2_000,
        n_requests=10_000 if quick else 40_000,
        duration=1_000.0 if quick else 4_000.0,
    )
    cluster = replace(config.cluster, tuning_interval=10.0, oracle_horizon=None)
    return {"cluster": cluster, "trace": generate_trace(workload)}


def _fs_inputs(seed: int, quick: bool) -> dict[str, Any]:
    from repro.fs import FsWorkloadConfig, MetadataCluster, generate_operations

    n_ops, duration = (5_000, 225.0) if quick else (40_000, 1_800.0)
    config = FsWorkloadConfig(
        n_operations=n_ops, duration=duration, popularity_skew=1.1, seed=seed + 8
    )
    return {"ops": generate_operations(MetadataCluster(["gen"], FS_ROOTS), config)}


# ----------------------------------------------------------------------
# Simulators
# ----------------------------------------------------------------------
def _anu():
    from repro.experiments.runner import make_policy

    return make_policy("anu")


def _cluster_sim(inputs, policy, router="single", replication=1, telemetry=None):
    from repro.cluster.cluster import ClusterSimulation
    from repro.runtime.routing import make_router

    return ClusterSimulation(
        inputs["cluster"],
        policy,
        inputs["trace"],
        faults=inputs.get("faults"),
        telemetry=telemetry,
        router=make_router(router),
        replication=replication,
    )


def _build_r1(inputs, seed):
    return _cluster_sim(inputs, _anu())


def _build_r3(inputs, seed):
    from repro.placement.replicated import ReplicatedPolicy

    return _cluster_sim(inputs, ReplicatedPolicy(_anu(), 3), "jsq2", 3)


def _build_limp(inputs, seed):
    from repro.runtime.telemetry import DigestSink

    return _cluster_sim(inputs, _anu(), telemetry=DigestSink())


def _build_fs(inputs, seed):
    from repro.cluster.cluster import paper_servers
    from repro.fs.simulation import FullSystemConfig, FullSystemSimulation
    from repro.runtime.routing import make_router

    # Built directly, as Scenario.run_full_system does, so construction
    # is set-up time and not run time.
    config = FullSystemConfig(
        server_speeds={s.name: s.speed for s in paper_servers()},
        fileset_roots=FS_ROOTS,
        tuning_interval=120.0,
        mean_op_cost=0.08,
        seed=seed + 4,
        replication=2,
    )
    return FullSystemSimulation(config, list(inputs["ops"]), router=make_router("jsq2"))


def _trace_size(inputs) -> int:
    return len(inputs["trace"])


def _ops_size(inputs) -> int:
    return len(inputs["ops"])


#: Why each workload exists is recorded once, in BENCHMARK.json and the
#: README's catalogue.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig6-r1", _fig6_inputs, _build_r1, _trace_size),
        Workload("fig6-r3-jsq2", _fig6_inputs, _build_r3, _trace_size),
        Workload("synth-2k-t10", _synth_inputs, _build_r1, _trace_size),
        Workload("fig6-limp-digest", _limp_inputs, _build_limp, _trace_size),
        Workload("fs-ops-r2-jsq2", _fs_inputs, _build_fs, _ops_size),
    )
}


# ----------------------------------------------------------------------
# Per-run checks
# ----------------------------------------------------------------------
def digest(result) -> str:
    """BLAKE2b over the run's canonical simulated outputs.

    A deterministic simulator gives the same digest on every run of the
    same inputs, traced or not; a change that only makes the simulator
    faster leaves it unchanged.
    """
    canonical = repr(
        (
            sorted(result.summary().items()),
            sorted(result.completed.items()),
            sorted(result.final_assignment.items()),
            result.moves_started,
        )
    )
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def missing(result, attempted: int) -> int:
    """Requests not completed exactly once: the conservation gap.

    The cluster stacks count completions per server; the fs stack counts
    served operations.  Either must equal what was replayed.
    """
    return abs(attempted - sum(result.completed.values()))


def simulated_stats(result) -> dict[str, float]:
    """Simulated (not host) outputs, reported but never gated."""
    tail = result.tail_summary()
    return {
        "mean_latency_s": float(result.mean_latency),
        "p99_latency_s": float(tail["p99"]),
        "moves": float(result.moves_started),
        "tuning_rounds": float(result.tuning_rounds),
    }
