"""Experiment runner: resolve policy names, run simulations, collect results.

The runner is the glue between :mod:`repro.experiments.config` (what a
figure needs) and :class:`repro.cluster.ClusterSimulation` (how a run
executes).  Policy *names* are resolved to fresh policy instances per run —
policies are stateful, so sharing an instance across runs would leak tuning
state between experiments.
"""

from __future__ import annotations

from ..cluster.cluster import ClusterConfig, ClusterSimulation, RunResult
from ..membership.faults import FaultSchedule
from ..placement.registry import available_policies, make_policy
from ..runtime.telemetry import TelemetrySink
from ..workloads.dfstrace import DFSTraceLikeConfig, generate_dfstrace_like
from ..workloads.synthetic import SyntheticConfig, generate_synthetic
from ..workloads.trace import Trace
from .config import ExperimentConfig

__all__ = [
    "available_policies",
    "generate_trace",
    "make_policy",
    "run_experiment",
    "run_policy",
]


def generate_trace(
    workload: DFSTraceLikeConfig | SyntheticConfig,
) -> Trace:
    """Generate the trace for a workload config."""
    if isinstance(workload, DFSTraceLikeConfig):
        return generate_dfstrace_like(workload)
    if isinstance(workload, SyntheticConfig):
        return generate_synthetic(workload)
    raise TypeError(f"unknown workload config {type(workload).__name__}")


def run_policy(
    policy_name: str,
    trace: Trace,
    cluster: ClusterConfig,
    faults: FaultSchedule | None = None,
    telemetry: "TelemetrySink | None" = None,
) -> RunResult:
    """Run one policy against one trace.

    The registry grants the prescient and ``-weighted`` policies the
    cluster's true server speeds; the oracle also sees the demand over
    its first horizon (``oracle_horizon``, default one tuning interval).
    """
    policy = make_policy(
        policy_name,
        speeds=cluster.speeds,
        trace=trace,
        horizon=cluster.oracle_horizon or cluster.tuning_interval,
    )
    sim = ClusterSimulation(cluster, policy, trace, faults, telemetry=telemetry)
    return sim.run()


def run_experiment(
    config: ExperimentConfig,
    faults: FaultSchedule | None = None,
) -> dict[str, RunResult]:
    """Run every policy of an experiment against its workload.

    All policies see the identical trace (same workload seed), matching the
    paper's methodology of comparing policies on one workload.
    """
    trace = generate_trace(config.workload_config())
    return {
        name: run_policy(name, trace, config.cluster, faults)
        for name in config.policies
    }
