"""repro: reproduction of "Handling Heterogeneity in Shared-Disk File
Systems" (Changxun Wu and Randal Burns, SC 2003).

The package implements ANU (adaptive, non-uniform) randomization — a
tunable, hash-based load-placement scheme for the metadata servers of a
shared-disk file system — together with every substrate the paper's
evaluation depends on: a discrete-event simulator, a heterogeneous cluster
model, workload generators, baseline policies, and an experiment harness
that regenerates each figure.

Quick start::

    from repro import ANUPlacement

    placement = ANUPlacement(["a", "b", "c"])
    owner = placement.locate("/projects/alpha")

Subpackages
-----------
``repro.core``
    ANU randomization: unit interval, hash family, delegate tuning,
    over-tuning heuristics, movement accounting.
``repro.placement``
    Policy protocol + baselines (simple random, round-robin, prescient
    LPT, consistent hashing, decentralized ANU).
``repro.sim``
    Discrete-event engine (YACSIM substitute).
``repro.cluster``
    Shared-disk cluster simulation: heterogeneous servers, file-set moves,
    faults.
``repro.workloads``
    Trace container, the paper's synthetic workload, DFSTrace-like
    synthesizer.
``repro.metrics``
    Latency series, balance metrics.
``repro.theory``
    Balls-into-bins bounds behind the paper's §4 load-balance claims.
``repro.experiments``
    Per-figure configurations, runner, CLI, reporting.
``repro.fs``
    Storage Tank-style metadata substrate: namespace trees, locks,
    shared-disk images, clients, semantic workloads.
``repro.proto``
    The §4 control plane as a message protocol: election, heartbeats,
    versioned configuration distribution.
``repro.runtime``
    Shared simulation-harness core: the delegate tuning loop, arrival
    scheduling, the unified :class:`~repro.runtime.result.SimResult`, the
    structured telemetry event stream, and the harness-agnostic
    :class:`~repro.runtime.scenario.Scenario` assembly.
"""

from .core import (
    ANUPlacement,
    DelegateTuner,
    HashFamily,
    MappedInterval,
    ServerReport,
    TuningConfig,
)
from .cluster import (
    ClusterConfig,
    ClusterSimulation,
    FaultSchedule,
    MoveCostModel,
    RunResult,
    ServerSpec,
    paper_servers,
)
from .runtime import (
    JsonlSink,
    MemorySink,
    SimResult,
    TelemetryRecord,
    TelemetrySink,
)
from .workloads import (
    DFSTraceLikeConfig,
    SyntheticConfig,
    Trace,
    generate_dfstrace_like,
    generate_synthetic,
)

__version__ = "1.0.0"

__all__ = [
    "ANUPlacement",
    "MappedInterval",
    "HashFamily",
    "DelegateTuner",
    "TuningConfig",
    "ServerReport",
    "ClusterConfig",
    "ClusterSimulation",
    "RunResult",
    "ServerSpec",
    "paper_servers",
    "FaultSchedule",
    "MoveCostModel",
    "SimResult",
    "TelemetryRecord",
    "TelemetrySink",
    "MemorySink",
    "JsonlSink",
    "Trace",
    "SyntheticConfig",
    "generate_synthetic",
    "DFSTraceLikeConfig",
    "generate_dfstrace_like",
    "__version__",
]
