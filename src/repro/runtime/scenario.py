"""Scenario: one experiment description, runnable on every harness stack.

A :class:`Scenario` bundles what the paper calls an experiment — a server
fleet, a workload, a placement policy, and an optional fault schedule —
without committing to a simulator.  The same scenario can then drive:

- :meth:`Scenario.run_cluster` — the queueing simulation
  (:mod:`repro.cluster`), abstract requests against FIFO servers;
- :meth:`Scenario.run_full_system` — the timed semantic stack
  (:mod:`repro.fs`), real metadata operations with shared-disk image
  moves (requires ``operations`` + ``fileset_roots``);
- :meth:`Scenario.run_protocol` — the queueing simulation tuned
  end-to-end over the §4 message protocol (:mod:`repro.proto`).

All three accept a telemetry sink and return results built on
:class:`~repro.runtime.result.SimResult`, so one scenario definition
yields directly comparable runs across modeling fidelities.

Policies are stateful, so the scenario holds a *factory* and builds a
fresh policy per run; every run is a pure function of the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..placement.registry import policy_factory
from .telemetry import TelemetrySink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import RunResult
    from ..cluster.protocol_driver import ProtocolRunResult
    from ..cluster.server import ServerSpec
    from ..core.tuning import TuningConfig
    from ..fs.ops import Operation
    from ..fs.simulation import FullSystemResult
    from ..membership.faults import FaultSchedule
    from ..placement.base import PlacementPolicy
    from ..proto.node import ProtocolConfig
    from ..workloads.trace import Trace
    from .routing import RequestRouter

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """A fleet + workload + policy + fault schedule, harness-agnostic.

    ``trace`` feeds the queueing harnesses directly; ``operations`` (with
    ``fileset_roots``) feeds the semantic stack, and is bridged to a trace
    via :func:`repro.fs.workload.ops_to_trace` when no explicit trace is
    given — so one workload description serves every stack.
    """

    servers: Sequence["ServerSpec"]
    trace: "Trace | None" = None
    operations: "list[Operation] | None" = None
    fileset_roots: dict[str, str] | None = None
    #: Fresh-policy factory (policies are stateful); defaults to the
    #: registry's ``anu``.
    policy: Callable[[], "PlacementPolicy"] = field(
        default_factory=lambda: policy_factory("anu")
    )
    faults: "FaultSchedule | None" = None
    tuning_interval: float = 120.0
    sample_window: float = 60.0
    seed: int = 0
    #: Speed-1 seconds for a mean-weight semantic op (fs + bridged trace).
    mean_op_cost: float = 0.1
    tuning: "TuningConfig | None" = None
    #: Owner-set size (assignment plane); 1 = the classic single-owner model.
    replication: int = 1
    #: Routing-plane router, by registry name
    #: (:data:`repro.runtime.routing.ROUTER_FACTORIES`); ``None`` means the
    #: single-owner passthrough.  A name rather than an instance keeps
    #: scenarios picklable for the sweep's process pool, and routers are
    #: stateful so every run must build a fresh one anyway.
    router: str | None = None

    def __post_init__(self) -> None:
        if not self.servers:
            raise ValueError("a scenario needs at least one server")
        if self.trace is None and self.operations is None:
            raise ValueError("a scenario needs a trace or an operation stream")
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication!r}"
            )
        if self.router is not None:
            from .routing import ROUTER_FACTORIES

            if self.router not in ROUTER_FACTORIES:
                raise ValueError(
                    f"unknown router {self.router!r}; known: "
                    f"{', '.join(sorted(ROUTER_FACTORIES))}"
                )

    def make_router(self) -> "RequestRouter":
        """A fresh router instance for one run (routers are stateful)."""
        from .routing import make_router

        return make_router(self.router or "single")

    # ------------------------------------------------------------------
    @property
    def speeds(self) -> dict[str, float]:
        """Server name -> relative speed, for the timed semantic stack."""
        return {s.name: s.speed for s in self.servers}

    def cluster_trace(self) -> "Trace":
        """The queueing-harness trace (bridged from operations if needed)."""
        if self.trace is not None:
            return self.trace
        from ..fs.cluster import FileSetRegistry
        from ..fs.workload import ops_to_trace

        if self.fileset_roots is None:
            raise ValueError("bridging operations to a trace needs fileset_roots")
        operations = self.operations or []
        registry = FileSetRegistry(self.fileset_roots)
        duration = operations[-1].time if operations else 0.0
        return ops_to_trace(operations, registry, self.mean_op_cost, duration)

    # ------------------------------------------------------------------
    def run_cluster(
        self, telemetry: TelemetrySink | None = None
    ) -> "RunResult":
        """Run the scenario on the queueing simulator."""
        from ..cluster.cluster import ClusterConfig, ClusterSimulation

        config = ClusterConfig(
            servers=tuple(self.servers),
            tuning_interval=self.tuning_interval,
            sample_window=self.sample_window,
            seed=self.seed,
        )
        return ClusterSimulation(
            config,
            self.policy(),
            self.cluster_trace(),
            faults=self.faults,
            telemetry=telemetry,
            router=self.make_router(),
            replication=self.replication,
        ).run()

    def run_full_system(
        self, telemetry: TelemetrySink | None = None
    ) -> "FullSystemResult":
        """Run the scenario on the timed semantic (Storage Tank-style) stack."""
        from ..fs.simulation import FullSystemConfig, FullSystemSimulation

        if self.operations is None or self.fileset_roots is None:
            raise ValueError(
                "the full-system run needs operations and fileset_roots"
            )
        if self.faults is not None and len(list(self.faults)) > 0:
            raise ValueError("the full-system harness has a static server set")
        config = FullSystemConfig(
            server_speeds=self.speeds,
            fileset_roots=self.fileset_roots,
            tuning_interval=self.tuning_interval,
            sample_window=self.sample_window,
            mean_op_cost=self.mean_op_cost,
            seed=self.seed,
            replication=self.replication,
        )
        return FullSystemSimulation(
            config, list(self.operations), tuning=self.tuning,
            telemetry=telemetry, router=self.make_router(),
        ).run()

    def run_protocol(
        self,
        telemetry: TelemetrySink | None = None,
        protocol: "ProtocolConfig | None" = None,
    ) -> "ProtocolRunResult":
        """Run the scenario with tuning driven over the message protocol."""
        from ..cluster.cluster import ClusterConfig
        from ..cluster.protocol_driver import ProtocolDrivenCluster

        config = ClusterConfig(
            servers=tuple(self.servers),
            tuning_interval=self.tuning_interval,
            sample_window=self.sample_window,
            seed=self.seed,
        )
        return ProtocolDrivenCluster(
            config,
            self.cluster_trace(),
            tuning=self.tuning,
            protocol=protocol,
            telemetry=telemetry,
            faults=self.faults,
            router=self.make_router(),
            replication=self.replication,
        ).run()
