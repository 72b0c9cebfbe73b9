"""Cluster simulation tuned through the message-level delegate protocol.

:class:`repro.cluster.ClusterSimulation` normally invokes its policy's
tuner by direct call — fine for the figures, where protocol latencies
(milliseconds) vanish against the 2-minute tuning interval.  This module
closes the loop for the availability story: the same queueing simulation,
but with tuning driven end-to-end by :mod:`repro.proto` on the *same*
event engine — heartbeats, elections, report requests and versioned config
updates all travel the simulated network, and a delegate crash mid-run is
healed by a real election.

Composition: an :class:`~repro.placement.ANUPolicy` places the file sets
but the simulation's own tuning loop never starts; a
:class:`~repro.proto.ControlPlane` with one node per server reads that
server's latency from the simulation's collector, and the elected
delegate's config updates are applied — exactly once per epoch — as
share rescales + file-set moves.  The simulation's own
:class:`~repro.membership.director.MembershipDirector` drives both
halves: each lifecycle primitive changes the plane's node through the
plane's primitive of the same name, then the queueing server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from ..core.tuning import ServerReport, TuningConfig
from ..membership.faults import FaultSchedule
from ..placement.anu_policy import ANUPolicy
from ..proto.control import ControlPlane
from ..proto.network import Network, NetworkConfig
from ..proto.node import ProtocolConfig
from ..runtime.routing import RequestRouter
from ..runtime.telemetry import TelemetrySink
from ..sim.rng import StreamFactory
from ..units import Seconds
from ..workloads.trace import Trace
from .cluster import ClusterConfig, ClusterSimulation, RunResult
from .request import MetadataRequest


@dataclass
class ProtocolRunResult:
    """Queueing results plus protocol-level observations."""

    run: RunResult
    delegate_history: list[tuple[float, str]]
    config_updates_applied: int
    messages_sent: int
    messages_dropped: int


class ProtocolDrivenCluster(ClusterSimulation):
    """Queueing cluster + §4 control plane on one engine."""

    def __init__(
        self,
        config: ClusterConfig,
        trace: Trace,
        tuning: TuningConfig | None = None,
        protocol: ProtocolConfig | None = None,
        network: NetworkConfig | None = None,
        telemetry: TelemetrySink | None = None,
        faults: FaultSchedule | None = None,
        router: RequestRouter | None = None,
        replication: int = 1,
    ) -> None:
        # The policy only places file sets: shares change by the
        # delegate's configs.  The sink sees the queueing stream
        # (arrivals, moves) plus the nodes' protocol records (elections,
        # delegate rounds).
        super().__init__(
            config,
            ANUPolicy(),
            trace,
            faults=faults,
            telemetry=telemetry,
            router=router,
            replication=replication,
        )
        self.protocol = protocol or ProtocolConfig(
            tuning_interval=config.tuning_interval
        )
        self._applied_epoch = -1
        self.config_updates_applied = 0
        self.delegate_history: list[tuple[float, str]] = []
        rng = StreamFactory(config.seed).spawn("protocol").stream("network")
        self.plane = ControlPlane(
            sorted(self.servers),
            network=Network(self.engine, rng, network),
            protocol_config=self.protocol,
            tuning=tuning,
            latency_model=self._report,
            telemetry=telemetry,
            on_config=self._apply_config,
        )

    # ------------------------------------------------------------------
    def _report(self, name: str, now: float) -> ServerReport:
        """``name``'s latency over the last tuning interval."""
        start = max(0.0, now - self.protocol.tuning_interval)
        return self.collector.interval_report(name, start, now)

    def _apply_config(self, shares: Mapping[str, float], epoch: int) -> None:
        """Exactly-once application of a config update to the placement."""
        if epoch <= self._applied_epoch:
            return
        self._applied_epoch = epoch
        placement = self.policy.placement
        assert placement is not None
        live = set(placement.servers)
        relevant = {k: v for k, v in shares.items() if k in live}
        # Servers missing from the update keep their current share.
        current = placement.shares()
        total_current = sum(current.values()) or 1.0
        merged = {
            s: relevant.get(s, current[s] / total_current * len(current))
            for s in live
        }
        if sum(merged.values()) <= 0:
            return
        placement.set_shares(merged)
        placement.check_invariants()
        self.config_updates_applied += 1
        old = self.planned_assignment()
        new = placement.assignment(list(self.trace.fileset_names))
        self.realize(old, new)

    # ------------------------------------------------------------------
    # MembershipHost primitives: the plane's node first, then the server
    # ------------------------------------------------------------------
    def crash_server(
        self, server: str, now: Seconds
    ) -> list[MetadataRequest]:
        self.plane.crash_server(server, now)
        return super().crash_server(server, now)

    def drain_server(self, server: str, now: Seconds) -> None:
        self.plane.drain_server(server, now)
        super().drain_server(server, now)

    def restart_server(self, server: str, now: Seconds) -> None:
        self.plane.restart_server(server, now)
        super().restart_server(server, now)

    def install_server(self, server: str, speed: float, now: Seconds) -> None:
        self.plane.install_server(server, speed, now)
        super().install_server(server, speed, now)

    def set_speed(self, server: str, factor: float, now: Seconds) -> None:
        """Protocol nodes model no service speed: the limp moves the
        node's ``speed`` for observability and never perturbs elections
        or heartbeats."""
        self.plane.set_speed(server, factor, now)
        super().set_speed(server, factor, now)

    def delegate_failover(self, now: Seconds) -> None:
        """Crash the plane's delegate node; its server keeps serving, so
        nothing enters the roster and the election heals the plane."""
        self.plane.delegate_failover(now)
        return super().delegate_failover(now)

    def membership_assignment(self) -> tuple[dict[str, str], dict[str, str]]:
        self.plane.membership_assignment()
        return super().membership_assignment()

    # ------------------------------------------------------------------
    def run(self) -> ProtocolRunResult:  # type: ignore[override]
        """Start the protocol nodes and execute the full trace."""
        self.plane.start()
        self._watch_delegate()
        # Stop the protocol's self-rescheduling timers when the trace ends
        # so the queueing drain phase terminates.
        self.engine.schedule_at(self.trace.duration, self.plane.stop)
        result = self._replay()
        nodes = self.plane.nodes.values()
        return ProtocolRunResult(
            run=replace(result, tuning_rounds=sum(n.rounds_run for n in nodes)),
            delegate_history=self.delegate_history,
            config_updates_applied=self.config_updates_applied,
            messages_sent=self.plane.network.sent,
            messages_dropped=self.plane.network.dropped,
        )

    def _watch_delegate(self) -> None:
        """Sample the elected delegate once per tuning interval (log)."""
        current = self.plane.current_delegate()
        if current is not None and (
            not self.delegate_history or self.delegate_history[-1][1] != current
        ):
            self.delegate_history.append((self.engine.now, current))
        if self.engine.now <= self.trace.duration:
            self.engine.schedule(
                self.protocol.tuning_interval / 2, self._watch_delegate
            )
