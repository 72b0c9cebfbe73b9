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
but the simulation's own tuning loop never starts; one protocol node per
server reads that server's latency from the simulation's collector and
the elected delegate's config updates are applied — exactly once per
epoch — as share rescales + file-set moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from ..core.tuning import TuningConfig
from ..membership.faults import FaultEvent, FaultKind, FaultSchedule
from ..placement.anu_policy import ANUPolicy
from ..proto.network import Network, NetworkConfig
from ..proto.node import ProtocolConfig, ServerNode
from ..runtime.routing import RequestRouter
from ..runtime.telemetry import TelemetrySink
from ..sim.events import PRIORITY_EARLY
from ..sim.rng import StreamFactory
from ..workloads.trace import Trace
from .cluster import ClusterConfig, ClusterSimulation, RunResult


@dataclass
class ProtocolRunResult:
    """Queueing results plus protocol-level observations."""

    run: RunResult
    delegate_history: list[tuple[float, str]]
    config_updates_applied: int
    messages_sent: int
    messages_dropped: int


class ProtocolDrivenCluster:
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
        self.config = config
        # Only places file sets: shares change by the delegate's configs.
        self.policy = ANUPolicy()
        # The sink sees the queueing stream (arrivals, moves) from the
        # simulation plus protocol-level records (elections, delegate
        # rounds) from the nodes.  Dispatch happens inside the wrapped
        # simulation, so forwarding router + replication there puts the
        # routing plane under the protocol-driven stack too.
        self.sim = ClusterSimulation(
            config,
            self.policy,
            trace,
            faults=faults,
            telemetry=telemetry,
            router=router,
            replication=replication,
        )
        factory = StreamFactory(config.seed).spawn("protocol")
        self.network = Network(self.sim.engine, factory.stream("network"), network)
        self.protocol = protocol or ProtocolConfig(
            tuning_interval=config.tuning_interval
        )
        self._tuning = tuning
        self._telemetry = telemetry
        self._applied_epoch = -1
        self.config_updates_applied = 0
        self.delegate_history: list[tuple[float, str]] = []
        self.nodes: dict[str, ServerNode] = {}
        server_names = sorted(self.sim.servers)
        for i, name in enumerate(server_names):
            self.nodes[name] = self._make_node(name, i, server_names)
        # Mirror membership events onto the protocol nodes.  The queueing
        # side is handled by the simulation's own membership director;
        # these callbacks (scheduled first, so they fire first at equal
        # times) keep the control plane's node set in step.
        if faults is not None:
            for ev in faults:
                self.sim.engine.schedule_at(
                    ev.time, self._mirror_fault, ev, priority=PRIORITY_EARLY
                )

    # ------------------------------------------------------------------
    def _make_node(
        self, name: str, priority: int, peers: list[str]
    ) -> ServerNode:
        """A protocol node reporting ``name``'s latency from the collector,
        starting with an equal share for each of ``peers``."""
        return ServerNode(
            name=name,
            priority=priority,
            engine=self.sim.engine,
            network=self.network,
            report_source=self._make_report_source(name),
            on_config=self._apply_config,
            config=self.protocol,
            tuning=self._tuning,
            initial_shares={s: 1.0 for s in peers},
            telemetry=self._telemetry,
        )

    def _make_report_source(self, name: str):
        def source():
            now = self.sim.engine.now
            interval = self.protocol.tuning_interval
            return self.sim.collector.interval_report(
                name, max(0.0, now - interval), now
            )

        return source

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
        old = self.sim.planned_assignment()
        new = placement.assignment(list(self.sim.trace.fileset_names))
        self.sim.realize(old, new)

    def _shutdown_protocol(self) -> None:
        for node in self.nodes.values():
            if node.alive:
                node.shutdown()

    def _mirror_fault(self, event: FaultEvent) -> None:
        """Reflect one schedule event on the protocol node set; the four
        kinds that re-place file sets also drop the report history."""
        kind = event.kind
        if kind is FaultKind.DELEGATE_CRASH:
            delegate = next(
                (node for node in self.nodes.values() if node.is_delegate), None
            )
            if delegate is not None:
                delegate.crash()
            return
        if kind in (FaultKind.DEGRADE, FaultKind.RESTORE):
            # Gray failures change service times on the queueing side
            # (the simulation's own director realizes them via
            # set_speed); protocol nodes model no service speed, and the
            # limp must not perturb elections or heartbeats — mirror the
            # factor onto the node for observability and nothing else.
            self.nodes[event.server].speed = (
                event.factor if kind is FaultKind.DEGRADE else 1.0
            )
            return
        if kind is FaultKind.FAIL:
            self.nodes[event.server].crash()
        elif kind is FaultKind.RECOVER:
            self.nodes[event.server].recover()
        elif kind is FaultKind.DECOMMISSION:
            self.nodes[event.server].shutdown()
        else:  # COMMISSION: a fresh node outranking every existing one
            priority = max(n.priority for n in self.nodes.values()) + 1
            node = self._make_node(
                event.server, priority, [*sorted(self.nodes), event.server]
            )
            self.nodes[event.server] = node
            node.start()
        for node in self.nodes.values():
            node.forget_history()

    # ------------------------------------------------------------------
    def run(self) -> ProtocolRunResult:
        """Start the protocol nodes and execute the full trace."""
        for node in self.nodes.values():
            node.start()
        self._watch_delegate()
        # Stop the protocol's self-rescheduling timers when the trace ends
        # so the queueing drain phase terminates.
        self.sim.engine.schedule_at(
            self.sim.trace.duration, self._shutdown_protocol
        )
        result = self.sim._replay()
        return ProtocolRunResult(
            run=replace(
                result,
                tuning_rounds=sum(n.rounds_run for n in self.nodes.values()),
            ),
            delegate_history=self.delegate_history,
            config_updates_applied=self.config_updates_applied,
            messages_sent=self.network.sent,
            messages_dropped=self.network.dropped,
        )

    def _watch_delegate(self) -> None:
        """Sample the elected delegate once per tuning interval (log)."""
        current = next(
            (n for n, node in self.nodes.items() if node.is_delegate), None
        )
        if current is not None and (
            not self.delegate_history or self.delegate_history[-1][1] != current
        ):
            self.delegate_history.append((self.sim.engine.now, current))
        if self.sim.engine.now <= self.sim.trace.duration:
            self.sim.engine.schedule(
                self.protocol.tuning_interval / 2, self._watch_delegate
            )
