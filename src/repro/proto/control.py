"""Control-plane harness: wire protocol nodes to a network and a clock.

:class:`ControlPlane` assembles a full §4 control plane on one simulation
engine: N server nodes with bully election and heartbeats, a lossy
network, and per-node latency sources.  It manages no file-set placement:
each node's applied configs are only logged (``config_log``) — the
replicated state is just the share map, which :meth:`shares_agree`
checks.  :class:`repro.cluster.protocol_driver.ProtocolDrivenCluster`
is the harness that drives a real placement from the same nodes.

Intended for tests, the protocol example, and the protocol ablation bench;
the queueing figures use the simpler direct-call delegate in
:mod:`repro.cluster` (protocol latencies are microscopic next to 2-minute
tuning intervals, so the figures are unaffected — the interesting protocol
behaviour is fail-over, which is what this harness exercises).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.tuning import ServerReport, TuningConfig
from ..membership.director import MembershipDirector
from ..membership.faults import FaultEvent, FaultKind
from ..membership.lifecycle import MembershipRoster
from ..runtime.telemetry import NULL_SINK, TelemetrySink
from ..sim.engine import Engine
from ..sim.rng import StreamFactory
from ..units import Seconds
from .network import Network, NetworkConfig
from .node import ProtocolConfig, ServerNode


class ControlPlane:
    """N protocol nodes + network + optional shared latency model.

    Implements :class:`repro.membership.director.MembershipHost`:
    crashes, recoveries, and commission/decommission churn go through the
    shared :class:`MembershipDirector`, so membership legality (no double
    crash, a delegate crash needs a surviving node) is enforced by the
    same state machine as every other harness.
    """

    def __init__(
        self,
        n_nodes: int,
        seed: int = 0,
        network_config: NetworkConfig | None = None,
        protocol_config: ProtocolConfig | None = None,
        tuning: TuningConfig | None = None,
        latency_model: Callable[[str, float], ServerReport] | None = None,
        telemetry: TelemetrySink | None = None,
    ) -> None:
        """``latency_model(name, now)`` supplies each node's report; the
        default reports constant equal latency (nothing to tune)."""
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.engine = Engine()
        factory = StreamFactory(seed)
        self.network = Network(
            self.engine, factory.stream("network"), network_config
        )
        self._latency_model = latency_model or (
            lambda name, now: ServerReport(name, 0.01, 100)
        )
        self._protocol_config = protocol_config
        self._tuning = tuning
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        names = [f"node{i:02d}" for i in range(n_nodes)]
        initial = {name: 1.0 for name in names}
        self.nodes: dict[str, ServerNode] = {}
        self.config_log: list[tuple[float, str, int]] = []
        for i, name in enumerate(names):
            self.nodes[name] = self._make_node(name, i, dict(initial))
        self.roster = MembershipRoster(names)
        self.director = MembershipDirector(
            self.roster,
            host=self,
            telemetry=self.telemetry,
            clock=lambda: Seconds(self.engine.now),
        )

    def _make_node(
        self, name: str, priority: int, shares: dict[str, float]
    ) -> ServerNode:
        return ServerNode(
            name=name,
            priority=priority,
            engine=self.engine,
            network=self.network,
            report_source=self._make_source(name),
            on_config=self._make_sink(name),
            config=self._protocol_config,
            tuning=self._tuning,
            initial_shares=shares,
            telemetry=self.telemetry,
        )

    def _make_source(self, name: str):
        return lambda: self._latency_model(name, self.engine.now)

    def _make_sink(self, name: str):
        def sink(shares: Mapping[str, float], epoch: int) -> None:
            self.config_log.append((self.engine.now, name, epoch))

        return sink

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every node (they race the bootstrap election)."""
        for node in self.nodes.values():
            node.start()

    def run_until(self, time: float) -> None:
        """Advance the simulation clock to ``time``."""
        self.engine.run(until=time)

    # ------------------------------------------------------------------
    def crash(self, name: str) -> None:
        """Crash the named node (roster-checked: it must be up)."""
        self.apply_fault(FaultEvent(Seconds(self.engine.now), FaultKind.FAIL, name))

    def recover(self, name: str) -> None:
        """Recover the named node (roster-checked: it must be down)."""
        self.apply_fault(
            FaultEvent(Seconds(self.engine.now), FaultKind.RECOVER, name)
        )

    def commission(self, name: str, speed: float = 1.0) -> None:
        """A brand-new node joins the control plane and races election."""
        self.apply_fault(
            FaultEvent(Seconds(self.engine.now), FaultKind.COMMISSION, name, speed)
        )

    def decommission(self, name: str) -> None:
        """Gracefully retire a node (timers stop; no crash semantics)."""
        self.apply_fault(
            FaultEvent(Seconds(self.engine.now), FaultKind.DECOMMISSION, name)
        )

    def degrade(self, name: str, factor: float) -> None:
        """Gray failure: the node limps at ``factor`` of full speed."""
        self.apply_fault(
            FaultEvent(
                Seconds(self.engine.now), FaultKind.DEGRADE, name,
                factor=factor,
            )
        )

    def restore(self, name: str) -> None:
        """The limp on ``name`` lifts (roster-checked: it must limp)."""
        self.apply_fault(
            FaultEvent(Seconds(self.engine.now), FaultKind.RESTORE, name)
        )

    def apply_fault(self, event: FaultEvent) -> None:
        """Apply one membership event through the shared director."""
        self.director.apply(event, now=Seconds(self.engine.now))

    # ------------------------------------------------------------------
    # MembershipHost protocol (driven by self.director)
    # ------------------------------------------------------------------
    def crash_server(self, server: str, now: Seconds) -> None:
        """The network drops the node's messages until it recovers."""
        self.nodes[server].crash()
        return None

    def drain_server(self, server: str, now: Seconds) -> None:
        """Quiet stop: timer loops observe ``alive == False`` and end."""
        self.nodes[server].shutdown()

    def restart_server(self, server: str, now: Seconds) -> None:
        """Reset volatile protocol state and rejoin the election race."""
        self.nodes[server].recover()

    def install_server(self, server: str, speed: float, now: Seconds) -> None:
        """Create and start a fresh node (priority above all existing)."""
        priority = max(n.priority for n in self.nodes.values()) + 1
        shares = {name: 1.0 for name in sorted(self.nodes)} | {server: 1.0}
        node = self._make_node(server, priority, shares)
        self.nodes[server] = node
        node.start()

    def set_speed(self, server: str, factor: float, now: Seconds) -> None:
        """Gray failure: the node keeps electing, heartbeating, and
        voting at full protocol speed — only its ``speed`` attribute
        moves, for latency models that couple reports to a limp.  The
        protocol deliberately cannot tell a limping node from a healthy
        one; that blindness is the gray-failure premise."""
        self.nodes[server].speed = factor

    def delegate_failover(self, now: Seconds) -> str | None:
        """Kill the agreed delegate node; the bully election heals it.

        Returns the victim's name so the director records the crash in
        the roster (``None`` when no delegate is currently agreed).  The
        majority view can lag a recent crash — nodes keep voting for a
        dead delegate until heartbeats time out — so an already-down
        victim also counts as "no delegate to kill"."""
        victim = self.current_delegate()
        if victim is None or not self.roster.is_live(victim):
            return None
        self.nodes[victim].crash()
        return victim

    def membership_assignment(self) -> None:
        """The control plane manages no file-set placement, but the
        delegate's report history straddles the change: every node
        forgets it, as the other stacks' delegates do."""
        for node in self.nodes.values():
            node.forget_history()
        return None

    def realize_membership(
        self, old: dict[str, str], new: dict[str, str], now: Seconds
    ) -> None:
        """Never called: :meth:`membership_assignment` returns ``None``."""

    def reinject(self, orphans: object, now: Seconds) -> None:
        """Nothing queues outside the nodes; nothing to re-dispatch."""

    # ------------------------------------------------------------------
    @property
    def live_nodes(self) -> list[str]:
        return sorted(n for n, node in self.nodes.items() if node.alive)

    def current_delegate(self) -> str | None:
        """The delegate as seen by a majority of live nodes (None if the
        cluster disagrees)."""
        views: dict[str, int] = {}
        for node in self.nodes.values():
            if node.alive and node.delegate is not None:
                views[node.delegate] = views.get(node.delegate, 0) + 1
        if not views:
            return None
        best, votes = max(views.items(), key=lambda kv: kv[1])
        return best if votes > len(self.live_nodes) // 2 else None

    def agreed_epoch(self) -> int | None:
        """The config epoch if all live nodes agree, else None."""
        epochs = {n.epoch for n in self.nodes.values() if n.alive}
        return epochs.pop() if len(epochs) == 1 else None

    def shares_agree(self, tolerance: float = 1e-9) -> bool:
        """True when every live node holds the same share map."""
        live = [n for n in self.nodes.values() if n.alive]
        if not live:
            return True
        reference = live[0].shares
        for node in live[1:]:
            if set(node.shares) != set(reference):
                return False
            for key, value in reference.items():
                if abs(node.shares[key] - value) > tolerance:
                    return False
        return True
