"""Control-plane harness: wire protocol nodes to a network and a clock.

:class:`ControlPlane` assembles a full §4 control plane on one simulation
engine: server nodes with bully election and heartbeats, a lossy
network, and per-node latency sources.  It manages no file-set placement:
each node's applied configs are logged (``config_log``) and handed to an
optional ``on_config`` hook — the replicated state is just the share map,
which :meth:`shares_agree` checks.

Standalone (its own engine and roster) it is the protocol stack of the
tests, the chaos soak, the protocol example and the protocol ablation
bench.  :class:`repro.cluster.protocol_driver.ProtocolDrivenCluster`
builds one on the queueing simulation's engine, names its nodes after
the servers, and drives its :class:`MembershipHost` primitives from the
simulation's own director, so both stacks run one node set, one
election rank map and one delegate rule.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.tuning import ServerReport, TuningConfig
from ..membership.director import MembershipDirector
from ..membership.faults import FaultEvent, FaultKind
from ..membership.lifecycle import MembershipRoster
from ..runtime.telemetry import NULL_SINK, TelemetrySink
from ..sim.engine import Engine
from ..sim.rng import StreamFactory
from ..units import Seconds
from .network import Network, NetworkConfig
from .node import ConfigSink, ProtocolConfig, ServerNode


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
        nodes: int | Sequence[str],
        seed: int = 0,
        network_config: NetworkConfig | None = None,
        protocol_config: ProtocolConfig | None = None,
        tuning: TuningConfig | None = None,
        latency_model: Callable[[str, float], ServerReport] | None = None,
        telemetry: TelemetrySink | None = None,
        network: Network | None = None,
        on_config: ConfigSink | None = None,
    ) -> None:
        """``nodes`` is a node count (named ``node00``, ``node01``, ...)
        or the node names, lowest election rank first.
        ``latency_model(name, now)`` supplies each node's report; the
        default reports constant equal latency (nothing to tune).
        ``network`` runs the plane on that network's engine (``seed``
        and ``network_config`` then go unused); by default the plane
        builds its own engine and network.  ``on_config(shares, epoch)``
        sees every config a node applies."""
        names = (
            [f"node{i:02d}" for i in range(nodes)]
            if isinstance(nodes, int) else list(nodes)
        )
        if not names:
            raise ValueError("need at least one node")
        if network is None:
            network = Network(
                Engine(), StreamFactory(seed).stream("network"), network_config
            )
        self.network = network
        self.engine = network.engine
        self._on_config = on_config
        self._latency_model = latency_model or (
            lambda name, now: ServerReport(name, 0.01, 100)
        )
        self._protocol_config = protocol_config
        self._tuning = tuning
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        #: Election rank per node, shared by every node: list order, and
        #: a commissioned node ranks above all existing ones.
        self.ranks = {name: rank for rank, name in enumerate(names)}
        initial = {name: 1.0 for name in names}
        self.nodes: dict[str, ServerNode] = {}
        self.config_log: list[tuple[float, str, int]] = []
        for name in names:
            self.nodes[name] = self._make_node(name, dict(initial))
        self.roster = MembershipRoster(names)
        self.director = MembershipDirector(
            self.roster,
            host=self,
            telemetry=self.telemetry,
            clock=lambda: Seconds(self.engine.now),
        )

    def _make_node(self, name: str, shares: dict[str, float]) -> ServerNode:
        return ServerNode(
            name=name,
            ranks=self.ranks,
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
        def sink(shares: dict[str, float], epoch: int) -> None:
            self.config_log.append((self.engine.now, name, epoch))
            if self._on_config is not None:
                self._on_config(shares, epoch)

        return sink

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every node (they race the bootstrap election)."""
        for node in self.nodes.values():
            node.start()

    def run_until(self, time: float) -> None:
        """Advance the simulation clock to ``time``."""
        self.engine.run(until=time)

    def stop(self) -> None:
        """Quietly stop every node's timer loops (the end of a run, not
        a membership event), so the engine's calendar can drain."""
        for node in self.nodes.values():
            node.shutdown()

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
        """Create and start a fresh node (ranked above all existing)."""
        self.ranks[server] = max(self.ranks.values()) + 1
        shares = {name: 1.0 for name in sorted(self.nodes)} | {server: 1.0}
        node = self._make_node(server, shares)
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
        the roster (``None`` when no live delegate is currently agreed)."""
        victim = self.current_delegate()
        if victim is None:
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
        """The delegate as seen by a majority of live nodes; ``None`` if
        the cluster disagrees or that node is down.

        The majority view can lag a crash — nodes keep voting for a dead
        delegate until heartbeats time out — so the vote winner must be
        alive.  Liveness is the node's own, not the roster's: a host
        that drives the primitives from its own director leaves this
        plane's roster unused."""
        views: dict[str, int] = {}
        for node in self.nodes.values():
            if node.alive and node.delegate is not None:
                views[node.delegate] = views.get(node.delegate, 0) + 1
        if not views:
            return None
        best, votes = max(views.items(), key=lambda kv: kv[1])
        if votes <= len(self.live_nodes) // 2 or not self.nodes[best].alive:
            return None
        return best

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
