"""Server nodes running the delegate protocol: election, heartbeats,
report collection, and config distribution.

The paper's §4 control plane, realized as an event-driven protocol:

- every server watches the delegate's **heartbeat**; a timeout triggers a
  **bully election** (highest-priority live node wins — any deterministic
  election works, the paper does not prescribe one);
- the winning delegate runs a **tuning round** every interval: it
  broadcasts a report request, collects replies for a bounded window,
  feeds whatever arrived to :class:`repro.core.tuning.DelegateTuner`
  (missing replies simply don't participate — a slow server looks idle,
  which is safe because idle servers are excluded from the average), and
  broadcasts a **versioned config update** with the new shares;
- nodes apply a config iff its epoch is >= their last seen epoch, so
  stale updates from deposed delegates are discarded;
- a *new* delegate starts with no previous reports, so the divergent
  heuristic is skipped for its first round — the paper's stateless
  degradation, for free.  The host drops it the same way on every
  membership change (:meth:`ServerNode.forget_history`), so from the
  same reports the delegate decides exactly as the other stacks do.

The protocol layer is deliberately separable: ``on_config`` is a callback,
so the same nodes can drive a real :class:`repro.core.anu.ANUPlacement`
(see the integration tests) or a mock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.tuning import DelegateRoundDriver, ServerReport, TuningConfig
from ..runtime.telemetry import (
    NULL_SINK,
    DelegateElected,
    TelemetrySink,
    TuningDecided,
)
from ..sim.engine import Engine
from .messages import (
    ConfigUpdate,
    Coordinator,
    Election,
    ElectionOk,
    Heartbeat,
    ReportReply,
    ReportRequest,
)
from .network import Network


@dataclass(frozen=True)
class ProtocolConfig:
    """Timers of the control plane (seconds)."""

    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 3.5
    election_timeout: float = 0.5
    report_timeout: float = 0.5
    tuning_interval: float = 10.0

    def __post_init__(self) -> None:
        if min(
            self.heartbeat_interval,
            self.heartbeat_timeout,
            self.election_timeout,
            self.report_timeout,
            self.tuning_interval,
        ) <= 0:
            raise ValueError("all protocol timers must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")


#: Supplies a node's latency report when the delegate asks.
ReportSource = Callable[[], ServerReport]
#: Invoked when a node applies a new configuration.
ConfigSink = Callable[[dict[str, float], int], None]


class ServerNode:
    """One server participating in the delegate protocol.

    ``ranks`` maps every node's name to its election rank (static
    cluster configuration, known out of band in the target system).  The
    host shares one map among its nodes and adds a joining node's rank
    before building it, so every node ranks itself and its peers alike.
    """

    def __init__(
        self,
        name: str,
        ranks: Mapping[str, int],
        engine: Engine,
        network: Network,
        report_source: ReportSource,
        on_config: ConfigSink | None = None,
        config: ProtocolConfig | None = None,
        tuning: TuningConfig | None = None,
        initial_shares: dict[str, float] | None = None,
        telemetry: TelemetrySink | None = None,
    ) -> None:
        self.name = name
        self._ranks = ranks
        self.engine = engine
        self.network = network
        self.config = config or ProtocolConfig()
        self.report_source = report_source
        self.on_config = on_config
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        # The same delegate round the other stacks tune through.
        self._rounds = DelegateRoundDriver(tuning)

        self.alive = True
        #: Effective speed multiplier (gray failures); 1.0 means healthy.
        #: The protocol itself never reads it — latency models may, to
        #: couple reported latency to a limp — and :meth:`recover`
        #: resets it, mirroring the roster's reboot-cures-the-limp rule.
        self.speed = 1.0
        self.epoch = 0
        self.delegate: str | None = None
        self.shares: dict[str, float] = dict(initial_shares or {})

        self._last_heartbeat = 0.0
        self._election_pending = False
        self._got_ok = False
        self._election_round = 0
        self._round_id = 0
        self._round_replies: dict[int, list[ReportReply]] = {}

        network.register(name, self._on_message)

    @property
    def rounds_run(self) -> int:
        """Delegate rounds this node has completed (driver-owned)."""
        return self._rounds.rounds_run

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin monitoring; nodes bootstrap by racing an election."""
        self._last_heartbeat = self.engine.now
        # Stagger by priority so the highest-priority node usually wins the
        # bootstrap race without churn.
        delay = 0.01 * (1 + max(0, 100 - self._ranks[self.name]))
        self.engine.schedule(delay, self._maybe_start_election)
        self.engine.schedule(
            self.config.heartbeat_timeout, self._check_heartbeat
        )

    def crash(self) -> None:
        """Stop participating (the network drops our messages too)."""
        self.alive = False
        # A crash mid-election must not latch the pending flag: the stale
        # _election_decide event bails out on ``not alive``, so nothing
        # would ever clear it and a recovered node could never elect again.
        self._election_pending = False
        self._got_ok = False
        self.network.set_down(self.name)

    def shutdown(self) -> None:
        """Stop participating quietly (end of simulation, not a crash).

        Unlike :meth:`crash` the network registration is untouched; the
        point is only that every self-rescheduling timer loop
        (heartbeats, monitors, tuning rounds) observes ``alive == False``
        and stops, letting the event calendar drain.
        """
        self.alive = False

    def recover(self) -> None:
        """Rejoin: reset volatile protocol state and re-monitor."""
        self.alive = True
        self.speed = 1.0
        self.network.set_up(self.name)
        self.delegate = None
        self.forget_history()
        self._election_pending = False
        self._got_ok = False
        self._last_heartbeat = self.engine.now
        self.engine.schedule(0.0, self._maybe_start_election)
        self.engine.schedule(self.config.heartbeat_timeout, self._check_heartbeat)

    def forget_history(self) -> None:
        """Drop the delegate round's previous reports (election, recovery,
        and every fail, recover, commission or decommission)."""
        self._rounds.reset()

    @property
    def is_delegate(self) -> bool:
        return self.alive and self.delegate == self.name

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, src: str, message: object) -> None:
        if not self.alive:
            return
        if isinstance(message, Heartbeat):
            self._on_heartbeat(message)
        elif isinstance(message, Election):
            self._on_election(src, message)
        elif isinstance(message, ElectionOk):
            self._got_ok = True
        elif isinstance(message, Coordinator):
            self._on_coordinator(message)
        elif isinstance(message, ReportRequest):
            self._on_report_request(src, message)
        elif isinstance(message, ReportReply):
            self._on_report_reply(message)
        elif isinstance(message, ConfigUpdate):
            self._on_config_update(message)

    def _accepts_leader(self, leader: str, epoch: int) -> bool:
        """Newer epochs always win; equal epochs tie-break by priority.

        Message loss can let two nodes win concurrent elections at the same
        epoch; the deterministic tie-break makes every node converge on the
        higher-priority claimant, and the loser abdicates (its delegate
        loops check ``is_delegate`` and stop).
        """
        if epoch > self.epoch:
            return True
        if epoch < self.epoch:
            return False
        current = self.delegate
        if current is None or current == leader:
            return True
        return self._ranks[leader] >= self._ranks[current]

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        if self._accepts_leader(hb.delegate, hb.epoch):
            self.epoch = max(self.epoch, hb.epoch)
            self.delegate = hb.delegate
            self._last_heartbeat = self.engine.now

    def _on_coordinator(self, msg: Coordinator) -> None:
        if self._accepts_leader(msg.delegate, msg.epoch):
            self.epoch = max(self.epoch, msg.epoch)
            self.delegate = msg.delegate
            self._last_heartbeat = self.engine.now
            self._election_pending = False
            if msg.delegate == self.name:
                self._become_delegate()

    def _on_election(self, src: str, _msg: Election) -> None:
        # Bully: candidates only probe strictly-higher-priority nodes, so
        # receiving a probe means we outrank the sender — answer and run
        # our own election.
        self.network.send(self.name, src, ElectionOk(responder=self.name))
        self._maybe_start_election()

    def _on_report_request(self, src: str, req: ReportRequest) -> None:
        if req.epoch >= self.epoch:
            self.epoch = max(self.epoch, req.epoch)
            self.delegate = req.delegate
            self._last_heartbeat = self.engine.now
        self.network.send(self.name, src, self._make_reply(req.round_id))

    def _make_reply(self, round_id: int) -> ReportReply:
        """This node's reply: its latency report for the round."""
        return ReportReply(round_id=round_id, report=self.report_source())

    def _on_report_reply(self, reply: ReportReply) -> None:
        bucket = self._round_replies.get(reply.round_id)
        if bucket is not None:
            bucket.append(reply)

    def _on_config_update(self, update: ConfigUpdate) -> None:
        if update.epoch < self.epoch:
            return  # stale delegate
        self.epoch = update.epoch
        self.shares = dict(update.shares)
        if self.on_config is not None:
            self.on_config(dict(update.shares), update.epoch)

    # ------------------------------------------------------------------
    # Heartbeat monitoring and election
    # ------------------------------------------------------------------
    def _check_heartbeat(self) -> None:
        if not self.alive:
            return
        if self.is_delegate:
            pass  # we produce heartbeats, we don't watch them
        elif (
            self.engine.now - self._last_heartbeat
            > self.config.heartbeat_timeout
        ):
            self._maybe_start_election()
        self.engine.schedule(self.config.heartbeat_interval, self._check_heartbeat)

    def _maybe_start_election(self) -> None:
        if not self.alive or self._election_pending or self.is_delegate:
            return
        self._election_pending = True
        self._got_ok = False
        self._election_round += 1
        higher = [
            n for n in self.network.nodes
            if n != self.name and self._ranks[n] > self._ranks[self.name]
        ]
        for node in higher:
            self.network.send(self.name, node, Election(candidate=self.name))
        self.engine.schedule(
            self.config.election_timeout, self._election_decide,
            self._election_round,
        )

    def _election_decide(self, round_: int) -> None:
        if (
            not self.alive
            or not self._election_pending
            or round_ != self._election_round
        ):
            return  # stale timer from an election interrupted by a crash
        if self._got_ok:
            # A higher-priority node lives; wait for its Coordinator (the
            # heartbeat monitor restarts the election if none arrives).
            self._election_pending = False
            self._last_heartbeat = self.engine.now
            return
        # We win: bump the epoch and announce.
        self.epoch += 1
        self.delegate = self.name
        self._election_pending = False
        self.network.broadcast(
            self.name, Coordinator(delegate=self.name, epoch=self.epoch)
        )
        self._become_delegate()

    # ------------------------------------------------------------------
    # Delegate duties
    # ------------------------------------------------------------------
    def _become_delegate(self) -> None:
        self.forget_history()  # stateless: fresh delegate history
        if self.telemetry.enabled:
            self.telemetry.emit(
                DelegateElected(
                    time=self.engine.now, delegate=self.name, epoch=self.epoch
                )
            )
        self._send_heartbeat()
        self.engine.schedule(self.config.tuning_interval, self._tuning_round)

    def _send_heartbeat(self) -> None:
        if not self.is_delegate:
            return
        self.network.broadcast(
            self.name, Heartbeat(delegate=self.name, epoch=self.epoch)
        )
        self.engine.schedule(self.config.heartbeat_interval, self._send_heartbeat)

    def _tuning_round(self) -> None:
        if not self.is_delegate:
            return
        self._round_id += 1
        round_id = self._round_id
        self._round_replies[round_id] = [self._make_reply(round_id)]
        self.network.broadcast(
            self.name,
            ReportRequest(delegate=self.name, epoch=self.epoch, round_id=round_id),
        )
        self.engine.schedule(
            self.config.report_timeout, self._finish_round, round_id
        )
        self.engine.schedule(self.config.tuning_interval, self._tuning_round)

    def _finish_round(self, round_id: int) -> None:
        replies = self._round_replies.pop(round_id, [])
        if not self.is_delegate or not replies:
            return
        # Tune only over the servers that answered; shares for silent
        # servers are preserved as-is.  Shares are keyed in name order,
        # like the reports the round driver sorts, so the decision does
        # not depend on the order replies arrived in.
        reports = {reply.report.name: reply.report for reply in replies}
        shares = {name: self.shares.get(name, 1.0) for name in sorted(reports)}
        decision = self._rounds.compute(shares, list(reports.values()))
        if self.telemetry.enabled:
            self.telemetry.emit(
                TuningDecided(
                    time=self.engine.now,
                    round=self._rounds.rounds_run,
                    changed=bool(decision.tuned),
                    reporting=sum(
                        1 for r in reports.values() if r.request_count > 0
                    ),
                    average=decision.average,
                    tuned=dict(decision.tuned),
                )
            )
        if decision.tuned:
            new_shares = dict(self.shares)
            new_shares.update(decision.new_shares)
            self.epoch += 1
            update = ConfigUpdate(
                epoch=self.epoch, shares=new_shares, issued_by=self.name
            )
            self.network.broadcast(self.name, update, include_self=True)
