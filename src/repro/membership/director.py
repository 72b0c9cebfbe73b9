"""One membership-change driver for every harness stack.

Before this package, the paper's §4 recovery story — re-home the failed
server's file sets, preserve everyone else's cache, reset the delegate's
latency history because it straddles the change — was implemented three
times: once in the queueing simulation's fault handler, once in the
semantic metadata cluster's ``fail_server``/``add_server``/
``remove_server`` methods, and once (partially) in the protocol control
plane.  :class:`MembershipDirector` owns that logic once:

1. **telemetry** — emit :class:`~repro.runtime.telemetry.FaultInjected`
   before the change and a classified
   :class:`~repro.runtime.telemetry.MembershipChanged` after it;
2. **legality** — drive the event through
   :func:`~repro.membership.faults.apply_event`, the
   :class:`~repro.membership.lifecycle.MembershipRoster` state machine
   plus the last-live-server check that the schedule validator and the
   injector share, so an illegal event raises before any harness state
   mutates;
3. **realization** — call the harness's kind-specific primitive
   (crash / drain / restart / install) through the
   :class:`MembershipHost` protocol;
4. **re-placement** — ask the host for its post-change assignment
   (every placing host asks its policy's
   ``PlacementPolicy.on_membership_change``; the placement layer
   repartitions whenever ``p < 2*(n+1)``; the host resets its delegate
   round there — the paper's stateless recovery), classify the moves of
   the primary assignment, found by
   :func:`~repro.core.movement.diff_assignment`, into *orphan re-homes*
   versus *live rebalances*, and have the host realize the diff (replica
   slots are re-derived from the primary and are not counted);
5. **re-injection** — hand any work orphaned by a crash back to the host
   for re-dispatch, after the re-placement so it routes to the new
   owners.

Hosts only implement primitives; ordering, legality, classification, and
telemetry are identical across all three stacks by construction.

Gray failures (``DEGRADE``/``RESTORE``) take a deliberately shorter path:
legality through the roster, a :class:`FaultInjected` +
:class:`~repro.runtime.telemetry.SpeedChanged` pair, and the
:meth:`MembershipHost.set_speed` primitive — **no** re-placement (so
**no** history reset), **no** ``MembershipChanged``.  A limping server is
indistinguishable from a healthy one to every detector in the system;
only the tuner's observed latencies can reveal it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

from ..core.movement import ReconfigDiff, diff_assignment
from ..runtime.telemetry import (
    NULL_SINK,
    FaultInjected,
    MembershipChanged,
    SpeedChanged,
    TelemetrySink,
)
from ..units import Seconds
from .faults import FaultEvent, FaultKind, apply_event
from .lifecycle import MembershipRoster

__all__ = ["MembershipHost", "MembershipChange", "MembershipDirector"]


class MembershipHost(Protocol):
    """What a harness provides for :class:`MembershipDirector` to drive it.

    The five lifecycle primitives mutate harness state only; re-placement
    and movement go through :meth:`membership_assignment` /
    :meth:`realize_membership` so the director can classify moves
    uniformly.  ``now`` is the harness's simulated time (engine-driven
    harnesses may ignore it).
    """

    def crash_server(self, server: str, now: Seconds) -> Any:
        """Hard-kill ``server``; returns orphaned work for
        :meth:`reinject` (or ``None``)."""

    def drain_server(self, server: str, now: Seconds) -> None:
        """Begin a graceful decommission (flush + stop accepting work)."""

    def restart_server(self, server: str, now: Seconds) -> None:
        """Bring a failed/drained server back (cold cache)."""

    def install_server(self, server: str, speed: float, now: Seconds) -> None:
        """Register a newly commissioned server."""

    def set_speed(self, server: str, factor: float, now: Seconds) -> None:
        """Realize a gray failure: scale ``server``'s effective speed to
        ``factor`` × its base speed (``factor == 1.0`` restores it).
        Unlike the five lifecycle primitives this triggers no
        re-placement — a limping server keeps its share until the tuner
        routes around it."""

    def delegate_failover(self, now: Seconds) -> str | None:
        """Fail the tuning delegate over; returns the name of a server
        that crashed as a result (``None`` when the fail-over is purely
        logical, as in the queueing harness)."""

    def membership_assignment(
        self,
    ) -> tuple[dict[str, str], dict[str, str]] | None:
        """(old, new) file-set assignments after the server-set change,
        or ``None`` when this host manages no placement (control plane).
        Every host, the control plane too, also forgets its delegate's
        report history here: it straddles the change."""

    def realize_membership(
        self, old: dict[str, str], new: dict[str, str], now: Seconds
    ) -> None:
        """Turn the assignment diff into movement on the harness."""

    def reinject(self, orphans: Any, now: Seconds) -> None:
        """Re-dispatch work orphaned by a crash (post-re-placement)."""


@dataclass(frozen=True)
class MembershipChange:
    """What one applied lifecycle event did to the cluster."""

    event: FaultEvent
    #: Live servers after the event.
    live: tuple[str, ...]
    #: Assignment diff of the re-placement (None when the host manages no
    #: placement, or for a purely-logical delegate crash).
    diff: ReconfigDiff | None
    #: Moves whose source is gone (recovery moves / fresh placements).
    orphaned: int
    #: Moves between live servers (boundary shifts from re-scaling).
    rebalanced: int

    @property
    def moved(self) -> int:
        return self.diff.moved if self.diff is not None else 0

    @property
    def stayed(self) -> int:
        return self.diff.stayed if self.diff is not None else 0


class MembershipDirector:
    """Applies :class:`FaultEvent`s to a harness, uniformly.

    ``clock`` supplies the current simulated time for telemetry when the
    caller does not pass one (engine-driven harnesses hand in
    ``lambda: engine.now``; direct-call harnesses pass ``now=`` per
    event).
    """

    def __init__(
        self,
        roster: MembershipRoster,
        host: MembershipHost,
        telemetry: TelemetrySink = NULL_SINK,
        clock: Callable[[], Seconds] | None = None,
    ) -> None:
        self.roster = roster
        self.host = host
        self.telemetry = telemetry
        self._clock = clock
        #: Applied events, in order (cheap audit trail for tests/soaks).
        self.applied: list[FaultEvent] = []

    # ------------------------------------------------------------------
    def apply(
        self, event: FaultEvent, now: Seconds | None = None
    ) -> MembershipChange:
        """Apply one lifecycle event end-to-end; returns what changed."""
        if now is None:
            now = self._clock() if self._clock is not None else Seconds(0.0)
        kind = event.kind
        sink = self.telemetry
        # Legality first: the roster transition validates (and records)
        # the membership change, raising LifecycleError on an illegal
        # event *before* any telemetry is published — a rejected event
        # must leave no trace in the record stream (the soak's
        # PairingLaw checks this on every record).  The roster
        # emits nothing itself, so for legal events the stream is
        # byte-identical to emitting up front.
        apply_event(self.roster, event)
        if sink.enabled:
            sink.emit(
                FaultInjected(time=now, fault=kind.value, server=event.server)
            )
        # Gray failures never reshape membership: the server stays live
        # with its mapped share, no re-placement runs, no delegate
        # history is reset — the *whole point* is that the system gets no
        # out-of-band signal and must route around the limp via observed
        # latency.  Only the effective speed (and a SpeedChanged record)
        # move.
        if kind in (FaultKind.DEGRADE, FaultKind.RESTORE):
            factor = event.factor if kind is FaultKind.DEGRADE else 1.0
            self.host.set_speed(event.server, factor, now)
            if sink.enabled:
                sink.emit(
                    SpeedChanged(
                        time=now,
                        server=event.server,
                        factor=factor,
                        effective_speed=self.roster.effective_speed(
                            event.server
                        ),
                    )
                )
            change = MembershipChange(
                event=event, live=tuple(self.roster.live()), diff=None,
                orphaned=0, rebalanced=0,
            )
            self.applied.append(event)
            return change
        # Realization: drive the host and re-place load now that the
        # event is known legal and announced.
        orphans: Any = None
        diff: ReconfigDiff | None = None
        if kind is FaultKind.DELEGATE_CRASH:
            victim = self.host.delegate_failover(now)
            if victim is not None:
                self.roster.fail(victim)
        elif kind is FaultKind.FAIL:
            orphans = self.host.crash_server(event.server, now)
            diff = self._rebalance(now)
        elif kind is FaultKind.DECOMMISSION:
            self.host.drain_server(event.server, now)
            diff = self._rebalance(now)
        elif kind is FaultKind.RECOVER:
            self.host.restart_server(event.server, now)
            diff = self._rebalance(now)
        elif kind is FaultKind.COMMISSION:
            self.host.install_server(event.server, event.speed, now)
            diff = self._rebalance(now)

        live = tuple(self.roster.live())
        orphaned = rebalanced = 0
        if diff is not None:
            live_set = set(live)
            orphaned = sum(
                1 for m in diff.moves
                if m.source is None or m.source not in live_set
            )
            rebalanced = diff.moved - orphaned
        change = MembershipChange(
            event=event, live=live, diff=diff,
            orphaned=orphaned, rebalanced=rebalanced,
        )
        if sink.enabled:
            sink.emit(
                MembershipChanged(
                    time=now, fault=kind.value, server=event.server,
                    live=len(live), orphaned=orphaned,
                    rebalanced=rebalanced, stayed=change.stayed,
                )
            )
        if orphans is not None:
            self.host.reinject(orphans, now)
        self.applied.append(event)
        return change

    # ------------------------------------------------------------------
    def _rebalance(self, now: Seconds) -> ReconfigDiff | None:
        """Re-place after the server-set change and realize the diff."""
        pair = self.host.membership_assignment()
        if pair is None:
            return None
        old, new = pair
        diff = diff_assignment(old, new)
        self.host.realize_membership(dict(old), dict(new), now)
        return diff
