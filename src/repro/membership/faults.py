"""Fault and membership schedules.

The paper treats failure/recovery and decommission/commission uniformly
(§4: "the framework treats commissioning or decommissioning servers the
same as a recovery or failure").  A :class:`FaultSchedule` is a list of
timed membership events a harness applies through its
:class:`~repro.membership.director.MembershipDirector`; tests, the failure
experiments, and the stochastic
:class:`~repro.membership.injector.FaultInjector` build them
declaratively.

Validation is the lifecycle state machine
(:class:`~repro.membership.lifecycle.MembershipRoster`): a schedule is
valid iff replaying it through the roster raises no
:class:`~repro.membership.lifecycle.LifecycleError` and the cluster never
loses its last live server.  Two semantics worth spelling out:

- **recover after decommission is legal** — a decommissioned server
  drains and goes ``DOWN`` but stays *known*, so a later ``recover``
  brings it back exactly like a crashed server (its file-set images are
  re-acquired from the shared disk).  Commissioning the same *name*
  again, by contrast, is always an error;
- **delegate crashes need a successor** — a ``DELEGATE_CRASH`` event is
  only valid while at least two servers are live, since fail-over must
  have a surviving server to elect.

Beyond fail-stop, the vocabulary also speaks **gray failures** (ROADMAP
item 4): ``DEGRADE`` limps an ``UP`` server to ``factor`` of its speed
without tripping any liveness detector, and ``RESTORE`` lifts the limp.
Degradation is orthogonal to the lifecycle — a degraded server stays
live, keeps its mapped share, and remains a legal delegate; only its
effective speed changes.  A schedule with no ``DEGRADE`` events behaves
bit-for-bit as before.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

from ..units import Seconds
from .lifecycle import LifecycleError, MembershipRoster

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule", "apply_event"]


class FaultKind(enum.Enum):
    """What happens to the server at the scheduled time."""

    FAIL = "fail"          # crash: queued work is lost and re-dispatched
    RECOVER = "recover"    # a previously failed/drained server rejoins
    COMMISSION = "commission"      # a brand-new server joins
    DECOMMISSION = "decommission"  # graceful removal (queue drains first)
    DELEGATE_CRASH = "delegate-crash"  # the tuning delegate fails over
    DEGRADE = "degrade"    # gray failure: limp at `factor` of full speed
    RESTORE = "restore"    # the limp lifts; effective speed returns to base


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled membership/fault event."""

    time: Seconds
    kind: FaultKind
    server: str
    #: Speed for COMMISSION events (ignored otherwise).
    speed: float = 1.0
    #: Speed multiplier for DEGRADE events, in (0, 1] (ignored otherwise).
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"negative event time {self.time!r}")
        if self.kind is FaultKind.COMMISSION and self.speed <= 0:
            raise ValueError(f"commissioned server needs positive speed")
        if self.kind is FaultKind.DEGRADE and not 0.0 < self.factor <= 1.0:
            raise ValueError(
                f"degradation factor must be in (0, 1], got {self.factor!r}"
            )


def _sort_key(event: FaultEvent) -> tuple[Seconds, str]:
    """Stable schedule order: by time, ties broken by server name."""
    return (event.time, event.server)


def apply_event(roster: MembershipRoster, event: FaultEvent) -> None:
    """Replay one event through the lifecycle state machine.

    Raises :class:`LifecycleError`, leaving the roster untouched, when the
    transition is illegal in the roster's current state or would take
    down the last live server (no survivor could take over its file
    sets).  This is the single dispatch the schedule validator, the
    stochastic injector, and the membership director all share, so
    "valid" means the same thing everywhere.
    """
    kind = event.kind
    if kind is FaultKind.DELEGATE_CRASH:
        if roster.live_count < 2:
            raise LifecycleError(
                f"delegate crash at t={event.time!r} with "
                f"{roster.live_count} live server(s); fail-over needs a "
                f"surviving server to elect"
            )
        return
    if (
        kind in (FaultKind.FAIL, FaultKind.DECOMMISSION)
        and roster.is_live(event.server)
        and roster.live_count == 1
    ):
        raise LifecycleError(
            f"{kind.value} of {event.server!r} at t={event.time!r} would "
            f"leave no live server"
        )
    if kind is FaultKind.FAIL:
        roster.fail(event.server)
    elif kind is FaultKind.RECOVER:
        roster.recover(event.server)
    elif kind is FaultKind.COMMISSION:
        roster.commission(event.server, event.speed)
    elif kind is FaultKind.DECOMMISSION:
        roster.decommission(event.server)
    elif kind is FaultKind.DEGRADE:
        roster.degrade(event.server, event.factor)
    elif kind is FaultKind.RESTORE:
        roster.restore(event.server)
    else:  # pragma: no cover - enum is closed
        raise AssertionError(f"unhandled fault kind {kind!r}")


@dataclass
class FaultSchedule:
    """A time-ordered set of fault events."""

    events: list[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Insert an event, keeping the schedule time-ordered.

        Insertion is a binary search + single list insert (events already
        in order — the common, injector-generated case — append in O(1)
        amortized), not a full re-sort per call.  Ties on ``(time,
        server)`` keep insertion order, matching what the old
        append-then-stable-sort implementation produced.
        """
        bisect.insort(self.events, event, key=_sort_key)
        return self

    def fail(self, time: Seconds, server: str) -> "FaultSchedule":
        """Schedule a crash of ``server`` at ``time``."""
        return self.add(FaultEvent(time, FaultKind.FAIL, server))

    def recover(self, time: Seconds, server: str) -> "FaultSchedule":
        """Schedule a recovery of a failed/decommissioned ``server``."""
        return self.add(FaultEvent(time, FaultKind.RECOVER, server))

    def commission(
        self, time: Seconds, server: str, speed: float
    ) -> "FaultSchedule":
        """Schedule a brand-new server joining at ``time``."""
        return self.add(FaultEvent(time, FaultKind.COMMISSION, server, speed))

    def decommission(self, time: Seconds, server: str) -> "FaultSchedule":
        """Schedule a graceful removal of ``server`` at ``time``."""
        return self.add(FaultEvent(time, FaultKind.DECOMMISSION, server))

    def delegate_crash(self, time: Seconds) -> "FaultSchedule":
        """Schedule a tuning-delegate fail-over at ``time``."""
        return self.add(FaultEvent(time, FaultKind.DELEGATE_CRASH, server="*"))

    def degrade(
        self, time: Seconds, server: str, factor: float
    ) -> "FaultSchedule":
        """Schedule a gray failure: ``server`` limps at ``factor`` of its
        speed from ``time`` until a later ``restore`` (or forever)."""
        return self.add(
            FaultEvent(time, FaultKind.DEGRADE, server, factor=factor)
        )

    def restore(self, time: Seconds, server: str) -> "FaultSchedule":
        """Schedule the limp on ``server`` to lift at ``time``."""
        return self.add(FaultEvent(time, FaultKind.RESTORE, server))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def validate(self, initial_servers: set[str]) -> None:
        """Check the schedule is consistent (no double-fail, etc.).

        Replays every event — **including** ``DELEGATE_CRASH``, which must
        find at least two live servers — through a fresh
        :class:`MembershipRoster` seeded with ``initial_servers``.
        Raises ``ValueError`` on the first illegal event.
        """
        roster = MembershipRoster(sorted(initial_servers))
        for ev in self.events:
            apply_event(roster, ev)
