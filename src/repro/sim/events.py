"""Event primitives for the discrete-event simulation engine.

The engine (:mod:`repro.sim.engine`) schedules :class:`Event` objects on a
calendar (a binary heap).  Events carry a callback and arbitrary positional
arguments; ties in simulated time are broken first by an integer ``priority``
(lower fires first) and then by insertion order, so the simulation is fully
deterministic for a fixed seed.

This module is the bottom layer of our YACSIM substitute (see DESIGN.md §2):
YACSIM's "event" and "activity" notions map to :class:`Event` and its
callback; the harnesses are callback-driven rather than coroutine-style.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..units import Seconds


#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping events that must observe a time step before
#: ordinary events fire (e.g. statistics snapshots).
PRIORITY_EARLY = -10
#: Priority for events that must run after all ordinary events at a time step
#: (e.g. reconfiguration decisions that should see completed arrivals).
PRIORITY_LATE = 10


_EVENT_COUNTER = itertools.count()


def reserve_seqs(n: int) -> int:
    """Reserve ``n`` consecutive sequence numbers; returns the first.

    Events constructed afterwards number past the block.  An event given
    a reserved number later (:meth:`repro.sim.engine.Engine.schedule_reserved`)
    orders exactly as if it had been constructed at the reservation.
    """
    if n < 1:
        raise ValueError(f"need at least one sequence number, got {n!r}")
    base = next(_EVENT_COUNTER)
    # Consume the rest of the block (C-speed; the counter cannot skip).
    deque(itertools.islice(_EVENT_COUNTER, n - 1), maxlen=0)
    return base


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, seq)``; ``seq`` is a global
    monotone counter assigned at construction, making the ordering total and
    deterministic.
    """

    time: Seconds
    priority: int
    seq: int = field(init=False)
    action: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    #: Back-reference to the owning engine (set at scheduling time, cleared
    #: when the event leaves the calendar) so cancellation is accounted for
    #: in O(1) without scanning the heap.  Duck-typed to avoid a circular
    #: import; anything with a ``_note_cancelled()`` method works.
    engine: Any = field(compare=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.seq = next(_EVENT_COUNTER)

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine skips it when popped.

        Idempotent.  While the event is still on a calendar, the owning
        engine is notified so its live-event count (and the compaction
        heuristic) stay exact; cancelling an event that already fired or
        was drained is a harmless no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.engine is not None:
            self.engine._note_cancelled()

    def fire(self) -> None:
        """Invoke the callback (engine-internal)."""
        self.action(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.action, "__qualname__", repr(self.action))
        return f"Event(t={self.time:.6g}, prio={self.priority}, {name})"


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""
