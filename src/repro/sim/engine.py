"""Discrete-event simulation engine.

A minimal, deterministic replacement for the YACSIM toolkit the paper used
(Jump, Rice University, 1993).  The engine owns a simulation clock and an
event calendar (binary heap).  Model code schedules callbacks with
:meth:`Engine.schedule` / :meth:`Engine.schedule_at` and runs the simulation
with :meth:`Engine.run`.

Determinism: events at equal time fire in (priority, insertion order); all
randomness in models must come from seeded generators (:mod:`repro.sim.rng`),
so a simulation is a pure function of its configuration and seed.

Cancellation is lazy (a cancelled event stays heaped until popped) but
*accounted*: the engine tracks the number of cancelled entries still on
the calendar, so :attr:`Engine.pending` reports live events exactly, and
the calendar is compacted — cancelled corpses dropped, heap rebuilt —
whenever they outnumber the live entries.  Timeout-guard workloads that
schedule and immediately cancel far-future events therefore keep the
heap (and every ``heappush`` after them) small.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..units import Seconds
from .events import PRIORITY_NORMAL, Event, SimulationError


class Engine:
    """The simulation clock and event calendar."""

    __slots__ = ("_now", "_calendar", "_running", "_events_fired", "_cancelled")

    #: Calendars smaller than this are never compacted (rebuild churn guard).
    _COMPACT_MIN = 64

    def __init__(self, start_time: Seconds = Seconds(0.0)) -> None:
        self._now = Seconds(float(start_time))
        self._calendar: list[Event] = []
        self._running = False
        self._events_fired = 0
        #: Cancelled events still sitting on the calendar.
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> Seconds:
        """Current simulated time (seconds, by convention)."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still on the calendar."""
        return len(self._calendar) - self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: Seconds,
        action: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, action, *args, priority=priority)

    def schedule_at(
        self,
        time: Seconds,
        action: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}"
            )
        event = Event(
            time=time, priority=priority, action=action, args=args, engine=self
        )
        heapq.heappush(self._calendar, event)
        return event

    def schedule_reserved(
        self, time: Seconds, seq: int, action: Callable[..., None], *args: Any
    ) -> Event:
        """:meth:`schedule_at` (normal priority) for an event that takes
        the sequence number ``seq`` reserved earlier with
        :func:`~repro.sim.events.reserve_seqs`, so it keeps the place in
        every tie-break it would have had if scheduled at the reservation.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}"
            )
        event = Event(
            time=time, priority=PRIORITY_NORMAL, action=action, args=args,
            engine=self,
        )
        event.seq = seq
        heapq.heappush(self._calendar, event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False when empty."""
        while self._calendar:
            event = heapq.heappop(self._calendar)
            if event.cancelled:
                self._cancelled -= 1
                continue
            # Detach before firing: a late cancel() on an already-fired
            # event must not perturb the live count.
            event.engine = None
            self._now = event.time
            self._events_fired += 1
            event.fire()
            return True
        return False

    def run(
        self, until: Seconds | None = None, max_events: int | None = None
    ) -> Seconds:
        """Run until the calendar drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final clock value.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, mirroring YACSIM's
        ``simulate(t)``.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._calendar:
                if max_events is not None and fired >= max_events:
                    break
                nxt = self._peek()
                if nxt is None:
                    break
                if until is not None and nxt.time > until:
                    break
                if self.step():
                    fired += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def _peek(self) -> Event | None:
        """Next live event without popping it (drops cancelled heads)."""
        while self._calendar:
            head = self._calendar[0]
            if head.cancelled:
                heapq.heappop(self._calendar)
                self._cancelled -= 1
                continue
            return head
        return None

    def drain(self) -> None:
        """Discard all pending events (used by tests and teardown)."""
        for event in self._calendar:
            event.engine = None
        self._calendar.clear()
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Cancellation accounting (called by Event.cancel)
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Record one cancellation; compact when corpses dominate the heap."""
        self._cancelled += 1
        size = len(self._calendar)
        if size >= self._COMPACT_MIN and self._cancelled * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors.

        O(live) — amortized constant per cancellation, since a compaction
        at least halves the calendar and resets the cancelled count.
        Safe at any point outside :func:`heapq` calls: events carry a
        total order, so ``heapify`` restores the exact pop sequence.
        """
        self._calendar = [e for e in self._calendar if not e.cancelled]
        heapq.heapify(self._calendar)
        self._cancelled = 0
