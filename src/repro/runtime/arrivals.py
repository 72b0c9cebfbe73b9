"""Arrival scheduling strategies shared by the harness adapters.

Two patterns cover every harness in the repository:

- :class:`ArrivalPump` — *lazy chaining*: exactly one arrival event is on
  the calendar at a time; firing it schedules the next record before
  handing the current one to the harness.  This is how the queueing
  cluster replays traces (the calendar stays O(1) in trace length).
- :func:`schedule_all` — *reserved chaining* over a bounded, in-memory
  item list: the items fire in exactly the order they would if all were
  placed on the calendar up front, but only one of them is pending at a
  time.  The timed full-system run uses this for its operation list.

Both preserve the exact event ordering of the pre-runtime harnesses, so
seeded replays are bit-identical.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

from ..sim.engine import Engine
from ..sim.events import reserve_seqs

T = TypeVar("T")

__all__ = ["ArrivalPump", "schedule_all"]


class ArrivalPump:
    """Chained lazy replay of a time-ordered record stream.

    ``on_arrival(record)`` runs at each record's time; the *next* record
    is scheduled before the callback runs, matching the classic
    self-rescheduling arrival pattern (and keeping insertion order — and
    therefore tie-breaking — identical to it).
    """

    def __init__(
        self,
        engine: Engine,
        records: Iterator[T],
        on_arrival: Callable[[T], None],
        time_of: Callable[[T], float],
    ) -> None:
        self._engine = engine
        self._records = records
        self._on_arrival = on_arrival
        self._time_of = time_of
        #: Arrivals delivered so far (instrumentation).
        self.delivered = 0

    def start(self) -> None:
        """Schedule the first record (no-op for an empty stream)."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        record = next(self._records, None)
        if record is None:
            return
        self._engine.schedule_at(self._time_of(record), self._fire, record)

    def _fire(self, record: T) -> None:
        self._schedule_next()
        self.delivered += 1
        self._on_arrival(record)


def schedule_all(
    engine: Engine,
    items: Iterable[T],
    on_arrival: Callable[[T], None],
    time_of: Callable[[T], float],
) -> int:
    """Deliver every item at its time; returns the count.

    Equivalent to scheduling each item with :meth:`Engine.schedule_at`
    now, in iteration order, but the calendar holds one pending item:
    the block of sequence numbers that eager scheduling would have used
    is reserved up front (item ``i`` gets ``base + i``), and firing an
    item schedules the next one in ``(time, index)`` order before its
    callback runs.  Every event keeps the ``(time, priority, seq)`` key
    it would have had, and the calendar pops in that total order, so the
    firing order is unchanged.
    """
    items = list(items)
    times = [time_of(item) for item in items]
    if not items:
        return 0
    order = iter(sorted(range(len(items)), key=times.__getitem__))
    base = reserve_seqs(len(items))

    def fire(item: T) -> None:
        i = next(order, None)
        if i is not None:
            engine.schedule_reserved(times[i], base + i, fire, items[i])
        on_arrival(item)

    first = next(order)
    engine.schedule_reserved(times[first], base + first, fire, items[first])
    return len(items)
