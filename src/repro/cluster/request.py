"""Metadata request lifecycle.

A request is born when a client issues it (the trace arrival time), is
routed to the owner of its file set, possibly waits in a move buffer while
the file set is in flight between servers, queues at a server's FIFO
facility, is served, and completes.  Latency — the paper's sole performance
metric ("we use request latency, because all requests are short and service
time variance is low", §2) — is completion time minus arrival time, so it
includes move-buffering, queueing, and service.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_REQUEST_IDS = itertools.count()


@dataclass(slots=True)
class MetadataRequest:
    """One metadata operation against a file set."""

    arrival: float
    fileset: str
    cost: float
    rid: int = field(default_factory=_REQUEST_IDS.__next__)
    completion: float | None = None

    def complete(self, now: float) -> float:
        """Mark done at ``now``; returns the latency (completion minus
        arrival)."""
        if self.completion is not None:
            raise ValueError(f"request {self.rid} completed twice")
        if now < self.arrival:
            raise ValueError(
                f"completion {now} precedes arrival {self.arrival}"
            )
        self.completion = now
        return now - self.arrival
