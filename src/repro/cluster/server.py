"""Heterogeneous metadata server.

A server has a *speed* — the paper's processing-power scalar (its five-server
cluster uses speeds 1, 3, 5, 7, 9: "if the least powerful server consumes
time T to complete a metadata request, then the most powerful consumes
T/9").  Service time for a request of cost ``c`` (speed-1 seconds) is
``c * multiplier / speed``, where the multiplier models a cold cache after a
file-set move; :func:`repro.runtime.routing.dispatch` computes it once per
request.  Queueing is FIFO via :class:`repro.sim.resources.Facility`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sim.engine import Engine
from ..sim.resources import Facility
from .request import MetadataRequest


@dataclass(frozen=True)
class ServerSpec:
    """Static description of a server."""

    name: str
    speed: float

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed!r}")


class MetadataServer:
    """A metadata server: FIFO facility + speed + liveness."""

    def __init__(self, engine: Engine, spec: ServerSpec) -> None:
        self.engine = engine
        self.spec = spec
        self.name = spec.name
        self.facility = Facility(engine, name=spec.name)
        self.alive = True
        #: Gray-failure multiplier in (0, 1] over the frozen spec speed;
        #: 1.0 means healthy.  Mutated only via :meth:`set_degradation`.
        self.degradation = 1.0
        #: Effective speed: spec speed × current degradation.
        self.speed = spec.speed
        #: Requests dispatched here and not yet completed (for failure
        #: re-dispatch).
        self.outstanding: dict[int, MetadataRequest] = {}

    @property
    def base_speed(self) -> float:
        """The nominal (spec) speed, ignoring any gray failure."""
        return self.spec.speed

    def set_degradation(self, factor: float) -> None:
        """Limp at ``factor`` of spec speed (1.0 restores full speed).

        Applies to service times computed from now on; work already in
        the facility keeps the duration it was enqueued with, modelling a
        disk slowdown that hits new I/Os.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(
                f"degradation factor must be in (0, 1], got {factor!r}"
            )
        self.degradation = factor
        self.speed = self.spec.speed * factor

    def submit(
        self,
        request: MetadataRequest,
        service_time: float,
        on_complete: Callable[[], None],
    ) -> None:
        """Enqueue ``request`` for ``service_time`` seconds of service.

        ``on_complete()`` fires when service ends and must delete
        ``request.rid`` from :attr:`outstanding`, as
        :func:`repro.runtime.routing.dispatch` does.
        """
        if not self.alive:
            raise RuntimeError(f"submit to dead server {self.name!r}")
        self.outstanding[request.rid] = request
        self.facility.request(service_time, on_complete)

    def fail(self) -> list[MetadataRequest]:
        """Crash: abort all queued/in-service work; returns the orphans."""
        if not self.alive:
            raise RuntimeError(f"server {self.name!r} already dead")
        self.alive = False
        self.facility.fail()
        orphans = sorted(self.outstanding.values(), key=lambda r: (r.arrival, r.rid))
        self.outstanding.clear()
        return orphans

    def drain(self) -> None:
        """Graceful decommission: stop accepting new work, keep serving.

        Unlike :meth:`fail`, the facility stays up so already-queued
        requests drain naturally; routing simply stops sending work here
        (``alive`` is the routing gate).
        """
        if not self.alive:
            raise RuntimeError(f"server {self.name!r} already dead")
        self.alive = False

    def recover(self) -> None:
        """Come back up with an empty queue (cache cold; the placement layer
        charges cold-cache penalties per gained file set).  A reboot also
        cures any limp: degradation resets to 1.0, mirroring
        :meth:`repro.membership.lifecycle.MembershipRoster.recover`."""
        if self.alive:
            raise RuntimeError(f"server {self.name!r} already alive")
        self.alive = True
        self.degradation = 1.0
        self.speed = self.spec.speed
        self.facility.resume_service()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"MetadataServer({self.name!r}, speed={self.speed}, {state})"
