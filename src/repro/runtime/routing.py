"""Per-request routing over replicated owners: the routing plane.

The two-plane split: the *assignment plane* decides, at tuning-round
cadence, which ``r`` servers own each file set
(:mod:`repro.placement.replicated`); the *routing plane* decides, at
per-request cadence, which of the currently-live owners serves this one
request.  This module is the routing plane: a small
:class:`RequestRouter` family shared by all three harness stacks.

- :class:`SingleOwnerRouter` — always the primary (slot 0).  The
  passthrough router: with r=1 it draws no randomness and reproduces the
  pre-refactor dispatch byte-for-byte (the golden-replay guard).
- :class:`JSQRouter` — join-the-shortest-queue over ``d`` sampled
  owners: the power-of-d-choices policy of the Mukhopadhyay & Mazumdar
  heterogeneous-server analyses (arXiv 1502.05786, 1311.5806).
  Queue-length-only: blind to server speed.
- :class:`WeightedPowerOfDRouter` — JSQ(d) with queue length normalized
  by *observed* per-server latency (an EWMA over completion feedback),
  so it discovers speed differences — including gray-failure limps —
  from latency alone, exactly the information regime ANU's tuner lives
  in.  It gets no out-of-band speed signal.

Routers are deterministic given their bound RNG stream: harnesses bind a
named stream from the run's :class:`~repro.sim.rng.StreamFactory`, so
routed runs replay from the seed like everything else.  ``choose``
returns an *index* into the candidate sequence, which arrives in owner-
slot order; :func:`pick_owner` maps it back to a (slot, server) pair.

:func:`pick_owner` and :func:`dispatch` are the one per-request path of
all three stacks: the owner pick, then the service time, the queue
submit, and at completion the wait latency, router feedback, collector
sample, completed count and telemetry records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .telemetry import RequestCompleted, RequestDispatched

if TYPE_CHECKING:
    from ..cluster.request import MetadataRequest
    from ..cluster.server import MetadataServer

__all__ = [
    "RequestRouter",
    "SingleOwnerRouter",
    "JSQRouter",
    "WeightedPowerOfDRouter",
    "ROUTER_FACTORIES",
    "make_router",
    "pick_owner",
    "dispatch",
]


class RequestRouter:
    """Chooses which live owner of a file set serves one request.

    Subclasses override :meth:`choose`; routers that learn from
    completion latencies set ``observes = True`` and override
    :meth:`observe` (the hot path skips the feedback call entirely for
    routers that don't want it).
    """

    #: Registry/telemetry name of this router.
    name: str = "abstract"
    #: True when the router wants per-completion latency feedback.
    observes: bool = False

    def __init__(self) -> None:
        self._rng: np.random.Generator | None = None

    def bind(self, rng: np.random.Generator) -> None:
        """Attach the run's named RNG stream (before any dispatch)."""
        self._rng = rng

    def choose(
        self,
        fileset: str,
        candidates: Sequence[str],
        queue_len: Callable[[str], int],
    ) -> int:
        """Index (into ``candidates``) of the server to dispatch to.

        ``candidates`` is the file set's live owners in slot order and is
        never empty — the harness buffers the request instead of calling
        the router when every owner is down.
        """
        raise NotImplementedError

    def observe(self, server: str, latency: float) -> None:
        """Completion feedback (response time); default routers ignore it."""

    def _sample(self, count: int, d: int) -> Sequence[int]:
        """``min(d, count)`` distinct candidate indices, in slot order.

        Draws from the bound stream only when there is an actual choice
        to make (``count > d``), so small owner sets cost no randomness.
        """
        if count <= d:
            return range(count)
        rng = self._rng
        if rng is None:
            raise RuntimeError(f"router {self.name!r} used before bind()")
        picks = rng.choice(count, size=d, replace=False)
        return sorted(int(i) for i in picks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SingleOwnerRouter(RequestRouter):
    """Always the primary owner: the byte-identical passthrough."""

    name = "single"

    def choose(
        self,
        fileset: str,
        candidates: Sequence[str],
        queue_len: Callable[[str], int],
    ) -> int:
        """Slot 0, unconditionally; no randomness, no queue reads."""
        return 0


class JSQRouter(RequestRouter):
    """Join-the-shortest-queue over ``d`` sampled owners (power of d)."""

    def __init__(self, d: int = 2) -> None:
        super().__init__()
        if d < 1:
            raise ValueError(f"need d >= 1 choices, got {d!r}")
        self.d = d
        self.name = f"jsq{d}"

    def choose(
        self,
        fileset: str,
        candidates: Sequence[str],
        queue_len: Callable[[str], int],
    ) -> int:
        """The sampled owner with the shortest queue (ties to the lowest
        slot, so replays don't depend on dict order)."""
        best = -1
        best_q = 0
        for i in self._sample(len(candidates), self.d):
            q = queue_len(candidates[i])
            if best < 0 or q < best_q:
                best, best_q = i, q
        return best


class WeightedPowerOfDRouter(RequestRouter):
    """JSQ(d) weighted by observed per-server latency (limp discovery).

    Scores each sampled owner ``(queue + 1) * (ewma_latency + eps)`` and
    picks the minimum: queue length normalized by the server's observed
    speed, estimated purely from completion response times — a limping
    server's EWMA rises with its service times, steering work away long
    before its queue alone would.  Servers with no observations yet
    score as infinitely fast (EWMA 0), which makes the first touch of
    each replica an exploration step.
    """

    observes = True

    def __init__(self, d: int = 2, decay: float = 0.2) -> None:
        super().__init__()
        if d < 1:
            raise ValueError(f"need d >= 1 choices, got {d!r}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay!r}")
        self.d = d
        self.decay = decay
        self.name = f"wjsq{d}"
        self._ewma: dict[str, float] = {}

    def observe(self, server: str, latency: float) -> None:
        """Fold one completion's response time into the server's EWMA."""
        previous = self._ewma.get(server)
        if previous is None:
            self._ewma[server] = latency
        else:
            self._ewma[server] = (
                (1.0 - self.decay) * previous + self.decay * latency
            )

    def choose(
        self,
        fileset: str,
        candidates: Sequence[str],
        queue_len: Callable[[str], int],
    ) -> int:
        """The sampled owner with the lowest speed-normalized queue."""
        best = -1
        best_score = 0.0
        for i in self._sample(len(candidates), self.d):
            server = candidates[i]
            score = (queue_len(server) + 1.0) * (
                self._ewma.get(server, 0.0) + 1e-9
            )
            if best < 0 or score < best_score:
                best, best_score = i, score
        return best


#: Router registry: sweep-axis value -> fresh-router factory.  Routers
#: are stateful (bound RNG, EWMA tables), so — like policies — the
#: registry holds factories and every run builds its own instance.
ROUTER_FACTORIES: dict[str, Callable[[], RequestRouter]] = {
    "single": SingleOwnerRouter,
    "jsq2": lambda: JSQRouter(2),
    "jsq3": lambda: JSQRouter(3),
    "wjsq2": lambda: WeightedPowerOfDRouter(2),
    "wjsq3": lambda: WeightedPowerOfDRouter(3),
}


def make_router(name: str) -> RequestRouter:
    """Build a fresh router from its registry name."""
    try:
        factory = ROUTER_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; known: "
            f"{', '.join(sorted(ROUTER_FACTORIES))}"
        ) from None
    return factory()


def pick_owner(
    router: RequestRouter,
    fileset: str,
    primary: str,
    replicas: Sequence[str],
    servers: Mapping[str, MetadataServer],
) -> tuple[int, MetadataServer | None]:
    """The (slot, server) that serves one request to ``fileset``.

    The owner set is ``primary`` at slot 0 followed by ``replicas``, all
    keys of ``servers``.  A replica equal to the primary (possible
    mid-move) is compacted out, so slots index the owner set; a dead
    member keeps its slot number.  The router is consulted only when two
    or more owners are live, so r=1 dispatch never touches it.
    ``(0, None)`` means every owner is down.
    """
    first = servers[primary]
    if not replicas:
        return 0, (first if first.alive else None)
    candidates = [(0, first)] if first.alive else []
    slot = 0
    for name in replicas:
        if name == primary:
            continue
        slot += 1
        server = servers[name]
        if server.alive:
            candidates.append((slot, server))
    if not candidates:
        return 0, None
    if len(candidates) == 1:
        return candidates[0]
    index = router.choose(
        fileset,
        [server.name for _, server in candidates],
        lambda name: servers[name].facility.queue_length,
    )
    return candidates[index]


def dispatch(
    host,
    slot: int,
    server: MetadataServer,
    request: MetadataRequest,
    multiplier: float = 1.0,
    served: Callable[[], None] | None = None,
) -> None:
    """Queue ``request`` at ``server`` and account for it at completion.

    ``host`` is the harness: its ``engine``, ``router``, ``collector``,
    ``completed`` counts and ``telemetry`` sink are read here.  The
    service time is computed once, from the cost ``multiplier`` and the
    server's current speed.  At completion ``served()`` runs first (the
    fs stack executes the operation there), then the shared accounting.
    The recorded latency is the wait, time from arrival to start of
    service.  A latency-learning router observes the response time, and
    never the server's true speed.
    """
    service_time = request.cost * multiplier / server.speed
    name = server.name
    engine = host.engine
    router = host.router

    def _completed() -> None:
        del server.outstanding[request.rid]
        if served is not None:
            served()
        now = engine.now
        response = request.complete(now)
        latency = max(response - service_time, 0.0)
        if router.observes:
            router.observe(name, response)
        host.collector.record(name, now, latency)
        host.completed[name] += 1
        sink = host.telemetry
        if sink.enabled:
            sink.emit(RequestCompleted(time=now, server=name, latency=latency))

    server.submit(request, service_time, _completed)
    sink = host.telemetry
    if sink.enabled:
        sink.emit(
            RequestDispatched(
                time=engine.now, fileset=request.fileset, server=name,
                service_time=service_time, router=router.name, replica=slot,
            )
        )
