"""Stochastic fault injection: seeded chaos schedules for any harness.

Hand-written :class:`~repro.membership.faults.FaultSchedule`\\ s cover the
scenarios we thought of; the ROADMAP's robustness goal ("as many scenarios
as you can imagine") needs the ones we didn't.  :class:`FaultInjector`
generates *valid* random schedules from per-server failure/repair
processes plus commission/decommission churn — the same stochastic
availability methodology Chain Replication uses for its failure/repair
evaluations — while staying a pure function of ``(servers, profile,
seed)``:

- every server draws its times to failure and to repair from **its own
  named stream** (:class:`~repro.sim.rng.StreamFactory`), so adding a
  server to the fleet never perturbs another server's fault trajectory;
- churn (decommissions, commissions, delegate crashes) draws from a
  shared ``churn`` stream;
- the generator replays every candidate event through the
  :class:`~repro.membership.lifecycle.MembershipRoster` state machine,
  skipping candidates that would be illegal (a fail below ``min_live``,
  a delegate crash without a successor), so the schedule always passes
  :meth:`FaultSchedule.validate`;
- commission churn prefers *recovering* a previously drained server over
  inventing a new one half the time, exercising the documented
  recover-after-decommission semantics.

:meth:`FaultInjector.generate` materializes the whole schedule up front
(it feeds any harness's ``faults=`` parameter; it is what
:class:`~repro.runtime.scenario.Scenario` uses), and
:meth:`FaultInjector.events` yields the same sequence lazily.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from ..sim.rng import StreamFactory
from ..units import Seconds
from .faults import FaultEvent, FaultKind, FaultSchedule, apply_event
from .lifecycle import MembershipRoster, ServerState

__all__ = [
    "ChaosProfile",
    "FaultInjector",
    "CRASH_ONLY",
    "FULL_CHURN",
    "LIMP_ONLY",
    "LIMP_CHURN",
]


@dataclass(frozen=True)
class ChaosProfile:
    """Rates of the stochastic fault processes (all times in seconds).

    ``None`` disables a process.  ``mttf``/``mttr`` are per-server
    exponential means (time to failure while up, time to repair while
    down); the ``*_every`` fields are exponential means between churn
    events for the whole cluster.
    """

    mttf: Seconds | None = Seconds(300.0)
    mttr: Seconds = Seconds(60.0)
    decommission_every: Seconds | None = None
    commission_every: Seconds | None = None
    delegate_crash_every: Seconds | None = None
    #: Speed of newly commissioned servers, drawn uniformly.
    commission_speed: tuple[float, float] = (1.0, 9.0)
    #: Never drop below this many live servers (>= 1).
    min_live: int = 2
    #: Cap on brand-new servers the injector may invent.
    max_commissions: int = 8
    # -- gray failures (limp profiles) ---------------------------------
    #: Per-server exponential mean time to degradation onset while up and
    #: healthy (the limp-detection literature's MTTD); None disables
    #: gray failures entirely, reproducing the fail-stop-only schedules
    #: bit for bit.
    degrade_mttd: Seconds | None = None
    #: Exponential mean duration of a sustained limp before it lifts.
    degrade_mttrestore: Seconds = Seconds(120.0)
    #: Degradation factor of a fresh limp, drawn uniformly from
    #: [low, high) — both strictly inside (0, 1) so every DEGRADE is a
    #: real slowdown with a legal later RESTORE.
    degrade_factor: tuple[float, float] = (0.1, 0.5)
    #: Probability a limp is a slow-then-dead ramp (factor halves each
    #: step until the server finally crashes) instead of sustained.
    slow_then_dead: float = 0.0
    #: Worsening steps in a slow-then-dead ramp before the crash.
    ramp_steps: int = 3
    #: Exponential mean between ramp steps.
    ramp_step_every: Seconds = Seconds(30.0)
    #: I/O-contention coupling: probability that a fresh limp also
    #: degrades each other healthy sharer of the shared disk.
    couple_probability: float = 0.0
    #: Fraction of the primary's slowdown passed to coupled sharers
    #: (their factor is ``1 - (1 - primary_factor) * couple_strength``).
    couple_strength: float = 0.5

    def __post_init__(self) -> None:
        for name in ("mttf", "decommission_every", "commission_every",
                     "delegate_crash_every", "degrade_mttd"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("mttr", "degrade_mttrestore", "ramp_step_every"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.min_live < 1:
            raise ValueError(f"min_live must be >= 1, got {self.min_live!r}")
        if self.max_commissions < 0:
            raise ValueError("max_commissions must be >= 0")
        low, high = self.commission_speed
        if not 0 < low <= high:
            raise ValueError(
                f"need 0 < low <= high commission speed, got "
                f"{self.commission_speed!r}"
            )
        low, high = self.degrade_factor
        if not 0.0 < low <= high < 1.0:
            raise ValueError(
                f"need 0 < low <= high < 1 degrade factor, got "
                f"{self.degrade_factor!r}"
            )
        for name in ("slow_then_dead", "couple_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if not 0.0 < self.couple_strength <= 1.0:
            raise ValueError(
                f"couple_strength must be in (0, 1], got "
                f"{self.couple_strength!r}"
            )
        if self.ramp_steps < 1:
            raise ValueError(
                f"ramp_steps must be >= 1, got {self.ramp_steps!r}"
            )


#: A profile that only crashes and repairs (no churn): pure availability.
CRASH_ONLY = ChaosProfile()

#: Heavy churn: crashes, repairs, commissions and decommissions all active.
FULL_CHURN = ChaosProfile(
    mttf=Seconds(240.0),
    mttr=Seconds(45.0),
    decommission_every=Seconds(400.0),
    commission_every=Seconds(350.0),
    delegate_crash_every=Seconds(500.0),
)

#: Pure gray failures: no crashes, only sustained limps on a stable fleet.
LIMP_ONLY = ChaosProfile(
    mttf=None,
    degrade_mttd=Seconds(150.0),
    degrade_mttrestore=Seconds(90.0),
    degrade_factor=(0.1, 0.5),
)

#: The full gray-failure zoo layered over crash/repair churn: sustained
#: limps, slow-then-dead ramps, and I/O-contention coupling.
LIMP_CHURN = ChaosProfile(
    mttf=Seconds(400.0),
    mttr=Seconds(60.0),
    degrade_mttd=Seconds(180.0),
    degrade_mttrestore=Seconds(120.0),
    degrade_factor=(0.15, 0.6),
    slow_then_dead=0.25,
    ramp_steps=3,
    ramp_step_every=Seconds(20.0),
    couple_probability=0.3,
    couple_strength=0.5,
)


# Candidate-queue tags; the tuple ordering (time, tag, server) makes the
# pop order — and therefore the whole schedule — deterministic.  The
# gray-failure tags sort after the fail-stop ones at equal times, so
# enabling them never reorders a fail-stop candidate.
_FAIL, _RECOVER, _DECOM, _COMMISSION, _DCRASH = (
    "a-fail", "b-recover", "c-decommission", "d-commission", "e-dcrash",
)
_DEGRADE, _RESTORE, _RAMP = ("f-degrade", "g-restore", "h-ramp")


class FaultInjector:
    """Seeded generator of valid random membership-event schedules."""

    def __init__(
        self,
        servers: Mapping[str, float],
        profile: ChaosProfile | None = None,
        seed: int = 0,
    ) -> None:
        """``servers``: the initial fleet, name -> speed."""
        if not servers:
            raise ValueError("need at least one initial server")
        self.servers = dict(servers)
        self.profile = profile if profile is not None else CRASH_ONLY
        self.seed = seed
        if self.profile.min_live > len(servers):
            raise ValueError(
                f"min_live={self.profile.min_live} exceeds the initial "
                f"fleet of {len(servers)}"
            )
        self._streams = StreamFactory(seed).spawn("fault-injector")

    # ------------------------------------------------------------------
    def generate(self, horizon: Seconds) -> FaultSchedule:
        """The full schedule over ``[0, horizon)``; valid by construction
        and identical on every call with the same constructor arguments."""
        schedule = FaultSchedule()
        for event in self.events(horizon):
            schedule.add(event)
        return schedule

    # ------------------------------------------------------------------
    def events(self, horizon: Seconds) -> Iterator[FaultEvent]:
        """Lazily yield the schedule's events in time order."""
        profile = self.profile
        roster = MembershipRoster(self.servers)
        server_rng = {
            name: self._streams.stream(f"server:{name}")
            for name in sorted(self.servers)
        }
        churn = self._streams.stream("churn")
        commissioned = 0

        # Candidate heap of (time, tag, server, limp-generation); invalid
        # candidates are re-drawn or dropped when popped, against the
        # live roster.  ``gen`` is 0 for every fail-stop tag; limp tags
        # carry the per-server limp generation so a crash that cuts a
        # limp short invalidates that limp's stale ramp/restore entries.
        heap: list[tuple[float, str, str, int]] = []
        #: Per-server limp generation (bumped at every onset and at
        #: every abnormal limp end).
        limp_gen: dict[str, int] = {}
        #: Remaining worsening steps of an active slow-then-dead ramp.
        ramp_left: dict[str, int] = {}
        #: sharer -> the primary whose I/O contention degraded it; the
        #: record goes when the sharer fails, leaves or is restored, so a
        #: primary releases only sharers its own limp still holds.
        coupled_to: dict[str, str] = {}

        def draw(rng, mean: Seconds) -> Seconds:
            return Seconds(float(rng.exponential(mean)))

        def push_fail(name: str, now: Seconds) -> None:
            if profile.mttf is not None:
                heapq.heappush(
                    heap, (now + draw(server_rng[name], profile.mttf),
                           _FAIL, name, 0)
                )

        def push_recover(name: str, now: Seconds) -> None:
            heapq.heappush(
                heap, (now + draw(server_rng[name], profile.mttr),
                       _RECOVER, name, 0)
            )

        def push_churn(tag: str, mean: Seconds | None, now: Seconds) -> None:
            if mean is not None:
                heapq.heappush(heap, (now + draw(churn, mean), tag, "*", 0))

        def push_degrade(name: str, now: Seconds) -> None:
            if profile.degrade_mttd is not None:
                heapq.heappush(
                    heap, (now + draw(server_rng[name], profile.degrade_mttd),
                           _DEGRADE, name, 0)
                )

        def release_coupled(primary: str, now: Seconds) -> list[FaultEvent]:
            """The contention source is gone; its sharers' limps lift."""
            sharers = [s for s, p in coupled_to.items() if p == primary]
            for other in sharers:
                del coupled_to[other]
            return [FaultEvent(now, FaultKind.RESTORE, s) for s in sharers]

        def end_limp(name: str, now: Seconds) -> list[FaultEvent]:
            """A crash/decommission cut ``name``'s limp short: invalidate
            its pending ramp/restore entries, free its sharers, and drop
            its own record if it was a sharer."""
            limp_gen[name] = limp_gen.get(name, 0) + 1
            ramp_left.pop(name, None)
            coupled_to.pop(name, None)
            return release_coupled(name, now)

        for name in sorted(self.servers):
            push_fail(name, Seconds(0.0))
            push_degrade(name, Seconds(0.0))
        push_churn(_DECOM, profile.decommission_every, Seconds(0.0))
        push_churn(_COMMISSION, profile.commission_every, Seconds(0.0))
        push_churn(_DCRASH, profile.delegate_crash_every, Seconds(0.0))

        while heap:
            time, tag, name, gen = heapq.heappop(heap)
            now = Seconds(time)
            if now >= horizon:
                break
            out: list[FaultEvent] = []
            if tag == _FAIL:
                if (
                    roster.is_live(name)
                    and roster.live_count > profile.min_live
                ):
                    out.append(FaultEvent(now, FaultKind.FAIL, name))
                    out.extend(end_limp(name, now))
                    push_recover(name, now)
                elif roster.is_live(name):
                    # Too few live servers to lose one; try again later.
                    push_fail(name, now)
            elif tag == _RECOVER:
                if roster.state_of(name) is ServerState.DOWN:
                    out.append(FaultEvent(now, FaultKind.RECOVER, name))
                    push_fail(name, now)
                    push_degrade(name, now)
            elif tag == _DECOM:
                push_churn(_DECOM, profile.decommission_every, now)
                candidates = (
                    roster.live()
                    if roster.live_count > profile.min_live else []
                )
                if candidates:
                    victim = candidates[int(churn.integers(len(candidates)))]
                    out.append(FaultEvent(now, FaultKind.DECOMMISSION, victim))
                    out.extend(end_limp(victim, now))
            elif tag == _COMMISSION:
                push_churn(_COMMISSION, profile.commission_every, now)
                drained = [
                    s for s in roster.known()
                    if roster.state_of(s) is ServerState.DRAINING
                ]
                if drained and float(churn.random()) < 0.5:
                    # Exercise recover-after-decommission: bring a drained
                    # server back instead of inventing a new one.
                    name = drained[int(churn.integers(len(drained)))]
                    out.append(FaultEvent(now, FaultKind.RECOVER, name))
                    push_fail(name, now)
                    push_degrade(name, now)
                elif commissioned < profile.max_commissions:
                    low, high = profile.commission_speed
                    speed = float(churn.uniform(low, high))
                    fresh = f"chaos{commissioned}"
                    commissioned += 1
                    server_rng[fresh] = self._streams.stream(
                        f"server:{fresh}"
                    )
                    out.append(
                        FaultEvent(now, FaultKind.COMMISSION, fresh,
                                   speed=speed)
                    )
                    push_fail(fresh, now)
                    push_degrade(fresh, now)
            elif tag == _DCRASH:
                push_churn(_DCRASH, profile.delegate_crash_every, now)
                if roster.live_count >= 2:
                    out.append(FaultEvent(now, FaultKind.DELEGATE_CRASH, "*"))
            elif tag == _DEGRADE:
                out.extend(self._limp_onset(
                    roster, server_rng, name, now,
                    limp_gen, ramp_left, coupled_to, heap, push_degrade,
                ))
            elif tag == _RESTORE:
                if limp_gen.get(name, 0) == gen:
                    if roster.is_live(name) and roster.is_degraded(name):
                        out.append(FaultEvent(now, FaultKind.RESTORE, name))
                    out.extend(release_coupled(name, now))
                    push_degrade(name, now)
            elif tag == _RAMP:
                if limp_gen.get(name, 0) == gen and roster.is_live(name):
                    steps = ramp_left.get(name, 0)
                    if steps > 0:
                        ramp_left[name] = steps - 1
                        factor = roster.degradation_of(name) * 0.5
                        out.append(
                            FaultEvent(now, FaultKind.DEGRADE, name,
                                       factor=factor)
                        )
                        heapq.heappush(
                            heap,
                            (now + draw(server_rng[name],
                                        profile.ramp_step_every),
                             _RAMP, name, gen),
                        )
                    elif roster.live_count > profile.min_live:
                        # The ramp bottoms out: the limping server dies.
                        out.append(FaultEvent(now, FaultKind.FAIL, name))
                        out.extend(end_limp(name, now))
                        push_recover(name, now)
                    else:
                        # Cannot afford to lose a server: the ramp ends
                        # in a restore instead of the crash.
                        if roster.is_degraded(name):
                            out.append(
                                FaultEvent(now, FaultKind.RESTORE, name)
                            )
                        out.extend(end_limp(name, now))
                        push_degrade(name, now)
            for event in out:
                apply_event(roster, event)
                yield event

    def _limp_onset(
        self,
        roster: MembershipRoster,
        server_rng: dict,
        name: str,
        now: Seconds,
        limp_gen: dict[str, int],
        ramp_left: dict[str, int],
        coupled_to: dict[str, str],
        heap: list,
        push_degrade: Callable[[str, Seconds], None],
    ) -> list[FaultEvent]:
        """Handle a degradation-onset candidate popping for ``name``.

        Draws (factor, ramp-vs-sustained, coupling picks) from the
        server's own stream, so fail-stop trajectories of other servers
        are unperturbed.  Returns the DEGRADE events to apply (primary
        first, coupled sharers in sorted order), having pushed the
        follow-up ramp/restore candidate.
        """
        profile = self.profile
        if not roster.is_live(name):
            return []  # dropped; recover/commission restarts the process
        if roster.is_degraded(name):
            push_degrade(name, now)  # already limping; try again later
            return []
        rng = server_rng[name]
        low, high = profile.degrade_factor
        factor = float(rng.uniform(low, high))
        is_ramp = (
            profile.slow_then_dead > 0.0
            and float(rng.random()) < profile.slow_then_dead
        )
        gen = limp_gen[name] = limp_gen.get(name, 0) + 1
        out = [FaultEvent(now, FaultKind.DEGRADE, name, factor=factor)]
        if is_ramp:
            ramp_left[name] = profile.ramp_steps
            heapq.heappush(
                heap,
                (now + Seconds(float(rng.exponential(
                    profile.ramp_step_every))), _RAMP, name, gen),
            )
        else:
            heapq.heappush(
                heap,
                (now + Seconds(float(rng.exponential(
                    profile.degrade_mttrestore))), _RESTORE, name, gen),
            )
        if profile.couple_probability > 0.0:
            # I/O contention on the shared disk: the limping server's
            # retries slow co-located sharers down too, milder.
            coupled_factor = 1.0 - (1.0 - factor) * profile.couple_strength
            for other in roster.live():
                if other == name or roster.is_degraded(other):
                    continue
                if float(rng.random()) < profile.couple_probability:
                    out.append(
                        FaultEvent(now, FaultKind.DEGRADE, other,
                                   factor=coupled_factor)
                    )
                    coupled_to[other] = name
        return out
