"""The shared-disk file-system cluster simulation.

Wires together the discrete-event engine, heterogeneous metadata servers,
a placement policy, a request trace, the shared-disk file-set mover, and an
optional fault schedule — the simulator of the paper's §7, on our YACSIM
substitute.

Timeline of one run:

- trace arrivals are replayed in order; each request is routed to a live
  owner of its file set — at ``replication=1`` always the single owner, at
  higher r whichever live replica the :class:`RequestRouter` picks — and
  buffers only when every owner is down;
- every ``tuning_interval`` seconds the delegate round fires: per-server
  latency reports for the elapsed interval are computed and handed to the
  policy, whose new assignment (if any) is realized as shared-disk moves
  with flush/init delay and cold-cache penalties;
- fault events fail/recover/commission/decommission servers; queued work on
  a crashed server is re-dispatched and follows its file set through
  recovery moves.

Since the ``repro.runtime`` refactor this class is a thin adapter: arrival
scheduling, tuning cadence, and membership handling come from
:class:`repro.runtime.loop.TuningLoop` /
:class:`repro.runtime.arrivals.ArrivalPump` /
:class:`repro.membership.director.MembershipDirector` (the policy owns
its delegate's report history), and each request's dispatch and
completion from :func:`repro.runtime.routing.dispatch`, which the fs stack
shares; this module contributes only what is specific to the queueing
model (move buffering, the file-set mover, fault realization).  A
structured telemetry stream
(:mod:`repro.runtime.telemetry`) reports arrivals, dispatches,
completions, tuning decisions, moves, and faults to any sink passed in.

The simulation is a pure function of ``(config, policy, trace, faults)``:
all randomness derives from ``config.seed`` via named streams, and
telemetry is purely observational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..contracts import checks_invariants
from ..core.movement import MovementLedger, diff_assignment
from ..core.tuning import TuningDecision
from ..membership.director import MembershipDirector
from ..membership.faults import FaultEvent, FaultSchedule
from ..membership.lifecycle import MembershipRoster
from ..metrics.latency import LatencyCollector
from ..placement.base import PlacementPolicy, TuningContext, validate_assignment
from ..placement.replicated import derive_owner_sets
from ..runtime.arrivals import ArrivalPump
from ..runtime.loop import TuningLoop
from ..runtime.routing import RequestRouter, SingleOwnerRouter, dispatch, pick_owner
from ..runtime.result import SimResult, summarize_collector
from ..runtime.telemetry import (
    NULL_SINK,
    MoveFinished,
    MoveStarted,
    RequestArrived,
    TelemetrySink,
)
from ..sim.engine import Engine
from ..sim.events import PRIORITY_EARLY
from ..sim.rng import StreamFactory
from ..units import Seconds
from ..workloads.trace import Trace, TraceRecord
from .fileset import FileSetState
from .mover import FileSetMover, MoveCostModel
from .request import MetadataRequest
from .server import MetadataServer, ServerSpec


@dataclass(frozen=True)
class ClusterConfig:
    """Static configuration of a simulated cluster run."""

    servers: tuple[ServerSpec, ...]
    tuning_interval: float = 120.0
    sample_window: float = 60.0
    move_cost: MoveCostModel = field(default_factory=MoveCostModel)
    seed: int = 0
    #: How far ahead the prescient oracle looks when reading per-file-set
    #: demand (seconds).  ``None`` means one tuning interval — the right
    #: choice for non-stationary traces.  For stationary workloads set it
    #: to the trace duration: the oracle then sees the true rates instead
    #: of per-window Poisson noise, and the prescient policy "retains the
    #: same configuration for the duration of the experiment" (§7).
    oracle_horizon: float | None = None

    def __post_init__(self) -> None:
        if not self.servers:
            raise ValueError("need at least one server")
        names = [s.name for s in self.servers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate server names in {names!r}")
        if self.tuning_interval <= 0 or self.sample_window <= 0:
            raise ValueError("tuning_interval and sample_window must be positive")

    @property
    def speeds(self) -> dict[str, float]:
        return {s.name: s.speed for s in self.servers}


#: The paper's five-server heterogeneous cluster (speeds 1, 3, 5, 7, 9).
def paper_servers() -> tuple[ServerSpec, ...]:
    """Server set used throughout the paper's §7 experiments."""
    return tuple(
        ServerSpec(name=f"server{i}", speed=float(speed))
        for i, speed in enumerate([1, 3, 5, 7, 9])
    )


class RunResult(SimResult):
    """Legacy name for the queueing harness's :class:`SimResult`."""


class ClusterSimulation:
    """One simulated run of a placement policy against a trace.

    Implements :class:`repro.runtime.loop.TuningHost` (the shared
    :class:`TuningLoop` drives its delegate rounds) and
    :class:`repro.membership.director.MembershipHost` (the
    :class:`MembershipDirector` applies fault/membership events through
    the lifecycle state machine).
    """

    def __init__(
        self,
        config: ClusterConfig,
        policy: PlacementPolicy,
        trace: Trace,
        faults: FaultSchedule | None = None,
        telemetry: TelemetrySink | None = None,
        router: RequestRouter | None = None,
        replication: int = 1,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication!r}")
        self.config = config
        self.policy = policy
        self.trace = trace
        self.faults = faults or FaultSchedule()
        self.faults.validate({s.name for s in config.servers})
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        self.replication = replication
        self.router = router if router is not None else SingleOwnerRouter()

        self.engine = Engine()
        factory = StreamFactory(config.seed)
        self.mover = FileSetMover(
            self.engine, config.move_cost, factory.stream("mover")
        )
        self._policy_rng = factory.stream("policy")
        # Named stream: adding it perturbs no other stream, so r=1 runs
        # replay byte-identically even though the router is always bound.
        self.router.bind(factory.stream("request-router"))

        self.servers: dict[str, MetadataServer] = {
            spec.name: MetadataServer(self.engine, spec) for spec in config.servers
        }
        self.roster = MembershipRoster(
            {spec.name: spec.speed for spec in config.servers}
        )
        self.director = MembershipDirector(
            self.roster,
            host=self,
            telemetry=self.telemetry,
            clock=lambda: Seconds(self.engine.now),
        )
        self.collector = LatencyCollector()
        for name in self.servers:
            self.collector.ensure_server(name)
        self.ledger = MovementLedger()
        self.completed: dict[str, int] = {name: 0 for name in self.servers}
        self.retries = 0
        self.loop = TuningLoop(
            engine=self.engine,
            interval=config.tuning_interval,
            duration=trace.duration,
            host=self,
            telemetry=self.telemetry,
        )

        initial = policy.initial_assignment(
            list(trace.fileset_names), sorted(self.servers)
        )
        validate_assignment(initial, trace.fileset_names, sorted(self.servers))
        self.filesets: dict[str, FileSetState] = {
            name: FileSetState(name=name, owner=initial[name])
            for name in trace.fileset_names
        }
        #: Replica slots 1..r-1 per file set (empty at r=1).  Derived from
        #: the planned primary over the live set; refreshed whenever either
        #: changes.  Shared disk makes these pure routing-table entries —
        #: updating them moves no data.
        self._replica_owners: dict[str, tuple[str, ...]] = {}
        self._refresh_replicas()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def live_servers(self) -> list[str]:
        return self.roster.live()

    def planned_assignment(self) -> dict[str, str]:
        """Where each file set is (or is headed, if mid-move)."""
        return {
            name: (st.move_target if st.moving else st.owner)  # type: ignore[misc]
            for name, st in self.filesets.items()
        }

    def owner_sets(self) -> dict[str, tuple[str, ...]]:
        """Current owner set per file set: slot 0 is the settled owner,
        later slots the derived replicas (r=1 yields 1-tuples)."""
        return {
            name: (
                state.owner,
                *(
                    s
                    for s in self._replica_owners.get(name, ())
                    if s != state.owner
                ),
            )
            for name, state in self.filesets.items()
        }

    def _refresh_replicas(self) -> None:
        """Re-derive replica slots from the planned primary + live set.

        Called after initial assignment and after every realize (tuning or
        membership).  At r=1 this is a constant-time no-op, preserving the
        classic single-owner run exactly.
        """
        if self.replication == 1:
            return
        owner_sets = derive_owner_sets(
            self.planned_assignment(),
            self.live_servers,
            self.replication,
            placement=getattr(self.policy, "placement", None),
        )
        self._replica_owners = {
            name: owners[1:] for name, owners in owner_sets.items()
        }

    def check_invariants(self) -> None:
        """Assert ownership uniqueness and referential integrity.

        Every file set in the trace has exactly one state entry; its owner
        (and in-flight move target, if any) name a registered server.  A
        dead owner is legal — requests buffer until the recovery move — but
        an owner that was never commissioned is a routing bug.
        """
        if set(self.filesets) != set(self.trace.fileset_names):
            raise ValueError(
                "file-set states do not match the trace universe: "
                f"{sorted(set(self.filesets) ^ set(self.trace.fileset_names))}"
            )
        for name, state in self.filesets.items():
            if state.name != name:
                raise ValueError(f"state for {name!r} claims name {state.name!r}")
            if state.owner not in self.servers:
                raise ValueError(
                    f"{name!r} owned by unregistered server {state.owner!r}"
                )
            if state.moving:
                if state.move_target not in self.servers:
                    raise ValueError(
                        f"{name!r} moving to unregistered server "
                        f"{state.move_target!r}"
                    )
            elif state.move_target is not None:
                raise ValueError(
                    f"{name!r} is settled but records move target "
                    f"{state.move_target!r}"
                )
            for replica in self._replica_owners.get(name, ()):
                if replica not in self.servers:
                    raise ValueError(
                        f"{name!r} lists unregistered replica {replica!r}"
                    )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the full trace, then drain queues; returns the results."""
        self.loop.start()
        return self._replay()

    def _replay(self) -> RunResult:
        """:meth:`run` without the tuning loop, for the protocol-driven
        cluster, whose elected delegate tunes instead."""
        pump = ArrivalPump(
            self.engine,
            self.trace.records(),
            self._on_arrival,
            time_of=lambda record: record.time,
        )
        pump.start()
        for ev in self.faults:
            self.engine.schedule_at(
                ev.time, self._on_fault, ev, priority=PRIORITY_EARLY
            )
        self.engine.run(until=self.trace.duration)
        self.engine.run()  # drain: arrivals are done, tuning stops rescheduling
        return self._result()

    # ------------------------------------------------------------------
    # Arrivals and service
    # ------------------------------------------------------------------
    def _on_arrival(self, record: TraceRecord) -> None:
        request = MetadataRequest(
            arrival=record.time, fileset=record.fileset, cost=record.cost
        )
        sink = self.telemetry
        if sink.enabled:
            sink.emit(
                RequestArrived(
                    time=self.engine.now, fileset=record.fileset, cost=record.cost
                )
            )
        self._route(request)

    def _route(self, request: MetadataRequest) -> None:
        fileset = request.fileset
        state = self.filesets[fileset]
        # During a planned move the source keeps serving (ownership hands
        # over at flush completion); a request buffers only when *every*
        # owner of its file set is down.
        slot, server = pick_owner(
            self.router, fileset, state.owner,
            self._replica_owners.get(fileset, ()), self.servers,
        )
        if server is None:
            state.buffer.append(request)
            return
        multiplier = state.next_cost_multiplier(self.config.move_cost.cold_multiplier)
        dispatch(self, slot, server, request, multiplier)

    # ------------------------------------------------------------------
    # Tuning rounds (TuningHost protocol, driven by self.loop)
    # ------------------------------------------------------------------
    def build_tuning_context(self, now: float, interval: float) -> TuningContext:
        """This round's context: live servers, window reports, oracle."""
        live = self.live_servers
        return TuningContext(
            time=now,
            filesets=list(self.trace.fileset_names),
            servers=live,
            assignment=self.planned_assignment(),
            reports=self.collector.reports(live, now - interval, now),
            # Nominal spec speeds, deliberately NOT effective speeds: a
            # gray failure is invisible to the policies — speed-aware
            # ones (prescient, two-choice) keep planning with the
            # registered capacity, and only observed latency can betray
            # a limping server.
            server_speeds={n: self.servers[n].base_speed for n in live},
            oracle_demand=self.trace.demand_by_fileset(
                now, now + (self.config.oracle_horizon or interval)
            ),
            rng=self._policy_rng,
        )

    def decide(
        self, context: TuningContext
    ) -> tuple[dict[str, str] | None, TuningDecision | None]:
        """Ask the placement policy for a new (validated) assignment."""
        new_assignment = self.policy.update(context)
        if new_assignment is not None:
            validate_assignment(
                new_assignment, self.trace.fileset_names, list(context.servers)
            )
        return new_assignment, None

    @checks_invariants
    def realize(self, old: Mapping[str, str], new: Mapping[str, str]) -> None:
        """Turn an assignment change into shared-disk moves."""
        diff = diff_assignment(old, new)
        self.ledger.record(diff)
        sink = self.telemetry
        for move in diff.moves:
            state = self.filesets[move.fileset]
            if sink.enabled:
                sink.emit(
                    MoveStarted(
                        time=self.engine.now,
                        fileset=move.fileset,
                        source=move.source,
                        destination=move.destination,
                    )
                )
            if state.moving:
                state.redirect_move(move.destination)
            else:
                self.mover.start_move(state, move.destination, self._on_move_done)
        # Replica slots follow the new primary plan instantly: shared disk
        # means a replica-slot change is a routing-table update, not a move.
        self._refresh_replicas()

    def _on_move_done(
        self, state: FileSetState, drained: list[MetadataRequest]
    ) -> None:
        sink = self.telemetry
        if sink.enabled:
            sink.emit(
                MoveFinished(
                    time=self.engine.now,
                    fileset=state.name,
                    destination=state.owner,
                )
            )
        owner = self.servers.get(state.owner)
        if owner is None or not owner.alive:
            # Destination died while the move was in flight; the fault
            # handler has already retargeted other file sets — re-route this
            # one to wherever the policy now wants it.
            target = self.planned_assignment()[state.name]
            if target != state.owner and not state.moving:
                state.buffer.extend(drained)
                if sink.enabled:
                    sink.emit(
                        MoveStarted(
                            time=self.engine.now,
                            fileset=state.name,
                            source=state.owner,
                            destination=target,
                        )
                    )
                self.mover.start_move(state, target, self._on_move_done)
                return
        for request in sorted(drained, key=lambda r: (r.arrival, r.rid)):
            self._route(request)

    # ------------------------------------------------------------------
    # Faults and membership (MembershipHost protocol, driven by director)
    # ------------------------------------------------------------------
    @checks_invariants
    def _on_fault(self, event: FaultEvent) -> None:
        self.director.apply(event)

    def crash_server(self, server: str, now: Seconds) -> list[MetadataRequest]:
        """Hard-kill ``server``; queued work is orphaned for re-dispatch."""
        orphans = self.servers[server].fail()
        self.retries += len(orphans)
        return orphans

    def drain_server(self, server: str, now: Seconds) -> None:
        """Graceful: stop routing new work there (membership change moves
        its file sets away); the queue drains naturally."""
        self.servers[server].drain()

    def restart_server(self, server: str, now: Seconds) -> None:
        """A failed/drained server rejoins with an empty, cold facility."""
        self.servers[server].recover()

    @checks_invariants
    def install_server(self, server: str, speed: float, now: Seconds) -> None:
        """Register a newly commissioned server (membership change follows)."""
        spec = ServerSpec(name=server, speed=speed)
        self.servers[spec.name] = MetadataServer(self.engine, spec)
        self.collector.ensure_server(spec.name)
        self.completed.setdefault(spec.name, 0)

    def set_speed(self, server: str, factor: float, now: Seconds) -> None:
        """Gray failure: ``server`` serves new work at ``factor`` of its
        spec speed (1.0 restores it).  No routing state changes — the
        limp is observable only through rising latencies."""
        self.servers[server].set_degradation(factor)

    def delegate_failover(self, now: Seconds) -> None:
        """The tuning delegate fails over: history dies with it (the
        queueing model elects no concrete node, so no server crashes)."""
        fail_delegate = getattr(self.policy, "fail_delegate", None)
        if fail_delegate is not None:
            fail_delegate()
        return None

    def membership_assignment(self) -> tuple[dict[str, str], dict[str, str]]:
        """(old, new) assignments after the server set changed."""
        live = self.live_servers
        old = self.planned_assignment()
        new = self.policy.on_membership_change(
            list(self.trace.fileset_names), live, old
        )
        validate_assignment(new, self.trace.fileset_names, live)
        return old, new

    def realize_membership(
        self, old: dict[str, str], new: dict[str, str], now: Seconds
    ) -> None:
        """Membership-triggered moves realize exactly like tuning moves."""
        self.realize(old, new)

    def reinject(self, orphans: list[MetadataRequest], now: Seconds) -> None:
        """Re-dispatch crash orphans (after re-placement, so they follow
        their file sets to the new owners)."""
        for request in orphans:
            self._route(request)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _result(self) -> RunResult:
        duration = self.trace.duration
        series, mean_latency, total = summarize_collector(
            self.collector, duration, self.config.sample_window, self.completed
        )
        return RunResult(
            policy_name=self.policy.name,
            duration=duration,
            series=series,
            ledger=self.ledger,
            completed=dict(self.completed),
            utilization={
                name: server.facility.monitor.utilization(self.engine.now)
                for name, server in self.servers.items()
            },
            mean_latency=mean_latency,
            total_requests=total,
            moves_started=self.mover.moves_started,
            moves_completed=self.mover.moves_completed,
            retries=self.retries,
            final_assignment=self.planned_assignment(),
            tuning_rounds=self.loop.rounds,
            collector=self.collector,
        )
