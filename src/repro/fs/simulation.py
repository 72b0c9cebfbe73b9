"""Full-system simulation: timed execution of real metadata operations.

The queueing simulator (:mod:`repro.cluster`) times abstract requests; the
semantic cluster (:mod:`repro.fs.cluster`) executes real operations
untimed.  This module combines them on one engine:

- every operation queues at its owner's FIFO facility (service time =
  op cost / server speed) and executes against the *real* namespace when
  service completes;
- the delegate round runs every tuning interval on observed waits;
- reconfiguration moves are timed: the share rescale happens immediately,
  but each file set's ownership transfers only after the 5-10 s
  flush/initialize delay, during which the source keeps serving — and the
  image really travels over the shared disk.

Since the ``repro.runtime`` refactor, round cadence and report history
belong to the shared :class:`~repro.runtime.loop.TuningLoop`; this module
implements its host protocol (decision = a raw
:class:`~repro.core.tuning.DelegateTuner`, realize = delayed
shared-disk ownership transfers) and emits the structured telemetry
stream.  Scheduling is replicated exactly, so seeded runs replay
bit-identically through the refactor.

The result is the strongest correctness statement in the repository: under
a timed, tuned, reconfiguring run, every operation still executes exactly
once on the file set's owner, and the final namespace state equals the
untimed replay of the same operation stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.movement import MovementLedger, ReconfigDiff, diff_assignment
from ..core.tuning import DelegateTuner, ServerReport, TuningConfig, TuningDecision
from ..metrics.latency import LatencyCollector
from ..placement.base import TuningContext
from ..runtime.arrivals import schedule_all
from ..runtime.loop import TuningLoop
from ..runtime.routing import RequestRouter, SingleOwnerRouter, pick_owner
from ..runtime.result import SimResult, summarize_collector
from ..runtime.telemetry import (
    NULL_SINK,
    MoveFinished,
    MoveStarted,
    RequestArrived,
    RequestCompleted,
    RequestDispatched,
    TelemetrySink,
)
from ..sim.engine import Engine
from ..sim.resources import Facility
from ..sim.rng import StreamFactory
from .cluster import MetadataCluster
from .ops import MEAN_WEIGHT, Operation, OpResult


@dataclass(frozen=True)
class FullSystemConfig:
    """Parameters of a timed full-system run."""

    server_speeds: dict[str, float]
    fileset_roots: dict[str, str]
    tuning_interval: float = 120.0
    sample_window: float = 60.0
    mean_op_cost: float = 0.1  # speed-1 seconds for a mean-weight op
    move_delay_min: float = 5.0
    move_delay_max: float = 10.0
    seed: int = 0
    #: Owner-set size.  Replication here is routing-plane only: operations
    #: still *execute* on the authoritative slot-0 owner (exactly-once and
    #: the namespace-consistency check both depend on it); a replica serves
    #: the request off the shared-disk image, so queueing/wait accounting
    #: lands on the replica's facility.
    replication: int = 1

    def __post_init__(self) -> None:
        if not self.server_speeds:
            raise ValueError("need at least one server")
        if any(v <= 0 for v in self.server_speeds.values()):
            raise ValueError("speeds must be positive")
        if not 0 <= self.move_delay_min <= self.move_delay_max:
            raise ValueError("need 0 <= move_delay_min <= move_delay_max")
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication!r}"
            )


@dataclass
class FullSystemResult(SimResult):
    """The timed harness's :class:`SimResult`, plus the live namespace.

    ``total_requests`` counts operations *served* (including failed
    executions), so ``total_requests - ops_failed`` executed successfully.
    """

    cluster: MetadataCluster | None = None
    ops_failed: int = 0
    failures: list[tuple[Operation, str]] = field(default_factory=list)


class FullSystemSimulation:
    """Timed, tuned, reconfiguring execution of an operation stream.

    Implements :class:`repro.runtime.loop.TuningHost`; the shared
    :class:`TuningLoop` drives its delegate rounds.
    """

    def __init__(
        self,
        config: FullSystemConfig,
        operations: list[Operation],
        tuning: TuningConfig | None = None,
        telemetry: TelemetrySink | None = None,
        router: RequestRouter | None = None,
    ) -> None:
        self.config = config
        self.operations = sorted(operations, key=lambda o: o.time)
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        self.router = router if router is not None else SingleOwnerRouter()
        self.engine = Engine()
        factory = StreamFactory(config.seed)
        self._move_rng = factory.stream("fs-sim-mover")
        #: Explicit policy stream (satisfies the deterministic-RNG contract
        #: of TuningContext; the delegate tuner itself draws nothing).
        self._tuning_rng = factory.stream("fs-sim-tuning")
        # Named stream: binding it perturbs no other stream, so r=1 runs
        # replay byte-identically whether or not a router was passed.
        self.router.bind(factory.stream("fs-sim-router"))
        self.cluster = MetadataCluster(
            sorted(config.server_speeds), config.fileset_roots, tuning=tuning
        )
        self.tuner = DelegateTuner(tuning)
        self.facilities = {
            name: Facility(self.engine, name)
            for name in config.server_speeds
        }
        self.collector = LatencyCollector()
        for name in config.server_speeds:
            self.collector.ensure_server(name)
        self.ops_failed = 0
        self.moves = 0
        self.moves_started = 0
        self.completed: dict[str, int] = {
            name: 0 for name in sorted(config.server_speeds)
        }
        self.ledger = MovementLedger()
        self.failures: list[tuple[Operation, str]] = []
        self._moving: set[str] = set()
        self._duration = (
            self.operations[-1].time if self.operations else 0.0
        )
        self.loop = TuningLoop(
            engine=self.engine,
            interval=config.tuning_interval,
            duration=self._duration,
            host=self,
            telemetry=self.telemetry,
        )

    @property
    def tuning_rounds(self) -> int:
        """Delegate rounds run so far (owned by the shared loop)."""
        return self.loop.rounds

    # ------------------------------------------------------------------
    def run(self) -> FullSystemResult:
        """Execute the operation stream; returns the results."""
        schedule_all(
            self.engine, self.operations, self._on_arrival,
            time_of=lambda op: op.time,
        )
        if self._duration > 0:
            self.loop.start(min(self.config.tuning_interval, self._duration))
        self.engine.run()
        duration = max(self._duration, self.engine.now, 1e-9)
        series, mean_latency, total = summarize_collector(
            self.collector, duration, self.config.sample_window, self.completed
        )
        return FullSystemResult(
            policy_name="anu-delegate",
            duration=duration,
            series=series,
            ledger=self.ledger,
            completed=dict(self.completed),
            utilization={
                name: facility.monitor.utilization(self.engine.now)
                for name, facility in self.facilities.items()
            },
            mean_latency=mean_latency,
            total_requests=total,
            moves_started=self.moves_started,
            moves_completed=self.moves,
            retries=0,
            final_assignment=self.cluster.ownership(),
            tuning_rounds=self.loop.rounds,
            collector=self.collector,
            cluster=self.cluster,
            ops_failed=self.ops_failed,
            failures=self.failures,
        )

    # ------------------------------------------------------------------
    def _on_arrival(self, op: Operation) -> None:
        fileset = self.cluster.registry.fileset_of(op.path)
        owner = self.cluster.owner_of(fileset)
        slot, server = self._pick_server(fileset, owner)
        speed = self.config.server_speeds[server]
        cost = self.config.mean_op_cost * op.op.weight / MEAN_WEIGHT
        arrival = self.engine.now
        sink = self.telemetry
        if sink.enabled:
            sink.emit(RequestArrived(time=arrival, fileset=fileset, cost=cost))

        def _serve() -> None:
            # Execute on whoever owns the file set NOW — ownership may have
            # moved while the op queued; the shared-disk image moved with
            # it, so execution remains correct either way.  The op queues
            # and is timed at the routed replica, but semantically executes
            # through the authoritative owner (ownership fencing).
            result = self._execute(op)
            wait = max(self.engine.now - arrival - cost / speed, 0.0)
            if self.router.observes:
                self.router.observe(server, self.engine.now - arrival)
            self.collector.record(server, self.engine.now, wait)
            self.completed[server] += 1
            if not result.ok:
                self.ops_failed += 1
                self.failures.append((op, result.error or "?"))
            if sink.enabled:
                sink.emit(
                    RequestCompleted(
                        time=self.engine.now, server=server, latency=wait
                    )
                )

        self.facilities[server].request(cost / speed, _serve)
        if sink.enabled:
            sink.emit(
                RequestDispatched(
                    time=arrival, fileset=fileset, server=server,
                    service_time=cost / speed,
                    router=self.router.name, replica=slot,
                )
            )

    def _pick_server(self, fileset: str, owner: str) -> tuple[int, str]:
        """The (slot, server) that serves this operation.

        At ``replication=1`` this is the authoritative owner; at higher r
        the router picks among the file set's owner set (restricted to
        servers with facilities).
        """
        replication = self.config.replication
        replicas = (
            self.cluster.owner_set_of(fileset, replication)[1:]
            if replication > 1 else ()
        )
        slot, server = pick_owner(
            self.router,
            fileset,
            owner,
            replicas,
            self.facilities.__contains__,
            self._queue_length,
        )
        return slot, owner if server is None else server

    def _queue_length(self, name: str) -> int:
        return self.facilities[name].queue_length

    def _execute(self, op: Operation) -> OpResult:
        _server, result = self.cluster.submit(
            Operation(op=op.op, path=op.path, client=op.client,
                      time=self.engine.now, args=op.args)
        )
        return result

    # ------------------------------------------------------------------
    # Tuning rounds (TuningHost protocol, driven by self.loop)
    # ------------------------------------------------------------------
    def build_tuning_context(
        self,
        now: float,
        interval: float,
        previous_reports: Sequence[ServerReport] | None,
    ) -> TuningContext:
        """This round's context: window reports over the static fleet."""
        servers = sorted(self.config.server_speeds)
        return TuningContext(
            time=now,
            filesets=list(self.cluster.registry.filesets),
            servers=servers,
            assignment=self.cluster.ownership(),
            reports=self.collector.reports(servers, now - interval, now),
            previous_reports=previous_reports,
            server_speeds=dict(self.config.server_speeds),
            rng=self._tuning_rng,
        )

    def decide(
        self, context: TuningContext
    ) -> tuple[dict[str, str] | None, TuningDecision | None]:
        """One delegate-tuner round; rescales shares when it tunes."""
        previous = (
            list(context.previous_reports)
            if context.previous_reports is not None
            else None
        )
        decision = self.tuner.compute(
            self.cluster.placement.shares(), list(context.reports), previous
        )
        if not decision.tuned:
            return None, decision
        placement = self.cluster.placement
        placement.set_shares(decision.new_shares)
        placement.check_invariants()
        return placement.assignment(self.cluster.registry.filesets), decision

    def realize(self, old: dict[str, str], new: dict[str, str]) -> None:
        """Schedule delayed shared-disk transfers for the assignment diff."""
        diff = diff_assignment(old, new)
        sink = self.telemetry
        started = []
        for move in diff.moves:
            if move.fileset in self._moving:
                continue
            self._moving.add(move.fileset)
            started.append(move)
            delay = float(self._move_rng.uniform(
                self.config.move_delay_min, self.config.move_delay_max
            ))
            if sink.enabled:
                sink.emit(
                    MoveStarted(
                        time=self.engine.now, fileset=move.fileset,
                        source=move.source, destination=move.destination,
                    )
                )
            self.engine.schedule(
                delay, self._finish_move, move.fileset, move.destination
            )
        self.moves_started += len(started)
        # Ledger counts transfers actually scheduled (in-flight redirects
        # are already accounted to the reconfiguration that launched them).
        self.ledger.record(
            ReconfigDiff(moves=tuple(started), stayed=diff.stayed)
        )

    def membership_assignment(self) -> tuple[dict[str, str], dict[str, str]]:
        """Unsupported: this harness never changes its server set."""
        raise NotImplementedError(
            "the timed full-system harness has a static server set"
        )

    def _finish_move(self, fileset: str, destination: str) -> None:
        self._moving.discard(fileset)
        # Flush the source's image and initialize the destination — the
        # real shared-disk transfer, through the cluster's contract-wrapped
        # mutator rather than by poking its ownership map.
        if self.cluster.transfer_ownership(
            fileset, destination, now=self.engine.now
        ):
            self.moves += 1
            sink = self.telemetry
            if sink.enabled:
                sink.emit(
                    MoveFinished(
                        time=self.engine.now, fileset=fileset,
                        destination=destination,
                    )
                )
