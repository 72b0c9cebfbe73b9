"""Chaos soak: randomized fault schedules through all three stacks.

Run as a module::

    PYTHONPATH=src python -m repro.membership.soak --seeds 3 --quick

``--profile limp`` layers the gray-failure zoo (sustained limps,
slow-then-dead ramps, I/O-contention coupling) over the same churn and
additionally checks, on every ``SpeedChanged`` record, that the roster's
degradation and the harness's effective speed stay in lockstep.

For each seed, a :class:`~repro.membership.injector.FaultInjector`
generates a valid churn schedule, every harness stack replays it, and
the stack's own invariants are checked *after each membership event*:

- queueing stack — ``ClusterSimulation.check_invariants`` plus
  ownership-targets-live-servers on every ``membership`` telemetry
  record, the :class:`PairingLaw` on every record, and request
  conservation at the end of the run;
- semantic stack — ``MetadataCluster.check_consistency`` and the ANU
  region-map invariants after every director application, the
  :class:`PairingLaw` on every record, plus durability of checkpointed
  files across the whole sequence;
- protocol stack — roster/liveness agreement after every event and the
  :class:`PairingLaw` on every record, then delegate agreement and
  share-map replication once traffic settles.

The soak exits non-zero on the first violated invariant, printing the
seed that triggered it — rerunning with that seed reproduces the exact
schedule (the injector is deterministic per seed).
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import NoReturn, Sequence

from ..runtime.telemetry import (
    CallbackSink,
    FaultInjected,
    MembershipChanged,
    MoveFinished,
    MoveStarted,
    SpeedChanged,
    TelemetryRecord,
)
from ..units import Seconds
from .faults import FaultKind
from .injector import ChaosProfile, FaultInjector

__all__ = [
    "PairingLaw",
    "SOAK_CHURN",
    "SOAK_LIMP",
    "PROTO_CHURN",
    "PROTO_LIMP",
    "soak_cluster",
    "soak_fs",
    "soak_proto",
    "run_soak",
    "main",
]

#: Full-churn profile used by every soak stack (kept gentle enough that
#: quick mode finishes in CI time while still exercising each fault kind).
SOAK_CHURN = ChaosProfile(
    mttf=Seconds(400.0),
    mttr=Seconds(80.0),
    decommission_every=Seconds(650.0),
    commission_every=Seconds(550.0),
    delegate_crash_every=Seconds(800.0),
    min_live=2,
    max_commissions=3,
)

#: Like :data:`SOAK_CHURN` but delegate crashes removed and commissions
#: restricted to recovering drained nodes: the protocol stack realizes
#: ``DELEGATE_CRASH`` by downing the actual delegate, which a
#: pre-validated schedule cannot anticipate (see tests/test_membership_chaos),
#: and a fresh node's share map never converges with its elders' (a
#: delegate's update names only the servers it tuned).
PROTO_CHURN = ChaosProfile(
    mttf=Seconds(60.0),
    mttr=Seconds(15.0),
    decommission_every=Seconds(90.0),
    commission_every=Seconds(70.0),
    delegate_crash_every=None,
    min_live=3,
    max_commissions=0,
)

#: :data:`SOAK_CHURN` with the gray-failure zoo switched on: sustained
#: limps, slow-then-dead ramps, and I/O-contention coupling layered over
#: the same crash/commission churn (the CI ``limp-smoke`` job's profile).
SOAK_LIMP = dataclasses.replace(
    SOAK_CHURN,
    degrade_mttd=Seconds(200.0),
    degrade_mttrestore=Seconds(100.0),
    degrade_factor=(0.15, 0.6),
    slow_then_dead=0.2,
    ramp_steps=2,
    ramp_step_every=Seconds(25.0),
    couple_probability=0.25,
    couple_strength=0.5,
)

#: :data:`PROTO_CHURN` with sustained limps (timescales matched to the
#: protocol soak's short horizon).
PROTO_LIMP = dataclasses.replace(
    PROTO_CHURN,
    degrade_mttd=Seconds(30.0),
    degrade_mttrestore=Seconds(15.0),
    degrade_factor=(0.2, 0.6),
)


class PairingLaw:
    """Streaming check that the telemetry stream's record pairs complete.

    Two rules, checked record by record (:meth:`observe`) and at the end
    of the stream (:meth:`close`):

    - every ``FaultInjected`` is followed, before the next
      ``FaultInjected``, by exactly one completion record with the same
      time and server — ``SpeedChanged`` for ``degrade``/``restore``,
      ``MembershipChanged`` for every other fault — and no fault is
      still open when the stream ends;
    - for each file set, the last ``MoveStarted`` is followed by a
      ``MoveFinished`` to the same destination.

    A rejected membership event must leave no record at all, so a
    director that announced a fault before validating it breaks the
    first rule.  Violations raise :class:`AssertionError`; ``context``
    is appended to the message (the soak passes the seed).
    """

    def __init__(self, context: str = "") -> None:
        self._suffix = f" ({context})" if context else ""
        self._open_fault: FaultInjected | None = None
        #: file set -> destination of its last unfinished move start.
        self._moving: dict[str, str] = {}

    def observe(self, record: TelemetryRecord) -> None:
        """Check one record against the stream seen so far."""
        fault = self._open_fault
        if isinstance(record, FaultInjected):
            if fault is not None:
                self._fail(f"{fault} has no completion before {record}")
            self._open_fault = record
        elif isinstance(record, (MembershipChanged, SpeedChanged)):
            if fault is None:
                self._fail(f"{record} completes no open fault")
            gray = fault.fault in (FaultKind.DEGRADE.value, FaultKind.RESTORE.value)
            completion = SpeedChanged if gray else MembershipChanged
            if not isinstance(record, completion) or (
                record.time, record.server
            ) != (fault.time, fault.server):
                self._fail(f"{fault} completed by {record}")
            self._open_fault = None
        elif isinstance(record, MoveStarted):
            self._moving[record.fileset] = record.destination
        elif (
            isinstance(record, MoveFinished)
            and self._moving.get(record.fileset) == record.destination
        ):
            del self._moving[record.fileset]

    def close(self) -> None:
        """Check the end of the stream: nothing may be left open."""
        if self._open_fault is not None:
            self._fail(f"{self._open_fault} never completed")
        if self._moving:
            fileset = min(self._moving)
            self._fail(
                f"move of {fileset!r} to {self._moving[fileset]!r} never "
                f"finished ({len(self._moving)} open)"
            )

    def _fail(self, message: str) -> NoReturn:
        raise AssertionError(f"pairing law: {message}{self._suffix}")


def soak_cluster(
    seed: int, quick: bool = False, limp: bool = False
) -> dict[str, float]:
    """Chaos-run the queueing stack; returns summary counters."""
    from ..cluster import ClusterConfig, ClusterSimulation, paper_servers
    from ..placement import ANUPolicy
    from ..workloads import SyntheticConfig, generate_synthetic

    n_requests = 1000 if quick else 6000
    trace = generate_synthetic(
        SyntheticConfig(
            n_filesets=30,
            n_requests=n_requests,
            duration=1200.0,
            request_cost=0.3,
            seed=3,
        )
    )
    speeds = {s.name: s.speed for s in paper_servers()}
    profile = SOAK_LIMP if limp else SOAK_CHURN
    faults = FaultInjector(speeds, profile, seed=seed).generate(
        Seconds(trace.duration)
    )
    config = ClusterConfig(
        servers=paper_servers(),
        tuning_interval=120.0,
        sample_window=60.0,
        seed=1,
    )
    policy = ANUPolicy()
    law = PairingLaw(f"seed {seed}")
    checks = 0

    def _on_record(record) -> None:
        nonlocal checks
        law.observe(record)
        if record.kind == "speed":
            # A gray failure must land on a live server and keep the
            # roster and the harness's effective speed in lockstep.
            server = sim.servers[record.server]
            if not server.alive:
                raise AssertionError(
                    f"SpeedChanged for dead server {record.server!r} "
                    f"(seed {seed})"
                )
            if server.degradation != sim.roster.degradation_of(record.server):
                raise AssertionError(
                    f"roster/harness degradation disagreement on "
                    f"{record.server!r} (seed {seed})"
                )
            checks += 1
            return
        if record.kind != "membership":
            return
        sim.check_invariants()
        live = set(sim.roster.live())
        for owner in sim.planned_assignment().values():
            if owner not in live:
                raise AssertionError(
                    f"fileset owned by non-live server {owner!r} "
                    f"after {record.fault} (seed {seed})"
                )
        checks += 1

    sim = ClusterSimulation(
        config, policy, trace, faults, telemetry=CallbackSink(_on_record)
    )
    result = sim.run()
    law.close()
    if sum(result.completed.values()) != len(trace):
        raise AssertionError(
            f"lost/duplicated requests: completed "
            f"{sum(result.completed.values())} of {len(trace)} (seed {seed})"
        )
    assert policy.placement is not None
    policy.placement.check_invariants()
    return {"events": len(faults), "checks": checks, "requests": len(trace)}


def soak_fs(
    seed: int, quick: bool = False, limp: bool = False
) -> dict[str, float]:
    """Chaos-run the semantic stack; returns summary counters."""
    from ..fs import FileSystemClient, MetadataCluster

    roots = {f"fs{i}": f"/p{i}" for i in range(4 if quick else 8)}
    servers = {f"server{i}": 1.0 for i in range(4)}
    horizon = Seconds(600.0 if quick else 2400.0)
    profile = SOAK_LIMP if limp else SOAK_CHURN
    faults = FaultInjector(servers, profile, seed=seed).generate(horizon)

    law = PairingLaw(f"seed {seed}")
    cluster = MetadataCluster(
        sorted(servers), roots, telemetry=CallbackSink(law.observe)
    )
    client = FileSystemClient(cluster, "soak-client")
    durable = []
    for i, root in enumerate(roots.values()):
        client.mkdir(f"{root}/dir")
        client.create(f"{root}/dir/file{i}")
        durable.append(f"{root}/dir/file{i}")
    cluster.checkpoint()

    for event in faults:
        cluster.director.apply(event, now=event.time)
        cluster.check_consistency()
        cluster.placement.check_invariants()
        cluster.roster.check_invariants()
        for name in cluster.roster.degraded():
            if not cluster.roster.is_live(name):
                raise AssertionError(
                    f"degraded server {name!r} is not live (seed {seed})"
                )
    law.close()
    for path in durable:
        client.stat(path)  # raises if the checkpointed file was lost
    return {"events": len(faults), "checks": len(faults), "files": len(durable)}


def soak_proto(
    seed: int, quick: bool = False, limp: bool = False
) -> dict[str, float]:
    """Chaos-run the protocol stack; returns summary counters."""
    from ..proto import ControlPlane, ProtocolConfig

    fast = ProtocolConfig(
        heartbeat_interval=0.5,
        heartbeat_timeout=1.6,
        election_timeout=0.3,
        report_timeout=0.3,
        tuning_interval=5.0,
    )
    n = 5
    names = {f"node{i:02d}": 1.0 for i in range(n)}
    horizon = Seconds(60.0 if quick else 240.0)
    profile = PROTO_LIMP if limp else PROTO_CHURN
    faults = FaultInjector(names, profile, seed=seed).generate(horizon)

    law = PairingLaw(f"seed {seed}")
    cp = ControlPlane(
        n, seed=seed, protocol_config=fast, telemetry=CallbackSink(law.observe)
    )
    cp.start()
    for event in faults:
        cp.run_until(float(event.time))
        cp.apply_fault(event)
        if set(cp.live_nodes) != set(cp.roster.live()):
            raise AssertionError(
                f"roster/liveness disagreement after {event} (seed {seed})"
            )
        for name in cp.roster.live():
            if cp.nodes[name].speed != cp.roster.degradation_of(name):
                raise AssertionError(
                    f"node/roster speed disagreement on {name!r} "
                    f"after {event} (seed {seed})"
                )
    end = float(faults.events[-1].time) if len(faults) else 0.0
    cp.run_until(end + 15.0)
    law.close()
    delegate = cp.current_delegate()
    if delegate is None or delegate not in cp.live_nodes:
        raise AssertionError(f"no live delegate after settling (seed {seed})")
    if not cp.shares_agree():
        raise AssertionError(f"share maps diverged after chaos (seed {seed})")
    return {"events": len(faults), "checks": len(faults), "live": len(cp.live_nodes)}


STACKS = {"cluster": soak_cluster, "fs": soak_fs, "proto": soak_proto}


def run_soak(
    seeds: Sequence[int],
    quick: bool = False,
    stacks: Sequence[str] | None = None,
    limp: bool = False,
) -> list[dict]:
    """Soak every requested stack with every seed; returns summaries."""
    results = []
    for name in stacks or sorted(STACKS):
        runner = STACKS[name]
        for seed in seeds:
            summary = runner(seed, quick=quick, limp=limp)
            summary |= {"stack": name, "seed": seed}
            print(
                f"[soak] {name:<8} seed={seed:<4} "
                f"events={summary['events']:<4} ok"
            )
            results.append(summary)
    return results


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.membership.soak",
        description="Randomized membership chaos soak over all three stacks.",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="number of seeds (default 3)"
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, help="first seed (default 0)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller traces/horizons for CI"
    )
    parser.add_argument(
        "--stack",
        choices=sorted(STACKS),
        action="append",
        help="restrict to one stack (repeatable; default: all)",
    )
    parser.add_argument(
        "--profile",
        choices=("churn", "limp"),
        default="churn",
        help="fault profile: fail-stop churn only, or churn plus the "
        "gray-failure zoo (sustained limps, slow-then-dead ramps, "
        "I/O-contention coupling)",
    )
    args = parser.parse_args(argv)
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    results = run_soak(
        list(seeds),
        quick=args.quick,
        stacks=args.stack,
        limp=args.profile == "limp",
    )
    events = sum(r["events"] for r in results)
    kinds = len(FaultKind)
    print(
        f"[soak] OK: {len(results)} runs, {events} membership events "
        f"({kinds} fault kinds available), all invariants held"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
