"""Chaos property tests: stochastic fault schedules through all three stacks.

The :class:`~repro.membership.injector.FaultInjector` generates valid
randomized membership schedules (crash/repair from per-server exponential
processes, commission/decommission churn, delegate crashes); these tests
drive every harness stack with them and assert the paper's recovery
invariants after *every* event, not just at the end:

- ownership uniqueness — each file set has exactly one owner, and it is a
  registered (cluster) / live (fs) server;
- no lost or duplicated requests — everything the trace injected
  completes exactly once, even when crashes orphan queued work;
- placement soundness at quiescence — half occupancy and the paper's
  ``p >= 2*(n+1)`` partition rule hold for the surviving server set;
- determinism — the same injector seed yields the identical schedule on
  every run, so any chaos failure is replayable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulation, paper_servers
from repro.cluster.protocol_driver import ProtocolDrivenCluster
from repro.fs import FileSystemClient, MetadataCluster
from repro.membership import (
    LIMP_CHURN,
    ChaosProfile,
    FaultEvent,
    FaultInjector,
    FaultKind,
    MembershipRoster,
    apply_event,
)
from repro.membership.soak import SOAK_CHURN, SOAK_LIMP, PairingLaw
from repro.placement import ANUPolicy, ReplicatedPolicy
from repro.proto import ControlPlane, ProtocolConfig
from repro.runtime import CallbackSink, MemorySink
from repro.runtime.routing import make_router
from repro.units import Seconds
from repro.workloads import SyntheticConfig, generate_synthetic

SPEEDS = {f"server{i}": float(s) for i, s in enumerate([1, 3, 5, 7, 9])}

#: Every fault process active; rates sized to yield a handful of events
#: over a 1200 s trace.
CHURN = ChaosProfile(
    mttf=Seconds(500.0),
    mttr=Seconds(90.0),
    decommission_every=Seconds(700.0),
    commission_every=Seconds(600.0),
    delegate_crash_every=Seconds(900.0),
    min_live=2,
    max_commissions=3,
)


def _trace(seed=3):
    return generate_synthetic(
        SyntheticConfig(n_filesets=30, n_requests=1500, duration=1200.0,
                        request_cost=0.3, seed=seed)
    )


# ----------------------------------------------------------------------
# Injector properties
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_injector_is_deterministic_and_valid(seed):
    a = FaultInjector(SPEEDS, CHURN, seed=seed).generate(Seconds(1200.0))
    b = FaultInjector(SPEEDS, CHURN, seed=seed).generate(Seconds(1200.0))
    assert list(a) == list(b)
    a.validate(set(SPEEDS))
    # min_live is honoured throughout the replay.
    roster = MembershipRoster(SPEEDS)
    for event in a:
        apply_event(roster, event)
        assert roster.live_count >= CHURN.min_live


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    other=st.integers(min_value=0, max_value=10_000),
)
def test_injector_seed_sensitivity(seed, other):
    if seed == other:
        return
    a = FaultInjector(SPEEDS, CHURN, seed=seed).generate(Seconds(3600.0))
    b = FaultInjector(SPEEDS, CHURN, seed=other).generate(Seconds(3600.0))
    assert list(a) != list(b)


#: Profiles the min_live prefix property sweeps over: plain churn,
#: decommission-heavy churn, and the full gray-failure zoo (whose
#: slow-then-dead ramps end in FAIL events that must also respect the
#: floor).
PREFIX_PROFILES = {
    "churn": CHURN,
    "decom-heavy": ChaosProfile(
        mttf=Seconds(300.0),
        mttr=Seconds(200.0),
        decommission_every=Seconds(150.0),
        commission_every=Seconds(400.0),
        min_live=2,
        max_commissions=2,
    ),
    "limp-churn": LIMP_CHURN,
}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    profile=st.sampled_from(sorted(PREFIX_PROFILES)),
)
def test_no_schedule_prefix_breaks_min_live(seed, profile):
    """Regression: the decommission guard was loop-invariant.

    ``generate`` filtered decommission candidates on ``roster.live_count
    > profile.min_live`` *inside* a comprehension over live servers — a
    condition that never changes across the comprehension, so it either
    admitted everyone or no one.  The hoisted guard must keep **every
    prefix** of every schedule at or above ``min_live``, including
    prefixes ending mid-ramp (slow-then-dead limps terminate in FAIL).
    """
    chosen = PREFIX_PROFILES[profile]
    schedule = FaultInjector(SPEEDS, chosen, seed=seed).generate(
        Seconds(2400.0)
    )
    roster = MembershipRoster(SPEEDS)
    for event in schedule:
        apply_event(roster, event)
        assert roster.live_count >= chosen.min_live


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_limp_injector_is_deterministic_and_valid(seed):
    a = FaultInjector(SPEEDS, LIMP_CHURN, seed=seed).generate(Seconds(2400.0))
    b = FaultInjector(SPEEDS, LIMP_CHURN, seed=seed).generate(Seconds(2400.0))
    assert list(a) == list(b)
    a.validate(set(SPEEDS))
    low, high = LIMP_CHURN.degrade_factor
    degrades = [e for e in a if e.kind is FaultKind.DEGRADE]
    for event in degrades:
        # Ramp steps halve below `low`, and coupling scales toward 1.0,
        # but every factor stays a genuine limp: inside (0, 1).
        assert 0.0 < event.factor < 1.0
    # Every RESTORE lands on a server a prior DEGRADE actually limped
    # (validate() above already replayed the lifecycle, so this is just
    # the structural half: restores never precede their degrade).
    seen_degraded = set()
    for event in a:
        if event.kind is FaultKind.DEGRADE:
            seen_degraded.add(event.server)
        elif event.kind is FaultKind.RESTORE:
            assert event.server in seen_degraded


@pytest.mark.parametrize("seed", [758, 1740, 2816, 3364, 3595])
def test_limp_injector_restores_each_coupled_sharer_once(seed):
    """Seeds whose schedules once restored a server twice.

    A sharer could fail, recover and start a limp of its own while its
    old primary still listed it; that primary's restore then ended the
    sharer's own limp, which left the sharer's own sharers listed, and a
    later onset could list one of them twice.  Each sharer now holds one
    record, dropped on its fail, decommission or restore, so a primary
    releases only the sharers its limp still holds.
    """
    schedule = FaultInjector(SPEEDS, LIMP_CHURN, seed=seed).generate(
        Seconds(2400.0)
    )
    schedule.validate(set(SPEEDS))


def test_limp_injector_validates_over_a_seed_range():
    for seed in range(200):
        FaultInjector(SPEEDS, LIMP_CHURN, seed=seed).generate(
            Seconds(2400.0)
        ).validate(set(SPEEDS))


def test_limp_profile_produces_gray_failures():
    """At least one seed yields both DEGRADE and RESTORE over the horizon
    (a structural smoke check that the limp process is wired at all)."""
    kinds = set()
    for seed in range(5):
        schedule = FaultInjector(SPEEDS, LIMP_CHURN, seed=seed).generate(
            Seconds(2400.0)
        )
        kinds |= {e.kind for e in schedule}
    assert FaultKind.DEGRADE in kinds
    assert FaultKind.RESTORE in kinds


def test_degradation_free_profile_is_bit_identical_to_before():
    """Switching the limp fields off reproduces the fail-stop schedule
    exactly: old profiles are byte-compatible with the extended injector."""
    import dataclasses

    limp_off = dataclasses.replace(
        LIMP_CHURN, degrade_mttd=None, slow_then_dead=0.0,
        couple_probability=0.0,
    )
    base = ChaosProfile(
        mttf=limp_off.mttf,
        mttr=limp_off.mttr,
        decommission_every=limp_off.decommission_every,
        commission_every=limp_off.commission_every,
        delegate_crash_every=limp_off.delegate_crash_every,
        min_live=limp_off.min_live,
        max_commissions=limp_off.max_commissions,
    )
    for seed in range(5):
        a = FaultInjector(SPEEDS, limp_off, seed=seed).generate(Seconds(2400.0))
        b = FaultInjector(SPEEDS, base, seed=seed).generate(Seconds(2400.0))
        assert list(a) == list(b)


# ----------------------------------------------------------------------
# Queueing stack
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_chaos_cluster_stack(seed):
    trace = _trace()
    faults = FaultInjector(SPEEDS, CHURN, seed=seed).generate(
        Seconds(trace.duration)
    )
    config = ClusterConfig(servers=paper_servers(), tuning_interval=120.0,
                           sample_window=60.0, seed=1)
    policy = ANUPolicy()

    checked = []

    def _on_record(record):
        if record.kind != "membership":
            return
        # The director just finished re-placing: ownership must be
        # unique and structurally sound, and new work must only target
        # live servers.
        sim.check_invariants()
        live = set(sim.roster.live())
        assert record.live == len(live)
        for fileset, owner in sim.planned_assignment().items():
            assert owner in sim.servers
            assert owner in live
        checked.append(record)

    sim = ClusterSimulation(
        config, policy, trace, faults, telemetry=CallbackSink(_on_record)
    )
    result = sim.run()

    # Every membership-changing event was checked mid-run.
    structural = [e for e in faults if e.kind is not FaultKind.DELEGATE_CRASH]
    assert len(checked) == len(faults)
    assert len(structural) <= len(checked)

    # No lost or duplicated requests, ever.
    assert result.total_requests == len(trace)
    assert sum(result.completed.values()) == len(trace)

    # Quiescence: the surviving placement satisfies the paper's rules.
    placement = policy.placement
    assert placement is not None
    placement.check_invariants()  # half occupancy + structural soundness
    assert set(placement.servers) == set(sim.roster.live())
    assert placement.interval.partitions >= 2 * (len(placement.servers) + 1)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_chaos_cluster_stack_with_limps(seed):
    """The queueing stack survives the full gray-failure zoo.

    SpeedChanged records must track roster degradation in lockstep with
    the harness's effective server speed, degraded servers stay live and
    owned, and request conservation still holds end to end.
    """
    trace = _trace()
    faults = FaultInjector(SPEEDS, LIMP_CHURN, seed=seed).generate(
        Seconds(trace.duration)
    )
    config = ClusterConfig(servers=paper_servers(), tuning_interval=120.0,
                           sample_window=60.0, seed=1)
    policy = ANUPolicy()
    speed_checks = []

    def _on_record(record):
        if record.kind == "speed":
            server = sim.servers[record.server]
            assert server.alive
            assert server.degradation == sim.roster.degradation_of(
                record.server
            )
            assert server.speed == server.base_speed * server.degradation
            assert record.effective_speed == server.speed
            speed_checks.append(record)
        elif record.kind == "membership":
            sim.check_invariants()
            live = set(sim.roster.live())
            for owner in sim.planned_assignment().values():
                assert owner in live

    sim = ClusterSimulation(
        config, policy, trace, faults, telemetry=CallbackSink(_on_record)
    )
    result = sim.run()
    gray = [e for e in faults
            if e.kind in (FaultKind.DEGRADE, FaultKind.RESTORE)]
    assert len(speed_checks) == len(gray)
    assert sum(result.completed.values()) == len(trace)
    assert policy.placement is not None
    policy.placement.check_invariants()


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    replication=st.sampled_from([1, 2, 3]),
)
def test_chaos_owner_set_routing(seed, replication):
    """Replicated ownership under chaos: after any fault-schedule prefix,
    every dispatched request targets a *currently-live* member of its
    file set's owner set (slot 0 is always the authoritative owner), the
    telemetry replica slot indexes that owner set, and request
    conservation holds at r in {1, 2, 3}.
    """
    trace = _trace()
    faults = FaultInjector(SPEEDS, CHURN, seed=seed).generate(
        Seconds(trace.duration)
    )
    config = ClusterConfig(servers=paper_servers(), tuning_interval=120.0,
                           sample_window=60.0, seed=1)
    policy = (ReplicatedPolicy(ANUPolicy(), replication)
              if replication > 1 else ANUPolicy())
    dispatched = []

    def _on_record(record):
        if record.kind == "dispatch":
            owners = sim.owner_sets()[record.fileset]
            assert 1 <= len(owners) <= replication
            assert len(owners) == len(set(owners))
            assert owners[0] == sim.filesets[record.fileset].owner
            # The routed target is a live owner-set member, and the
            # telemetry slot names exactly which replica took it.
            assert record.server in owners
            assert owners[record.replica] == record.server
            assert sim.roster.is_live(record.server)
            dispatched.append(record)
        elif record.kind == "membership":
            sim.check_invariants()
            live = set(sim.roster.live())
            # After re-placement every *planned* slot-0 owner is live
            # (actual ownership may lag while a move is in flight), and
            # the refreshed replica plane only names live servers — so a
            # crash orphans a request only when ALL owners are down.
            for owner in sim.planned_assignment().values():
                assert owner in live
            for replicas in sim._replica_owners.values():
                assert set(replicas) <= live

    sim = ClusterSimulation(
        config, policy, trace, faults,
        telemetry=CallbackSink(_on_record),
        router=make_router("jsq2"), replication=replication,
    )
    result = sim.run()

    # Request conservation: nothing lost, nothing duplicated.
    assert result.total_requests == len(trace)
    assert sum(result.completed.values()) == len(trace)
    assert len(dispatched) >= len(trace)


# ----------------------------------------------------------------------
# Semantic (fs) stack
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_chaos_fs_stack(seed):
    roots = {f"fs{i}": f"/p{i}" for i in range(6)}
    servers = {f"server{i}": 1.0 for i in range(4)}
    faults = FaultInjector(servers, CHURN, seed=seed).generate(Seconds(1200.0))

    cluster = MetadataCluster(sorted(servers), roots)
    client = FileSystemClient(cluster, "chaos-client")
    durable = []
    for i, root in enumerate(roots.values()):
        client.mkdir(f"{root}/dir")
        client.create(f"{root}/dir/file{i}")
        durable.append(f"{root}/dir/file{i}")
    cluster.checkpoint()  # flushed: must survive any crash sequence

    for event in faults:
        cluster.director.apply(event, now=event.time)
        # Ownership, services, placement, and roster agree after every
        # single membership change ...
        cluster.check_consistency()
        # ... and the ANU region map keeps the paper's invariants.
        cluster.placement.check_invariants()
        n = len(cluster.services)
        assert cluster.placement.interval.partitions >= 2 * (n + 1)

    # Flushed data survived the entire chaos sequence.
    for path in durable:
        assert client.stat(path) is not None


# ----------------------------------------------------------------------
# Protocol stack
# ----------------------------------------------------------------------
FAST = ProtocolConfig(
    heartbeat_interval=0.5,
    heartbeat_timeout=1.6,
    election_timeout=0.3,
    report_timeout=0.3,
    tuning_interval=5.0,
)

#: Commission churn limited to recovering drained nodes (a fresh node's
#: share map never converges with its elders': a delegate's update names
#: only the servers it tuned), and no stochastic delegate crashes: the
#: standalone protocol stack realizes DELEGATE_CRASH by downing the
#: *actual* delegate node, which the injector's roster model cannot
#: predict — later events in a pre-validated schedule could then target
#: an already-dead server.  The delegate path is instead exercised
#: explicitly at the end of the test.
NODE_CHURN = ChaosProfile(
    mttf=Seconds(60.0),
    mttr=Seconds(15.0),
    decommission_every=Seconds(90.0),
    commission_every=Seconds(70.0),
    delegate_crash_every=None,
    min_live=3,
    max_commissions=0,
)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_chaos_proto_stack(seed):
    n = 5
    names = {f"node{i:02d}": 1.0 for i in range(n)}
    faults = FaultInjector(names, NODE_CHURN, seed=seed).generate(
        Seconds(120.0)
    )
    sink = MemorySink()
    cp = ControlPlane(n, seed=seed, protocol_config=FAST, telemetry=sink)
    cp.start()
    for event in faults:
        cp.run_until(float(event.time))
        cp.apply_fault(event)
        assert len(cp.live_nodes) >= 1
        assert set(cp.live_nodes) == set(cp.roster.live())
    end = float(faults.events[-1].time) if len(faults) else 0.0
    cp.run_until(end + 15.0)

    # The control plane healed: live nodes agree on one delegate and on
    # the replicated share map.
    assert len(cp.live_nodes) >= NODE_CHURN.min_live
    victim = cp.current_delegate()
    assert victim is not None and victim in cp.live_nodes
    assert cp.shares_agree()

    # Finally kill the agreed delegate; the bully election elects a
    # replacement and the roster records the physical crash.
    cp.apply_fault(
        FaultEvent(Seconds(cp.engine.now), FaultKind.DELEGATE_CRASH, "*")
    )
    assert not cp.roster.is_live(victim)
    cp.run_until(cp.engine.now + 15.0)
    successor = cp.current_delegate()
    assert successor is not None and successor != victim
    assert successor in cp.live_nodes
    assert cp.shares_agree()
    # Telemetry saw one fault record per applied event.
    assert len(sink.of_kind("fault")) == len(faults) + 1


@pytest.mark.parametrize("profile", [SOAK_CHURN, SOAK_LIMP], ids=["churn", "limp"])
@pytest.mark.parametrize("seed", range(8))
def test_chaos_protocol_driven_cluster(seed, profile):
    """The shipped protocol stack under every fault kind: one director
    drives the servers and the control plane's nodes together, so no
    node outlives its server, and every request completes once."""
    trace = generate_synthetic(
        SyntheticConfig(n_filesets=30, n_requests=1000, duration=1200.0,
                        request_cost=0.3, seed=3)
    )
    faults = FaultInjector(SPEEDS, profile, seed=seed).generate(
        Seconds(trace.duration)
    )
    law = PairingLaw(f"seed {seed}")

    def on_record(record):
        law.observe(record)
        if record.kind == "membership":
            live = set(pd.roster.live())
            for name, node in pd.plane.nodes.items():
                assert not node.alive or name in live, (name, record)

    config = ClusterConfig(servers=paper_servers(), tuning_interval=120.0,
                           sample_window=60.0, seed=1)
    pd = ProtocolDrivenCluster(
        config, trace, faults=faults, telemetry=CallbackSink(on_record)
    )
    result = pd.run()
    law.close()
    assert sum(result.run.completed.values()) == len(trace)
