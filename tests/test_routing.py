"""Tests for the routing plane: routers, owner sets, and the two-plane split.

Covers the :mod:`repro.runtime.routing` router family (passthrough
identity, JSQ(d) queue choice, weighted-power-of-d limp discovery, the
registry), the assignment-plane owner-set machinery
(:mod:`repro.placement.replicated`,
:meth:`~repro.core.anu.ANUPlacement.locate_owner_set`), and the wiring of
both planes through the queueing harness.
"""

import numpy as np
import pytest

from repro import ClusterConfig, ClusterSimulation, SyntheticConfig, \
    generate_synthetic, paper_servers
from repro.cluster.server import MetadataServer, ServerSpec
from repro.core.anu import ANUPlacement
from repro.core.hashing import hash_to_choice, hash_to_distinct_choices
from repro.placement import (
    ANUPolicy,
    ReplicatedPolicy,
    derive_owner_set,
    derive_owner_sets,
)
from repro.runtime.routing import (
    ROUTER_FACTORIES,
    JSQRouter,
    SingleOwnerRouter,
    RequestRouter,
    WeightedPowerOfDRouter,
    make_router,
    pick_owner,
)
from repro.runtime.telemetry import CallbackSink
from repro.sim import Engine

SERVERS = [f"s{i}" for i in range(6)]
FILESETS = [f"fs{i:04d}" for i in range(200)]


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
def test_single_owner_router_is_pure_slot_zero():
    router = SingleOwnerRouter()
    # Never bound, never draws, never reads a queue.
    for candidates in (["a"], ["a", "b"], ["c", "a", "b"]):
        assert router.choose("fs", candidates, lambda s: 99) == 0


def test_jsq_picks_shortest_queue_with_slot_order_ties():
    router = JSQRouter(d=3)
    queues = {"a": 4, "b": 1, "c": 1}
    # d >= candidate count: no sampling, no rng needed.
    assert router.choose("fs", ["a", "b", "c"], queues.__getitem__) == 1
    # Tie between b and c resolves to the lower slot.
    queues = {"a": 1, "b": 1, "c": 0}
    assert router.choose("fs", ["a", "b", "c"], queues.__getitem__) == 2


def test_jsq_sampling_requires_bound_stream():
    router = JSQRouter(d=2)
    with pytest.raises(RuntimeError):
        router.choose("fs", ["a", "b", "c"], lambda s: 0)
    router.bind(np.random.default_rng(0))
    idx = router.choose("fs", ["a", "b", "c"], lambda s: 0)
    assert idx in (0, 1, 2)


def test_jsq_sampling_is_deterministic_per_stream():
    def picks(seed):
        router = JSQRouter(d=2)
        router.bind(np.random.default_rng(seed))
        return [
            router.choose("fs", ["a", "b", "c", "d"], lambda s: 0)
            for _ in range(50)
        ]

    assert picks(7) == picks(7)
    assert picks(7) != picks(8)


def test_weighted_router_discovers_limp_from_latency():
    """With equal queues, the router steers away from the server whose
    observed completions are slow — limp discovery from latency alone."""
    router = WeightedPowerOfDRouter(d=2)
    for _ in range(10):
        router.observe("slow", 5.0)
        router.observe("fast", 0.1)
    idx = router.choose("fs", ["slow", "fast"], lambda s: 3)
    assert idx == 1


def test_weighted_router_explores_unobserved_servers_first():
    router = WeightedPowerOfDRouter(d=2)
    router.observe("seen", 0.5)
    # "fresh" has no EWMA yet -> scores as infinitely fast.
    assert router.choose("fs", ["seen", "fresh"], lambda s: 1) == 1


def test_weighted_router_ewma_folds_observations():
    router = WeightedPowerOfDRouter(d=2, decay=0.5)
    router.observe("a", 1.0)
    router.observe("a", 3.0)
    assert router._ewma["a"] == pytest.approx(2.0)


def test_router_registry_round_trip():
    for name in ROUTER_FACTORIES:
        router = make_router(name)
        assert router.name == name
        # Factories build fresh instances (routers are stateful).
        assert make_router(name) is not router
    with pytest.raises(ValueError):
        make_router("nope")


def test_router_validation():
    with pytest.raises(ValueError):
        JSQRouter(d=0)
    with pytest.raises(ValueError):
        WeightedPowerOfDRouter(decay=0.0)


# ----------------------------------------------------------------------
# The shared owner-pick path
# ----------------------------------------------------------------------
class _NeverRouter(RequestRouter):
    """Fails the test if the owner pick consults it."""

    def choose(self, fileset, candidates, queue_len):
        raise AssertionError(f"router called with {candidates!r}")


class _LastRouter(RequestRouter):
    """Records the candidates it sees and picks the last one."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def choose(self, fileset, candidates, queue_len):
        self.seen.append(list(candidates))
        return len(candidates) - 1


@pytest.mark.parametrize(
    "primary, replicas, live, expected, routed",
    [
        # r=1: no replicas, the router is never consulted.
        ("a", (), {"a"}, (0, "a"), None),
        ("a", (), set(), (0, None), None),
        # A dead primary keeps the replicas' slot numbers.
        ("a", ("b", "c"), {"b", "c"}, (2, "c"), ["b", "c"]),
        # Mid-move, a replica equal to the owner is compacted out, so
        # "c" is slot 1 of the owner set, not slot 2.
        ("a", ("a", "c"), {"a", "c"}, (1, "c"), ["a", "c"]),
        # Every owner down: the request buffers.
        ("a", ("b", "c"), set(), (0, None), None),
        # One live owner: no choice to make, so no router call.
        ("a", ("b", "c"), {"b"}, (1, "b"), None),
    ],
    ids=["r1", "r1-dead", "dead-primary", "mid-move", "all-down", "one-live"],
)
def test_pick_owner_table(primary, replicas, live, expected, routed):
    router = _NeverRouter() if routed is None else _LastRouter()
    engine = Engine()
    servers = {name: MetadataServer(engine, ServerSpec(name, 1.0)) for name in "abc"}
    for name in sorted(set(servers) - live):
        # A crashed and a draining server are both out of routing.
        (servers[name].drain if name == "b" else servers[name].fail)()
    slot, server = pick_owner(router, "fs", primary, replicas, servers)
    assert (slot, server and server.name) == expected
    if routed is not None:
        assert router.seen == [routed]


# ----------------------------------------------------------------------
# Distinct hashing
# ----------------------------------------------------------------------
def test_distinct_choices_are_distinct_and_deterministic():
    for name in FILESETS:
        picks = hash_to_distinct_choices(name, 3, 6)
        assert len(picks) == len(set(picks)) == 3
        assert picks == hash_to_distinct_choices(name, 3, 6)


def test_distinct_choices_first_draw_matches_classic_hash():
    for name in FILESETS:
        assert hash_to_distinct_choices(name, 2, 8)[0] == hash_to_choice(
            name, 0, 8
        )


def test_distinct_choices_clamp_to_population():
    assert sorted(hash_to_distinct_choices("x", 10, 4)) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Owner sets (assignment plane)
# ----------------------------------------------------------------------
def test_derive_owner_sets_r1_is_identity():
    primary = {name: SERVERS[i % 6] for i, name in enumerate(FILESETS)}
    sets = derive_owner_sets(primary, SERVERS, 1)
    assert sets == {name: (owner,) for name, owner in primary.items()}


def test_derive_owner_sets_slot_zero_is_primary():
    primary = {name: SERVERS[i % 6] for i, name in enumerate(FILESETS)}
    sets = derive_owner_sets(primary, SERVERS, 3)
    assert sorted(sets) == FILESETS
    for name, owners in sets.items():
        assert owners[0] == primary[name]
        assert len(owners) == len(set(owners)) == 3
        assert set(owners) <= set(SERVERS)


def test_derive_owner_set_single_matches_bulk():
    primary = {name: SERVERS[i % 6] for i, name in enumerate(FILESETS)}
    bulk = derive_owner_sets(primary, SERVERS, 2)
    for name in FILESETS:
        assert bulk[name] == derive_owner_set(
            name, primary[name], sorted(SERVERS), 2
        )


def test_anu_locate_owner_set_slot_zero_matches_locate():
    placement = ANUPlacement(SERVERS)
    for name in FILESETS:
        owners = placement.locate_owner_set(name, 3)
        assert owners[0] == placement.locate(name)
        assert len(owners) == len(set(owners)) == 3


def test_replicated_policy_wraps_transparently():
    base = ANUPolicy()
    wrapped = ReplicatedPolicy(ANUPolicy(), 2)
    assert wrapped.name == "anu+r2"
    a = base.initial_assignment(FILESETS, SERVERS)
    b = wrapped.initial_assignment(FILESETS, SERVERS)
    assert a == b
    sets = derive_owner_sets(b, SERVERS, 2, placement=wrapped.placement)
    for name, owners in sets.items():
        assert owners[0] == b[name]
        assert len(owners) == 2
    with pytest.raises(ValueError):
        ReplicatedPolicy(ANUPolicy(), 0)


# ----------------------------------------------------------------------
# Harness wiring
# ----------------------------------------------------------------------
def _small_trace(seed=3):
    return generate_synthetic(
        SyntheticConfig(n_filesets=20, n_requests=1200, duration=400.0,
                        seed=seed)
    )


def test_cluster_r1_explicit_router_is_byte_identical():
    """SingleOwnerRouter + r=1 reproduces the default dispatch exactly."""
    trace = _small_trace()
    config = ClusterConfig(servers=paper_servers(), seed=7)
    base = ClusterSimulation(config, ANUPolicy(), trace).run()
    routed = ClusterSimulation(
        config, ANUPolicy(), trace,
        router=make_router("single"), replication=1,
    ).run()
    assert routed.mean_latency == base.mean_latency
    assert routed.completed == base.completed
    assert routed.utilization == base.utilization
    assert routed.final_assignment == base.final_assignment


def test_cluster_routed_dispatch_targets_owner_set_members():
    """Every dispatched request lands on a member of its file set's
    owner set, the telemetry record carries (router, replica), and no
    request is lost."""
    trace = _small_trace()
    sim_box = {}
    dispatches = []

    def _on_record(record):
        if record.kind != "dispatch":
            return
        owners = sim_box["sim"].owner_sets()[record.fileset]
        assert record.server in owners
        assert owners[record.replica] == record.server
        assert record.router == "jsq2"
        dispatches.append(record)

    sim = ClusterSimulation(
        ClusterConfig(servers=paper_servers(), seed=7),
        ReplicatedPolicy(ANUPolicy(), 2), trace,
        telemetry=CallbackSink(_on_record),
        router=make_router("jsq2"), replication=2,
    )
    sim_box["sim"] = sim
    result = sim.run()
    assert sum(result.completed.values()) == len(trace)
    assert len(dispatches) >= len(trace)
    # The router actually used the replica plane, not just slot 0.
    assert {r.replica for r in dispatches} == {0, 1}


def test_cluster_owner_sets_view_shapes():
    trace = _small_trace()
    sim = ClusterSimulation(
        ClusterConfig(servers=paper_servers(), seed=7),
        ANUPolicy(), trace, replication=2,
    )
    for name, owners in sim.owner_sets().items():
        assert owners[0] == sim.filesets[name].owner
        assert len(owners) == len(set(owners)) == 2
