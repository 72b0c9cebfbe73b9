"""Unit tests for all placement policies behind the shared protocol."""

import collections

import numpy as np
import pytest

from repro.core.tuning import ServerReport
from repro.placement import (
    ANUPolicy,
    ConsistentHashPolicy,
    ConsistentHashRing,
    DecentralizedANUPolicy,
    PrescientPolicy,
    RoundRobinPolicy,
    SimpleRandomPolicy,
    TuningContext,
    lpt_assign,
    predicted_makespan,
    validate_assignment,
)

SERVERS = ["s0", "s1", "s2", "s3", "s4"]
FILESETS = [f"fs{i:03d}" for i in range(100)]


def make_context(policy_assignment, reports=None, oracle=None, speeds=None):
    if reports is None:
        reports = [ServerReport(s, 0.01, 10) for s in SERVERS]
    return TuningContext(
        time=120.0,
        filesets=FILESETS,
        servers=SERVERS,
        assignment=policy_assignment,
        reports=reports,
        server_speeds=speeds,
        oracle_demand=oracle,
        rng=np.random.default_rng(0),
    )


# ----------------------------------------------------------------------
# validate_assignment
# ----------------------------------------------------------------------
def test_validate_assignment_accepts_complete_live():
    validate_assignment({f: "s0" for f in FILESETS}, FILESETS, SERVERS)


def test_validate_assignment_rejects_missing_and_dead():
    with pytest.raises(ValueError):
        validate_assignment({}, FILESETS, SERVERS)
    with pytest.raises(ValueError):
        validate_assignment({f: "ghost" for f in FILESETS}, FILESETS, SERVERS)


# ----------------------------------------------------------------------
# Static policies
# ----------------------------------------------------------------------
def test_simple_random_is_deterministic_and_spread():
    pol = SimpleRandomPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    b = pol.initial_assignment(FILESETS, SERVERS)
    assert a == b
    assert len(set(a.values())) == 5


def test_simple_random_never_updates():
    pol = SimpleRandomPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    assert pol.update(make_context(a)) is None


def test_round_robin_equal_counts():
    pol = RoundRobinPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    counts = collections.Counter(a.values())
    assert all(c == 20 for c in counts.values())


def test_round_robin_counts_within_one_for_uneven():
    pol = RoundRobinPolicy()
    a = pol.initial_assignment(FILESETS[:98], SERVERS)
    counts = collections.Counter(a.values())
    assert max(counts.values()) - min(counts.values()) <= 1


def test_static_membership_change_moves_only_orphans():
    pol = SimpleRandomPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    survivors = [s for s in SERVERS if s != "s2"]
    b = pol.on_membership_change(FILESETS, survivors, a)
    for f in FILESETS:
        if a[f] != "s2":
            assert b[f] == a[f]
        else:
            assert b[f] in survivors


# ----------------------------------------------------------------------
# LPT / prescient
# ----------------------------------------------------------------------
def test_lpt_minimizes_weighted_makespan_roughly():
    demand = {f"f{i}": float(i + 1) for i in range(20)}
    speeds = {"fast": 4.0, "slow": 1.0}
    assignment = lpt_assign(demand, speeds)
    ms = predicted_makespan(assignment, demand, speeds)
    total = sum(demand.values())
    lower_bound = total / sum(speeds.values())
    assert ms <= lower_bound * 4 / 3 + max(demand.values())


def test_lpt_deterministic():
    demand = {f"f{i}": 1.0 for i in range(10)}
    speeds = {"a": 1.0, "b": 1.0}
    assert lpt_assign(demand, speeds) == lpt_assign(demand, speeds)


def test_lpt_rejects_bad_speeds():
    with pytest.raises(ValueError):
        lpt_assign({"f": 1.0}, {})
    with pytest.raises(ValueError):
        lpt_assign({"f": 1.0}, {"a": 0.0})


def test_prescient_requires_oracle():
    pol = PrescientPolicy()
    with pytest.raises(RuntimeError):
        pol.initial_assignment(FILESETS, SERVERS)


def test_prescient_initial_balanced_by_demand():
    pol = PrescientPolicy()
    speeds = {s: float(i * 2 + 1) for i, s in enumerate(SERVERS)}
    demand = {f: 1.0 for f in FILESETS}
    pol.grant_oracle(speeds, demand)
    a = pol.initial_assignment(FILESETS, SERVERS)
    counts = collections.Counter(a.values())
    # Counts proportional to speed (1,3,5,7,9)/25 of 100 file sets.
    assert counts["s4"] > counts["s0"]
    assert counts["s4"] == pytest.approx(36, abs=4)


def test_prescient_keeps_configuration_with_hysteresis():
    pol = PrescientPolicy(hysteresis=0.5)
    speeds = {s: 1.0 for s in SERVERS}
    demand = {f: 1.0 for f in FILESETS}
    pol.grant_oracle(speeds, demand)
    a = pol.initial_assignment(FILESETS, SERVERS)
    ctx = make_context(a, oracle=demand, speeds=speeds)
    assert pol.update(ctx) is None


def test_prescient_repacks_on_big_shift():
    pol = PrescientPolicy(hysteresis=0.05)
    speeds = {s: 1.0 for s in SERVERS}
    demand = {f: 1.0 for f in FILESETS}
    pol.grant_oracle(speeds, demand)
    a = pol.initial_assignment(FILESETS, SERVERS)
    # New oracle: all load lands on the file sets currently packed onto one
    # server — spreading them improves makespan ~5x, far beyond hysteresis.
    hot_server = a["fs000"]
    shifted = {
        f: (10.0 if a[f] == hot_server else 0.001) for f in FILESETS
    }
    ctx = make_context(a, oracle=shifted, speeds=speeds)
    b = pol.update(ctx)
    assert b is not None
    validate_assignment(b, FILESETS, SERVERS)
    # The hot file sets were spread out.
    hot_after = {b[f] for f in FILESETS if shifted[f] == 10.0}
    assert len(hot_after) > 1


def test_prescient_no_oracle_in_context_means_no_change():
    pol = PrescientPolicy()
    speeds = {s: 1.0 for s in SERVERS}
    pol.grant_oracle(speeds, {f: 1.0 for f in FILESETS})
    a = pol.initial_assignment(FILESETS, SERVERS)
    assert pol.update(make_context(a, oracle=None, speeds=speeds)) is None


def test_prescient_membership_change_repacks():
    pol = PrescientPolicy()
    speeds = {s: 1.0 for s in SERVERS}
    pol.grant_oracle(speeds, {f: 1.0 for f in FILESETS})
    a = pol.initial_assignment(FILESETS, SERVERS)
    survivors = SERVERS[:-1]
    b = pol.on_membership_change(FILESETS, survivors, a)
    validate_assignment(b, FILESETS, survivors)


def test_prescient_hysteresis_validation():
    with pytest.raises(ValueError):
        PrescientPolicy(hysteresis=-0.1)


# ----------------------------------------------------------------------
# ANU policy adapter
# ----------------------------------------------------------------------
def test_anu_policy_initial_and_update_cycle():
    pol = ANUPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    validate_assignment(a, FILESETS, SERVERS)
    hot = [ServerReport("s0", 1.0, 100)] + [
        ServerReport(s, 0.01, 100) for s in SERVERS[1:]
    ]
    b = pol.update(make_context(a, reports=hot))
    assert b is not None
    validate_assignment(b, FILESETS, SERVERS)
    counts_a = collections.Counter(a.values())
    counts_b = collections.Counter(b.values())
    assert counts_b["s0"] < counts_a["s0"]


def test_anu_policy_no_change_when_balanced():
    pol = ANUPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    balanced = [ServerReport(s, 0.01, 100) for s in SERVERS]
    assert pol.update(make_context(a, reports=balanced)) is None


def test_anu_policy_update_before_init_rejected():
    pol = ANUPolicy()
    with pytest.raises(RuntimeError):
        pol.update(make_context({}))


def test_anu_policy_membership_change_handles_fail_and_join():
    pol = ANUPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    survivors = [s for s in SERVERS if s != "s1"] + ["s9"]
    b = pol.on_membership_change(FILESETS, sorted(survivors), a)
    validate_assignment(b, FILESETS, survivors)
    assert set(pol.placement.servers) == set(survivors)


# ----------------------------------------------------------------------
# Decentralized ANU
# ----------------------------------------------------------------------
def test_decentralized_anu_runs_and_balances():
    pol = DecentralizedANUPolicy(rounds_per_interval=2)
    a = pol.initial_assignment(FILESETS, SERVERS)
    hot = [ServerReport("s0", 1.0, 100)] + [
        ServerReport(s, 0.01, 100) for s in SERVERS[1:]
    ]
    b = pol.update(make_context(a, reports=hot))
    assert b is not None
    validate_assignment(b, FILESETS, SERVERS)
    assert pol.exchange_log and pol.exchange_log[0] > 0


def test_decentralized_anu_rejects_bad_rounds():
    with pytest.raises(ValueError):
        DecentralizedANUPolicy(rounds_per_interval=0)


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
def test_ring_locate_deterministic():
    ring = ConsistentHashRing(SERVERS)
    assert ring.locate("fs1") == ring.locate("fs1")


def test_ring_minimal_movement_on_removal():
    ring = ConsistentHashRing(SERVERS, vnodes=128)
    before = {f: ring.locate(f) for f in FILESETS}
    ring.remove_server("s2")
    after = {f: ring.locate(f) for f in FILESETS}
    for f in FILESETS:
        if before[f] != "s2":
            assert after[f] == before[f]


def test_ring_weights_shift_mass():
    many = [f"k{i}" for i in range(3000)]
    ring = ConsistentHashRing(["a", "b"], vnodes=200, weights={"a": 3.0, "b": 1.0})
    counts = collections.Counter(ring.locate(k) for k in many)
    assert counts["a"] > 1.5 * counts["b"]


def test_ring_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(SERVERS, vnodes=0)
    ring = ConsistentHashRing(["a"])
    with pytest.raises(ValueError):
        ring.remove_server("zz")
    with pytest.raises(ValueError):
        ring.add_server("a")
    with pytest.raises(ValueError):
        ring.remove_server("a")  # cannot empty the ring


def test_consistent_hash_policy_membership():
    pol = ConsistentHashPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    validate_assignment(a, FILESETS, SERVERS)
    survivors = [s for s in SERVERS if s != "s0"]
    b = pol.on_membership_change(FILESETS, survivors, a)
    validate_assignment(b, FILESETS, survivors)
    moved = [f for f in FILESETS if a[f] != b[f] and a[f] != "s0"]
    assert not moved  # consistent hashing: only orphans move


def test_consistent_hash_policy_static():
    pol = ConsistentHashPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    assert pol.update(make_context(a)) is None


def test_anu_share_history_records_region_evolution():
    """The share-history log captures the region dynamics of Figures 3-4:
    every entry is half-occupancy-consistent and timestamps increase."""
    from repro.cluster import ClusterConfig, ClusterSimulation, paper_servers
    from repro.workloads import SyntheticConfig, generate_synthetic

    trace = generate_synthetic(
        SyntheticConfig(n_filesets=50, n_requests=6000, duration=1200.0,
                        seed=6)
    )
    pol = ANUPolicy()
    ClusterSimulation(
        ClusterConfig(servers=paper_servers(), seed=0), pol, trace
    ).run()
    assert pol.share_history  # tuning happened
    times = [t for t, _ in pol.share_history]
    assert times == sorted(times)
    for _, shares in pol.share_history:
        assert sum(shares.values()) == pytest.approx(0.5, abs=1e-9)
    # The slow server's region shrank from its uniform start.
    final = pol.share_history[-1][1]
    assert final["server0"] < 0.1


def test_anu_policy_tune_returns_decision_and_update_logs_shares():
    """``tune`` is the bare delegate round (the fs cluster calls it);
    ``update`` adds only the share-history entry of a tuned round."""
    pol = ANUPolicy()
    a = pol.initial_assignment(FILESETS, SERVERS)
    balanced = [ServerReport(s, 0.01, 100) for s in SERVERS]
    new, decision = pol.tune(balanced, FILESETS)
    assert new is None and not decision.tuned
    hot = [ServerReport("s0", 1.0, 100)] + [
        ServerReport(s, 0.01, 100) for s in SERVERS[1:]
    ]
    new, decision = pol.tune(hot, FILESETS)
    assert decision.tuned and "s0" in decision.tuned
    assert new == pol.placement.assignment(FILESETS)
    assert new != a
    assert pol.share_history == []
    # update() on a twin policy runs the same round and logs its shares.
    twin = ANUPolicy()
    twin.initial_assignment(FILESETS, SERVERS)
    twin.update(make_context(a, reports=balanced))
    assert twin.update(make_context(a, reports=hot)) == new
    assert twin.share_history == [(
        120.0,
        {s: pol.placement.interval.share_fraction(s) for s in SERVERS},
    )]
