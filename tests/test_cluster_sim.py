"""Integration tests for the full cluster simulation."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    MoveCostModel,
    ServerSpec,
    paper_servers,
)
from repro.placement import (
    ANUPolicy,
    PrescientPolicy,
    RoundRobinPolicy,
    SimpleRandomPolicy,
)
from repro.workloads import SyntheticConfig, Trace, generate_synthetic


def small_trace(seed: int = 3, n_requests: int = 6000) -> Trace:
    return generate_synthetic(
        SyntheticConfig(
            n_filesets=40, n_requests=n_requests, duration=1200.0,
            request_cost=0.35, seed=seed,
        )
    )


def small_cluster(**kw) -> ClusterConfig:
    defaults = dict(servers=paper_servers(), tuning_interval=120.0,
                    sample_window=60.0, seed=1)
    defaults.update(kw)
    return ClusterConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(servers=())
    with pytest.raises(ValueError):
        ClusterConfig(servers=(ServerSpec("a", 1.0), ServerSpec("a", 2.0)))
    with pytest.raises(ValueError):
        ClusterConfig(servers=paper_servers(), tuning_interval=0.0)


def test_all_requests_complete():
    trace = small_trace()
    res = ClusterSimulation(small_cluster(), RoundRobinPolicy(), trace).run()
    assert res.total_requests == len(trace)
    assert sum(res.completed.values()) == len(trace)


def test_static_policy_never_moves():
    trace = small_trace()
    res = ClusterSimulation(small_cluster(), SimpleRandomPolicy(), trace).run()
    assert res.moves_started == 0
    assert res.ledger.total_moves == 0


def test_anu_moves_and_completes_everything():
    trace = small_trace()
    res = ClusterSimulation(small_cluster(), ANUPolicy(), trace).run()
    assert res.total_requests == len(trace)
    assert res.moves_started > 0
    assert res.moves_completed == res.moves_started


def test_deterministic_replay():
    trace = small_trace()
    r1 = ClusterSimulation(small_cluster(), ANUPolicy(), trace).run()
    r2 = ClusterSimulation(small_cluster(), ANUPolicy(), trace).run()
    assert r1.mean_latency == r2.mean_latency
    assert r1.moves_started == r2.moves_started
    assert r1.completed == r2.completed
    for s in r1.series.servers:
        assert np.array_equal(r1.series.mean_latency[s], r2.series.mean_latency[s])


def test_seed_changes_mover_draws_but_not_totals():
    trace = small_trace()
    r1 = ClusterSimulation(small_cluster(seed=1), ANUPolicy(), trace).run()
    r2 = ClusterSimulation(small_cluster(seed=2), ANUPolicy(), trace).run()
    assert r1.total_requests == r2.total_requests == len(trace)


def test_tuning_rounds_match_duration():
    trace = small_trace()
    res = ClusterSimulation(small_cluster(), RoundRobinPolicy(), trace).run()
    assert res.tuning_rounds == int(trace.duration // 120.0)


def test_anu_beats_static_on_heterogeneous_cluster():
    """The paper's core claim at small scale: ANU's worst server does far
    better than static placement's worst server."""
    trace = small_trace(n_requests=9000)
    static = ClusterSimulation(small_cluster(), SimpleRandomPolicy(), trace).run()
    anu = ClusterSimulation(small_cluster(), ANUPolicy(), trace).run()
    worst_static = max(static.series.tail_window_mean(s, 5) for s in static.series.servers)
    worst_anu = max(anu.series.tail_window_mean(s, 5) for s in anu.series.servers)
    assert worst_anu < worst_static


def test_prescient_starts_balanced():
    trace = small_trace()
    pol = PrescientPolicy()
    pol.grant_oracle(
        {s.name: s.speed for s in paper_servers()},
        trace.demand_by_fileset(0.0, 120.0),
    )
    res = ClusterSimulation(small_cluster(), pol, trace).run()
    # First window: no server should be catastrophically overloaded.
    first = {s: res.series.mean_latency[s][0] for s in res.series.servers}
    assert max(first.values()) < 1.0


def test_move_cost_zero_speeds_convergence():
    trace = small_trace()
    free = small_cluster(move_cost=MoveCostModel(0.0, 0.0, 0, 1.0))
    res = ClusterSimulation(free, ANUPolicy(), trace).run()
    assert res.total_requests == len(trace)


def test_utilization_reported_for_all_servers():
    trace = small_trace()
    res = ClusterSimulation(small_cluster(), RoundRobinPolicy(), trace).run()
    assert set(res.utilization) == {s.name for s in paper_servers()}
    assert all(0.0 <= u <= 1.0 + 1e-9 for u in res.utilization.values())


def test_final_assignment_covers_all_filesets():
    trace = small_trace()
    res = ClusterSimulation(small_cluster(), ANUPolicy(), trace).run()
    assert set(res.final_assignment) == set(trace.fileset_names)


def test_summary_keys():
    trace = small_trace(n_requests=500)
    res = ClusterSimulation(small_cluster(), RoundRobinPolicy(), trace).run()
    assert set(res.summary()) == {
        "mean_latency", "total_requests", "moves", "tuning_rounds", "retries",
    }


def test_single_server_cluster_works():
    trace = small_trace(n_requests=500)
    cfg = ClusterConfig(servers=(ServerSpec("only", 5.0),), seed=0)
    res = ClusterSimulation(cfg, RoundRobinPolicy(), trace).run()
    assert res.total_requests == len(trace)
    assert res.completed["only"] == len(trace)
