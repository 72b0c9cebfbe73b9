"""Integration tests for the protocol-driven cluster simulation."""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulation, paper_servers
from repro.cluster.protocol_driver import ProtocolDrivenCluster
from repro.membership import FaultSchedule
from repro.placement import ANUPolicy
from repro.proto import NetworkConfig, ProtocolConfig
from repro.runtime import MemorySink
from repro.workloads import SyntheticConfig, Trace, generate_synthetic


def trace(n_requests: int = 8000, duration: float = 1200.0) -> Trace:
    return generate_synthetic(
        SyntheticConfig(n_filesets=60, n_requests=n_requests,
                        duration=duration, seed=2)
    )


def cluster_cfg(seed: int = 0) -> ClusterConfig:
    return ClusterConfig(servers=paper_servers(), tuning_interval=120.0,
                         sample_window=60.0, seed=seed)


def test_protocol_driven_run_completes_and_tunes():
    pd = ProtocolDrivenCluster(cluster_cfg(), trace())
    res = pd.run()
    assert res.run.total_requests == 8000
    assert res.config_updates_applied >= 1
    assert res.run.moves_started > 0
    assert res.delegate_history
    assert res.delegate_history[0][1] == "server4"  # highest priority


def test_protocol_driven_comparable_to_direct_anu():
    t = trace()
    direct = ClusterSimulation(cluster_cfg(), ANUPolicy(), t).run()
    res = ProtocolDrivenCluster(cluster_cfg(), t).run()
    # Same regime: within a small factor of the direct-call delegate.
    assert res.run.mean_latency < 5 * max(direct.mean_latency, 1e-4)


def test_delegate_crash_heals_and_tuning_continues():
    pd = ProtocolDrivenCluster(
        cluster_cfg(), trace(), faults=FaultSchedule().delegate_crash(400.0)
    )
    res = pd.run()
    assert res.run.total_requests == 8000
    delegates = [d for _, d in res.delegate_history]
    assert delegates[0] == "server4"
    assert "server3" in delegates  # fail-over happened
    # Config updates continued after the crash (epoch still advanced).
    assert res.config_updates_applied >= 2


def test_lossy_network_protocol_still_works():
    pd = ProtocolDrivenCluster(
        cluster_cfg(), trace(),
        network=NetworkConfig(min_latency=0.001, max_latency=0.02, loss=0.1),
    )
    res = pd.run()
    assert res.run.total_requests == 8000
    assert res.messages_dropped > 0
    assert res.config_updates_applied >= 1


def test_run_terminates_with_short_heartbeats():
    """Self-rescheduling protocol timers must not prevent engine drain."""
    pd = ProtocolDrivenCluster(
        cluster_cfg(), trace(n_requests=500, duration=300.0),
        protocol=ProtocolConfig(
            heartbeat_interval=0.2, heartbeat_timeout=0.7,
            election_timeout=0.1, report_timeout=0.2, tuning_interval=60.0,
        ),
    )
    res = pd.run()  # would hang before the shutdown hook existed
    assert res.run.total_requests == 500


def test_config_applied_exactly_once_per_epoch():
    pd = ProtocolDrivenCluster(cluster_cfg(), trace())
    res = pd.run()
    # Every applied epoch is distinct: the apply guard deduplicates the
    # per-node broadcast of each ConfigUpdate.
    assert res.config_updates_applied <= pd.plane.nodes["server4"].epoch


def test_one_tuning_record_per_delegate_round():
    """Only the elected delegate tunes: the wrapped simulation's own loop
    never runs, so no idle round emits a decision-less record."""
    sink = MemorySink()
    faults = (
        FaultSchedule()
        .fail(300.0, "server1")
        .delegate_crash(500.0)
        .recover(700.0, "server1")
    )
    pd = ProtocolDrivenCluster(
        cluster_cfg(), trace(), faults=faults, telemetry=sink
    )
    res = pd.run()
    decided = sink.of_kind("tuning")
    assert decided
    assert len(decided) == sum(n.rounds_run for n in pd.plane.nodes.values())
    assert res.run.tuning_rounds == len(decided)
    assert all(r.average is not None for r in decided)
    # One delegate at a time: no two records share a round's time.
    assert len({r.time for r in decided}) == len(decided)
