"""End-to-end: the queueing figures with tuning over the wire.

Runs the Figure-8-style synthetic comparison with ANU's tuning driven by
the message-level delegate protocol (election, reports, config updates on
a lossy network, sharing the queueing simulation's event engine), with a
delegate crash mid-run.  The result must land in the same regime as the
direct-call delegate — demonstrating that the §4 control plane, not just
the abstract tuner, sustains the paper's results.
"""

from dataclasses import replace

from conftest import quick_mode, run_once

from repro.cluster import ClusterConfig, ClusterSimulation, paper_servers
from repro.cluster.protocol_driver import ProtocolDrivenCluster
from repro.membership import FaultSchedule
from repro.placement import ANUPolicy
from repro.proto import NetworkConfig
from repro.workloads import SyntheticConfig, generate_synthetic


def run_both():
    n_requests = 12_000 if quick_mode() else 40_000
    duration = 1_500.0 if quick_mode() else 4_000.0
    trace = generate_synthetic(
        SyntheticConfig(n_filesets=120, n_requests=n_requests,
                        duration=duration, seed=5)
    )
    cfg = ClusterConfig(servers=paper_servers(), tuning_interval=120.0,
                        sample_window=60.0, seed=0)
    direct = ClusterSimulation(cfg, ANUPolicy(), trace).run()
    protocol = ProtocolDrivenCluster(
        cfg, trace,
        network=NetworkConfig(min_latency=0.001, max_latency=0.02, loss=0.05),
        faults=FaultSchedule().delegate_crash(duration / 2),
    ).run()
    return direct, protocol


def test_protocol_driven_figures(benchmark):
    direct, protocol = run_once(benchmark, run_both)
    r = protocol.run
    print()
    print("Tuning over the wire (5% loss, delegate crash mid-run):")
    print(f"  direct-call delegate: mean {direct.mean_latency * 1000:8.1f} ms, "
          f"{direct.moves_started} moves")
    print(f"  protocol delegate:    mean {r.mean_latency * 1000:8.1f} ms, "
          f"{r.moves_started} moves, {protocol.config_updates_applied} configs, "
          f"{protocol.messages_sent} msgs ({protocol.messages_dropped} dropped)")
    print(f"  delegates over time:  {protocol.delegate_history}")

    assert r.total_requests == direct.total_requests
    # Same regime as the direct-call delegate.
    assert r.mean_latency < 5 * max(direct.mean_latency, 1e-4)
    # The crash really happened and was healed.
    assert len(protocol.delegate_history) >= 2
    assert protocol.config_updates_applied >= 2
