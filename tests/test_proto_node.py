"""Integration tests for the delegate protocol (election, tuning rounds,
config distribution, fail-over)."""

import pytest

from repro.core.tuning import ServerReport
from repro.proto import ControlPlane, NetworkConfig, ProtocolConfig

FAST = ProtocolConfig(
    heartbeat_interval=0.5,
    heartbeat_timeout=1.6,
    election_timeout=0.3,
    report_timeout=0.3,
    tuning_interval=3.0,
)


def skewed_model(name: str, now: float) -> ServerReport:
    """node00 is persistently slow; everyone else is fast."""
    return ServerReport(name, 0.5 if name == "node00" else 0.05, 100)


def test_bootstrap_elects_highest_priority():
    cp = ControlPlane(5, seed=0, protocol_config=FAST)
    cp.start()
    cp.run_until(2.0)
    assert cp.current_delegate() == "node04"
    assert cp.nodes["node04"].is_delegate


def test_all_nodes_learn_the_delegate():
    cp = ControlPlane(4, seed=1, protocol_config=FAST)
    cp.start()
    cp.run_until(3.0)
    for node in cp.nodes.values():
        assert node.delegate == "node03"


def test_tuning_rounds_shrink_slow_node_share():
    cp = ControlPlane(5, seed=2, protocol_config=FAST,
                      latency_model=skewed_model)
    cp.start()
    cp.run_until(30.0)
    assert cp.shares_agree()
    shares = cp.nodes["node02"].shares
    assert shares["node00"] < shares["node04"]
    assert cp.nodes["node04"].rounds_run >= 3


def test_config_epochs_monotone_per_node():
    cp = ControlPlane(5, seed=3, protocol_config=FAST,
                      latency_model=skewed_model)
    cp.start()
    cp.run_until(30.0)
    per_node: dict[str, list[int]] = {}
    for t, name, epoch in cp.config_log:
        per_node.setdefault(name, []).append(epoch)
    for name, epochs in per_node.items():
        assert epochs == sorted(epochs), name


def test_delegate_crash_triggers_failover():
    cp = ControlPlane(5, seed=4, protocol_config=FAST,
                      latency_model=skewed_model)
    cp.start()
    cp.run_until(5.0)
    assert cp.current_delegate() == "node04"
    cp.crash("node04")
    cp.run_until(15.0)
    assert cp.current_delegate() == "node03"
    assert cp.nodes["node03"].is_delegate
    # Tuning continues under the new delegate.
    rounds_before = cp.nodes["node03"].rounds_run
    cp.run_until(30.0)
    assert cp.nodes["node03"].rounds_run > rounds_before


def test_recovered_node_rejoins_without_usurping():
    cp = ControlPlane(4, seed=5, protocol_config=FAST)
    cp.start()
    cp.run_until(5.0)
    cp.crash("node03")
    cp.run_until(12.0)
    assert cp.current_delegate() == "node02"
    cp.recover("node03")
    cp.run_until(25.0)
    # node03 has the highest priority: it takes over on rejoining (bully).
    assert cp.current_delegate() == "node03"


def test_double_crash_failover_chain():
    cp = ControlPlane(5, seed=6, protocol_config=FAST)
    cp.start()
    cp.run_until(5.0)
    cp.crash("node04")
    cp.run_until(15.0)
    cp.crash("node03")
    cp.run_until(30.0)
    assert cp.current_delegate() == "node02"


def test_lossy_network_still_converges():
    cp = ControlPlane(
        5, seed=7, protocol_config=FAST, latency_model=skewed_model,
        network_config=NetworkConfig(min_latency=0.001, max_latency=0.01,
                                     loss=0.15),
    )
    cp.start()
    cp.run_until(60.0)
    assert cp.current_delegate() is not None
    delegate = cp.nodes[cp.current_delegate()]
    assert delegate.rounds_run >= 3
    shares = delegate.shares
    assert shares["node00"] < shares["node04"]


def test_single_node_control_plane():
    cp = ControlPlane(1, seed=9, protocol_config=FAST)
    cp.start()
    cp.run_until(5.0)
    assert cp.current_delegate() == "node00"


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(heartbeat_interval=2.0, heartbeat_timeout=1.0)


def test_control_plane_validation():
    with pytest.raises(ValueError):
        ControlPlane(0)


def test_delegate_crash_mid_collection_round():
    """The delegate dies between broadcasting a report request and the
    round deadline; replies land at a dead node and the cluster heals."""
    cp = ControlPlane(4, seed=10, protocol_config=FAST,
                      latency_model=skewed_model)
    cp.start()
    cp.run_until(5.0)
    delegate = cp.current_delegate()
    assert delegate is not None
    # The next tuning round fires at a multiple of tuning_interval (3 s);
    # crash 0.1 s after one fires, inside the 0.3 s report window.
    next_round = (int(cp.engine.now // 3.0) + 1) * 3.0
    cp.run_until(next_round + 0.1)
    cp.crash(delegate)
    cp.run_until(next_round + 30.0)
    healed = cp.current_delegate()
    assert healed is not None and healed != delegate
    assert cp.nodes[healed].rounds_run >= 1  # tuning resumed


def test_two_node_cluster_delegate_loss():
    """Minimal redundancy: with n=2, losing the delegate leaves a lone
    survivor that elects itself."""
    cp = ControlPlane(2, seed=11, protocol_config=FAST)
    cp.start()
    cp.run_until(3.0)
    cp.crash(cp.current_delegate())
    cp.run_until(15.0)
    assert cp.current_delegate() == cp.live_nodes[0]


@pytest.mark.parametrize("newcomer", ["chaos0", "node05"])
def test_commissioned_node_keeps_its_rank_after_a_peer_recovers(newcomer):
    """A commissioned node ranks above every existing node whatever its
    name: every node reads one rank map, so a recovering peer defers to
    the newcomer."""
    cp = ControlPlane(5, seed=1, protocol_config=FAST)
    cp.start()
    cp.run_until(10.0)
    cp.commission(newcomer)
    cp.run_until(20.0)
    cp.crash("node04")
    cp.run_until(30.0)
    cp.recover("node04")
    cp.run_until(45.0)
    assert cp.current_delegate() == newcomer
