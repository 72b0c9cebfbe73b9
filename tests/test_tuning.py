"""Unit tests for the delegate tuner and the over-tuning heuristics."""

import pytest

from repro.core.tuning import (
    AGGRESSIVE,
    ALL_HEURISTICS,
    DIVERGENT_ONLY,
    THRESHOLD_ONLY,
    TOP_OFF_ONLY,
    DelegateTuner,
    ServerReport,
    TuningConfig,
    system_average,
)
from repro.membership.faults import FaultEvent, FaultKind


def reports(latencies: dict[str, float], count: int = 100) -> list[ServerReport]:
    return [ServerReport(k, v, count if v > 0 else 0) for k, v in latencies.items()]


EQUAL = {"a": 1.0, "b": 1.0, "c": 1.0}


def test_server_report_validation():
    with pytest.raises(ValueError):
        ServerReport("a", -1.0, 10)
    with pytest.raises(ValueError):
        ServerReport("a", 1.0, -1)


def test_system_average_weighted_mean():
    rs = [ServerReport("a", 0.1, 300), ServerReport("b", 0.5, 100)]
    assert system_average(rs) == pytest.approx((0.1 * 300 + 0.5 * 100) / 400)


def test_system_average_median_and_mean():
    rs = [
        ServerReport("a", 0.1, 1),
        ServerReport("b", 0.2, 1),
        ServerReport("c", 10.0, 1),
    ]
    assert system_average(rs, "median") == pytest.approx(0.2)
    assert system_average(rs, "mean") == pytest.approx(10.3 / 3)


def test_system_average_ignores_idle_servers():
    rs = [ServerReport("a", 0.5, 10), ServerReport("b", 0.0, 0)]
    assert system_average(rs) == pytest.approx(0.5)


def test_system_average_all_idle_is_zero():
    rs = [ServerReport("a", 0.0, 0)]
    assert system_average(rs) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        TuningConfig(threshold=-0.1)
    with pytest.raises(ValueError):
        TuningConfig(max_step=1.0)
    with pytest.raises(ValueError):
        TuningConfig(average="mode")


def test_mismatched_reports_rejected():
    tuner = DelegateTuner(AGGRESSIVE)
    with pytest.raises(ValueError):
        tuner.compute(EQUAL, reports({"a": 1.0, "b": 1.0}))


def test_aggressive_shrinks_hot_and_grows_cold():
    tuner = DelegateTuner(AGGRESSIVE)
    decision = tuner.compute(EQUAL, reports({"a": 0.9, "b": 0.1, "c": 0.1}))
    assert decision.new_shares["a"] < EQUAL["a"]
    assert decision.new_shares["b"] > EQUAL["b"]
    assert "a" in decision.tuned and "b" in decision.tuned


def test_no_tuning_when_no_load():
    tuner = DelegateTuner(AGGRESSIVE)
    decision = tuner.compute(EQUAL, reports({"a": 0.0, "b": 0.0, "c": 0.0}, count=0))
    assert decision.tuned == {}
    assert decision.new_shares == EQUAL


def test_factor_clamped_by_max_step():
    tuner = DelegateTuner(TuningConfig(
        use_thresholding=False, use_top_off=False, use_divergent=False,
        max_step=4.0, average="median",
    ))
    # Leave-one-out medians: ref(a)=0.505, ref(c)=50.5 — raw factors far
    # beyond the clamp in both directions.
    decision = tuner.compute(EQUAL, reports({"a": 100.0, "b": 1.0, "c": 0.01}))
    assert decision.tuned["a"] == pytest.approx(0.25)
    assert decision.tuned["c"] == pytest.approx(4.0)
    # b is far below its own reference (median of 100 and 0.01), so with
    # thresholding off it grows, clamped as well.
    assert decision.tuned["b"] == pytest.approx(4.0)


def test_thresholding_leaves_in_band_servers_alone():
    tuner = DelegateTuner(THRESHOLD_ONLY)  # t = 0.5
    # Each server sits inside [ref*(1-t), ref*(1+t)] of its leave-one-out
    # reference: ref(a)=0.85, ref(b)=1.05, ref(c)=1.0.
    decision = tuner.compute(EQUAL, reports({"a": 1.2, "b": 0.8, "c": 0.9}))
    assert decision.tuned == {}


def test_thresholding_tunes_out_of_band_servers():
    tuner = DelegateTuner(TuningConfig(
        use_thresholding=True, use_top_off=False, use_divergent=False,
        threshold=0.4,
    ))
    decision = tuner.compute(
        EQUAL, reports({"a": 5.0, "b": 1.0, "c": 1.0})
    )
    # Average (weighted) = 7/3 ~ 2.33; band [1.4, 3.27]: a above, b/c below.
    assert decision.new_shares["a"] < 1.0
    assert decision.new_shares["b"] > 1.0


def test_top_off_never_explicitly_grows():
    tuner = DelegateTuner(TOP_OFF_ONLY)
    decision = tuner.compute(EQUAL, reports({"a": 10.0, "b": 0.01, "c": 0.01}))
    assert decision.tuned.keys() == {"a"}
    assert decision.new_shares["a"] < 1.0
    assert decision.new_shares["b"] == 1.0  # grows only via renormalization


def test_divergent_requires_motion_away_from_average():
    tuner = DelegateTuner(DIVERGENT_ONLY)
    current = reports({"a": 2.0, "b": 0.5, "c": 1.0})
    prev_converging = reports({"a": 3.0, "b": 0.4, "c": 1.0})
    # a fell from 3->2 (converging down), b rose 0.4->0.5 (converging up):
    # neither is diverging, so nothing is tuned.
    decision = tuner.compute(EQUAL, current, prev_converging)
    assert decision.tuned == {}

    prev_diverging = reports({"a": 1.5, "b": 0.8, "c": 1.0})
    # a rose 1.5->2 while above average, b fell 0.8->0.5 while below.
    decision = tuner.compute(EQUAL, current, prev_diverging)
    assert set(decision.tuned) == {"a", "b"}


def test_divergent_skipped_without_previous_reports():
    """Delegate fail-over: stateless degradation tunes without the gate."""
    tuner = DelegateTuner(DIVERGENT_ONLY)
    decision = tuner.compute(EQUAL, reports({"a": 2.0, "b": 0.5, "c": 1.0}), None)
    assert decision.tuned  # gate skipped -> tuning proceeds


def test_idle_server_gets_grow_seed():
    cfg = TuningConfig(
        use_thresholding=False, use_top_off=False, use_divergent=False,
        grow_seed_fraction=0.05,
    )
    tuner = DelegateTuner(cfg)
    shares = {"a": 1.0, "b": 0.0}
    decision = tuner.compute(
        shares, [ServerReport("a", 1.0, 100), ServerReport("b", 0.0, 0)]
    )
    # b is idle (latency 0 < avg) and holds nothing; the seed lets it grow.
    assert decision.new_shares["b"] > 0.0


def test_all_heuristics_stable_on_balanced_system():
    tuner = DelegateTuner(ALL_HEURISTICS)
    decision = tuner.compute(EQUAL, reports({"a": 1.0, "b": 1.05, "c": 0.95}))
    assert decision.tuned == {}


def test_decision_preserves_relative_share_of_untuned():
    tuner = DelegateTuner(TOP_OFF_ONLY)
    shares = {"a": 2.0, "b": 1.0, "c": 1.0}
    decision = tuner.compute(shares, reports({"a": 10.0, "b": 0.1, "c": 0.1}))
    assert decision.new_shares["b"] == shares["b"]
    assert decision.new_shares["c"] == shares["c"]


# ----------------------------------------------------------------------
# Gray-failure regressions: unit discipline, all-idle no-op, limp-then-idle
# ----------------------------------------------------------------------
def test_system_average_returns_float_seconds_for_every_method():
    """Regression: the ``-> Seconds`` annotation lied — bare ints/floats
    leaked out of ``system_average`` (and 0.0 for the no-active case was
    an int-ish literal).  Every path now returns a float Seconds value."""
    rs = [ServerReport("a", 0.25, 4), ServerReport("b", 0.75, 4)]
    for method in ("weighted_mean", "mean", "median"):
        value = system_average(rs, method)
        assert isinstance(value, float)
    assert isinstance(system_average([], "median"), float)
    assert system_average([ServerReport("a", 0.0, 0)], "mean") == 0.0


def test_all_idle_round_is_an_explicit_noop():
    """Regression: an all-idle report set used to fall through to the
    zero-width band ``[0, 0]`` comparison; it is now a declared no-op."""
    tuner = DelegateTuner(AGGRESSIVE)
    shares = {"a": 2.0, "b": 0.5, "c": 1.0}
    idle = [ServerReport(n, 0.0, 0) for n in shares]
    decision = tuner.compute(shares, idle)
    assert decision.average == 0.0
    assert decision.new_shares == shares
    assert decision.tuned == {}


def test_limp_then_idle_server_is_not_rewarded():
    """Regression for the ``latency <= 0.0`` max-boost path.

    A limping server the tuner already shrank to idle reports zero
    latency with zero requests; granting it ``max_step`` would yo-yo it
    straight back into rotation.  Unobserved zero latency must be
    neutral (factor 1.0, share unchanged)."""
    tuner = DelegateTuner(AGGRESSIVE)
    shares = {"a": 1.0, "b": 0.4}  # b's share is above the grow-seed floor
    decision = tuner.compute(
        shares, [ServerReport("a", 1.0, 100), ServerReport("b", 0.0, 0)]
    )
    assert decision.new_shares["b"] == shares["b"]
    assert decision.tuned.get("b", 1.0) == 1.0


def test_observed_zero_latency_still_earns_the_max_boost():
    """The counterpart: zero latency backed by served requests is a real
    observation and keeps the pre-fix behaviour (clamped max growth)."""
    tuner = DelegateTuner(AGGRESSIVE)
    shares = {"a": 1.0, "b": 0.4}
    decision = tuner.compute(
        shares, [ServerReport("a", 1.0, 100), ServerReport("b", 0.0, 50)]
    )
    assert decision.tuned["b"] == pytest.approx(AGGRESSIVE.max_step)
    assert decision.new_shares["b"] > shares["b"]


# ----------------------------------------------------------------------
# Limping server under every heuristic: share decreases monotonically
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config",
    [THRESHOLD_ONLY, TOP_OFF_ONLY, DIVERGENT_ONLY, ALL_HEURISTICS],
    ids=["threshold", "top-off", "divergent", "all"],
)
def test_heuristics_shed_share_under_rising_latency_ramp(config):
    """A limping server whose latency rises monotonically (limplock
    getting worse) must lose mapped share monotonically under every
    heuristic combination — no gate may mistake the ramp for noise."""
    tuner = DelegateTuner(config)
    shares = {"a": 1.0, "b": 1.0, "limp": 1.0}
    previous = None
    history = [shares["limp"]]
    for step, limp_latency in enumerate([3.0, 5.0, 7.0, 9.0, 11.0, 13.0]):
        current = [
            ServerReport("a", 1.0, 100),
            ServerReport("b", 1.0, 100),
            ServerReport("limp", limp_latency, 100),
        ]
        decision = tuner.compute(shares, current, previous)
        assert decision.new_shares["limp"] <= shares["limp"], (
            f"{config!r} grew the limping server at ramp step {step}"
        )
        shares = decision.new_shares
        previous = current
        history.append(shares["limp"])
    assert history[-1] < history[0], (
        f"{config!r} never shed share across the whole ramp: {history}"
    )
    # The healthy servers never lost absolute share to the limper.
    assert shares["a"] >= 1.0 and shares["b"] >= 1.0


def test_median_average_robust_to_outlier():
    cfg = TuningConfig(
        use_thresholding=True, threshold=0.5, use_top_off=False,
        use_divergent=False, average="median",
    )
    tuner = DelegateTuner(cfg)
    decision = tuner.compute(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0},
        reports({"a": 100.0, "b": 1.0, "c": 1.1, "d": 0.9, "e": 1.0}),
    )
    # Median ~1.0: only the outlier is tuned.
    assert set(decision.tuned) == {"a"}


# ----------------------------------------------------------------------
# One delegate round per stack: history resets on the paper's two events
# ----------------------------------------------------------------------
#: The membership changes that re-place file sets; each is applied to a
#: server that is not the delegate at the time.
MEMBERSHIP_KINDS = [
    FaultKind.FAIL, FaultKind.RECOVER, FaultKind.COMMISSION,
    FaultKind.DECOMMISSION,
]


def _latencies(servers, step):
    """Reports that differ from round to round, so histories are told apart."""
    return reports({s: 0.01 * (1 + (i + step) % 3) for i, s in enumerate(servers)})


def _policy_stack(calls, kind):
    """The queueing cluster's ANUPolicy, driven directly; a membership
    change is the server set it is re-placed over."""
    import numpy as np

    from repro.placement import ANUPolicy, TuningContext

    policy, filesets = ANUPolicy(), [f"fs{i:02d}" for i in range(40)]
    state = {"servers": ["s0", "s1", "s2", "s3"]}
    policy.initial_assignment(filesets, state["servers"])

    def place(servers):
        state["servers"] = servers
        policy.on_membership_change(filesets, servers, {})

    if kind is FaultKind.RECOVER:
        place(["s0", "s2", "s3"])  # s1 starts down

    def round_():
        servers = state["servers"]
        policy.update(TuningContext(
            time=0.0, filesets=filesets, servers=servers, assignment={},
            reports=_latencies(servers, len(calls)),
            rng=np.random.default_rng(0),
        ))

    after = {
        FaultKind.FAIL: ["s0", "s2", "s3"],
        FaultKind.RECOVER: ["s0", "s1", "s2", "s3"],
        FaultKind.COMMISSION: ["s0", "s1", "s2", "s3", "s4"],
        FaultKind.DECOMMISSION: ["s0", "s2", "s3"],
    }[kind]
    return round_, policy.fail_delegate, lambda: place(after)


def _cluster_stack(calls, kind):
    """The metadata cluster (the full-system harness's delegate), with
    fail-over and membership routed through its director."""
    from repro.fs import MetadataCluster

    cluster = MetadataCluster(
        ["server0", "server1", "server2", "server3"],
        {f"fs{i}": f"/p{i}" for i in range(6)},
    )

    def apply(kind, server):
        cluster.director.apply(FaultEvent(0.0, kind, server))

    if kind is FaultKind.RECOVER:
        apply(FaultKind.FAIL, "server1")  # server1 starts down
    server = "server4" if kind is FaultKind.COMMISSION else "server1"
    return (
        lambda: cluster.retune(_latencies(cluster.roster.live(), len(calls))),
        lambda: apply(FaultKind.DELEGATE_CRASH, "*"),
        lambda: apply(kind, server),
    )


def _node_stack(calls, kind):
    """The message-level ServerNode delegate on a 3-node control plane; a
    round is whatever the elected delegate runs next.  node02 is the
    first delegate and the fail-over's victim, so node01 is the delegate
    when node00 fails, recovers or is decommissioned.  A commissioned
    node outranks every existing one and takes the role itself."""
    from repro.proto import ControlPlane, ProtocolConfig

    plane = ControlPlane(
        3, seed=8,
        protocol_config=ProtocolConfig(
            heartbeat_interval=0.5, heartbeat_timeout=1.6,
            election_timeout=0.3, report_timeout=0.3, tuning_interval=3.0,
        ),
        latency_model=lambda name, now: _latencies([name], int(now))[0],
    )
    plane.start()
    if kind is FaultKind.RECOVER:
        plane.crash("node00")  # node00 starts down

    def round_():
        before = len(calls)
        while len(calls) == before:
            plane.run_until(plane.engine.now + 0.1)

    server = "node03" if kind is FaultKind.COMMISSION else "node00"
    return (
        round_,
        lambda: plane.apply_fault(
            FaultEvent(plane.engine.now, FaultKind.DELEGATE_CRASH, "*")
        ),
        lambda: plane.apply_fault(FaultEvent(plane.engine.now, kind, server)),
    )


@pytest.mark.parametrize(
    "kind", MEMBERSHIP_KINDS, ids=[k.value for k in MEMBERSHIP_KINDS]
)
@pytest.mark.parametrize(
    "stack",
    [
        pytest.param(_policy_stack, id="ANUPolicy"),
        pytest.param(_cluster_stack, id="MetadataCluster"),
        pytest.param(_node_stack, id="ServerNode"),
    ],
)
def test_delegate_round_forgets_history_on_failover_and_membership_change(
    stack, kind, monkeypatch
):
    calls: list[tuple[list[ServerReport], list[ServerReport] | None]] = []
    original = DelegateTuner.compute

    def spy(self, current_shares, reports, previous=None):
        calls.append((list(reports), previous))
        return original(self, current_shares, reports, previous)

    monkeypatch.setattr(DelegateTuner, "compute", spy)
    round_, fail_over, change_membership = stack(calls, kind)
    for step in (round_, round_, fail_over, round_, round_,
                 change_membership, round_, round_):
        step()
    assert len(calls) == 6
    for k, (_reports, previous) in enumerate(calls):
        if k in (0, 2, 4):  # first round, after fail-over, after membership
            assert previous is None, f"round {k} saw stale history"
        else:
            assert previous == calls[k - 1][0], f"round {k} lost its history"


# ----------------------------------------------------------------------
# TuningLoop: the one first-round rule both timed harnesses share
# ----------------------------------------------------------------------
class _RecordingHost:
    """A host that logs each round's time and keeps its assignment."""

    def __init__(self) -> None:
        self.round_times: list[float] = []

    def build_tuning_context(self, now, interval):
        from types import SimpleNamespace

        self.round_times.append(now)
        return SimpleNamespace(reports=[], assignment={})

    def decide(self, context):
        return None, None

    def realize(self, old, new):  # pragma: no cover - decide never moves
        raise AssertionError("no assignment change was decided")


@pytest.mark.parametrize(
    "interval, duration, round_times",
    [
        (10.0, 35.0, [10.0, 20.0, 30.0]),
        (10.0, 10.0, [10.0]),
        (10.0, 9.0, []),
        (1e6, 35.0, []),
    ],
)
def test_tuning_loop_first_round_is_one_interval_in(
    interval, duration, round_times
):
    """A run shorter than one interval gets no round; otherwise rounds
    fall at every whole interval within the run."""
    from repro.runtime.loop import TuningLoop
    from repro.sim import Engine

    engine = Engine()
    host = _RecordingHost()
    loop = TuningLoop(engine, interval, duration, host)
    loop.start()
    engine.run()
    assert host.round_times == round_times
    assert loop.rounds == len(round_times)
