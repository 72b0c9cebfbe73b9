"""Tests for the balls-into-bins bounds module."""

import pytest

from repro.theory import (
    anu_normalized_max_after_tuning,
    max_load_simple_randomization,
    normalized_max_load,
    simulate_simple_randomization,
)


def test_heavily_loaded_bound_form():
    # m = n log n boundary: heavily loaded form applies.
    val = max_load_simple_randomization(16, 16 * 10)
    assert val > 10.0  # above the mean


def test_sparse_bound_form():
    val = max_load_simple_randomization(1000, 1000)
    assert val > 1.0


def test_bound_validation():
    with pytest.raises(ValueError):
        max_load_simple_randomization(1, 10)
    with pytest.raises(ValueError):
        max_load_simple_randomization(10, 0)


def test_normalized_max_load():
    assert normalized_max_load([5, 5, 5]) == 1.0
    assert normalized_max_load([9, 0, 0]) == 3.0
    assert normalized_max_load([]) == 1.0


def test_simulation_matches_prediction_loosely():
    exp = simulate_simple_randomization(n_bins=20, n_balls=2000, trials=30)
    assert exp.mean_normalized_max == pytest.approx(
        exp.predicted_normalized_max, rel=0.25
    )
    assert exp.mean_normalized_max > 1.05  # visible imbalance


def test_simple_randomization_imbalance_grows_with_n():
    small = simulate_simple_randomization(n_bins=5, n_balls=500, trials=20)
    large = simulate_simple_randomization(n_bins=80, n_balls=8000, trials=20)
    assert large.mean_normalized_max > small.mean_normalized_max


def test_anu_tuning_caps_imbalance_independent_of_n():
    """After tuning, ANU's normalized max load stays within a small constant
    — the §4 claim — while simple randomization's grows with n."""
    for n in (5, 20):
        ratio = anu_normalized_max_after_tuning(n, n * 100, rounds=25)
        assert ratio < 1.35
    anu_large = anu_normalized_max_after_tuning(40, 4000, rounds=25)
    simple_large = simulate_simple_randomization(40, 4000, trials=10)
    assert anu_large < simple_large.mean_normalized_max


def test_tune_against_proxy_shrinks_the_slow_servers_region():
    """The shared analytic tuning loop: the first round measures the
    uniform start, later rounds the rescaled regions, and it reports the
    round at which the delegate stopped tuning."""
    from repro.core.anu import ANUPlacement
    from repro.core.tuning import TuningConfig
    from repro.theory.bounds import tune_against_proxy

    speeds = {"s0": 1.0, "s1": 3.0, "s2": 5.0, "s3": 7.0}
    weights = {f"fs{i}": 1.0 for i in range(200)}
    start = ANUPlacement(sorted(speeds))
    ran, start_spread = tune_against_proxy(
        start, speeds, weights, 1, TuningConfig()
    )
    assert ran == 1 and start_spread > 1.5
    tuned = ANUPlacement(sorted(speeds))
    stopped, spread = tune_against_proxy(
        tuned, speeds, weights, 40, TuningConfig()
    )
    assert 1 <= stopped < 40
    assert spread < start_spread
    shares = tuned.shares()
    assert shares["s0"] < min(shares[s] for s in ("s1", "s2", "s3"))
