"""Balls-into-bins bounds behind the paper's §4 load-balance claims.

The paper states that for ``n`` servers and ``m`` file sets, ANU
randomization keeps each server's load at ``m/n + O(...)`` with high
probability — "as small as any known bound" — whereas simple randomization
is bounded by ``Θ(m/n · log n / log log n)`` in the heavily-loaded regime
(and ``Θ(log n / log log n)`` for ``m = n``).

This module provides the analytic expressions and Monte-Carlo machinery to
check them empirically (the ``bench_abl_bounds`` ablation): simple
randomization's normalized max load grows with ``n`` like the classic
bound, while ANU after tuning holds the max within a small constant of the
mean independent of ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..sim.rng import StreamFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.anu import ANUPlacement
    from ..core.tuning import TuningConfig


def max_load_simple_randomization(n_bins: int, n_balls: int) -> float:
    """Expected max load under uniform random placement (leading terms).

    For ``m >= n log n`` (heavily loaded): ``m/n + sqrt(2 (m/n) log n)``.
    For ``m ~ n``: ``log n / log log n`` scaling.  Both are classic results
    (Raab & Steger 1998); we return the heavily-loaded form when it
    applies, else the sparse form.
    """
    if n_bins < 2 or n_balls < 1:
        raise ValueError("need n_bins >= 2 and n_balls >= 1")
    mean = n_balls / n_bins
    log_n = math.log(n_bins)
    if n_balls >= n_bins * log_n:
        return mean + math.sqrt(2.0 * mean * log_n)
    loglog = math.log(max(log_n, math.e))
    return mean * (log_n / loglog)


def normalized_max_load(counts: np.ndarray) -> float:
    """max/mean of observed per-bin counts (1.0 = perfect balance)."""
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean() if len(counts) else 0.0
    return float(counts.max() / mean) if mean > 0 else 1.0


@dataclass(frozen=True)
class BinsExperiment:
    """Monte-Carlo result for one (n_bins, n_balls) configuration."""

    n_bins: int
    n_balls: int
    trials: int
    mean_normalized_max: float
    predicted_normalized_max: float


def simulate_simple_randomization(
    n_bins: int, n_balls: int, trials: int, seed: int = 0
) -> BinsExperiment:
    """Monte-Carlo the normalized max load of uniform random placement."""
    rng = StreamFactory(seed).stream("theory.bins")
    maxes = np.empty(trials)
    for t in range(trials):
        counts = np.bincount(
            rng.integers(0, n_bins, size=n_balls), minlength=n_bins
        )
        maxes[t] = normalized_max_load(counts)
    predicted = max_load_simple_randomization(n_bins, n_balls) / (n_balls / n_bins)
    return BinsExperiment(
        n_bins=n_bins,
        n_balls=n_balls,
        trials=trials,
        mean_normalized_max=float(maxes.mean()),
        predicted_normalized_max=predicted,
    )


def tune_against_proxy(
    placement: "ANUPlacement",
    speeds: Mapping[str, float],
    weights: Mapping[str, float],
    rounds: int,
    config: "TuningConfig",
) -> tuple[int, float]:
    """Run up to ``rounds`` delegate rounds against an analytic latency proxy.

    A server's proxy latency is the summed weight of the file sets it
    hosts divided by its speed: the steady-state, utilization-driven
    latency the simulator's reports converge to.  Each round assigns the
    file sets of ``weights``, reports the proxy, and rescales the regions
    when the delegate tunes.  Returns the rounds run before the delegate
    stopped tuning (``rounds`` if it never stopped) and the max/mean
    spread of the proxy latencies as last measured.
    """
    from ..core.tuning import DelegateTuner, ServerReport

    tuner = DelegateTuner(config)
    names = sorted(weights)
    spread = float("inf")
    for i in range(rounds):
        load = dict.fromkeys(placement.servers, 0.0)
        count = dict.fromkeys(placement.servers, 0)
        for fs, server in placement.assignment(names).items():
            load[server] += weights[fs]
            count[server] += 1
        reports = [
            ServerReport(s, load[s] / speeds[s], count[s])
            for s in placement.servers
        ]
        latencies = [r.mean_latency for r in reports if r.request_count > 0]
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        spread = max(latencies) / mean if mean > 0 else 1.0
        decision = tuner.compute(placement.shares(), reports)
        if not decision.tuned:
            return i, spread
        placement.set_shares(decision.new_shares)
        placement.check_invariants()
    return rounds, spread


def anu_normalized_max_after_tuning(
    n_servers: int, n_filesets: int, rounds: int = 20, seed: int = 0
) -> float:
    """Normalized max file-set count under ANU after count-driven tuning.

    Uses file-set count as the latency proxy (uniform file sets, uniform
    servers): each round the delegate shrinks over-counted servers.  The
    result should approach a small constant independent of ``n_servers``,
    in contrast to simple randomization's growth with ``n``.
    """
    from ..core.anu import ANUPlacement
    from ..core.tuning import TuningConfig

    placement = ANUPlacement([f"s{i}" for i in range(n_servers)])
    names = [f"fs{i}-{seed}" for i in range(n_filesets)]
    tune_against_proxy(
        placement,
        dict.fromkeys(placement.servers, 1.0),
        dict.fromkeys(names, 1.0),
        rounds,
        TuningConfig(use_thresholding=True, threshold=0.05,
                     use_top_off=False, use_divergent=False, max_step=2.0),
    )
    assignment = placement.assignment(names)
    final = np.bincount(
        [sorted(placement.servers).index(s) for s in assignment.values()],
        minlength=n_servers,
    )
    return normalized_max_load(final)
