"""Scale study: ANU randomization as the cluster grows.

The paper's conclusion claims ANU "allows clusters to scale to sizes that
were previously unmanageable".  This study quantifies the scaling story
without the queueing simulator (which would dominate runtime at large n):

- **balance**: capacity-normalized load CoV after analytic tuning, for
  clusters of 5..128 heterogeneous servers;
- **reconfiguration locality**: fraction of file sets moved when one
  server is added to / removed from a tuned cluster;
- **state**: the replicated region map is O(servers) — partitions and
  mapped segments counted explicitly;
- **addressing**: probes per locate (should stay ~2 regardless of n).

All quantities use the analytic latency proxy (load/speed) that the
interval demos use; the queueing figures already validate that the proxy
and the simulator agree in regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.anu import ANUPlacement
from ..sim.rng import StreamFactory
from ..core.movement import diff_assignment
from ..core.tuning import TuningConfig
from ..metrics.balance import coefficient_of_variation
from ..theory.bounds import tune_against_proxy


@dataclass(frozen=True)
class ScalePoint:
    """Measurements for one cluster size."""

    n_servers: int
    n_filesets: int
    partitions: int
    segments: int
    balance_cov: float
    mean_probes: float
    add_moved_fraction: float
    remove_moved_fraction: float
    tuning_rounds: int


def _speeds(n: int, rng: np.random.Generator) -> dict[str, float]:
    """Heterogeneous speeds: the paper's 1..9 odd ladder, cycled."""
    ladder = [1.0, 3.0, 5.0, 7.0, 9.0]
    return {f"s{i:03d}": ladder[i % len(ladder)] for i in range(n)}


def _weights(m: int, rng: np.random.Generator) -> dict[str, float]:
    """Skewed file-set weights (x^4 power law, as in the synthetic
    workload)."""
    x = rng.uniform(0.05, 1.0, size=m)
    w = x**4
    return {f"fs{i:05d}": float(w[i]) for i in range(m)}


#: Delegate knobs for the scale study's analytic tuning.
SCALE_TUNING = TuningConfig(
    use_thresholding=True, threshold=0.2, use_top_off=False,
    use_divergent=False, max_step=2.0,
)


def measure_scale_point(
    n_servers: int,
    filesets_per_server: int = 50,
    tuning_rounds: int = 20,
    seed: int = 0,
) -> ScalePoint:
    """Tune a cluster of ``n_servers`` and measure the scaling metrics."""
    rng = StreamFactory(seed).stream("scale.measure")
    speeds = _speeds(n_servers, rng)
    weights = _weights(n_servers * filesets_per_server, rng)
    placement = ANUPlacement(sorted(speeds))
    rounds, _spread = tune_against_proxy(
        placement, speeds, weights, tuning_rounds, SCALE_TUNING
    )

    names = sorted(weights)
    assignment = placement.assignment(names)
    load = {s: 0.0 for s in placement.servers}
    for fs, server in assignment.items():
        load[server] += weights[fs]
    cov = coefficient_of_variation(load, speeds)

    probes = [placement.locate_with_rounds(n)[1] for n in names[:2000]]
    segments = sum(
        len(placement.interval.segments(s)) for s in placement.servers
    )

    # Membership-change locality on the tuned cluster.
    placement.add_server("extra")
    after_add = placement.assignment(names)
    add_frac = diff_assignment(assignment, after_add).moved_fraction
    placement.remove_server("extra")
    after_remove = placement.assignment(names)
    remove_frac = diff_assignment(after_add, after_remove).moved_fraction

    return ScalePoint(
        n_servers=n_servers,
        n_filesets=len(weights),
        partitions=placement.interval.partitions,
        segments=segments,
        balance_cov=cov,
        mean_probes=float(np.mean(probes)),
        add_moved_fraction=add_frac,
        remove_moved_fraction=remove_frac,
        tuning_rounds=rounds,
    )


def scale_study(
    sizes: tuple[int, ...] = (5, 10, 20, 40, 80),
    filesets_per_server: int = 50,
    seed: int = 0,
) -> list[ScalePoint]:
    """The full sweep (one point per cluster size)."""
    return [
        measure_scale_point(n, filesets_per_server, seed=seed) for n in sizes
    ]


def scale_table(points: list[ScalePoint]) -> str:
    """ASCII table of the scale-study points."""
    header = (
        f"{'n':>5s} {'filesets':>9s} {'p':>6s} {'segments':>9s} "
        f"{'CoV':>7s} {'probes':>7s} {'add-moved':>10s} {'rm-moved':>9s}"
    )
    lines = [header, "-" * len(header)]
    for pt in points:
        lines.append(
            f"{pt.n_servers:5d} {pt.n_filesets:9d} {pt.partitions:6d} "
            f"{pt.segments:9d} {pt.balance_cov:7.3f} {pt.mean_probes:7.2f} "
            f"{pt.add_moved_fraction:10.3f} {pt.remove_moved_fraction:9.3f}"
        )
    return "\n".join(lines)
