"""Per-figure reproduction entry points.

Figures 3–5 are algorithm-behaviour illustrations; we reproduce them as
deterministic demonstrations over the interval data structure (no queueing
simulation needed):

- :func:`figure3_demo` — server heterogeneity: two fast + two slow servers
  serving uniform file sets; region scaling converges to speed-proportional
  shares;
- :func:`figure4_demo` — workload heterogeneity: uniform servers serving
  skewed file sets; regions scale inversely to hosted workload;
- :func:`figure5_demo` — adding a server repartitions the interval without
  moving any existing boundary.

Figures 6–11 are simulation experiments; :func:`run_figure` resolves the
figure id to its config and runs every policy against the shared trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import RunResult
from ..membership.faults import FaultSchedule
from ..core.anu import ANUPlacement
from ..core.interval import MappedInterval
from ..core.tuning import TuningConfig
from ..theory.bounds import tune_against_proxy
from .config import FIGURES, ExperimentConfig
from .runner import run_experiment


@dataclass
class IntervalDemoResult:
    """Outcome of an analytic tuning demonstration (Figures 3/4)."""

    placement: ANUPlacement
    initial_shares: dict[str, float]
    final_shares: dict[str, float]
    initial_counts: dict[str, int]
    final_counts: dict[str, int]
    iterations: int
    initial_latency_spread: float  # max/mean of the latency proxy at start
    final_latency_spread: float  # max/mean of the latency proxy at end


#: Delegate knobs for the Figure 3/4 demonstrations.
DEMO_TUNING = TuningConfig(
    use_thresholding=True, threshold=0.25, use_top_off=False,
    use_divergent=False, max_step=1.5,
)


def figure3_demo(n_filesets: int = 64) -> IntervalDemoResult:
    """Figure 3: heterogeneous servers, uniform file sets.

    Servers one and two are twice as fast as three and four; after
    reorganization the fast servers' mapped regions (and file-set counts)
    are roughly twice the slow servers'.
    """
    speeds = {"server1": 2.0, "server2": 2.0, "server3": 1.0, "server4": 1.0}
    placement = ANUPlacement(sorted(speeds))
    names = [f"fs{i:03d}" for i in range(n_filesets)]
    weights = {n: 1.0 for n in names}
    return _run_demo(placement, speeds, weights)


def figure4_demo(n_filesets: int = 64) -> IntervalDemoResult:
    """Figure 4: uniform servers, non-uniform file sets.

    A handful of file sets carry most of the workload; servers hosting them
    shrink their regions and the others grow, balancing latency while counts
    diverge.
    """
    speeds = {f"server{i}": 1.0 for i in range(1, 5)}
    placement = ANUPlacement(sorted(speeds))
    names = [f"fs{i:03d}" for i in range(n_filesets)]
    # Zipf-ish weights: a few heavy file sets, many light ones.
    weights = {n: 1.0 / (i + 1) for i, n in enumerate(names)}
    return _run_demo(placement, speeds, weights)


def _latency_spread(
    placement: ANUPlacement,
    speeds: dict[str, float],
    weights: dict[str, float],
) -> float:
    assignment = placement.assignment(sorted(weights))
    load = {s: 0.0 for s in placement.servers}
    for fs, server in assignment.items():
        load[server] += weights[fs]
    latencies = [load[s] / speeds[s] for s in placement.servers if load[s] > 0]
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    return max(latencies) / mean if mean > 0 else 1.0


def _run_demo(
    placement: ANUPlacement,
    speeds: dict[str, float],
    weights: dict[str, float],
) -> IntervalDemoResult:
    names = sorted(weights)
    initial_shares = {
        s: placement.interval.share_fraction(s) for s in placement.servers
    }
    initial_assignment = placement.assignment(names)
    initial_counts = _counts(initial_assignment, placement.servers)
    initial_spread = _latency_spread(placement, speeds, weights)
    iterations, spread = tune_against_proxy(
        placement, speeds, weights, 30, DEMO_TUNING
    )
    final_assignment = placement.assignment(names)
    return IntervalDemoResult(
        placement=placement,
        initial_shares=initial_shares,
        final_shares={
            s: placement.interval.share_fraction(s) for s in placement.servers
        },
        initial_counts=initial_counts,
        final_counts=_counts(final_assignment, placement.servers),
        iterations=iterations,
        initial_latency_spread=initial_spread,
        final_latency_spread=spread,
    )


def _counts(assignment: dict[str, str], servers: list[str]) -> dict[str, int]:
    counts = {s: 0 for s in servers}
    for server in assignment.values():
        counts[server] += 1
    return counts


@dataclass
class RepartitionDemoResult:
    """Outcome of the Figure 5 demonstration."""

    before: dict[str, list[tuple[float, float]]]
    after: dict[str, list[tuple[float, float]]]
    partitions_before: int
    partitions_after: int
    boundaries_preserved: bool
    free_partitions_after: int


def figure5_demo() -> RepartitionDemoResult:
    """Figure 5: adding a fifth server repartitions the unit interval.

    Starts from four servers with a highly skewed share distribution (the
    first server holds most of the mapped half), adds a fifth, and verifies
    that (a) the partition count doubled and (b) no existing region
    boundary moved — the paper's "further partitioning the unit interval
    does not move any existing load".
    """
    interval = MappedInterval(
        ["server1", "server2", "server3", "server4"],
        shares={"server1": 0.85, "server2": 0.05, "server3": 0.05, "server4": 0.05},
    )
    interval.check_invariants()
    before = {
        s: [(seg.start, seg.end) for seg in interval.segments(s)]
        for s in interval.servers
    }
    p_before = interval.partitions
    interval.add_server("server5")
    interval.check_invariants()
    after = {
        s: [(seg.start, seg.end) for seg in interval.segments(s)]
        for s in interval.servers
    }
    # Existing boundaries preserved: every old segment start that survives as
    # owned space still starts a segment of the same server (the newcomer's
    # share is carved by proportional scaling, which trims ends, not starts).
    preserved = all(
        any(abs(n_start - o_start) < 2**-40 for n_start, _ in after[s])
        for s in before
        for o_start, _ in before[s][:1]
    )
    return RepartitionDemoResult(
        before=before,
        after=after,
        partitions_before=p_before,
        partitions_after=interval.partitions,
        boundaries_preserved=preserved,
        free_partitions_after=len(interval.free_partitions()),
    )


def run_figure(
    experiment_id: str,
    quick: bool = False,
    seed: int = 0,
    faults: FaultSchedule | None = None,
) -> tuple[ExperimentConfig, dict[str, RunResult]]:
    """Run one of the simulation figures (fig6..fig11)."""
    try:
        factory = FIGURES[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {sorted(FIGURES)}"
        ) from None
    config = factory(quick=quick, seed=seed)
    results = run_experiment(config, faults)
    return config, results
