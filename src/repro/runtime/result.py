"""The unified simulation result shared by every harness.

Before :mod:`repro.runtime`, each harness grew its own result struct
(``RunResult`` in the queueing cluster, ``FullSystemResult`` in the timed
semantic stack) with duplicated summary math.  :class:`SimResult` is the
one shape; the legacy names survive as thin subclasses so existing
figures, benches, and tests keep working unchanged.

The result keeps a reference to its :class:`~repro.metrics.latency.
LatencyCollector` so tail percentiles go through the collector's
single-pass quantile fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.movement import MovementLedger
from ..metrics.latency import LatencyCollector, LatencySeries
from ..metrics.summary import run_summary, weighted_mean_latency

__all__ = ["SimResult", "summarize_collector"]


@dataclass
class SimResult:
    """Everything a figure, bench, or test reads from one simulated run."""

    policy_name: str
    duration: float
    series: LatencySeries
    ledger: MovementLedger
    completed: dict[str, int]
    utilization: dict[str, float]
    mean_latency: float
    total_requests: int
    moves_started: int
    moves_completed: int
    retries: int
    final_assignment: dict[str, str]
    tuning_rounds: int
    #: The raw sample store behind ``series`` (kept for fast-path tail
    #: summaries; excluded from equality so results compare by content).
    collector: LatencyCollector = field(repr=False, compare=False)

    def summary(self) -> dict[str, float]:
        """Scalar metrics for report tables (shared schema, see metrics)."""
        return run_summary(self)

    def tail_summary(self, server: str | None = None) -> dict[str, float]:
        """p50/p95/p99/max latency via the collector's pooled fast path."""
        return self.collector.tail_summary(server)


def summarize_collector(
    collector: LatencyCollector,
    duration: float,
    sample_window: float,
    completed: dict[str, int],
) -> tuple[LatencySeries, float, int]:
    """The common tail of every harness's result construction.

    Returns ``(series, request-weighted mean latency, total requests)``.
    """
    series = collector.series(duration, sample_window)
    mean = weighted_mean_latency(series, completed)
    return series, mean, sum(completed.values())
