"""Shared scalar summaries of simulation runs.

One implementation of the run-level summary math that the cluster,
full-system, and protocol harnesses previously each re-derived: the
request-weighted mean latency over a windowed series and the scalar
metric table behind report/figure code.  Tail percentiles come from
:meth:`repro.metrics.latency.LatencyCollector.tail_summary`, the
single-pass vector-quantile path, which every result's collector offers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .latency import LatencySeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.result import SimResult

__all__ = ["weighted_mean_latency", "run_summary"]


def weighted_mean_latency(
    series: LatencySeries, completed: Mapping[str, int]
) -> float:
    """Request-weighted mean latency across servers (0.0 with no requests)."""
    total = sum(completed.values())
    if not total:
        return 0.0
    weighted = sum(
        series.mean_over_run(s) * completed.get(s, 0) for s in series.servers
    )
    return weighted / total


def run_summary(result: "SimResult") -> dict[str, float]:
    """Scalar metrics for report tables — one schema for every harness."""
    return {
        "mean_latency": result.mean_latency,
        "total_requests": float(result.total_requests),
        "moves": float(result.moves_started),
        "tuning_rounds": float(result.tuning_rounds),
        "retries": float(result.retries),
    }

