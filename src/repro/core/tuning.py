"""Delegate tuning: turning observed latencies into new mapped-region shares.

Each tuning interval, every server reports its mean request latency to an
elected delegate.  The delegate computes a system "average" latency and
rescales mapped regions: servers above the average shrink, servers below it
grow (§4).  Three heuristics gate which servers are tuned, eliminating the
*over-tuning* cycles of §6:

thresholding
    only tune servers whose latency lies outside ``[A*(1-t), A*(1+t)]``;
top-off
    only ever *shrink* overloaded servers; underloaded servers gain load
    implicitly through the half-occupancy renormalization;
divergent
    only tune servers moving *away* from the average (above-average and
    rising, or below-average and falling).  Requires the previous interval's
    reports; when they are unavailable (delegate fail-over) the gate is
    skipped — the stateless degradation the paper describes.

The tuner is deliberately pure: :meth:`DelegateTuner.compute` maps
``(current shares, reports, previous reports)`` to new relative shares and
keeps no other state, so a crashed delegate can be replaced mid-run.
:class:`DelegateRoundDriver` is the one place that remembers the previous
interval's reports and forgets them on a delegate fail-over or a
membership change; every stack (queueing cluster, full system, message
protocol) tunes through it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..contracts import ensure
from ..units import Seconds


@dataclass(frozen=True)
class ServerReport:
    """One server's performance report for a tuning interval."""

    name: str
    mean_latency: Seconds
    request_count: int

    def __post_init__(self) -> None:
        if self.mean_latency < 0:
            raise ValueError(f"negative latency {self.mean_latency!r}")
        if self.request_count < 0:
            raise ValueError(f"negative request count {self.request_count!r}")


@dataclass(frozen=True)
class TuningConfig:
    """Knobs for the delegate tuner.

    ``threshold`` is the paper's ``t``; "fairly large values are necessary
    to cope with workload heterogeneity" — 1.0 by default (the ablation
    bench sweeps it).  ``max_step``
    clamps the per-interval multiplicative change of any one share.
    ``grow_seed_fraction`` is the share (as a fraction of the fair share
    ``1/n``) granted to a zero-share server that the tuner decides to grow —
    without it an idled server could never re-acquire load, which is
    precisely the instrument needed to reproduce the over-tuning figures.
    """

    use_thresholding: bool = True
    use_top_off: bool = True
    use_divergent: bool = True
    threshold: float = 1.0
    average: str = "weighted_mean"  # or "median"
    max_step: float = 4.0
    grow_seed_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold!r}")
        if self.max_step <= 1:
            raise ValueError(f"max_step must be > 1, got {self.max_step!r}")
        if self.average not in ("weighted_mean", "mean", "median"):
            raise ValueError(f"unknown average {self.average!r}")


#: The paper's early, aggressive variant (Figure 10a): no heuristics.
AGGRESSIVE = TuningConfig(
    use_thresholding=False, use_top_off=False, use_divergent=False
)
#: All three heuristics (Figure 10b) — the paper's final algorithm.
ALL_HEURISTICS = TuningConfig()
#: Single-heuristic variants for the Figure 11 decomposition.  The
#: threshold-only variant uses t < 1: at t >= 1 the lower band edge
#: ``A*(1-t)`` collapses to zero and thresholding degenerates into top-off
#: (nothing is ever explicitly grown).
THRESHOLD_ONLY = TuningConfig(use_top_off=False, use_divergent=False, threshold=0.5)
TOP_OFF_ONLY = TuningConfig(use_thresholding=False, use_divergent=False)
DIVERGENT_ONLY = TuningConfig(use_thresholding=False, use_top_off=False)


@dataclass(frozen=True)
class TuningDecision:
    """The outcome of one delegate round (for logging and tests)."""

    average: float
    new_shares: dict[str, float]
    tuned: dict[str, float] = field(default_factory=dict)  # name -> factor


def system_average(
    reports: Sequence[ServerReport], method: str = "weighted_mean"
) -> Seconds:
    """The delegate's "average" latency across active servers.

    Idle servers (zero requests) are excluded: their latency carries no
    information.  ``weighted_mean`` weights by request count, approximating
    the system-wide mean request latency; ``median`` is the alternative the
    paper reports trying.
    """
    active = [r for r in reports if r.request_count > 0]
    if not active:
        return Seconds(0.0)
    if method == "median":
        return Seconds(
            float(statistics.median(r.mean_latency for r in active))
        )
    if method == "mean":
        return Seconds(
            float(statistics.fmean(r.mean_latency for r in active))
        )
    total = sum(r.request_count for r in active)
    return Seconds(
        sum(r.mean_latency * r.request_count for r in active) / total
    )


def comparison_average(
    reports: Sequence[ServerReport], server: str, method: str = "weighted_mean"
) -> Seconds:
    """The average that ``server`` is compared against: everyone *else*.

    A count-weighted average over all servers has a pathology the delegate
    must avoid: when one overloaded server also serves most of the
    requests, it dominates the average, sits inside its own threshold band
    forever, and is never tuned.  Comparing each server against the
    leave-one-out average removes the self-domination while coinciding
    with the global average in a balanced system (where the paper notes
    mean, median, and mode agree anyway).
    """
    others = [r for r in reports if r.name != server]
    return system_average(others, method)


class DelegateTuner:
    """Stateless mapping from latency reports to new relative shares."""

    def __init__(self, config: TuningConfig | None = None) -> None:
        self.config = config or ALL_HEURISTICS

    # ------------------------------------------------------------------
    def compute(
        self,
        current_shares: Mapping[str, float],
        reports: Sequence[ServerReport],
        previous: Sequence[ServerReport] | None = None,
    ) -> TuningDecision:
        """Compute new relative shares from this interval's reports.

        ``current_shares`` are the existing mapped-region sizes (any unit);
        the returned shares are relative weights for
        :meth:`repro.core.interval.MappedInterval.set_shares`.
        """
        cfg = self.config
        by_name = {r.name: r for r in reports}
        if set(by_name) != set(current_shares):
            raise ValueError(
                f"reports for {sorted(by_name)} do not match shares for "
                f"{sorted(current_shares)}"
            )
        # An all-idle window carries no latency information at all: make
        # the round an explicit no-op rather than falling through to
        # compare every latency against a zero-width [0, 0] band.
        if all(r.request_count == 0 for r in reports):
            return TuningDecision(
                average=Seconds(0.0), new_shares=dict(current_shares)
            )
        avg = system_average(reports, cfg.average)
        total = float(sum(current_shares.values()))
        n = len(current_shares)
        if avg <= 0.0 or total <= 0.0 or n == 0:
            return TuningDecision(average=avg, new_shares=dict(current_shares))

        prev_latency = (
            {r.name: r.mean_latency for r in previous} if previous is not None else None
        )
        new_shares: dict[str, float] = {}
        tuned: dict[str, float] = {}
        fair = total / n
        for name in sorted(current_shares):
            share = float(current_shares[name])
            report = by_name[name]
            latency = report.mean_latency
            # Each server is gated against the leave-one-out average so an
            # overloaded server that dominates the request count cannot
            # hide inside its own band (see comparison_average).
            ref = comparison_average(reports, name, cfg.average)
            if ref <= 0.0:
                new_shares[name] = share
                continue
            lo, hi = ref * (1.0 - cfg.threshold), ref * (1.0 + cfg.threshold)
            direction = self._direction(latency, ref, lo, hi, report, prev_latency)
            if direction == 0:
                new_shares[name] = share
                continue
            factor = self._factor(latency, ref, report.request_count)
            if direction > 0:  # grow
                base = max(share, fair * cfg.grow_seed_fraction)
                new_shares[name] = base * factor
            else:  # shrink
                new_shares[name] = share * factor
            tuned[name] = factor
        if sum(new_shares.values()) <= 0.0:
            new_shares = dict(current_shares)
            tuned = {}
        ensure(
            set(new_shares) == set(current_shares),
            "tuner changed the server set: {} -> {}",
            sorted(current_shares), sorted(new_shares),
        )
        ensure(
            all(v >= 0.0 for v in new_shares.values()),
            "tuner produced a negative share in {}", new_shares,
        )
        ensure(
            sum(new_shares.values()) > 0.0,
            "tuner zeroed every share",
        )
        ensure(
            all(
                1.0 / cfg.max_step <= f <= cfg.max_step
                for f in tuned.values()
            ),
            "tuning factor escaped the max_step clamp: {}", tuned,
        )
        return TuningDecision(average=avg, new_shares=new_shares, tuned=tuned)

    # ------------------------------------------------------------------
    def _direction(
        self,
        latency: float,
        avg: float,
        lo: float,
        hi: float,
        report: ServerReport,
        prev_latency: Mapping[str, float] | None,
    ) -> int:
        """-1 shrink, +1 grow, 0 leave alone, after applying all gates."""
        cfg = self.config
        if cfg.use_thresholding or cfg.use_top_off:
            if latency > hi:
                direction = -1
            elif latency < lo and not cfg.use_top_off:
                direction = 1
            else:
                return 0
        else:
            if latency > avg:
                direction = -1
            elif latency < avg:
                direction = 1
            else:
                return 0
        if cfg.use_top_off and direction > 0:
            return 0  # top-off: never explicitly grow
        if cfg.use_divergent and prev_latency is not None:
            prev = prev_latency.get(report.name)
            if prev is not None:
                rising = latency > prev
                falling = latency < prev
                diverging = (latency > avg and rising) or (latency < avg and falling)
                if not diverging:
                    return 0
        return direction

    def _factor(
        self, latency: float, avg: float, request_count: int
    ) -> float:
        """Multiplicative share change, clamped to [1/max_step, max_step].

        A zero latency earns the max boost only when it was *observed* —
        backed by at least one served request.  A server that reports
        zero latency because it served nothing (a degraded server whose
        share the tuner already shrank to idle, for example) gets a
        neutral factor; rewarding it with ``max_step`` would yo-yo a
        limping server straight back into the rotation.
        """
        cfg = self.config
        if latency <= 0.0:
            return cfg.max_step if request_count > 0 else 1.0
        raw = avg / latency
        return min(max(raw, 1.0 / cfg.max_step), cfg.max_step)


class DelegateRoundDriver:
    """One delegate's tuning rounds: the stateless tuner plus the only copy
    of the previous interval's reports that the divergent gate reads.

    ``ANUPolicy`` (which the queueing cluster and ``MetadataCluster``, the
    semantic and timed full-system harnesses, both tune through) and the
    message-level ``ServerNode`` delegate each own one.  Their hosts call
    :meth:`reset` on a delegate fail-over and on a membership change, so
    the next round runs with the divergent gate skipped.  The gate looks up a server's
    previous latency by that server's own name, so it only ever compares a
    server against its own history.
    """

    def __init__(self, config: TuningConfig | None = None) -> None:
        self.tuner = DelegateTuner(config)
        self.previous_reports: list[ServerReport] | None = None
        self.rounds_run = 0

    def compute(
        self,
        shares: Mapping[str, float],
        reports: Sequence[ServerReport],
    ) -> TuningDecision:
        """One delegate round over ``reports``, taken in server-name order
        whatever order they arrived in; updates report history."""
        reports = sorted(reports, key=lambda r: r.name)
        decision = self.tuner.compute(shares, reports, self.previous_reports)
        self.previous_reports = reports
        self.rounds_run += 1
        return decision

    def reset(self) -> None:
        """Forget history (delegate fail-over, membership change)."""
        self.previous_reports = None
