"""The shared tuning-round cadence behind every timer-driven harness.

The paper's delegate loop — collect per-server latency reports each
interval, compute a tuning decision, realize the resulting assignment
diff as shared-disk moves — was re-implemented three times in this
repository (queueing cluster, timed full system, message-level protocol).
:class:`TuningLoop` owns that loop's cadence once: it drives periodic
rounds on an engine, asks its host to build a
:class:`~repro.placement.base.TuningContext`, invokes the host's decision
function, emits a :class:`~repro.runtime.telemetry.TuningDecided` record,
and realizes assignment diffs through the host's movement layer.

The loop keeps no report history.  The previous interval's reports that
the divergent heuristic compares against live in one
:class:`~repro.core.tuning.DelegateRoundDriver` per delegate, owned by
the host's decision function; membership changes are driven separately
by :class:`repro.membership.director.MembershipDirector`.

Every scheduling decision here replicates the pre-runtime harnesses
exactly (same event priorities, same reschedule conditions, same RNG
usage), so seeded runs replay bit-identically through the refactor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from ..core.tuning import TuningDecision
from ..sim.engine import Engine
from ..sim.events import PRIORITY_LATE
from .telemetry import NULL_SINK, TelemetrySink, TuningDecided

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..placement.base import TuningContext

__all__ = ["TuningHost", "TuningLoop"]


class TuningHost(Protocol):
    """What a harness provides for :class:`TuningLoop` to drive it."""

    def build_tuning_context(self, now: float, interval: float) -> "TuningContext":
        """Assemble this round's context (reports, assignment, rng, ...)."""

    def decide(
        self, context: "TuningContext"
    ) -> tuple[dict[str, str] | None, TuningDecision | None]:
        """Compute (and validate) the new assignment, or ``None`` to keep
        the current one.  The second element carries the delegate's
        decision detail when the host surfaces one (telemetry)."""

    def realize(self, old: dict[str, str], new: dict[str, str]) -> None:
        """Turn an assignment diff into movement on the harness's engine."""


class TuningLoop:
    """Periodic delegate rounds on a discrete-event engine.

    The loop owns round cadence only; everything
    harness-specific (how reports are measured, what "realize" means)
    lives behind the :class:`TuningHost` protocol.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        duration: float,
        host: TuningHost,
        telemetry: TelemetrySink = NULL_SINK,
        priority: int = PRIORITY_LATE,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"tuning interval must be positive, got {interval!r}")
        self.engine = engine
        self.interval = interval
        #: Rounds stop rescheduling once ``now + interval`` passes this.
        self.duration = duration
        self.host = host
        self.telemetry = telemetry
        self.rounds = 0
        self._priority = priority

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first round one interval in, if that is within
        the run: a run shorter than one interval gets no round."""
        if self.interval <= self.duration:
            self.engine.schedule_at(
                self.interval, self._round, priority=self._priority
            )

    def _round(self) -> None:
        now = self.engine.now
        context = self.host.build_tuning_context(now, self.interval)
        self.rounds += 1
        new_assignment, decision = self.host.decide(context)
        sink = self.telemetry
        if sink.enabled:
            sink.emit(
                TuningDecided(
                    time=now,
                    round=self.rounds,
                    changed=new_assignment is not None,
                    reporting=sum(
                        1 for r in context.reports if r.request_count > 0
                    ),
                    average=decision.average if decision is not None else None,
                    tuned=dict(decision.tuned) if decision is not None else {},
                )
            )
        if new_assignment is not None:
            self.host.realize(dict(context.assignment), new_assignment)
        if now + self.interval <= self.duration:
            self.engine.schedule(
                self.interval, self._round, priority=self._priority
            )
