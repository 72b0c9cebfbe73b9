"""ANU randomization wrapped as a placement policy.

This adapter connects the pure core (:class:`repro.core.anu.ANUPlacement`
plus a tuner) to the policy protocol the cluster simulation drives.  Two
tuner flavours are supported:

- :class:`ANUPolicy` — the paper's algorithm: a central elected delegate
  (:class:`repro.core.tuning.DelegateTuner`) rescales mapped regions from
  latency reports each interval;
- :class:`DecentralizedANUPolicy` — the §5 future-work variant using
  pair-wise exchanges (:class:`repro.core.decentralized.PairwiseTuner`).

:meth:`ANUPolicy.tune` is the delegate round itself: the queueing
cluster reaches it through :meth:`ANUPolicy.update`, and the semantic
:class:`~repro.fs.cluster.MetadataCluster` calls it directly.  It runs
through a :class:`~repro.core.tuning.DelegateRoundDriver`, the one holder
of the previous interval's reports.  A delegate fail-over or a membership
change resets it (the replacement delegate is stateless), which disables
the divergent gate for the next round exactly as the paper describes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.anu import ANUPlacement
from ..core.decentralized import PairwiseConfig, PairwiseTuner
from ..core.hashing import HashFamily
from ..core.tuning import (
    DelegateRoundDriver,
    ServerReport,
    TuningConfig,
    TuningDecision,
)
from .base import PlacementPolicy, TuningContext


class ANUPolicy(PlacementPolicy):
    """Adaptive non-uniform randomization with a central delegate."""

    name = "anu"

    def __init__(
        self,
        config: TuningConfig | None = None,
        hash_family: HashFamily | None = None,
    ) -> None:
        self.rounds = DelegateRoundDriver(config)
        self._hash_family = hash_family
        self.placement: ANUPlacement | None = None
        #: (time, server -> share fraction) after each tuning round —
        #: the region-evolution record behind Figures 3-5's dynamics.
        self.share_history: list[tuple[float, dict[str, float]]] = []

    # ------------------------------------------------------------------
    def initial_assignment(
        self, filesets: Sequence[str], servers: Sequence[str]
    ) -> dict[str, str]:
        # "ANU randomization has no a-priori knowledge and therefore assumes
        # initially that all file sets and all servers are uniform."
        self.placement = ANUPlacement(servers, hash_family=self._hash_family)
        self.rounds.reset()
        return self.placement.assignment(filesets)

    def tune(
        self, reports: Sequence[ServerReport], filesets: Sequence[str]
    ) -> tuple[dict[str, str] | None, TuningDecision]:
        """One delegate round over ``reports``: rescale the regions when
        it tunes, and return the assignment of ``filesets`` they now name
        (None when the round does not tune) with the round's decision."""
        placement = self._require_placement()
        decision = self.rounds.compute(placement.shares(), reports)
        if not decision.tuned:
            return None, decision
        placement.set_shares(decision.new_shares)
        placement.check_invariants()
        return placement.assignment(filesets), decision

    def update(self, context: TuningContext) -> dict[str, str] | None:
        new, _decision = self.tune(context.reports, context.filesets)
        if new is not None:
            placement = self.placement
            self.share_history.append((
                context.time,
                {s: placement.interval.share_fraction(s) for s in placement.servers},
            ))
        return new

    def on_membership_change(
        self,
        filesets: Sequence[str],
        servers: Sequence[str],
        assignment: Mapping[str, str],
    ) -> dict[str, str]:
        placement = self._require_placement()
        placement.set_servers(servers)
        placement.check_invariants()
        # A membership change invalidates latency history: the region scales
        # changed for a non-workload reason.
        self.rounds.reset()
        return placement.assignment(filesets)

    # ------------------------------------------------------------------
    def fail_delegate(self) -> None:
        """The delegate crashed: its replacement starts with no history."""
        self.rounds.reset()

    def _require_placement(self) -> ANUPlacement:
        if self.placement is None:
            raise RuntimeError("policy used before initial_assignment()")
        return self.placement


class DecentralizedANUPolicy(PlacementPolicy):
    """ANU with pair-wise peer-to-peer tuning instead of a delegate."""

    name = "anu-decentralized"

    def __init__(
        self,
        config: PairwiseConfig | None = None,
        hash_family: HashFamily | None = None,
        rounds_per_interval: int = 1,
    ) -> None:
        if rounds_per_interval < 1:
            raise ValueError(
                f"rounds_per_interval must be >= 1, got {rounds_per_interval!r}"
            )
        self.tuner = PairwiseTuner(config)
        self._hash_family = hash_family
        self.rounds_per_interval = rounds_per_interval
        self.placement: ANUPlacement | None = None
        self.exchange_log: list[int] = []

    def initial_assignment(
        self, filesets: Sequence[str], servers: Sequence[str]
    ) -> dict[str, str]:
        self.placement = ANUPlacement(servers, hash_family=self._hash_family)
        return self.placement.assignment(filesets)

    def update(self, context: TuningContext) -> dict[str, str] | None:
        placement = self.placement
        if placement is None:
            raise RuntimeError("policy used before initial_assignment()")
        shares: dict[str, float] = {
            k: float(v) for k, v in placement.shares().items()
        }
        exchanged = 0
        for _ in range(self.rounds_per_interval):
            shares, exchanges = self.tuner.compute(
                shares, context.reports, context.rng
            )
            exchanged += len(exchanges)
        self.exchange_log.append(exchanged)
        if exchanged == 0:
            return None
        placement.set_shares(shares)
        placement.check_invariants()
        return placement.assignment(context.filesets)

    def on_membership_change(
        self,
        filesets: Sequence[str],
        servers: Sequence[str],
        assignment: Mapping[str, str],
    ) -> dict[str, str]:
        placement = self.placement
        if placement is None:
            raise RuntimeError("policy used before initial_assignment()")
        placement.set_servers(servers)
        return placement.assignment(filesets)
