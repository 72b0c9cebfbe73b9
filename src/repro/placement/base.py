"""The placement-policy protocol shared by ANU and all baselines.

A policy owns the file-set → server assignment.  The cluster simulation
drives it through three entry points:

- :meth:`PlacementPolicy.initial_assignment` — called once at t=0;
- :meth:`PlacementPolicy.update` — called at every tuning interval with a
  :class:`TuningContext`; returning ``None`` means "no change" (static
  policies always return ``None``);
- :meth:`PlacementPolicy.on_membership_change` — called when servers fail,
  recover, or are (de)commissioned.

Policies must be deterministic given the context (any randomness must come
from ``context.rng``), so whole simulations replay exactly from a seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.tuning import ServerReport


@dataclass
class TuningContext:
    """Everything a policy may consult when updating the assignment.

    Only the prescient policy is allowed to read ``server_speeds`` and
    ``oracle_demand`` — they represent the perfect knowledge the paper
    grants its upper-bound comparator.  Honest policies use only the
    latency ``reports``.
    """

    time: float
    filesets: Sequence[str]
    servers: Sequence[str]
    assignment: Mapping[str, str]
    reports: Sequence[ServerReport]
    server_speeds: Mapping[str, float] | None = None
    oracle_demand: Mapping[str, float] | None = None
    #: Policy randomness MUST come from here so runs replay from a seed.
    #: Required: harnesses built on :mod:`repro.runtime` pass a stream
    #: derived from the run's seed, and a context without one is rejected.
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if self.rng is None:
            # A shared fallback stream would let two simulations with
            # different seeds share policy randomness — a determinism trap.
            raise ValueError(
                "TuningContext needs an explicit rng: pass a stream derived "
                "from the run's seed (the repro.runtime harnesses do this "
                "automatically)"
            )


class PlacementPolicy(abc.ABC):
    """Abstract file-set placement policy."""

    #: Human-readable policy name (used in figures and reports).
    name: str = "abstract"

    @abc.abstractmethod
    def initial_assignment(
        self, filesets: Sequence[str], servers: Sequence[str]
    ) -> dict[str, str]:
        """Assignment at simulation start (no workload knowledge unless
        the policy is prescient)."""

    def update(self, context: TuningContext) -> dict[str, str] | None:
        """New assignment for this tuning interval, or ``None`` to keep the
        current one.  Static policies inherit this no-op."""
        return None

    def on_membership_change(
        self,
        filesets: Sequence[str],
        servers: Sequence[str],
        assignment: Mapping[str, str],
    ) -> dict[str, str]:
        """Re-place after a server set change.

        The default reassigns only *orphans* — file sets whose owner left —
        uniformly at random-by-hash over the survivors, leaving everything
        else in place.  Adaptive policies override this.
        """
        live = set(servers)
        new = dict(assignment)
        orphans = sorted(n for n, s in assignment.items() if s not in live)
        ordered = sorted(live)
        for i, nm in enumerate(orphans):
            new[nm] = ordered[hash_mod(nm, len(ordered))]
        for nm in filesets:
            if nm not in new:
                new[nm] = ordered[hash_mod(nm, len(ordered))]
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def hash_mod(name: str, n: int) -> int:
    """Deterministic (non-salted) index in [0, n) from a name."""
    from ..core.hashing import hash_to_choice

    return hash_to_choice(name, 0, n, namespace="policy-orphan")


def validate_assignment(
    assignment: Mapping[str, str],
    filesets: Sequence[str],
    servers: Sequence[str],
) -> None:
    """Raise ValueError unless every file set maps to a live server."""
    live = set(servers)
    missing = [n for n in filesets if n not in assignment]
    if missing:
        raise ValueError(f"unassigned file sets: {missing[:5]}...")
    bad = [n for n, s in assignment.items() if s not in live]
    if bad:
        raise ValueError(f"file sets assigned to dead servers: {bad[:5]}...")
