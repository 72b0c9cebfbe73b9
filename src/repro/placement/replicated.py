"""Replicated ownership: the assignment-plane half of the two-plane split.

The paper's model (and every policy in this package) assigns each file
set to exactly one owner.  The JSQ(d)-over-replicas competition from the
Mukhopadhyay & Mazumdar line of work instead gives each file set ``r``
owners and routes every request to the least-loaded replica.  This module
generalizes any single-owner policy to that model without touching the
policy itself:

- the policy keeps producing its classic primary assignment (slot 0 of
  every owner set), so tuning, movement cost, and the mover are exactly
  the single-owner machinery;
- replica slots 1..r-1 are *derived*: distinct-hash draws over the other
  live servers (:func:`derive_owner_sets`), or — when the policy exposes
  an :class:`~repro.core.anu.ANUPlacement` — the probe-native
  :meth:`~repro.core.anu.ANUPlacement.locate_owner_set` walk, so ANU's
  replicas inherit its capacity-weighted interval;
- in a shared-disk system a replica owner serves reads of the same
  on-disk image, so gaining or losing a *replica* slot moves no data —
  only primary (slot 0) moves pay the flush/initialize cost.  The
  harnesses realize slot-0 moves through the mover as before and treat
  replica-slot changes as instant routing-table updates.

``r = 1`` reduces every function here to the identity on the primary
assignment, which is how the golden-replay guard proves the refactor
changed nothing for classic runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from ..core.hashing import hash_to_distinct_choices
from .base import PlacementPolicy, TuningContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.anu import ANUPlacement

__all__ = ["ReplicatedPolicy", "derive_owner_set", "derive_owner_sets"]

#: Hash namespace for derived replica slots — disjoint from every probe
#: and orphan namespace so replica draws never correlate with placement.
REPLICA_NAMESPACE = "replica"


def derive_owner_sets(
    primary: Mapping[str, str],
    servers: Sequence[str],
    replication: int,
    placement: "ANUPlacement | None" = None,
) -> dict[str, tuple[str, ...]]:
    """Expand a primary assignment into owner sets of size ``replication``.

    Slot 0 is always ``primary[name]`` — the assignment plane the policy
    owns.  Replica slots come from the probe-native ANU walk when a
    ``placement`` is given (and it still agrees on the primary), else
    from distinct hashing over the other live servers, so the expansion
    is a pure function of ``(primary, servers)`` and every node computes
    the same owner sets.  Fleets smaller than ``replication`` yield
    correspondingly shorter tuples.
    """
    if replication < 1:
        raise ValueError(f"replication must be >= 1, got {replication!r}")
    if replication == 1:
        return {name: (owner,) for name, owner in primary.items()}
    ordered = sorted(set(servers))
    return {
        name: derive_owner_set(
            name, primary[name], ordered, replication, placement=placement
        )
        for name in sorted(primary)
    }


def derive_owner_set(
    name: str,
    owner: str,
    ordered_servers: Sequence[str],
    replication: int,
    placement: "ANUPlacement | None" = None,
) -> tuple[str, ...]:
    """One file set's owner set: ``owner`` at slot 0, derived replicas after.

    ``ordered_servers`` must be the sorted live-server list (callers that
    expand whole assignments sort once via :func:`derive_owner_sets`).
    """
    if replication < 1:
        raise ValueError(f"replication must be >= 1, got {replication!r}")
    if replication == 1:
        return (owner,)
    if placement is not None:
        probed = placement.locate_owner_set(name, replication)
        if probed and probed[0] == owner:
            return probed
    others = [s for s in ordered_servers if s != owner]
    picks = hash_to_distinct_choices(
        name, replication - 1, len(others), namespace=REPLICA_NAMESPACE
    )
    return (owner, *(others[i] for i in picks))


class ReplicatedPolicy(PlacementPolicy):
    """Wrap a single-owner policy for a run with ``r``-way owner sets.

    The wrapper is transparent on the classic protocol — initial
    assignment, tuning updates, and membership re-placement all pass
    straight through to the base policy — and exposes the base policy's
    :attr:`placement`, which the harnesses hand to
    :func:`derive_owner_sets` when replication is on.  Policy name becomes
    ``"<base>+r<r>"`` so sweep rows and figures distinguish replication
    levels.
    """

    def __init__(self, base: PlacementPolicy, replication: int) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication!r}")
        self.base = base
        self.replication = replication
        self.name = f"{base.name}+r{replication}"

    @property
    def placement(self) -> "ANUPlacement | None":
        """The base policy's ANU placement, when it exposes one."""
        return getattr(self.base, "placement", None)

    def initial_assignment(
        self, filesets: Sequence[str], servers: Sequence[str]
    ) -> dict[str, str]:
        """The base policy's primary assignment (slot 0 of every set)."""
        return self.base.initial_assignment(filesets, servers)

    def update(self, context: TuningContext) -> dict[str, str] | None:
        """Delegate the tuning decision to the base policy."""
        return self.base.update(context)

    def on_membership_change(
        self,
        filesets: Sequence[str],
        servers: Sequence[str],
        assignment: Mapping[str, str],
    ) -> dict[str, str]:
        """Delegate orphan re-placement to the base policy."""
        return self.base.on_membership_change(filesets, servers, assignment)

    def fail_delegate(self) -> None:
        """Forward delegate-failover resets to the base policy."""
        fail = getattr(self.base, "fail_delegate", None)
        if fail is not None:
            fail()
