"""Consistent hashing with virtual nodes: a related-work baseline.

The paper's §3/§5 relate ANU randomization to the distributed directories of
peer-to-peer systems (Chord, Pastry), which place objects with consistent
hashing.  Like ANU, consistent hashing gives deterministic hash-only
addressing and minimal movement on membership change; unlike ANU it is
*not tunable* — virtual-node counts can encode static capacity weights but
nothing reacts to observed load, so workload heterogeneity defeats it.

Including it lets the benchmarks separate the two claims the paper makes:
(1) hashing-style addressing scales (consistent hashing also has this), and
(2) adaptivity is required for heterogeneity (consistent hashing lacks it).
"""

from __future__ import annotations

import bisect
from typing import Mapping, Sequence

from ..core.hashing import hash_to_unit
from .base import PlacementPolicy


class ConsistentHashRing:
    """A hash ring with ``vnodes`` virtual nodes per unit of server weight."""

    def __init__(
        self,
        servers: Sequence[str],
        vnodes: int = 64,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes!r}")
        self.vnodes = vnodes
        self._weights = dict(weights) if weights else {}
        self._points: list[float] = []
        self._owners: list[str] = []
        for server in sorted(servers):
            self._insert(server)

    def _vnode_count(self, server: str) -> int:
        weight = self._weights.get(server, 1.0)
        if weight <= 0:
            raise ValueError(f"non-positive weight for {server!r}")
        return max(1, round(self.vnodes * weight))

    def _insert(self, server: str) -> None:
        for v in range(self._vnode_count(server)):
            point = hash_to_unit(f"{server}#{v}", 0, namespace="chash-ring")
            idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, server)

    # ------------------------------------------------------------------
    @property
    def servers(self) -> list[str]:
        return sorted(set(self._owners))

    def add_server(self, server: str, weight: float | None = None) -> None:
        """Insert a server's virtual nodes into the ring."""
        if server in self._owners:
            raise ValueError(f"server {server!r} already on ring")
        if weight is not None:
            self._weights[server] = weight
        self._insert(server)

    def remove_server(self, server: str) -> None:
        """Remove all of a server's virtual nodes."""
        if server not in self._owners:
            raise ValueError(f"unknown server {server!r}")
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != server]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]
        if not self._points:
            raise ValueError("cannot remove the last server")

    def set_servers(self, servers: Sequence[str]) -> None:
        """Make ``servers`` the member set: remove the leavers, then add
        the joiners, each in name order."""
        current = set(self.servers)
        target = set(servers)
        for name in sorted(current - target):
            self.remove_server(name)
        for name in sorted(target - current):
            self.add_server(name)

    def locate(self, name: str) -> str:
        """Owner of ``name``: the first vnode clockwise of its hash point."""
        if not self._points:
            raise ValueError("empty ring")
        point = hash_to_unit(name, 0, namespace="chash-key")
        idx = bisect.bisect_right(self._points, point)
        if idx == len(self._points):
            idx = 0  # wrap around
        return self._owners[idx]


class ConsistentHashPolicy(PlacementPolicy):
    """Placement by consistent hashing (static; minimal-movement membership)."""

    name = "consistent-hash"

    def __init__(
        self, vnodes: int = 64, weights: Mapping[str, float] | None = None
    ) -> None:
        self.vnodes = vnodes
        self.weights = dict(weights) if weights else None
        self.ring: ConsistentHashRing | None = None

    def initial_assignment(
        self, filesets: Sequence[str], servers: Sequence[str]
    ) -> dict[str, str]:
        self.ring = ConsistentHashRing(servers, self.vnodes, self.weights)
        return {name: self.ring.locate(name) for name in filesets}

    def on_membership_change(
        self,
        filesets: Sequence[str],
        servers: Sequence[str],
        assignment: Mapping[str, str],
    ) -> dict[str, str]:
        if self.ring is None:
            raise RuntimeError("policy used before initial_assignment()")
        self.ring.set_servers(servers)
        return {name: self.ring.locate(name) for name in filesets}
