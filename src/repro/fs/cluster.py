"""A functional shared-disk metadata cluster.

This ties the file-system substrate together into the system of Figure 1:
a global namespace partitioned into file sets (subtrees), a shared disk
holding every file set's metadata image, one :class:`MetadataService` per
server, and ANU randomization as the routing/ownership layer — the same
:class:`~repro.placement.anu_policy.ANUPolicy` the queueing cluster runs,
so placement, the delegate round and membership re-placement have one
implementation.  Unlike :mod:`repro.cluster` (which models queueing
*timing*), this cluster executes *real* metadata operations —
create/stat/rename/locks — and really moves namespace images over the
shared disk when ownership changes, so the end-to-end correctness of
placement + movement + recovery is testable: every operation lands on
exactly the server that owns its file set, and no update is ever lost
across tuning, failure, and recovery.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..contracts import checks_invariants, invariant
from ..core.hashing import HashFamily
from ..core.movement import MovementLedger, diff_assignment
from ..core.tuning import ServerReport, TuningConfig, TuningDecision
from ..membership.director import MembershipDirector
from ..membership.faults import FaultEvent, FaultKind
from ..membership.lifecycle import MembershipRoster
from ..placement.anu_policy import ANUPolicy
from ..placement.replicated import derive_owner_set
from ..runtime.telemetry import NULL_SINK, TelemetrySink
from ..units import Seconds
from . import paths
from .disk import SharedDisk
from .namespace import FSError, Namespace
from .ops import Operation, OpResult
from .service import MetadataService


class FileSetRegistry:
    """Maps global paths to file sets (deepest enclosing subtree root)."""

    def __init__(self, roots: Mapping[str, str]) -> None:
        """``roots``: file-set name -> global root path of its subtree."""
        if not roots:
            raise FSError("need at least one file set")
        self._root_of: dict[str, str] = {}
        #: Normalized root path -> file-set name, for ancestor lookups.
        self._fileset_at: dict[str, str] = {}
        for name, root in roots.items():
            norm = paths.normalize(root)
            if norm in self._fileset_at:
                raise FSError(f"duplicate file-set root {norm!r}")
            self._root_of[name] = norm
            self._fileset_at[norm] = name

    @property
    def filesets(self) -> list[str]:
        return sorted(self._root_of)

    def root_of(self, fileset: str) -> str:
        """Global root path of ``fileset``."""
        try:
            return self._root_of[fileset]
        except KeyError:
            raise FSError(f"unknown file set {fileset!r}") from None

    def fileset_of(self, path: str) -> str:
        """The file set owning ``path`` (deepest enclosing root).

        Looks the path and then each ancestor up by root, deepest first,
        so the cost is O(depth) however many file sets there are.
        """
        norm = paths.normalize(path)
        fileset_at = self._fileset_at
        while True:
            name = fileset_at.get(norm)
            if name is not None:
                return name
            if norm == paths.ROOT:
                raise FSError(f"{path!r} is outside every file set")
            norm = norm[: norm.rindex("/")] or paths.ROOT

    def relative(self, fileset: str, path: str) -> str:
        """``path`` relative to the file set's root, as an absolute path
        within the file-set namespace.

        Normalizes ``path`` once; the root is stored normalized, so the
        answer is a slice of the path.
        """
        root = self.root_of(fileset)
        norm = paths.normalize(path)
        if norm == root:
            return paths.ROOT
        prefix = root if root == paths.ROOT else root + "/"
        if not norm.startswith(prefix):
            raise FSError(f"{path!r} is not inside file set {fileset!r}")
        return norm[len(prefix) - 1:]


def _services_hold_ownership(cluster: MetadataCluster) -> bool:
    """Every owned file set's owner is a service holding its image."""
    return all(
        owner in cluster.services and cluster.services[owner].owns(fileset)
        for fileset, owner in cluster._ownership.items()
    )


class MetadataCluster:
    """Servers + shared disk + ANU routing for real metadata operations."""

    def __init__(
        self,
        servers: Iterable[str],
        fileset_roots: Mapping[str, str],
        tuning: TuningConfig | None = None,
        hash_family: HashFamily | None = None,
        telemetry: TelemetrySink | None = None,
    ) -> None:
        self.registry = FileSetRegistry(fileset_roots)
        self.disk = SharedDisk()
        self.services: dict[str, MetadataService] = {
            name: MetadataService(name, self.disk) for name in servers
        }
        if not self.services:
            raise FSError("need at least one server")
        self.roster = MembershipRoster(sorted(self.services))
        self.director = MembershipDirector(
            self.roster,
            host=self,
            telemetry=telemetry if telemetry is not None else NULL_SINK,
        )
        #: Placement and the delegate round, as the queueing cluster runs
        #: them; :meth:`rescale` and the membership hooks drive it.
        self.policy = ANUPolicy(tuning, hash_family=hash_family)
        initial = self.policy.initial_assignment(
            self.registry.filesets, sorted(self.services)
        )
        #: A plain attribute, read by :meth:`owner_set_of` on every operation.
        self.placement = self.policy.placement
        self.ledger = MovementLedger()
        #: (file set, replication) -> owner set, valid for one placement
        #: epoch; see :meth:`owner_set_of`.
        self._owner_sets: dict[tuple[str, int], tuple[str, ...]] = {}
        self._owner_sets_epoch = -1
        # Format every file set and hand it to its initial owner.
        for fileset in self.registry.filesets:
            self.disk.format_fileset(Namespace(fileset))
        self._ownership: dict[str, str] = {}
        self._apply_assignment(initial)

    # ------------------------------------------------------------------
    # Ownership realization over the shared disk
    # ------------------------------------------------------------------
    def _apply_assignment(self, new: Mapping[str, str], now: float = 0.0) -> int:
        diff = diff_assignment(self._ownership, new)
        for move in diff.moves:
            if move.source is not None:
                source = self.services.get(move.source)
                if source is not None and source.owns(move.fileset):
                    source.release_fileset(move.fileset, now=now)
            self.services[move.destination].acquire_fileset(move.fileset)
        self._ownership = dict(new)
        if diff.total:
            self.ledger.record(diff)
        return diff.moved

    @invariant(
        _services_hold_ownership,
        "ownership transfer broke service referential integrity",
    )
    def transfer_ownership(
        self, fileset: str, destination: str, now: float = 0.0
    ) -> bool:
        """Move one file set's image to ``destination`` over the shared disk.

        Returns True when an image actually moved.  Asynchronous drivers
        schedule moves with a delay, so the full :meth:`check_consistency`
        (which also demands placement agreement) may legitimately not hold
        until every in-flight move lands; this mutator therefore asserts
        only that services and the ownership map stay in step.
        """
        source = self.owner_of(fileset)
        if source == destination:
            return False
        if destination not in self.services:
            raise FSError(f"unknown destination server {destination!r}")
        self.services[source].release_fileset(fileset, now=now)
        self.services[destination].acquire_fileset(fileset)
        self._ownership[fileset] = destination
        return True

    def owner_of(self, fileset: str) -> str:
        """The server currently owning ``fileset``."""
        try:
            return self._ownership[fileset]
        except KeyError:
            raise FSError(f"unknown file set {fileset!r}") from None

    def ownership(self) -> dict[str, str]:
        """file set -> owner map (copy)."""
        return dict(self._ownership)

    def owner_set_of(self, fileset: str, replication: int) -> tuple[str, ...]:
        """``fileset``'s r-way owner set: the authoritative owner at
        slot 0, derived replicas after it.

        Replicas are the routing plane only — :meth:`submit` still
        executes on the slot-0 owner (exactly-once semantics and
        :meth:`check_consistency` both hinge on the single authoritative
        ownership map); a replica merely *serves* the request off the
        shared-disk image, which is what the timed harness accounts.

        Memoized per placement epoch.  The derivation is a pure function
        of the owner, the live servers and the placement; the servers
        change only inside a membership change, whose re-placement bumps
        the epoch, and a hit must still start with the current owner.
        """
        owner = self.owner_of(fileset)
        epoch = self.placement.epoch
        if epoch != self._owner_sets_epoch:
            self._owner_sets.clear()
            self._owner_sets_epoch = epoch
        key = (fileset, replication)
        cached = self._owner_sets.get(key)
        if cached is None or cached[0] != owner:
            cached = self._owner_sets[key] = derive_owner_set(
                fileset,
                owner,
                sorted(self.services),
                replication,
                placement=self.placement,
            )
        return cached

    # ------------------------------------------------------------------
    # Client entry point
    # ------------------------------------------------------------------
    def submit(self, operation: Operation) -> tuple[str, OpResult]:
        """Route one operation by hashing and execute it on the owner.

        Returns ``(server_name, result)``.  Cross-file-set renames are
        rejected here — file sets are indivisible ownership units, so a
        rename may not span two of them (real systems return EXDEV).
        """
        fileset = self.registry.fileset_of(operation.path)
        local_args = dict(operation.args)
        if "dst" in local_args:
            dst_fileset = self.registry.fileset_of(local_args["dst"])
            if dst_fileset != fileset:
                return self.owner_of(fileset), OpResult.failure(
                    "cross-fileset rename (EXDEV)"
                )
            local_args["dst"] = self.registry.relative(fileset, local_args["dst"])
        server = self.owner_of(fileset)
        local = Operation(
            op=operation.op,
            path=self.registry.relative(fileset, operation.path),
            client=operation.client,
            time=operation.time,
            args=local_args,
        )
        return server, self.services[server].execute(fileset, local)

    # ------------------------------------------------------------------
    # Tuning and membership
    # ------------------------------------------------------------------
    @checks_invariants
    def retune(self, reports: Sequence[ServerReport], now: float = 0.0) -> int:
        """One delegate round: rescale regions, move images; returns the
        number of file sets moved."""
        new, _decision = self.rescale(reports)
        if new is None:
            return 0
        return self._apply_assignment(new, now=now)

    @invariant(
        _services_hold_ownership,
        "rescale broke service referential integrity",
    )
    def rescale(
        self, reports: Sequence[ServerReport]
    ) -> tuple[dict[str, str] | None, TuningDecision]:
        """One delegate round without moving images: rescale the regions
        and return the assignment they now name (None when the round does
        not tune) with the round's decision.

        Asynchronous drivers move each image later through
        :meth:`transfer_ownership`, so, as there, only service
        referential integrity is asserted.
        """
        return self.policy.tune(reports, self.registry.filesets)

    @checks_invariants
    def fail_server(self, name: str, now: float = 0.0) -> int:
        """Crash a server: its unflushed updates are lost; its file sets
        are re-hashed to survivors, which load the last flushed images."""
        if name not in self.services:
            raise FSError(f"unknown server {name!r}")
        change = self.director.apply(
            FaultEvent(Seconds(now), FaultKind.FAIL, name), now=Seconds(now)
        )
        return change.moved

    @checks_invariants
    def add_server(self, name: str, now: float = 0.0) -> int:
        """Commission a brand-new server, or recover a former member.

        The membership roster distinguishes the two: a name this cluster
        has seen before rejoins as a ``RECOVER`` (legal from both crashed
        and drained states), an unknown name joins as a ``COMMISSION``.
        """
        if name in self.services:
            raise FSError(f"server {name!r} already present")
        if name in self.roster:
            kind = FaultKind.RECOVER
        else:
            kind = FaultKind.COMMISSION
        change = self.director.apply(
            FaultEvent(Seconds(now), kind, name), now=Seconds(now)
        )
        return change.moved

    @checks_invariants
    def remove_server(self, name: str, now: float = 0.0) -> int:
        """Graceful decommission: flush everything, then re-own."""
        if name not in self.services:
            raise FSError(f"unknown server {name!r}")
        change = self.director.apply(
            FaultEvent(Seconds(now), FaultKind.DECOMMISSION, name),
            now=Seconds(now),
        )
        return change.moved

    # ------------------------------------------------------------------
    # MembershipHost protocol (driven by self.director)
    #
    # These primitives run mid-membership-change, between the roster
    # transition and the re-placement, so the full check_consistency
    # (which demands placement agreement) legitimately does not hold yet;
    # they guarantee the weaker service/ownership referential integrity.
    # ------------------------------------------------------------------
    @invariant(
        _services_hold_ownership,
        "membership primitive broke service referential integrity",
    )
    def crash_server(self, server: str, now: Seconds) -> None:
        """Hard-kill: unflushed updates die with the in-memory namespace.

        The crashed server's file sets must be re-owned even though the
        crash lost the in-memory copies; ownership diff handles it (the
        source no longer owns them, so only acquire happens).
        """
        self.services[server].crash()
        del self.services[server]
        self._ownership = {
            fs: owner for fs, owner in self._ownership.items() if owner != server
        }
        return None

    @invariant(
        _services_hold_ownership,
        "membership primitive broke service referential integrity",
    )
    def drain_server(self, server: str, now: Seconds) -> None:
        """Graceful: flush every namespace, release ownership cleanly."""
        service = self.services[server]
        service.flush_all(now=now)
        for fileset in service.owned_filesets():
            service.release_fileset(fileset, now=now)
        del self.services[server]
        self._ownership = {
            fs: owner for fs, owner in self._ownership.items() if owner != server
        }

    @invariant(
        _services_hold_ownership,
        "membership primitive broke service referential integrity",
    )
    def restart_server(self, server: str, now: Seconds) -> None:
        """A former member rejoins empty; images reload from the disk."""
        self.services[server] = MetadataService(server, self.disk)

    @invariant(
        _services_hold_ownership,
        "membership primitive broke service referential integrity",
    )
    def install_server(self, server: str, speed: float, now: Seconds) -> None:
        """A brand-new server joins (this harness models no speeds; the
        placement shares carry any heterogeneity)."""
        self.services[server] = MetadataService(server, self.disk)

    def set_speed(self, server: str, factor: float, now: Seconds) -> None:
        """Gray failure: pure bookkeeping here.  This harness models no
        timing, so a limp changes nothing the semantic layer can see —
        the roster carries the authoritative degradation, and the
        consistency check below asserts the service set still matches
        the (unchanged) live set."""
        if server not in self.services:
            raise FSError(f"set_speed for unknown service {server!r}")

    def delegate_failover(self, now: Seconds) -> None:
        """Tuning here is delegate-less (callers invoke :meth:`retune`
        directly), so a delegate crash only clears report history."""
        self.policy.fail_delegate()
        return None

    def membership_assignment(
        self,
    ) -> tuple[dict[str, str], dict[str, str]]:
        """(old, new): current ownership vs the policy's re-placement
        over the live services, which also drops the report history that
        straddles the membership change."""
        return (
            dict(self._ownership),
            self.policy.on_membership_change(
                self.registry.filesets, sorted(self.services), self._ownership
            ),
        )

    @invariant(
        _services_hold_ownership,
        "membership primitive broke service referential integrity",
    )
    def realize_membership(
        self, old: dict[str, str], new: dict[str, str], now: Seconds
    ) -> None:
        """Move namespace images over the shared disk per the new map."""
        self._apply_assignment(new, now=now)

    def reinject(self, orphans: object, now: Seconds) -> None:
        """Nothing to re-dispatch: operations here are synchronous."""

    def checkpoint(self, now: float = 0.0) -> None:
        """Flush every owned namespace on every server (periodic sync)."""
        for service in self.services.values():
            service.flush_all(now=now)

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert the ownership map, services, placement, and the
        membership roster all agree."""
        live = set(self.roster.live())
        if live != set(self.services):
            raise FSError(
                f"roster says {sorted(live)!r} live, services are "
                f"{sorted(self.services)!r}"
            )
        for fileset, owner in self._ownership.items():
            if owner not in self.services:
                raise FSError(f"{fileset!r} owned by unknown server {owner!r}")
            if not self.services[owner].owns(fileset):
                raise FSError(f"{owner!r} does not hold {fileset!r} in memory")
            located = self.placement.locate(fileset)
            if located != owner:
                raise FSError(
                    f"placement locates {fileset!r} at {located!r}, "
                    f"ownership says {owner!r}"
                )
        for name, service in self.services.items():
            for fileset in service.owned_filesets():
                if self._ownership.get(fileset) != name:
                    raise FSError(
                        f"{name!r} holds {fileset!r} but ownership says "
                        f"{self._ownership.get(fileset)!r}"
                    )
