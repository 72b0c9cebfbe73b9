"""Structured telemetry: typed simulation events with pluggable sinks.

Every harness built on :mod:`repro.runtime` emits the same stream of typed
records — request arrival/dispatch/completion, tuning decisions, file-set
move start/finish, fault injection, delegate election — so metrics and
experiment tooling consume one well-defined surface instead of reaching
into simulation internals.

Telemetry is strictly *observational*: emitting a record draws no random
numbers and schedules no events, so enabling a sink never perturbs a
seeded replay.  The default :data:`NULL_SINK` is disabled; harness code
guards every emission with ``if sink.enabled:`` so a silent run skips even
record construction; ``telemetry.records_per_req`` stays 0 on the e2e
benchmark's NullSink workloads (``benchmarks/e2e/``).

Sinks:

- :class:`MemorySink` — in-process list with query helpers (tests, metrics);
- :class:`JsonlSink` — one JSON object per line for offline analysis;
- :class:`DigestSink` — rolling hash chain for replay comparison
  (:mod:`repro.dsan`);
- :data:`NULL_SINK` — the disabled default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, ClassVar, IO, Iterable, Iterator

from ..sweep.api import register_process_cache
from ..units import Seconds

__all__ = [
    "TelemetryRecord",
    "RequestArrived",
    "RequestDispatched",
    "RequestCompleted",
    "TuningDecided",
    "MoveStarted",
    "MoveFinished",
    "FaultInjected",
    "MembershipChanged",
    "DelegateElected",
    "SpeedChanged",
    "TelemetrySink",
    "NullSink",
    "NULL_SINK",
    "MemorySink",
    "JsonlSink",
    "DigestSink",
    "first_divergence",
    "record_from_dict",
]


@dataclass(frozen=True, slots=True)
class TelemetryRecord:
    """Base class of every telemetry record: a timestamped observation."""

    #: Discriminator used by :meth:`to_dict` / :func:`record_from_dict`.
    kind: ClassVar[str] = "record"

    time: Seconds

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dict, ``kind`` included."""
        payload = asdict(self)
        payload["kind"] = self.kind
        return payload


@dataclass(frozen=True, slots=True)
class RequestArrived(TelemetryRecord):
    """A request (or semantic operation) entered the system."""

    kind: ClassVar[str] = "arrival"

    fileset: str
    cost: float


@dataclass(frozen=True, slots=True)
class RequestDispatched(TelemetryRecord):
    """A request was submitted to a server's queue.

    ``router`` and ``replica`` record the routing-plane decision under
    replicated ownership: which :class:`~repro.runtime.routing`
    router chose the target, and which owner-set slot it landed on
    (0 = primary).  The defaults are the classic single-owner dispatch,
    so pre-replication JSONL streams round-trip unchanged.
    """

    kind: ClassVar[str] = "dispatch"

    fileset: str
    server: str
    service_time: Seconds
    router: str = "single"
    replica: int = 0


@dataclass(frozen=True, slots=True)
class RequestCompleted(TelemetryRecord):
    """A request finished service; ``latency`` is the harness's metric."""

    kind: ClassVar[str] = "completion"

    server: str
    latency: Seconds


@dataclass(frozen=True, slots=True)
class TuningDecided(TelemetryRecord):
    """One delegate round concluded (whether or not anything changed)."""

    kind: ClassVar[str] = "tuning"

    round: int
    changed: bool
    #: Servers that actually reported this round.
    reporting: int
    #: System average latency the tuner computed (None when the driver
    #: does not surface it, e.g. opaque policies).
    average: float | None = None
    #: server -> multiplicative share factor applied (empty if untuned).
    tuned: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class MoveStarted(TelemetryRecord):
    """A file set began moving over the shared disk."""

    kind: ClassVar[str] = "move-start"

    fileset: str
    source: str | None
    destination: str


@dataclass(frozen=True, slots=True)
class MoveFinished(TelemetryRecord):
    """A file-set move completed; ownership now rests at ``destination``."""

    kind: ClassVar[str] = "move-finish"

    fileset: str
    destination: str


@dataclass(frozen=True, slots=True)
class FaultInjected(TelemetryRecord):
    """A scheduled fault/membership event was applied."""

    kind: ClassVar[str] = "fault"

    fault: str  # FaultKind.value: fail / recover / commission / ...
    server: str


@dataclass(frozen=True, slots=True)
class MembershipChanged(TelemetryRecord):
    """The membership director finished applying one lifecycle event.

    Emitted after the re-placement that follows a fault/commission, with
    the move classification from :mod:`repro.core.movement`: ``orphaned``
    counts recovery moves (file sets whose source is gone), ``rebalanced``
    counts live-to-live moves, ``stayed`` counts boundary-preserved file
    sets — the paper's cache-preservation claim, observable per event.
    """

    kind: ClassVar[str] = "membership"

    fault: str   # FaultKind.value that triggered the change
    server: str
    live: int    # live servers after the event
    orphaned: int = 0
    rebalanced: int = 0
    stayed: int = 0


@dataclass(frozen=True, slots=True)
class DelegateElected(TelemetryRecord):
    """A node won a delegate election (proto control plane)."""

    kind: ClassVar[str] = "election"

    delegate: str
    epoch: int


@dataclass(frozen=True, slots=True)
class SpeedChanged(TelemetryRecord):
    """A server's effective speed changed (gray failure or restore).

    Emitted by the membership director for ``DEGRADE``/``RESTORE`` events
    *instead of* :class:`MembershipChanged`: a limping server is still
    live, keeps its mapped share, and triggers no re-placement — the only
    observable is the speed itself.  ``factor`` is the new degradation
    multiplier (1.0 on restore); ``effective_speed`` is base × factor.
    """

    kind: ClassVar[str] = "speed"

    server: str
    factor: float
    effective_speed: float


_RECORD_TYPES: dict[str, type[TelemetryRecord]] = {
    cls.kind: cls
    for cls in (
        RequestArrived,
        RequestDispatched,
        RequestCompleted,
        TuningDecided,
        MoveStarted,
        MoveFinished,
        FaultInjected,
        MembershipChanged,
        DelegateElected,
        SpeedChanged,
    )
}


def record_from_dict(payload: dict[str, Any]) -> TelemetryRecord:
    """Inverse of :meth:`TelemetryRecord.to_dict` (JSONL round trip)."""
    data = dict(payload)
    kind = data.pop("kind")
    try:
        cls = _RECORD_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown telemetry record kind {kind!r}") from None
    return cls(**data)


class TelemetrySink:
    """Receives telemetry records from a harness.

    ``enabled`` is a class-level constant the hot path checks before even
    constructing a record; subclasses that want the stream leave it True.
    """

    enabled: ClassVar[bool] = True

    def emit(self, record: TelemetryRecord) -> None:  # pragma: no cover
        """Receive one record (subclasses decide what to do with it)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (no-op by default)."""


class NullSink(TelemetrySink):
    """The disabled default: records are never constructed, never stored."""

    enabled: ClassVar[bool] = False

    def emit(self, record: TelemetryRecord) -> None:
        """Drop the record (never called on the guarded hot path)."""


#: Shared disabled sink; harnesses default to this.
NULL_SINK = NullSink()


class MemorySink(TelemetrySink):
    """Collects records in memory, with small query helpers."""

    def __init__(self) -> None:
        self.records: list[TelemetryRecord] = []

    def emit(self, record: TelemetryRecord) -> None:
        """Append the record to the in-memory list."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TelemetryRecord]:
        return iter(self.records)

    def of_kind(self, kind: str) -> list[TelemetryRecord]:
        """All records with the given ``kind`` discriminator, in order."""
        return [r for r in self.records if r.kind == kind]

    def counts(self) -> dict[str, int]:
        """kind -> number of records."""
        out: dict[str, int] = {}
        for record in self.records:
            out[record.kind] = out.get(record.kind, 0) + 1
        return out


class JsonlSink(TelemetrySink):
    """Writes one JSON object per record to a file (offline analysis)."""

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False

    def emit(self, record: TelemetryRecord) -> None:
        """Serialize the record as one sorted-key JSON line."""
        self._file.write(json.dumps(record.to_dict(), sort_keys=True))
        self._file.write("\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(source: str | Iterable[str]) -> list[TelemetryRecord]:
    """Parse records back from a JSONL file path or iterable of lines.

    Accepts the same ``str`` path / open-file duality as
    :class:`JsonlSink`, so ``read_jsonl(path)`` round-trips what
    ``JsonlSink(path)`` wrote.  Blank lines are skipped.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as file:
            return [
                record_from_dict(json.loads(ln)) for ln in file if ln.strip()
            ]
    return [record_from_dict(json.loads(ln)) for ln in source if ln.strip()]


class TeeSink(TelemetrySink):
    """Fans one stream out to several sinks (e.g. memory + JSONL)."""

    def __init__(self, *sinks: TelemetrySink) -> None:
        self.sinks = tuple(s for s in sinks if s.enabled)

    def emit(self, record: TelemetryRecord) -> None:
        """Forward the record to every enabled child sink."""
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


#: Per-record-class field-name cache for :class:`DigestSink` — avoids
#: re-walking ``dataclasses.fields`` on every emission.  Registered as a
#: process cache: contents are derivable (and re-derived) anywhere, so a
#: worker never depends on what the parent happened to memoize.
_DIGEST_FIELDS: dict[type, tuple[str, ...]] = {}
register_process_cache(_DIGEST_FIELDS.clear)


def _canonical_value(value: Any) -> Any:
    """Normalize a record field for hashing: dicts hash by sorted items.

    Two dicts that compare equal must hash equally regardless of
    insertion order — otherwise the chain would flag a "divergence" on
    runs whose records are ``==``-identical.
    """
    if type(value) is dict:
        return tuple(sorted(value.items()))
    return value


class DigestSink(TelemetrySink):
    """Folds every record into a rolling hash chain (the dsan backbone).

    ``chain[i]`` is a 128-bit BLAKE2b digest of record *i*'s canonical
    payload — ``repr`` of ``(kind, *field values)`` with dict fields
    item-sorted — chained onto digest ``i-1``, so ``chain[i]`` of two
    runs is equal **iff** their first ``i+1`` records are equal.  That
    prefix property is what lets :mod:`repro.dsan` binary-search two
    chains for the first divergent event instead of replaying both
    streams side by side.  (``repr`` rather than JSON: float reprs are
    exact shortest round-trips, and skipping the dict build plus
    serializer keeps the per-record cost a few microseconds — the bench
    suite gates a full hashed run at roughly 2x the silent run.)

    With ``keep_records=True`` the raw records are retained as well so
    the divergent event can be *named*, not just indexed; leave it off
    for pure chain comparison (e.g. the CI smoke job) where memory
    should stay flat.
    """

    def __init__(self, keep_records: bool = False) -> None:
        self.chain: list[str] = []
        self.records: list[TelemetryRecord] | None = (
            [] if keep_records else None
        )
        self._last = b""

    def emit(self, record: TelemetryRecord) -> None:
        """Chain the record's canonical payload onto the running digest."""
        cls = type(record)
        names = _DIGEST_FIELDS.get(cls)
        if names is None:
            names = tuple(f.name for f in fields(record))
            _DIGEST_FIELDS[cls] = names
        payload = repr(
            (record.kind, *[_canonical_value(getattr(record, n)) for n in names])
        ).encode()
        digest = hashlib.blake2b(self._last + payload, digest_size=16)
        self._last = digest.digest()
        self.chain.append(digest.hexdigest())
        if self.records is not None:
            self.records.append(record)

    def __len__(self) -> int:
        return len(self.chain)


def first_divergence(a: list[str], b: list[str]) -> int | None:
    """Index of the first event where two digest chains diverge, or None.

    Binary search, not a linear scan: the chain construction guarantees
    ``a[i] == b[i]`` iff the record prefixes ``[0, i]`` match, so the
    divergence point is the boundary of a monotone predicate.  If one
    chain is a strict prefix of the other, the first missing index is
    the divergence (the shorter run stopped emitting there).
    """
    shared = min(len(a), len(b))
    if shared and a[shared - 1] != b[shared - 1]:
        lo, hi = 0, shared - 1  # invariant: a[hi] != b[hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if a[mid] == b[mid]:
                lo = mid + 1
            else:
                hi = mid
        return lo
    if len(a) != len(b):
        return shared
    return None


class CallbackSink(TelemetrySink):
    """Invokes a callable per record (lightweight custom consumers)."""

    def __init__(self, fn: Callable[[TelemetryRecord], None]) -> None:
        self._fn = fn

    def emit(self, record: TelemetryRecord) -> None:
        """Hand the record to the wrapped callable."""
        self._fn(record)
