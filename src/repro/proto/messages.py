"""Control-plane message types.

The paper's tuning protocol (§4) needs four interactions: servers report
latencies to the delegate; the delegate distributes a new server→interval
mapping ("this is the only replicated state needed by our algorithm");
everyone watches the delegate's heartbeat; and a failed delegate triggers
an election.  Each interaction is one message type below.

Config updates carry a monotonically increasing *epoch* so that stale
updates (from a deposed delegate or a slow network path) are discarded —
the versioning that makes the stateless fail-over story safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.tuning import ServerReport


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon from the current delegate."""

    delegate: str
    epoch: int


@dataclass(frozen=True)
class ReportRequest:
    """Delegate asks every server for its last-interval latency report."""

    delegate: str
    epoch: int
    round_id: int


@dataclass(frozen=True)
class ReportReply:
    """A server's latency report for one collection round."""

    round_id: int
    report: ServerReport


@dataclass(frozen=True)
class ConfigUpdate:
    """New relative shares for the unit interval, versioned by epoch."""

    epoch: int
    shares: dict[str, float] = field(default_factory=dict)
    issued_by: str = ""


@dataclass(frozen=True)
class Election:
    """Bully election probe: 'I want to be delegate; anyone bigger?'"""

    candidate: str


@dataclass(frozen=True)
class ElectionOk:
    """Bully election answer from a higher-priority node."""

    responder: str


@dataclass(frozen=True)
class Coordinator:
    """Election winner announcement."""

    delegate: str
    epoch: int
