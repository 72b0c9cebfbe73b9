"""Shared-disk file-system cluster model.

- :class:`~repro.cluster.cluster.ClusterSimulation` — one policy vs. one
  trace on a heterogeneous server cluster;
- :class:`~repro.cluster.cluster.ClusterConfig` /
  :func:`~repro.cluster.cluster.paper_servers` — configuration (the paper's
  speeds 1, 3, 5, 7, 9);
- :class:`~repro.cluster.mover.MoveCostModel` — 5–10 s flush/init delay and
  cold-cache penalties;
- :class:`~repro.membership.faults.FaultSchedule` — failure/recovery and
  (de)commission events (re-exported here for compatibility).
"""

from .cluster import ClusterConfig, ClusterSimulation, RunResult, paper_servers
from .protocol_driver import (
    ProtocolDrivenCluster,
    ProtocolRunResult,
)
from ..membership.faults import FaultEvent, FaultKind, FaultSchedule
from .fileset import FileSetState
from .mover import FREE_MOVES, FileSetMover, MoveCostModel
from .request import MetadataRequest
from .server import MetadataServer, ServerSpec

__all__ = [
    "ClusterConfig",
    "ClusterSimulation",
    "RunResult",
    "paper_servers",
    "ProtocolDrivenCluster",
    "ProtocolRunResult",
    "FaultSchedule",
    "FaultEvent",
    "FaultKind",
    "FileSetState",
    "FileSetMover",
    "MoveCostModel",
    "FREE_MOVES",
    "MetadataRequest",
    "MetadataServer",
    "ServerSpec",
]
