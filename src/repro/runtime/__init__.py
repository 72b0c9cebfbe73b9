"""Shared simulation-harness core.

One implementation of the pieces every harness in this repository was
duplicating: arrival scheduling (:mod:`.arrivals`), the delegate tuning
loop (:mod:`.loop`), the run-result shape (:mod:`.result`), a structured
telemetry event stream (:mod:`.telemetry`), the per-request routing
plane over replicated owners (:mod:`.routing`), and the :class:`Scenario`
assembly that runs one experiment description through any of the three
harness stacks (:mod:`.scenario`).
"""

from .arrivals import ArrivalPump, schedule_all
from .loop import TuningHost, TuningLoop
from .result import SimResult, summarize_collector
from .routing import (
    ROUTER_FACTORIES,
    JSQRouter,
    RequestRouter,
    SingleOwnerRouter,
    WeightedPowerOfDRouter,
    make_router,
)
from .telemetry import (
    NULL_SINK,
    CallbackSink,
    DelegateElected,
    DigestSink,
    FaultInjected,
    JsonlSink,
    MembershipChanged,
    MemorySink,
    MoveFinished,
    MoveStarted,
    NullSink,
    RequestArrived,
    RequestCompleted,
    RequestDispatched,
    TeeSink,
    TelemetryRecord,
    TelemetrySink,
    TuningDecided,
    first_divergence,
    read_jsonl,
    record_from_dict,
)

__all__ = [
    "ArrivalPump",
    "schedule_all",
    "TuningHost",
    "TuningLoop",
    "SimResult",
    "summarize_collector",
    "ROUTER_FACTORIES",
    "JSQRouter",
    "RequestRouter",
    "SingleOwnerRouter",
    "WeightedPowerOfDRouter",
    "make_router",
    "Scenario",
    "NULL_SINK",
    "CallbackSink",
    "DelegateElected",
    "DigestSink",
    "FaultInjected",
    "JsonlSink",
    "MembershipChanged",
    "MemorySink",
    "MoveFinished",
    "MoveStarted",
    "NullSink",
    "RequestArrived",
    "RequestCompleted",
    "RequestDispatched",
    "TeeSink",
    "TelemetryRecord",
    "TelemetrySink",
    "TuningDecided",
    "first_divergence",
    "read_jsonl",
    "record_from_dict",
]


def __getattr__(name: str):
    # Scenario imports the harness packages, which import repro.runtime —
    # resolve it lazily to keep the package import-cycle free.
    if name == "Scenario":
        from .scenario import Scenario

        return Scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
