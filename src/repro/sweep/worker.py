"""The spawn-safe per-cell worker: one cell in, one plain-dict row out.

:func:`run_cell` is the sweep's worker boundary.  Its contract, checked
at runtime by the serial-vs-process ``cmp`` of merged output (CI's
``sweep-smoke`` job) and the executor-parity tests:

- the payload and the returned row are dicts of JSON scalars — nothing
  carrying an engine back-reference, open handle, or live sink crosses
  the process boundary (the spawn pool would fail to pickle it);
- every run draws randomness only from the cell's own seed, threaded
  through :class:`~repro.runtime.scenario.Scenario` into the simulator's
  named ``StreamFactory`` streams — never from process-global RNG state;
- the row carries the cell's full :class:`DigestSink` chain head, so the
  orchestrator can prove that merged output is independent of which
  process computed the cell and when (the merge is keyed by cell id,
  never by completion order);
- :func:`pool_initializer` clears every registered process cache before
  a worker computes anything, so no parent-process memo state can leak
  into a child.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..cluster.cluster import RunResult, paper_servers
from ..membership.faults import FaultSchedule
from ..placement.base import PlacementPolicy
from ..placement.registry import policy_factory
from ..placement.replicated import ReplicatedPolicy
from ..runtime.scenario import Scenario
from ..runtime.telemetry import DigestSink
from ..workloads.synthetic import SyntheticConfig, generate_synthetic
from .api import clear_process_caches

__all__ = [
    "LIMP_SCHEDULES",
    "pool_initializer",
    "run_cell",
]


def pool_initializer() -> None:
    """Run in every worker process before it computes its first cell."""
    clear_process_caches()


def _sustained_limp(duration: float) -> FaultSchedule:
    """The fastest server limps at 15% speed for the middle half-run."""
    from ..units import Seconds

    schedule = FaultSchedule()
    schedule.degrade(Seconds(duration * 0.25), "server4", 0.15)
    schedule.restore(Seconds(duration * 0.75), "server4")
    return schedule


def _ramp_limp(duration: float) -> FaultSchedule:
    """Slow-then-dead: the fastest server worsens in steps, then dies."""
    from ..units import Seconds

    schedule = FaultSchedule()
    schedule.degrade(Seconds(duration * 0.25), "server4", 0.5)
    schedule.degrade(Seconds(duration * 0.40), "server4", 0.25)
    schedule.degrade(Seconds(duration * 0.55), "server4", 0.125)
    schedule.fail(Seconds(duration * 0.70), "server4")
    schedule.recover(Seconds(duration * 0.85), "server4")
    return schedule


def _coupled_limp(duration: float) -> FaultSchedule:
    """I/O contention: the limping server drags a sharer down with it."""
    from ..units import Seconds

    schedule = FaultSchedule()
    schedule.degrade(Seconds(duration * 0.25), "server4", 0.2)
    schedule.degrade(Seconds(duration * 0.25), "server3", 0.6)
    schedule.restore(Seconds(duration * 0.75), "server3")
    schedule.restore(Seconds(duration * 0.75), "server4")
    return schedule


#: Limp-axis registry: value -> schedule factory over the trace duration.
#: Schedules are pure functions of the cell params, preserving the
#: sweep's byte-identical-merge contract; ``none`` keeps the fault-free
#: baseline bit-for-bit.
LIMP_SCHEDULES: dict[str, Callable[[float], FaultSchedule] | None] = {
    "none": None,
    "sustained": _sustained_limp,
    "ramp": _ramp_limp,
    "couple": _coupled_limp,
}


def _scenario_for(seed: int, params: Mapping[str, object]) -> Scenario:
    """Build the cell's scenario from its (seed, params) description.

    Everything is derived from the payload: the trace from the cell
    seed, the policy fresh from its registered factory.  Unknown
    parameter names are rejected so a typo in a grid axis fails the
    whole sweep loudly instead of silently running defaults.
    """
    known = {
        "policy",
        "n_filesets",
        "n_requests",
        "duration",
        "alpha",
        "tuning_interval",
        "limp",
        "r",
        "router",
    }
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(f"unknown sweep parameter(s): {', '.join(unknown)}")
    limp_name = str(params.get("limp", "none"))
    try:
        limp_factory = LIMP_SCHEDULES[limp_name]
    except KeyError:
        raise ValueError(
            f"unknown limp profile {limp_name!r}; known: "
            f"{', '.join(sorted(LIMP_SCHEDULES))}"
        ) from None
    duration = float(params.get("duration", 600.0))
    tuning_interval = float(params.get("tuning_interval", 60.0))
    trace = generate_synthetic(
        SyntheticConfig(
            n_filesets=int(params.get("n_filesets", 40)),
            n_requests=int(params.get("n_requests", 400)),
            duration=duration,
            alpha=float(params.get("alpha", 4.0)),
            seed=seed,
        )
    )
    servers = paper_servers()
    # The prescient and -weighted policies are granted the *nominal*
    # server speeds (perfect static knowledge — gray failures stay
    # invisible even to the oracle, which is the point of the limp axis);
    # the oracle also sees the first interval's demand.
    factory = policy_factory(
        str(params.get("policy", "anu")),
        speeds={s.name: s.speed for s in servers},
        trace=trace,
        horizon=tuning_interval,
    )
    replication = int(params.get("r", 1))
    if replication > 1:
        # Wrap so the row's policy name carries the replication level
        # ("anu+r2"); the harness derives the same owner sets either way.
        base_factory = factory

        def factory() -> PlacementPolicy:
            return ReplicatedPolicy(base_factory(), replication)

    return Scenario(
        servers=servers,
        trace=trace,
        policy=factory,
        faults=limp_factory(duration) if limp_factory is not None else None,
        tuning_interval=tuning_interval,
        seed=seed,
        replication=replication,
        router=str(params.get("router", "single")),
    )


def _summarize(result: RunResult) -> dict:
    """The scalar result surface that lands in the merged JSONL."""
    return {
        "policy": result.policy_name,
        "completed": result.completed,
        "total_requests": result.total_requests,
        "mean_latency": result.mean_latency,
        "utilization": result.utilization,
        "moves_completed": result.moves_completed,
        "retries": result.retries,
        "tuning_rounds": result.tuning_rounds,
    }


def run_cell(payload: dict) -> dict:
    """Run one sweep cell; both ``payload`` and the row are plain dicts.

    ``payload`` is :meth:`repro.sweep.grid.Cell.payload`.  The returned
    row is a pure function of it: the same payload produces the same row
    bytes in any process, under any executor, in any order.
    """
    seed = int(payload["seed"])
    params = dict(payload["params"])
    sink = DigestSink()
    result = _scenario_for(seed, params).run_cluster(telemetry=sink)
    return {
        "cell": payload["cell"],
        "seed": seed,
        "params": params,
        "summary": _summarize(result),
        "events": len(sink.chain),
        "digest": sink.chain[-1] if sink.chain else "",
    }
