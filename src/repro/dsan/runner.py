"""The determinism-sanitizer engine: run twice, diff chains, bisect.

``repro-dsan`` answers the question the golden-replay tests can only
raise: *where* did two supposedly identical runs part ways?  Each run
executes in its own subprocess with a pinned ``PYTHONHASHSEED`` (the
perturbed run gets a different one, and optionally a forced-``gc.collect``
jitter sink), folding every telemetry record into a
:class:`~repro.runtime.telemetry.DigestSink` hash chain.  The chains are
then bisected with
:func:`~repro.runtime.telemetry.first_divergence` and the first
divergent event is reported *by record*, not just by index.

Subprocesses are essential, not a convenience: a process's string hash
order is fixed at startup, so hash-seed perturbation cannot be done
in-process, and a fresh interpreter also rules out cross-run state leaks
(module caches, interned objects) as hidden coupling between the two
runs being compared.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..lint.diagnostics import Diagnostic
from ..runtime.telemetry import (
    DigestSink,
    TelemetryRecord,
    TelemetrySink,
    first_divergence,
)

__all__ = [
    "SCENARIOS",
    "Divergence",
    "GcJitterSink",
    "compare",
    "diagnose",
    "run_scenario",
]


# ----------------------------------------------------------------------
# Scenario registry: name -> callable(seed, sink, quick).
# ----------------------------------------------------------------------

def _cluster(seed: int, sink: TelemetrySink, quick: bool) -> None:
    """Chaos-soak the queueing stack (the CI smoke scenario)."""
    from ..cluster import ClusterConfig, ClusterSimulation, paper_servers
    from ..membership.injector import FaultInjector
    from ..membership.soak import SOAK_CHURN
    from ..placement import ANUPolicy
    from ..units import Seconds
    from ..workloads import SyntheticConfig, generate_synthetic

    trace = generate_synthetic(
        SyntheticConfig(
            n_filesets=20,
            n_requests=600 if quick else 4000,
            duration=900.0,
            request_cost=0.3,
            seed=seed,
        )
    )
    speeds = {s.name: s.speed for s in paper_servers()}
    faults = FaultInjector(speeds, SOAK_CHURN, seed=seed).generate(
        Seconds(trace.duration)
    )
    config = ClusterConfig(
        servers=paper_servers(),
        tuning_interval=120.0,
        sample_window=60.0,
        seed=seed,
    )
    ClusterSimulation(config, ANUPolicy(), trace, faults, telemetry=sink).run()


def _fs(seed: int, sink: TelemetrySink, quick: bool) -> None:
    """Run the timed semantic stack on a generated operation stream."""
    from ..cluster import ServerSpec
    from ..fs import FsWorkloadConfig, MetadataCluster, generate_operations
    from ..runtime import Scenario

    roots = {f"vol{i:02d}": f"/vol{i:02d}" for i in range(6)}
    ops = generate_operations(
        MetadataCluster(["gen"], roots),
        FsWorkloadConfig(
            n_operations=400 if quick else 2500, duration=600.0, seed=seed
        ),
    )
    Scenario(
        servers=[ServerSpec(f"server{i}", float(2 * i + 1)) for i in range(4)],
        operations=ops,
        fileset_roots=roots,
        seed=seed,
        mean_op_cost=1.0,
    ).run_full_system(sink)


def _proto(seed: int, sink: TelemetrySink, quick: bool) -> None:
    """Chaos-soak the protocol-driven queueing stack: elections after
    crashes and commissions, and the control plane's rank map."""
    from ..cluster import ServerSpec
    from ..membership.injector import FaultInjector
    from ..membership.soak import SOAK_CHURN
    from ..runtime import Scenario
    from ..units import Seconds
    from ..workloads import SyntheticConfig, generate_synthetic

    trace = generate_synthetic(
        SyntheticConfig(
            n_filesets=16,
            n_requests=400 if quick else 2500,
            duration=600.0,
            request_cost=0.3,
            seed=seed,
        )
    )
    servers = [ServerSpec(f"server{i}", float(2 * i + 1)) for i in range(4)]
    speeds = {s.name: s.speed for s in servers}
    faults = FaultInjector(speeds, SOAK_CHURN, seed=seed).generate(
        Seconds(trace.duration)
    )
    Scenario(
        servers=servers, trace=trace, faults=faults, seed=seed
    ).run_protocol(sink)


def _planted(seed: int, sink: TelemetrySink, quick: bool) -> None:
    """The deliberately nondeterministic fixture (self-test subject)."""
    from .fixture import run_planted

    run_planted(seed, sink, quick=quick)


#: Runnable scenarios; ``planted`` exists to prove the sanitizer works.
SCENARIOS: dict[str, Callable[[int, TelemetrySink, bool], None]] = {
    "cluster": _cluster,
    "fs": _fs,
    "proto": _proto,
    "planted": _planted,
}


class GcJitterSink(TelemetrySink):
    """Forwards to an inner sink, forcing a GC cycle every ``every`` records.

    Garbage collection must be observationally invisible to a seeded
    run; forcing it at a different cadence than the baseline flushes out
    code whose results depend on object lifetimes (``id()`` ordering,
    weakref callbacks, ``__del__`` side effects).
    """

    def __init__(self, inner: TelemetrySink, every: int) -> None:
        self.inner = inner
        self.every = max(1, every)
        self._count = 0

    def emit(self, record: TelemetryRecord) -> None:
        """Forward the record, collecting garbage on the jitter cadence."""
        import gc

        self.inner.emit(record)
        self._count += 1
        if self._count % self.every == 0:
            gc.collect()


def run_scenario(
    scenario: str,
    seed: int,
    quick: bool = True,
    gc_every: int = 0,
) -> DigestSink:
    """Run one scenario in-process into a record-keeping DigestSink."""
    try:
        runner = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} (have {', '.join(sorted(SCENARIOS))})"
        ) from None
    sink = DigestSink(keep_records=True)
    target: TelemetrySink = sink if gc_every == 0 else GcJitterSink(sink, gc_every)
    runner(seed, target, quick)
    return sink


# ----------------------------------------------------------------------
# Two-run comparison
# ----------------------------------------------------------------------

@dataclass
class Divergence:
    """Outcome of one baseline-vs-perturbed comparison.

    ``index`` is the first divergent event (0-based position in the
    telemetry stream), or ``None`` when the chains match end to end.
    """

    scenario: str
    seed: int
    perturbation: str
    index: int | None
    baseline_len: int
    perturbed_len: int
    #: ``to_dict`` payloads of the records at ``index`` (None when the
    #: run matched, or when that side's stream ended before ``index``).
    baseline_record: dict[str, Any] | None = None
    perturbed_record: dict[str, Any] | None = None

    @property
    def diverged(self) -> bool:
        return self.index is not None


def _worker_env(hashseed: int) -> dict[str, str]:
    """Subprocess environment: pinned hash seed, repo importable."""
    import repro

    env = os.environ.copy()
    env["PYTHONHASHSEED"] = str(hashseed)
    src = str(Path(repro.__file__).resolve().parent.parent)
    extra = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{extra}" if extra else src
    return env


def _spawn(
    scenario: str,
    seed: int,
    quick: bool,
    hashseed: int,
    gc_every: int,
) -> dict[str, Any]:
    """One sanitizer run in a fresh interpreter; returns chain + records."""
    cmd = [
        sys.executable,
        "-m",
        "repro.dsan",
        scenario,
        "--worker",
        "--seed",
        str(seed),
    ]
    if quick:
        cmd.append("--quick")
    if gc_every:
        cmd.extend(["--gc-every", str(gc_every)])
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=_worker_env(hashseed)
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"dsan worker failed (scenario {scenario!r}, seed {seed}, "
            f"PYTHONHASHSEED={hashseed}):\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout)


def compare(
    scenario: str,
    seed: int,
    *,
    quick: bool = True,
    hashseed_perturb: bool = False,
    gc_jitter: bool = False,
) -> Divergence:
    """Run a scenario twice and bisect the digest chains.

    The baseline always runs under ``PYTHONHASHSEED=0``.  The second run
    repeats it exactly — same seed, same workload — under
    ``PYTHONHASHSEED=1`` when ``hashseed_perturb`` is set and/or with
    forced-GC jitter; a deterministic harness must produce the identical
    chain regardless.
    """
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r} (have {', '.join(sorted(SCENARIOS))})"
        )
    perturbations = []
    if hashseed_perturb:
        perturbations.append("PYTHONHASHSEED 0->1")
    if gc_jitter:
        perturbations.append("forced-GC jitter")
    baseline = _spawn(scenario, seed, quick, hashseed=0, gc_every=0)
    perturbed = _spawn(
        scenario,
        seed,
        quick,
        hashseed=1 if hashseed_perturb else 0,
        gc_every=64 if gc_jitter else 0,
    )
    index = first_divergence(baseline["chain"], perturbed["chain"])

    def _record(run: dict[str, Any], i: int | None) -> dict[str, Any] | None:
        if i is None or i >= len(run["records"]):
            return None
        return run["records"][i]

    return Divergence(
        scenario=scenario,
        seed=seed,
        perturbation=", ".join(perturbations) or "exact repeat",
        index=index,
        baseline_len=len(baseline["chain"]),
        perturbed_len=len(perturbed["chain"]),
        baseline_record=_record(baseline, index),
        perturbed_record=_record(perturbed, index),
    )


def diagnose(divergence: Divergence) -> list[Diagnostic]:
    """Render a divergence as lint diagnostics (text/SARIF via lint.output).

    The ``path`` is a pseudo-location naming the scenario; ``line`` is
    the 1-based event index so SARIF viewers sort streams correctly.
    """
    if not divergence.diverged:
        return []
    assert divergence.index is not None
    base = json.dumps(divergence.baseline_record, sort_keys=True)
    pert = json.dumps(divergence.perturbed_record, sort_keys=True)
    message = (
        f"seed {divergence.seed} replay diverges at event "
        f"{divergence.index} under {divergence.perturbation}: "
        f"baseline={base} perturbed={pert} "
        f"(chains: {divergence.baseline_len} vs {divergence.perturbed_len} "
        f"events)"
    )
    return [
        Diagnostic(
            path=f"dsan/{divergence.scenario}",
            line=divergence.index + 1,
            col=0,
            rule_id="DSAN001",
            message=message,
            hint=(
                "the first divergent record names the subsystem; look for "
                "unordered iteration, ambient reads, or unseeded RNG on "
                "the path that emits it"
            ),
        )
    ]
