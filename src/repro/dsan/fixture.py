"""Planted-nondeterminism fixture: the dsan's own test subject.

A tiny fake harness with a deliberate replay bug: file-set *arrivals*
are emitted in sorted (stable) order, but *dispatches* iterate a ``set``
whose iteration order depends on ``PYTHONHASHSEED``.  Two runs of the
same seed in processes with different hash seeds therefore agree on the
arrival prefix and diverge at the first dispatch — a known ground truth
the end-to-end tests (and the tutorial) use to show ``repro-dsan``
bisecting to the exact first divergent event.

``repro-dsan`` is the repository's check for unordered iteration: no
static rule looks for it, because replaying under a perturbed hash seed
catches it wherever it reaches the telemetry stream.  This fixture is
that check's self-test — CI requires the planted run to diverge, so a
sanitizer that has gone blind fails the build.
"""

from __future__ import annotations

from ..units import Seconds
from ..runtime.telemetry import (
    RequestArrived,
    RequestDispatched,
    TelemetrySink,
)

#: Servers the fixture "dispatches" to, round-robin by emission order.
_SERVERS = ("server0", "server1", "server2")


def run_planted(
    seed: int, sink: TelemetrySink, quick: bool = True
) -> None:
    """Emit a stable arrival prefix, then hash-order-dependent dispatches.

    ``seed`` sizes the workload (so different seeds give different
    chains, like a real harness); the nondeterminism itself is the
    ``set`` iteration feeding placement, independent of the seed.
    """
    count = (16 if quick else 64) + (seed % 7)
    filesets = {f"fs{i:03d}" for i in range(count)}
    for i, name in enumerate(sorted(filesets)):
        if sink.enabled:
            sink.emit(
                RequestArrived(
                    time=Seconds(float(i)), fileset=name, cost=0.25
                )
            )
    # The planted bug: placement order leaks set iteration order.
    for i, name in enumerate(set(filesets)):
        if sink.enabled:
            sink.emit(
                RequestDispatched(
                    time=Seconds(float(count + i)),
                    fileset=name,
                    server=_SERVERS[i % len(_SERVERS)],
                    service_time=Seconds(0.25),
                )
            )
