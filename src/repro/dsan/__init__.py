"""Determinism sanitizer (``repro-dsan``): replay, diff, bisect.

``repro-lint`` proves a few structural properties about the code; this
package checks the property that actually matters at run time — that a
seeded scenario replays *bit-identically* under perturbations a correct
harness must not observe (``PYTHONHASHSEED``, GC cadence).  It is the
repository's check for the usual sources of replay drift: unordered
``set`` iteration, wall-clock and environment reads, and randomness
that does not come from the scenario's seeded streams.  Each run
folds its telemetry stream into a rolling hash chain
(:class:`~repro.runtime.telemetry.DigestSink`); two chains are bisected to the
first divergent event, which is reported as a record, not a stack trace.

- :func:`compare` — run a scenario twice (fresh subprocesses) and diff;
- :func:`run_scenario` — one in-process run into a digest sink;
- :data:`SCENARIOS` — runnable scenarios, including the deliberately
  nondeterministic ``planted`` fixture that self-tests the bisector;
- :func:`diagnose` — a divergence as lint diagnostics (text/SARIF).
"""

from .runner import SCENARIOS, Divergence, compare, diagnose, run_scenario

__all__ = [
    "SCENARIOS",
    "Divergence",
    "compare",
    "diagnose",
    "run_scenario",
]
