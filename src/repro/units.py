"""Time/share unit markers: ``Seconds`` and ``Ticks`` as documentation.

The repository juggles two incompatible scalar units:

- **Seconds** — simulated wall-clock time (the engine clock, event delays,
  latencies, sample windows);
- **Ticks** — exact integer subdivisions of the ANU unit interval
  (``repro.core.interval.RESOLUTION`` ticks make up the whole interval).

Both are plain numbers at runtime, so nothing stops a share-tick count
from being scheduled as a delay or a latency from being added to a share.
These ``NewType`` aliases make the unit part of a function's signature,
so a reader (and a type checker) sees which one a value carries.  No
linter rule reads them; a unit mix-up shows up at runtime as drift in
the golden replays and in the response-time magnitudes checked by
``tests/test_queueing_theory.py``.  At runtime they are identity
functions — zero cost, no behavior change.

Convention (see CONTRIBUTING): annotate parameters and returns that carry
a unit with ``Seconds``/``Ticks`` (bare, ``Optional``, or inside
``list``/``dict`` element positions).  Use ``Seconds(x)`` / ``Ticks(x)``
to state the unit of a value whose provenance is not obvious (e.g.
numbers parsed from a trace file).
"""

from __future__ import annotations

from typing import NewType

#: Simulated wall-clock seconds (engine clock, delays, latencies).
Seconds = NewType("Seconds", float)

#: Exact integer ticks of the ANU unit interval (share sizes).
Ticks = NewType("Ticks", int)
