"""Discrete-event simulation engine (YACSIM substitute).

The paper evaluated ANU randomization with a simulator written on YACSIM, a
C discrete-event toolkit.  This subpackage is a from-scratch Python
equivalent providing the pieces the paper's simulator needs:

- :class:`~repro.sim.engine.Engine` — clock + event calendar;
- :class:`~repro.sim.resources.Facility` — FIFO single-server queue with
  statistics (:class:`~repro.sim.resources.Monitor`);
- :class:`~repro.sim.rng.StreamFactory` — named, independent random streams.
"""

from .engine import Engine
from .events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    Event,
    SimulationError,
)
from .resources import Facility, Monitor
from .rng import StreamFactory, exponential, uniform

__all__ = [
    "Engine",
    "Event",
    "SimulationError",
    "PRIORITY_EARLY",
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "Facility",
    "Monitor",
    "StreamFactory",
    "exponential",
    "uniform",
]
