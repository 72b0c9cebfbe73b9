"""ANU randomization: the paper's primary contribution.

Public surface:

- :class:`~repro.core.anu.ANUPlacement` — place/locate file sets;
- :class:`~repro.core.interval.MappedInterval` — the partitioned unit
  interval with the half-occupancy invariant;
- :class:`~repro.core.hashing.HashFamily` — the probe-sequence hash family;
- :class:`~repro.core.tuning.DelegateTuner` — latency-driven share rescaling
  with the three over-tuning heuristics, and
  :class:`~repro.core.tuning.DelegateRoundDriver`, the delegate round that
  owns the previous interval's reports;
- :class:`~repro.core.decentralized.PairwiseTuner` — the §5 future-work
  decentralized variant;
- :mod:`~repro.core.movement` — movement/cache-preservation accounting.
"""

from .anu import ANUPlacement
from .decentralized import Exchange, PairwiseConfig, PairwiseTuner
from .hashing import HashFamily, hash64, hash_to_choice, hash_to_unit
from .interval import (
    HALF,
    RESOLUTION,
    RESOLUTION_BITS,
    IntervalError,
    MappedInterval,
    Segment,
    fractions_to_ticks,
    min_partitions,
)
from .movement import Move, MovementLedger, ReconfigDiff, diff_assignment
from .tuning import (
    AGGRESSIVE,
    ALL_HEURISTICS,
    DIVERGENT_ONLY,
    THRESHOLD_ONLY,
    TOP_OFF_ONLY,
    DelegateRoundDriver,
    DelegateTuner,
    ServerReport,
    TuningConfig,
    TuningDecision,
    system_average,
)

__all__ = [
    "ANUPlacement",
    "HashFamily",
    "hash64",
    "hash_to_choice",
    "hash_to_unit",
    "MappedInterval",
    "Segment",
    "IntervalError",
    "fractions_to_ticks",
    "min_partitions",
    "HALF",
    "RESOLUTION",
    "RESOLUTION_BITS",
    "DelegateRoundDriver",
    "DelegateTuner",
    "ServerReport",
    "TuningConfig",
    "TuningDecision",
    "system_average",
    "AGGRESSIVE",
    "ALL_HEURISTICS",
    "THRESHOLD_ONLY",
    "TOP_OFF_ONLY",
    "DIVERGENT_ONLY",
    "PairwiseTuner",
    "PairwiseConfig",
    "Exchange",
    "Move",
    "ReconfigDiff",
    "MovementLedger",
    "diff_assignment",
]
