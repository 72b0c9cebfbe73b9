"""Placement policies: ANU randomization and the paper's baselines.

- :class:`~repro.placement.anu_policy.ANUPolicy` — the paper's algorithm;
- :class:`~repro.placement.anu_policy.DecentralizedANUPolicy` — §5 variant;
- :class:`~repro.placement.simple_random.SimpleRandomPolicy` — static random;
- :class:`~repro.placement.round_robin.RoundRobinPolicy` — static equal-count;
- :class:`~repro.placement.prescient.PrescientPolicy` — perfect-knowledge LPT;
- :class:`~repro.placement.consistent_hash.ConsistentHashPolicy` — related-work
  baseline;
- :class:`~repro.placement.replicated.ReplicatedPolicy` — wraps any of the
  above for a run with r owners per file set; the owner sets themselves
  come from :func:`~repro.placement.replicated.derive_owner_set`, whose
  answers :mod:`repro.runtime.routing` routes over.
"""

from .anu_policy import ANUPolicy, DecentralizedANUPolicy
from .base import PlacementPolicy, TuningContext, validate_assignment
from .consistent_hash import ConsistentHashPolicy, ConsistentHashRing
from .prescient import PrescientPolicy, lpt_assign, predicted_makespan
from .replicated import ReplicatedPolicy, derive_owner_set, derive_owner_sets
from .round_robin import RoundRobinPolicy
from .simple_random import SimpleRandomPolicy
from .two_choice import TwoChoicePolicy

__all__ = [
    "PlacementPolicy",
    "TuningContext",
    "validate_assignment",
    "ReplicatedPolicy",
    "derive_owner_set",
    "derive_owner_sets",
    "ANUPolicy",
    "DecentralizedANUPolicy",
    "SimpleRandomPolicy",
    "TwoChoicePolicy",
    "RoundRobinPolicy",
    "PrescientPolicy",
    "lpt_assign",
    "predicted_makespan",
    "ConsistentHashPolicy",
    "ConsistentHashRing",
]
