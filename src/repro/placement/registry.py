"""The placement-policy registry: every policy name, and what it is granted.

The paper's §7 compares ANU against simple randomization, round-robin and
a dynamic prescient oracle; the figure runner
(:mod:`repro.experiments.runner`) and the sweep (:mod:`repro.sweep`) both
build those comparators here, so a name means the same policy — with the
same granted knowledge — everywhere.

Policies are stateful, so the registry hands out *factories*: every run
builds its own instance.  Three names need knowledge no self-configuring
policy has, and :func:`policy_factory` raises ``ValueError`` when it is
not supplied:

- ``prescient`` — the oracle: true server speeds plus the first
  horizon's per-file-set demand, so it "begins in a load-balanced state
  at time 0" as the paper specifies;
- ``two-choice-weighted`` / ``consistent-hash-weighted`` — static
  capacity weights (server speeds), modelling an administrator
  configuring weights by hand, which the paper's self-configuring claim
  argues against needing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from ..core.tuning import (
    AGGRESSIVE,
    ALL_HEURISTICS,
    DIVERGENT_ONLY,
    THRESHOLD_ONLY,
    TOP_OFF_ONLY,
)
from .anu_policy import ANUPolicy, DecentralizedANUPolicy
from .base import PlacementPolicy
from .consistent_hash import ConsistentHashPolicy
from .prescient import PrescientPolicy
from .round_robin import RoundRobinPolicy
from .simple_random import SimpleRandomPolicy
from .two_choice import TwoChoicePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.trace import Trace

__all__ = ["available_policies", "make_policy", "policy_factory"]

PolicyFactory = Callable[[], PlacementPolicy]

#: Policies that need no granted knowledge: name -> fresh-policy factory.
_PLAIN: dict[str, PolicyFactory] = {
    "simple-random": SimpleRandomPolicy,
    "round-robin": RoundRobinPolicy,
    "consistent-hash": ConsistentHashPolicy,
    "anu": lambda: ANUPolicy(ALL_HEURISTICS),
    "anu-aggressive": lambda: ANUPolicy(AGGRESSIVE),
    "anu-threshold-only": lambda: ANUPolicy(THRESHOLD_ONLY),
    "anu-top-off-only": lambda: ANUPolicy(TOP_OFF_ONLY),
    "anu-divergent-only": lambda: ANUPolicy(DIVERGENT_ONLY),
    "anu-decentralized": DecentralizedANUPolicy,
    "two-choice": TwoChoicePolicy,
}

#: Policies that are granted server speeds.
_WEIGHTED = ("two-choice-weighted", "consistent-hash-weighted")


def available_policies() -> list[str]:
    """Every registered policy name, sorted."""
    return sorted([*_PLAIN, *_WEIGHTED, "prescient"])


def policy_factory(
    name: str,
    speeds: Mapping[str, float] | None = None,
    trace: "Trace | None" = None,
    horizon: float | None = None,
) -> PolicyFactory:
    """A fresh-policy factory for ``name``, with its grants bound.

    ``speeds`` are the server speeds the prescient and ``-weighted``
    policies are granted; ``trace`` and ``horizon`` give the prescient
    oracle its first-horizon demand.  Validation happens here, at build
    time, never when the factory is called mid-sweep.
    """
    plain = _PLAIN.get(name)
    if plain is not None:
        return plain
    if name not in _WEIGHTED and name != "prescient":
        raise ValueError(
            f"unknown policy {name!r}; known: {', '.join(available_policies())}"
        )
    if speeds is None:
        raise ValueError(f"policy {name!r} needs the server speeds")
    granted = dict(speeds)
    if name == "two-choice-weighted":

        def two_choice_weighted() -> PlacementPolicy:
            policy = TwoChoicePolicy()
            policy.grant_weights(granted)
            return policy

        return two_choice_weighted
    if name == "consistent-hash-weighted":
        return lambda: ConsistentHashPolicy(weights=granted)
    if trace is None or horizon is None:
        raise ValueError(
            "policy 'prescient' needs the trace and an oracle horizon"
        )
    demand = trace.demand_by_fileset(0.0, horizon)

    def prescient() -> PlacementPolicy:
        policy = PrescientPolicy()
        policy.grant_oracle(granted, demand)
        return policy

    return prescient


def make_policy(
    name: str,
    speeds: Mapping[str, float] | None = None,
    trace: "Trace | None" = None,
    horizon: float | None = None,
) -> PlacementPolicy:
    """A fresh policy instance for ``name`` (see :func:`policy_factory`)."""
    return policy_factory(name, speeds, trace, horizon)()
