"""Per-directory lint policy: which rules run in which tree.

Rules carry their *semantic* scope themselves (``applies_to`` — e.g.
RPL006 only makes sense in ``repro.core``, and ``sim/rng.py`` is exempt
from the RNG rule by design).  This module holds the *organizational*
scope: which repository trees opt out of which rules, in one documented
table instead of scattered conditionals.

Exclusion rationale
-------------------
``src``
    Production code gets every rule.
``examples``
    Examples are documentation that executes — they model the determinism
    discipline (RPL002 applies) and get the full rule set.
``tests`` / ``benchmarks``
    - RPL002: test harnesses and benchmarks legitimately seed ad-hoc
      RNGs (fixture noise).
    - RPL004: tests assert exact floats on purpose (determinism checks).
    - RPL009: fixtures occasionally use module-level state.
``other``
    Anything outside the known trees (scratch files, tooling) is held to
    the same relaxed bar as tests.

Flow rules (RPL1xx) are unaffected: they analyze only files that map
into the ``repro`` package, which are all in ``src``.
"""

from __future__ import annotations

from pathlib import PurePosixPath

#: Rules that presume production-code discipline.
_PRODUCTION_ONLY = frozenset({"RPL002", "RPL004", "RPL009"})

#: tree name -> rule IDs excluded in that tree.  Keep the docstring's
#: rationale section in sync when editing.
EXCLUSIONS: dict[str, frozenset] = {
    "src": frozenset(),
    "examples": frozenset(),
    "tests": _PRODUCTION_ONLY,
    "benchmarks": _PRODUCTION_ONLY,
    "other": _PRODUCTION_ONLY,
}

_KNOWN_TREES = frozenset(EXCLUSIONS) - {"other"}


def tree_of(path: str) -> str:
    """The policy tree a path belongs to (``"other"`` when unknown)."""
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    for part in parts:
        if part in _KNOWN_TREES:
            return part
    return "other"


def excluded_rules(path: str) -> frozenset:
    """Rule IDs the policy disables for ``path``."""
    return EXCLUSIONS[tree_of(path)]
