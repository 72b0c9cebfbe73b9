"""Movement accounting: which file sets a reconfiguration moves.

A key claim of the paper is *cache preservation*: reconfigurations move the
minimum amount of workload, so server caches survive tuning, failure and
recovery.  This module diffs two file-set assignments, classifies the moves,
and accumulates statistics across a run so the claim can be measured (and
compared against bin-packing baselines, which may permute arbitrarily).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class Move:
    """One file set changing owner."""

    fileset: str
    source: str | None  # None when newly placed
    destination: str


@dataclass(frozen=True)
class ReconfigDiff:
    """The difference between two assignments."""

    moves: tuple[Move, ...]
    stayed: int

    @property
    def moved(self) -> int:
        return len(self.moves)

    @property
    def total(self) -> int:
        return self.moved + self.stayed

    @property
    def moved_fraction(self) -> float:
        """Fraction of file sets that changed owner (0 when no file sets)."""
        return self.moved / self.total if self.total else 0.0


def diff_assignment(
    old: Mapping[str, str], new: Mapping[str, str]
) -> ReconfigDiff:
    """Diff two assignments over the union of their file sets.

    A file set present only in ``new`` counts as a move from ``None`` (a
    fresh placement); file sets present only in ``old`` (deleted) are
    ignored.
    """
    moves: list[Move] = []
    stayed = 0
    for name in sorted(new):
        dst = new[name]
        src = old.get(name)
        if src == dst:
            stayed += 1
        else:
            moves.append(Move(fileset=name, source=src, destination=dst))
    return ReconfigDiff(moves=tuple(moves), stayed=stayed)


@dataclass
class MovementLedger:
    """Cumulative movement statistics across a simulation run."""

    reconfigurations: int = 0
    total_moves: int = 0
    total_stayed: int = 0
    moves_per_reconfig: list[int] = field(default_factory=list)

    def record(self, diff: ReconfigDiff) -> None:
        """Accumulate one reconfiguration diff."""
        self.reconfigurations += 1
        self.total_moves += diff.moved
        self.total_stayed += diff.stayed
        self.moves_per_reconfig.append(diff.moved)

    @property
    def mean_moves(self) -> float:
        if not self.reconfigurations:
            return 0.0
        return self.total_moves / self.reconfigurations

    @property
    def preservation(self) -> float:
        """Fraction of (file set, reconfiguration) pairs that stayed put."""
        total = self.total_moves + self.total_stayed
        return self.total_stayed / total if total else 1.0

    def summary(self) -> dict[str, float]:
        """Scalar movement metrics for report tables."""
        return {
            "reconfigurations": float(self.reconfigurations),
            "total_moves": float(self.total_moves),
            "mean_moves": self.mean_moves,
            "preservation": self.preservation,
        }
