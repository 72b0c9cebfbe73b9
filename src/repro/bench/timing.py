"""Warmup + calibration + median-of-k timing for benchmark callables.

:class:`BenchTimer` is the object injected into a benchmark function's
``benchmark`` parameter.  It is call-compatible with the pytest-benchmark
fixture the suites under ``benchmarks/`` were written against — it supports
``benchmark(fn, *args)``, ``benchmark.pedantic(...)``, and
``benchmark.extra_info`` — but implements a much simpler, fully
deterministic protocol:

1. **calibration** — the target is invoked once and timed; if a single call
   is shorter than ``min_round_ns`` the per-round iteration count is scaled
   up so each timed round runs long enough to be resolvable;
2. **warmup** — ``warmup_rounds`` whole rounds run untimed, populating
   caches (bytecode, allocator arenas, memoized state) exactly like the
   measured rounds will;
3. **median-of-k** — ``rounds`` rounds are timed with
   ``time.perf_counter_ns`` and the *median* per-operation time is the
   headline statistic (robust to scheduler noise); min/mean/stddev/max are
   recorded as dispersion.

Timing uses the monotonic performance counter, never the wall clock, and
never feeds back into what is measured: the measured *workloads* remain
pure functions of their seeds; only the measurement durations vary run
to run.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class TimerConfig:
    """Knobs for one timing session (one benchmark case)."""

    #: Untimed rounds executed before measurement starts.
    warmup_rounds: int = 1
    #: Timed rounds; the headline statistic is their median.
    rounds: int = 9
    #: Minimum duration of one timed round, in nanoseconds.  Fast targets
    #: are looped ``iterations`` times per round to reach this floor.
    min_round_ns: int = 50_000_000
    #: Upper bound on the calibrated per-round iteration count.
    max_iterations: int = 1_000_000

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical knob values."""
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.warmup_rounds < 0:
            raise ValueError(f"warmup_rounds must be >= 0, got {self.warmup_rounds}")
        if self.min_round_ns < 0:
            raise ValueError(f"min_round_ns must be >= 0, got {self.min_round_ns}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class TimingStats:
    """Per-operation timing statistics for one benchmark case (nanoseconds)."""

    median_ns: float
    mean_ns: float
    stddev_ns: float
    min_ns: float
    max_ns: float
    rounds: int
    iterations: int

    @classmethod
    def from_round_times(cls, round_ns: list[int], iterations: int) -> "TimingStats":
        """Reduce raw per-round durations to per-operation statistics."""
        if not round_ns:
            raise ValueError("no timed rounds recorded")
        per_op = [t / iterations for t in round_ns]
        return cls(
            median_ns=statistics.median(per_op),
            mean_ns=statistics.fmean(per_op),
            stddev_ns=statistics.pstdev(per_op) if len(per_op) > 1 else 0.0,
            min_ns=min(per_op),
            max_ns=max(per_op),
            rounds=len(per_op),
            iterations=iterations,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (keys match the BENCH_*.json schema)."""
        return {
            "median_ns": self.median_ns,
            "mean_ns": self.mean_ns,
            "stddev_ns": self.stddev_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "rounds": self.rounds,
            "iterations": self.iterations,
        }


class BenchTimer:
    """The ``benchmark`` fixture stand-in injected into suite functions.

    One instance times exactly one benchmark case; :attr:`stats` is None
    until the target has been measured.  ``extra_info`` mirrors
    pytest-benchmark's free-form metadata dict and is copied verbatim into
    the emitted JSON.
    """

    def __init__(self, config: TimerConfig | None = None) -> None:
        self.config = config or TimerConfig()
        self.config.validate()
        self.extra_info: dict[str, Any] = {}
        self.stats: TimingStats | None = None

    # -- pytest-benchmark compatible surface ---------------------------
    def __call__(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Calibrate, warm up, and time ``fn(*args, **kwargs)``.

        Returns the result of the last (timed) invocation, like the
        pytest-benchmark fixture does.
        """
        result, single_ns = self._timed_call(fn, args, kwargs)
        iterations = self._calibrate(single_ns)
        for _ in range(self.config.warmup_rounds):
            result = self._run_round(fn, args, kwargs, iterations)[0]
        round_ns: list[int] = []
        for _ in range(self.config.rounds):
            result, elapsed = self._run_round(fn, args, kwargs, iterations)
            round_ns.append(elapsed)
        self.stats = TimingStats.from_round_times(round_ns, iterations)
        return result

    def pedantic(
        self,
        fn: Callable[..., Any],
        args: tuple[Any, ...] = (),
        kwargs: Mapping[str, Any] | None = None,
        rounds: int = 1,
        iterations: int = 1,
        warmup_rounds: int = 0,
    ) -> Any:
        """Time ``fn`` with explicitly pinned rounds/iterations.

        Mirrors ``benchmark.pedantic``: a case that needs a different
        number of rounds than :class:`TimerConfig` gives pins them here,
        with no calibration loop.
        """
        kw = dict(kwargs or {})
        result: Any = None
        for _ in range(warmup_rounds):
            result = self._run_round(fn, args, kw, iterations)[0]
        round_ns: list[int] = []
        for _ in range(max(rounds, 1)):
            result, elapsed = self._run_round(fn, args, kw, iterations)
            round_ns.append(elapsed)
        self.stats = TimingStats.from_round_times(round_ns, max(iterations, 1))
        return result

    # -- internals ------------------------------------------------------
    def _calibrate(self, single_ns: int) -> int:
        """Iterations per round so a round lasts at least ``min_round_ns``."""
        floor = self.config.min_round_ns
        if single_ns >= floor:
            return 1
        need = math.ceil(floor / max(single_ns, 1))
        return min(need, self.config.max_iterations)

    @staticmethod
    def _timed_call(
        fn: Callable[..., Any], args: tuple[Any, ...], kwargs: Mapping[str, Any]
    ) -> tuple[Any, int]:
        """One invocation and its duration (serves as the first warmup)."""
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        return result, max(time.perf_counter_ns() - start, 1)

    @staticmethod
    def _run_round(
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: Mapping[str, Any],
        iterations: int,
    ) -> tuple[Any, int]:
        """Run ``iterations`` back-to-back calls; return (result, elapsed ns)."""
        result: Any = None
        start = time.perf_counter_ns()
        for _ in range(iterations):
            result = fn(*args, **kwargs)
        return result, max(time.perf_counter_ns() - start, 1)
