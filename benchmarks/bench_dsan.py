"""Microbenchmark of :func:`~repro.runtime.telemetry.first_divergence`.

The e2e benchmark times the sanitizer's other hot path, folding every
record through a ``DigestSink`` chain, on ``fig6-limp-digest``.  No
workload bisects two chains, so that cost is pinned here: bisection is
logarithmic, but it runs on chains the size of the whole event stream,
so an accidental linear scan would be very visible.
"""

from repro.runtime.telemetry import first_divergence


def test_first_divergence_bisection(benchmark):
    """Bisecting a long chain pair must stay logarithmic."""
    n = 200_000
    where = n // 3
    good = [f"{i:032x}" for i in range(n)]
    bad = good[:where] + [f"{i:031x}X" for i in range(where, n)]

    def bisect_all():
        return (
            first_divergence(good, bad),
            first_divergence(good, list(good)),
            first_divergence(good, good[: n // 2]),
        )

    found = benchmark(bisect_all)
    assert found == (where, None, n // 2)
