"""Microbenchmarks of the core placement operations at fleet sizes no
end-to-end workload reaches.

These quantify the paper's §5 scalability claims: addressing and locating
load is hashing only (microseconds, no I/O), and reconfiguration state
scales with servers, not file sets.  The e2e benchmark times ``locate``
and ``set_shares`` on the paper's five servers (``synth-2k-t10``,
``tuning.decide``); the cases here pin how they scale to 80 servers, the
mapped-region reads that only the figure drivers use, and the prescient
comparator's bin packing.
"""

import pytest

from repro.core import ANUPlacement, MappedInterval
from repro.placement.prescient import lpt_assign

NAMES = [f"/projects/fs{i:05d}" for i in range(1000)]

#: The scaling point: 16x the paper's fleet.
N_SERVERS = 80


def test_locate_throughput(benchmark):
    placement = ANUPlacement([f"s{i}" for i in range(N_SERVERS)])

    def locate_all():
        for name in NAMES:
            placement.locate(name)

    benchmark(locate_all)


def test_set_shares_cost(benchmark):
    """One full rescale of every mapped region (the delegate's write path)."""
    servers = [f"s{i}" for i in range(N_SERVERS)]
    interval = MappedInterval(servers)
    weights_a = {s: 1.0 + (i % 7) for i, s in enumerate(servers)}
    weights_b = {s: 1.0 + ((i + 3) % 5) for i, s in enumerate(servers)}
    state = {"flip": False}

    def rescale():
        state["flip"] = not state["flip"]
        interval.set_shares(weights_a if state["flip"] else weights_b)

    benchmark(rescale)
    interval.check_invariants()


@pytest.mark.parametrize("n_servers", [20, 80])
def test_segments_query_cost(benchmark, n_servers):
    """Repeated mapped-region reads on a static interval (monitor path)."""
    servers = [f"s{i}" for i in range(n_servers)]
    interval = MappedInterval(
        servers, {s: 1.0 + (i % 7) for i, s in enumerate(servers)}
    )
    benchmark.extra_info["n_servers"] = n_servers

    def query_all():
        total = 0
        for s in servers:
            total += len(interval.segments(s))
        return total

    benchmark(query_all)


def test_lpt_assign_cost(benchmark):
    """The bin-packing comparator's cost at paper scale (500 x 5)."""
    demand = {f"fs{i}": float((i * 7919) % 100 + 1) for i in range(500)}
    speeds = {f"s{i}": float(2 * i + 1) for i in range(5)}
    benchmark(lpt_assign, demand, speeds)
