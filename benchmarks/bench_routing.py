"""Microbenchmarks of the latency-learning router.

The e2e benchmark times the other routing paths: JSQ(2) sampling over
three owners (``fig6-r3-jsq2``), the JSQ full scan over two owners
(``fs-ops-r2-jsq2``), and the r=1 passthrough that never calls a router
(``fig6-r1``).  No workload runs ``WeightedPowerOfDRouter``, so its
decision cost and its per-completion EWMA fold are pinned here.
"""

import numpy as np

from repro.runtime.routing import WeightedPowerOfDRouter

CANDIDATES = ["server0", "server1", "server2"]
QUEUES = {"server0": 3, "server1": 1, "server2": 4}


def test_weighted_jsq_decision_cost(benchmark):
    """Speed-normalized JSQ(2): sampling plus EWMA-scaled scoring."""
    n = 1_000
    router = WeightedPowerOfDRouter(d=2)
    router.bind(np.random.default_rng(7))
    for name in CANDIDATES:
        router.observe(name, 0.5)
    queue_len = QUEUES.__getitem__

    def decide():
        total = 0
        for _ in range(n):
            total += router.choose("fs0001", CANDIDATES, queue_len)
        return total

    total = benchmark(decide)
    assert 0 <= total <= 2 * n


def test_observe_ewma_cost(benchmark):
    """Latency-observation folding (runs on every request completion)."""
    n = 20_000
    router = WeightedPowerOfDRouter(d=2)

    def observe():
        for i in range(n):
            router.observe(CANDIDATES[i % 3], 0.25)
        return router._ewma

    ewma = benchmark(observe)
    assert len(ewma) == 3
