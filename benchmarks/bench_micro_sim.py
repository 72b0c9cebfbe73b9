"""Microbenchmarks of engine and metrics paths no end-to-end workload times.

The e2e benchmark times the calendar, facility, arrival pump and windowed
latency reports on every workload; these two cases cover what it does
not reach: schedule-then-cancel churn (the workloads cancel almost
nothing) and the post-run tail summary (computed after the timed run).
"""

from repro.sim import Engine


def test_cancellation_heavy_timeout_pattern(benchmark):
    """Schedule-then-cancel churn (the timeout-guard pattern).

    Every request posts a far-future timeout and immediately cancels it
    on completion; the calendar must not accumulate the corpses.
    """

    def run_timeouts():
        engine = Engine()

        def pump(n):
            guard = engine.schedule(10_000.0, lambda: None)
            guard.cancel()
            if n > 0:
                engine.schedule(1.0, pump, n - 1)

        engine.schedule(0.0, pump, 2000)
        engine.run()
        return engine.pending

    benchmark(run_timeouts)


def test_latency_tail_summary_cost(benchmark):
    """p50/p95/p99/max over a 50k-sample pool (the post-run report path)."""
    from repro.metrics.latency import LatencyCollector

    collector = LatencyCollector()
    for i in range(50_000):
        # Deterministic pseudo-latencies: low-discrepancy in (0, 1).
        lat = ((i * 2654435761) % 1_000_003) / 1_000_003.0
        collector.record(f"s{i % 8}", float(i) * 0.01, lat)

    def summarize():
        pooled = collector.tail_summary()
        per_server = collector.tail_summary("s3")
        return pooled, per_server

    benchmark(summarize)
