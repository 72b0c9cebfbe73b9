"""Microbenchmark of :class:`~repro.runtime.telemetry.JsonlSink`.

The e2e benchmark times the rest of the shared runtime: the tuning loop
(``synth-2k-t10``), the arrival pump and the null-sink path
(``fig6-r1``), and record emission through a ``DigestSink``
(``fig6-limp-digest``).  No workload writes JSONL, so its
serialize-and-write cost per record is pinned here.
"""

import io

from repro.runtime import JsonlSink
from repro.runtime.telemetry import RequestCompleted


def test_jsonl_sink_throughput(benchmark):
    """Serialize-and-write cost per telemetry record (JSONL sink)."""
    n = 2_000

    def write_stream():
        buf = io.StringIO()
        sink = JsonlSink(buf)
        for i in range(n):
            sink.emit(
                RequestCompleted(
                    time=float(i), server=f"s{i % 8}", latency=0.01
                )
            )
        return buf.tell()

    written = benchmark(write_stream)
    assert written > 0
