"""Differential test: the queueing and fs stacks run one per-request path.

Both stacks pick an owner with :func:`repro.runtime.routing.pick_owner`
and queue, time and account for each request with
:func:`repro.runtime.routing.dispatch`.  Fed one generated operation
stream (the fs stack directly, the queueing stack through the bridged
trace) with the tuning interval past the end of the run, both make the
same owner picks at every step, so they must emit the same arrival,
dispatch and completion records, and neither may run a tuning round.

The comparison stops at r=2.  At r=3 JSQ(2) samples two of three owners,
and the two stacks draw that sample from differently named streams
(``request-router`` and ``fs-sim-router``), so their picks differ from
the first sampled dispatch on.
"""

from __future__ import annotations

import pytest

from repro.cluster.server import ServerSpec
from repro.fs import FsWorkloadConfig, MetadataCluster, generate_operations
from repro.runtime import MemorySink, Scenario

ROOTS = {f"vol{i}": f"/vol{i}" for i in range(6)}
SERVERS = tuple(
    ServerSpec(f"server{i}", speed) for i, speed in enumerate((1.0, 3.0, 5.0, 9.0))
)
KINDS = ("arrival", "dispatch", "completion")


@pytest.fixture(scope="module")
def operations():
    config = FsWorkloadConfig(n_operations=400, duration=60.0, seed=3)
    return generate_operations(MetadataCluster(["gen"], ROOTS), config)


@pytest.mark.parametrize("router", ["single", "jsq2", "wjsq2"])
@pytest.mark.parametrize("replication", [1, 2])
def test_cluster_and_fs_stacks_emit_the_same_request_records(
    operations, replication, router
):
    scenario = Scenario(
        servers=SERVERS,
        operations=operations,
        fileset_roots=ROOTS,
        tuning_interval=1e6,
        seed=3,
        replication=replication,
        router=router,
    )
    fs_sink, cluster_sink = MemorySink(), MemorySink()
    scenario.run_full_system(telemetry=fs_sink)
    scenario.run_cluster(telemetry=cluster_sink)
    for kind in KINDS:
        fs_records = fs_sink.of_kind(kind)
        assert len(fs_records) == len(operations)
        assert cluster_sink.of_kind(kind) == fs_records, kind
    # A run shorter than one tuning interval runs no round on either stack.
    for sink in (fs_sink, cluster_sink):
        assert sink.of_kind("tuning") == []
        assert sink.of_kind("move-start") == []
