"""Counted scaling checks for the paths no end-to-end workload times.

The paper's §5 claims are about scaling: locating a file set is hashing
only, and reconfiguration state grows with the number of servers, not
the number of file sets.  A timer on a shared machine cannot show a
breach of either; a count can.  Each check runs one operation at two
sizes under :func:`count_calls` and asserts that the counted work stays
equal, or grows by no more than a stated ratio.  No absolute count is
pinned: exact counts differ between Python versions, their growth with
size does not.  Counts see calls, not bytecodes: a loop that calls
nothing is invisible to them.
"""

from __future__ import annotations

import gc
import io
import math
import pickle
import sys
from collections import Counter
from typing import Callable

import numpy as np
import pytest

from repro.core import ANUPlacement, MappedInterval, PairwiseTuner, ServerReport
from repro.fs import FSError, FileSetRegistry, MetadataCluster, paths
from repro.metrics.latency import LatencyCollector
from repro.placement import TwoChoicePolicy
from repro.placement.consistent_hash import ConsistentHashRing
from repro.placement.prescient import lpt_assign
from repro.runtime import JsonlSink, schedule_all
from repro.runtime.routing import JSQRouter, WeightedPowerOfDRouter
from repro.runtime.telemetry import DigestSink, RequestCompleted, first_divergence
from repro.sim.engine import Engine


def count_calls(fn: Callable[[], object]) -> Counter[str]:
    """Profile events while ``fn()`` runs, with the collector paused.

    ``"call"`` counts Python calls (generator resumptions included),
    ``"c_call"`` calls into C, and each C function's name its own calls.
    """
    counts: Counter[str] = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts["call"] += 1
        elif event == "c_call":
            counts["c_call"] += 1
            counts[getattr(arg, "__qualname__", type(arg).__name__)] += 1

    outer = sys.getprofile()
    gc_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(outer)
        if gc_enabled:
            gc.enable()
    return counts


def assert_grows_at_most(small: Counter, large: Counter, ratio: float) -> None:
    for event in ("call", "c_call"):
        assert large[event] <= ratio * small[event], (
            f"{event}: {small[event]} -> {large[event]} grew more than {ratio}x"
        )


def assert_same_work(small: Counter, large: Counter) -> None:
    assert small == large, (
        f"calls {small['call']} -> {large['call']}, "
        f"C calls {small['c_call']} -> {large['c_call']}"
    )


def servers(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def test_count_calls_counts_python_and_c_calls():
    def leaf():
        return sorted(())

    def work(n):
        for _ in range(n):
            leaf()

    small = count_calls(lambda: work(5))
    large = count_calls(lambda: work(15))
    assert large["call"] - small["call"] == 10
    assert large["c_call"] - small["c_call"] == 10
    assert (small["sorted"], large["sorted"]) == (5, 15)


def test_count_calls_unhooks_and_resumes_the_collector_when_fn_raises():
    def fail():
        raise ValueError("planted")

    assert gc.isenabled()
    with pytest.raises(ValueError, match="planted"):
        count_calls(fail)
    assert sys.getprofile() is None
    assert gc.isenabled()


def test_count_calls_restores_an_outer_hook_and_a_paused_collector():
    def outer(frame, event, arg):
        pass

    gc.disable()
    sys.setprofile(outer)
    try:
        count_calls(lambda: sorted(()))
        hook, collecting = sys.getprofile(), gc.isenabled()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert hook is outer
    assert not collecting


def test_locate_cost_does_not_grow_with_servers():
    """§5: locating a file set is hashing only, whatever the fleet size."""
    names = [f"/projects/fs{i:05d}" for i in range(1000)]

    def locate_all(n):
        placement = ANUPlacement(servers(n))
        return count_calls(lambda: [placement.locate(x) for x in names])

    assert_grows_at_most(locate_all(5), locate_all(80), 1.2)


def test_placement_state_does_not_grow_with_file_sets():
    """§5: reconfiguration state is per server; locating keeps no record."""

    def state_after(n_located):
        placement = ANUPlacement(servers(20))
        for i in range(n_located):
            placement.locate(f"/projects/fs{i:05d}")
        return len(pickle.dumps(placement))

    assert state_after(100) == state_after(10_000)


def test_locate_owner_set_does_not_grow_with_servers():
    """An r-owner set walks the probe sequence, whatever the fleet size."""
    names = [f"/projects/fs{i:05d}" for i in range(1000)]

    def owner_sets(n):
        placement = ANUPlacement(servers(n))
        return count_calls(lambda: [placement.locate_owner_set(x, 3) for x in names])

    assert_grows_at_most(owner_sets(5), owner_sets(80), 1.2)


def test_fileset_of_does_not_grow_with_file_sets():
    """§5: resolving a path walks its ancestors, not every file-set root.

    The 1,000 paths spread over all roots, so a scan of the roots would
    grow with their number.
    """

    def resolve_1000(n_roots):
        registry = FileSetRegistry({f"fs{i}": f"/vol/p{i:05d}" for i in range(n_roots)})
        probes = [f"/vol/p{k * n_roots // 1000:05d}/d{k % 7}/f{k}" for k in range(1000)]
        return count_calls(lambda: [registry.fileset_of(p) for p in probes])

    assert_grows_at_most(resolve_1000(21), resolve_1000(2_100), 1.2)


def test_relative_normalizes_the_path_once():
    """A path relative to its file set costs one normalization of the
    path plus a constant, whatever the root: the registry stores each
    root normalized, so neither side is split into components."""
    registry = FileSetRegistry({"top": "/", "vol": "/vol00", "deep": "/a/b/c/d"})
    for fileset, path, expected in (
        ("top", "/x//y/", "/x/y"),
        ("top", "/", "/"),
        ("vol", "/vol00", "/"),
        ("vol", "/vol00/f/", "/f"),
        ("deep", "/a/b/c/d/e//f", "/e/f"),
    ):
        assert registry.relative(fileset, path) == expected
        one = count_calls(lambda: paths.normalize(path))
        rel = count_calls(lambda: registry.relative(fileset, path))
        # relative's own frame and the root lookup; a startswith and a len.
        assert rel["call"] <= one["call"] + 2, (fileset, path)
        assert rel["c_call"] <= one["c_call"] + 2, (fileset, path)
    for fileset, path in (("vol", "/vol00x/f"), ("vol", "/"), ("deep", "/a/b/c")):
        with pytest.raises(FSError):
            registry.relative(fileset, path)


def test_owner_sets_hash_once_per_file_set_between_mutations():
    """Repeated owner-set lookups reuse the derivation until the
    placement changes.  Every ``hash_to_unit`` probe takes one BLAKE2b
    digest, so a digest count of zero means no probe was re-hashed.
    """
    cluster = MetadataCluster(servers(5), {f"fs{i}": f"/p{i}" for i in range(50)})
    names = cluster.registry.filesets

    def lookups():
        for name in names:
            cluster.owner_set_of(name, 3)

    for _mutation in range(2):
        assert count_calls(lookups)["blake2b.digest"] >= len(names)
        assert count_calls(lambda: [lookups() for _ in range(3)])["blake2b.digest"] == 0
        cluster.placement.set_shares({s: 1.0 + i for i, s in enumerate(servers(5))})


def test_schedule_all_keeps_one_arrival_pending_whatever_the_count():
    """The calendar holds one pending arrival, and the last 100 arrivals
    fire with the same work after 9,900 others as on their own."""

    def deliver(n):
        engine = Engine()
        schedule = count_calls(
            lambda: schedule_all(engine, [float(i) for i in range(n)], abs, float)
        )
        pending = engine.pending
        engine.run(until=n - 100.5)
        return schedule, pending, count_calls(engine.run)

    schedule_small, pending_small, last_small = deliver(100)
    schedule_large, pending_large, last_large = deliver(10_000)
    assert pending_small == pending_large == 1
    assert_same_work(last_small, last_large)
    assert_grows_at_most(schedule_small, schedule_large, 100)


def test_set_shares_grows_linearly_with_servers():
    """One full rescale (the delegate's write path) is O(n), not O(n·p)."""

    def rescale(n):
        names = servers(n)
        interval = MappedInterval(names, {s: 1.0 + i % 7 for i, s in enumerate(names)})
        target = {s: 1.0 + (i + 3) % 5 for i, s in enumerate(names)}
        counts = count_calls(lambda: interval.set_shares(target))
        interval.check_invariants()
        return counts

    assert_grows_at_most(rescale(20), rescale(80), 5.0)


def test_add_server_grows_linearly_with_servers():
    """Commissioning scales every region back: O(n), not O(n·p)."""

    def commission(n):
        interval = MappedInterval(servers(n))
        counts = count_calls(lambda: interval.add_server("new"))
        interval.check_invariants()
        return counts

    assert_grows_at_most(commission(20), commission(80), 5.0)


def test_remove_server_grows_linearly_with_servers():
    """A failure scales every survivor up: O(n), not O(n·p)."""

    def fail_one(n):
        interval = MappedInterval(servers(n))
        counts = count_calls(lambda: interval.remove_server("s0"))
        interval.check_invariants()
        return counts

    assert_grows_at_most(fail_one(20), fail_one(80), 5.0)


def test_cached_segments_read_does_not_grow_with_region():
    """A cached mapped-region read does not re-merge the partition map.

    ``s0`` owns half of the mapped half, so its region spans 16
    partitions at n=20 and 64 at n=80; an uncached read grows with it.
    """

    def read_largest(n):
        weights = dict.fromkeys(servers(n), 1.0)
        weights["s0"] = float(n - 1)
        interval = MappedInterval(list(weights), weights)
        interval.segments("s0")
        return count_calls(lambda: [interval.segments("s0") for _ in range(100)])

    assert_same_work(read_largest(20), read_largest(80))


def test_lpt_assign_grows_linearly_with_file_sets():
    """The prescient comparator's bin packing: 4x the jobs, ~4x the work."""
    speeds = {f"s{i}": float(2 * i + 1) for i in range(5)}

    def assign(jobs):
        demand = {f"fs{i}": float((i * 7919) % 100 + 1) for i in range(jobs)}
        return count_calls(lambda: lpt_assign(demand, speeds))

    assert_grows_at_most(assign(500), assign(2_000), 4.5)


def test_two_choice_placement_grows_linearly_with_file_sets():
    """The two-choice baseline places 4x the file sets with ~4x the work."""
    names = servers(32)

    def place(n_filesets):
        filesets = [f"fs{i:05d}" for i in range(n_filesets)]
        policy = TwoChoicePolicy()
        return count_calls(lambda: policy.initial_assignment(filesets, names))

    assert_grows_at_most(place(500), place(2_000), 4.5)


def test_consistent_hash_locate_does_not_grow_with_servers():
    """The ring baseline bisects its virtual nodes, whatever their number."""
    names = [f"/projects/fs{i:05d}" for i in range(1000)]

    def locate_all(n):
        ring = ConsistentHashRing(servers(n))
        return count_calls(lambda: [ring.locate(x) for x in names])

    assert_same_work(locate_all(5), locate_all(80))


def test_pairwise_round_grows_linearly_with_servers():
    """A decentralized tuning round is O(n): each pair looks at itself."""

    def round_(n):
        names = servers(n)
        shares = dict.fromkeys(names, 1.0)
        reports = [ServerReport(s, 0.01 * (1 + i % 4), 10) for i, s in enumerate(names)]
        rng = np.random.default_rng(3)
        return count_calls(lambda: PairwiseTuner().compute(shares, reports, rng))

    assert_grows_at_most(round_(20), round_(80), 4.5)


def test_latency_record_does_not_grow_with_samples():
    """A completion sample appends in O(1), however many came before."""

    def record_200_after(history):
        collector = LatencyCollector()
        for i in range(history):
            collector.record(f"s{i % 8}", float(i), 0.01)
        return count_calls(
            lambda: [
                collector.record(f"s{i % 8}", float(history + i), 0.01)
                for i in range(200)
            ]
        )

    assert_same_work(record_200_after(200), record_200_after(20_000))


def test_tail_summary_does_not_grow_with_samples():
    """The post-run p50/p95/p99/max report stays in numpy at any size."""

    def summarize(samples):
        collector = LatencyCollector()
        for i in range(samples):
            lat = ((i * 2654435761) % 1_000_003) / 1_000_003.0
            collector.record(f"s{i % 8}", float(i) * 0.01, lat)
        collector.tail_summary()  # the first call pays numpy's lazy imports
        return count_calls(collector.tail_summary)

    assert_same_work(summarize(5_000), summarize(50_000))


def test_jsonl_sink_cost_per_record_does_not_grow_with_stream():
    """The next 200 records cost the same after 200 records as after 2,000."""

    def records(n):
        return [
            RequestCompleted(time=float(i), server=f"s{i % 8}", latency=0.01)
            for i in range(n)
        ]

    def emit_200_after(prefix):
        sink = JsonlSink(io.StringIO())
        for record in records(prefix):
            sink.emit(record)
        batch = records(200)
        return count_calls(lambda: [sink.emit(r) for r in batch])

    assert_same_work(emit_200_after(200), emit_200_after(2_000))


def test_digest_sink_cost_per_record_does_not_grow_with_chain():
    """Each record chains onto the last digest only, not the whole chain."""

    def records(n):
        return [
            RequestCompleted(time=float(i), server=f"s{i % 8}", latency=0.01)
            for i in range(n)
        ]

    def emit_200_after(prefix):
        sink = DigestSink()
        for record in records(prefix):
            sink.emit(record)
        batch = records(200)
        return count_calls(lambda: [sink.emit(r) for r in batch])

    assert_same_work(emit_200_after(200), emit_200_after(2_000))


def test_two_choice_orphan_replacement_sorts_survivors_once():
    """Re-placing orphans sorts the survivor set once, not once per orphan."""
    names = [f"s{i:02d}" for i in range(32)]

    def sorts(n_filesets):
        filesets = [f"fs{i:05d}" for i in range(n_filesets)]
        policy = TwoChoicePolicy()
        before = policy.initial_assignment(filesets, names)
        return count_calls(
            lambda: policy.on_membership_change(filesets, names[1:], before)
        )["sorted"]

    assert sorts(2_000) == sorts(20_000)


def test_weighted_jsq_choose_is_order_d():
    """JSQ(d) scores d sampled owners, however many owners a file set has."""

    def choose(n_owners):
        owners = [f"server{i}" for i in range(n_owners)]
        queue_len = {s: (i * 7) % 5 for i, s in enumerate(owners)}.__getitem__
        router = WeightedPowerOfDRouter(d=2)
        router.bind(np.random.default_rng(7))
        for name in owners:
            router.observe(name, 0.5)
        return count_calls(
            lambda: [router.choose("fs0001", owners, queue_len) for _ in range(1_000)]
        )

    assert_same_work(choose(3), choose(30))


def test_jsq_choose_is_order_d():
    """Plain JSQ(d) reads d sampled queues, however many owners there are."""

    def choose(n_owners):
        owners = [f"server{i}" for i in range(n_owners)]
        queue_len = {s: (i * 7) % 5 for i, s in enumerate(owners)}.__getitem__
        router = JSQRouter(d=2)
        router.bind(np.random.default_rng(7))
        return count_calls(
            lambda: [router.choose("fs0001", owners, queue_len) for _ in range(1_000)]
        )

    assert_same_work(choose(3), choose(30))


def test_ewma_observe_does_not_grow_with_history():
    """A completion folds into the EWMA in O(1), however many came before."""
    owners = ["server0", "server1", "server2"]

    def observe_300_after(history):
        router = WeightedPowerOfDRouter(d=2)
        for i in range(history):
            router.observe(owners[i % 3], 0.25)
        return count_calls(
            lambda: [router.observe(owners[i % 3], 0.25) for i in range(300)]
        )

    assert_same_work(observe_300_after(200), observe_300_after(20_000))


class CountingList(list):
    """A list that counts its element reads."""

    reads = 0

    def __getitem__(self, index):
        CountingList.reads += 1
        return super().__getitem__(index)


def test_first_divergence_bisects():
    """Locating the first differing event of two digest chains is O(log n)."""
    for n in (2_000, 200_000):
        where = n // 3
        good = [f"{i:032x}" for i in range(n)]
        bad = good[:where] + [f"{i:031x}X" for i in range(where, n)]
        CountingList.reads = 0
        assert first_divergence(CountingList(good), CountingList(bad)) == where
        assert CountingList.reads <= 2 * math.ceil(math.log2(n)) + 4


def test_first_divergence_of_a_truncated_run_is_order_one():
    """A run that stopped early diverges at its length, found in O(1)."""
    for n in (2_000, 200_000):
        full = [f"{i:032x}" for i in range(n)]
        stopped = full[: n // 3]
        CountingList.reads = 0
        assert first_divergence(CountingList(full), CountingList(stopped)) == n // 3
        assert CountingList.reads <= 2
