"""Differential tests for the fs stack's per-operation fast paths.

Each fast path is checked against the slow reference it replaced:

- :meth:`FileSetRegistry.fileset_of` walks the path's ancestors; the
  reference scans every root for the deepest enclosing one;
- :meth:`MetadataCluster.owner_set_of` is memoized per placement epoch;
  the reference derives the owner set afresh;
- :func:`schedule_all` keeps one arrival on the calendar; the reference
  places every item on it up front.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import FileSetRegistry, FSError, MetadataCluster, paths
from repro.placement.replicated import derive_owner_set
from repro.runtime import schedule_all
from repro.sim import PRIORITY_EARLY, PRIORITY_LATE, PRIORITY_NORMAL, SimulationError
from repro.sim.engine import Engine


# ----------------------------------------------------------------------
# fileset_of: ancestor walk vs a scan of every root
# ----------------------------------------------------------------------
def scan_fileset_of(roots: dict[str, str], path: str) -> str:
    """The deepest enclosing root, found by scanning every root."""
    norm = paths.normalize(path)
    best = None
    for name, root in roots.items():
        root = paths.normalize(root)
        if paths.is_ancestor(root, norm) and (
            best is None or len(root) > len(paths.normalize(roots[best]))
        ):
            best = name
    if best is None:
        raise FSError(f"{path!r} is outside every file set")
    return best


COMPONENT = st.sampled_from(["a", "b", "ab", "c"])
NESTED_PATHS = st.lists(COMPONENT, max_size=4).map(lambda c: "/" + "/".join(c))
#: Nested paths with an optional doubled leading slash and trailing slashes.
SLOPPY_PATHS = st.tuples(
    st.sampled_from(["", "/"]), NESTED_PATHS, st.sampled_from(["", "/", "//"])
).map("".join)


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(NESTED_PATHS, min_size=1, max_size=6, unique=True),
    probes=st.lists(SLOPPY_PATHS, min_size=1, max_size=10),
)
def test_fileset_of_matches_a_scan_of_every_root(roots, probes):
    named = {f"fs{i}": root + "/" for i, root in enumerate(roots)}
    registry = FileSetRegistry(named)
    for path in probes:
        try:
            expected = scan_fileset_of(named, path)
        except FSError:
            with pytest.raises(FSError, match="outside every file set"):
                registry.fileset_of(path)
        else:
            assert registry.fileset_of(path) == expected


def test_fileset_of_nested_and_slash_roots():
    registry = FileSetRegistry({"top": "/", "a": "/a/", "ab": "/a/b", "abc": "/a/b/c"})
    assert registry.fileset_of("/") == "top"
    assert registry.fileset_of("/x/y") == "top"
    assert registry.fileset_of("/a") == "a"
    assert registry.fileset_of("/a//bb/") == "a"
    assert registry.fileset_of("/a/b/") == "ab"
    assert registry.fileset_of("/a/b/c/d/e") == "abc"


def test_fileset_of_rejects_outside_and_malformed_paths():
    registry = FileSetRegistry({"a": "/a", "ab": "/a/b"})
    with pytest.raises(FSError, match="outside every file set"):
        registry.fileset_of("/b/a")
    with pytest.raises(FSError, match="outside every file set"):
        registry.fileset_of("/")
    for bad in ("", "a/b", "/a/../b", "/a/./b", "/a\x00"):
        with pytest.raises(paths.PathError):
            registry.fileset_of(bad)


# ----------------------------------------------------------------------
# owner_set_of: memoized vs derived afresh
# ----------------------------------------------------------------------
ROOTS = {f"fs{i}": f"/p{i}" for i in range(12)}
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["shares", "transfer", "fail", "add", "remove"]),
        st.integers(0, 2**16),
    ),
    max_size=8,
)


def assert_owner_sets_fresh(cluster: MetadataCluster) -> None:
    for fileset in cluster.registry.filesets:
        for replication in (1, 2, 3):
            assert cluster.owner_set_of(fileset, replication) == derive_owner_set(
                fileset,
                cluster.owner_of(fileset),
                sorted(cluster.services),
                replication,
                placement=cluster.placement,
            )


def apply_step(cluster: MetadataCluster, kind: str, draw: int, joined: list[str]) -> None:
    live = sorted(cluster.services)
    if kind == "shares":
        cluster.placement.set_shares(
            {s: 1.0 + (draw >> i) % 5 for i, s in enumerate(live)}
        )
    elif kind == "transfer":
        filesets = cluster.registry.filesets
        cluster.transfer_ownership(
            filesets[draw % len(filesets)], live[(draw >> 4) % len(live)]
        )
    elif kind in ("fail", "remove") and len(live) > 1:
        victim = live[draw % len(live)]
        if kind == "fail":
            cluster.fail_server(victim)
        else:
            cluster.remove_server(victim)
    elif kind == "add":
        former = sorted(set(cluster.roster.known()) - set(live))
        if former and draw % 2:
            cluster.add_server(former[draw % len(former)])
        else:
            name = f"n{len(joined)}"
            joined.append(name)
            cluster.add_server(name)


@settings(max_examples=40, deadline=None)
@given(steps=STEPS)
def test_memoized_owner_sets_equal_fresh_derivations(steps):
    cluster = MetadataCluster(["s0", "s1", "s2", "s3"], ROOTS)
    joined: list[str] = []
    assert_owner_sets_fresh(cluster)
    for kind, draw in steps:
        apply_step(cluster, kind, draw, joined)
        assert_owner_sets_fresh(cluster)


def test_owner_set_memo_follows_an_ownership_change_within_an_epoch():
    cluster = MetadataCluster(["s0", "s1", "s2", "s3"], ROOTS)
    before = cluster.owner_set_of("fs0", 3)
    destination = next(s for s in sorted(cluster.services) if s != before[0])
    epoch = cluster.placement.epoch
    cluster.transfer_ownership("fs0", destination)
    assert cluster.placement.epoch == epoch
    after = cluster.owner_set_of("fs0", 3)
    assert after[0] == destination
    assert_owner_sets_fresh(cluster)


def test_owner_set_of_unknown_file_set_raises():
    cluster = MetadataCluster(["s0", "s1"], ROOTS)
    with pytest.raises(FSError, match="unknown file set"):
        cluster.owner_set_of("nope", 2)


# ----------------------------------------------------------------------
# schedule_all: one pending arrival vs every arrival up front
# ----------------------------------------------------------------------
def eager_schedule_all(engine, items, on_arrival, time_of) -> int:
    """The reference: every item on the calendar up front."""
    n = 0
    for item in items:
        engine.schedule_at(time_of(item), on_arrival, item)
        n += 1
    return n


PRIORITIES = st.sampled_from([PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE])
TIMES = st.integers(0, 4).map(float)
#: An event: (time, priority, follow-ups).  A follow-up is scheduled from
#: inside the event's callback as (delay, priority); delay 0 is the same
#: instant.
FOLLOW_UPS = st.lists(st.tuples(st.sampled_from([0.0, 0.0, 1.0]), PRIORITIES), max_size=2)
EVENTS = st.lists(st.tuples(TIMES, PRIORITIES, FOLLOW_UPS), max_size=5)
ITEMS = st.lists(st.tuples(TIMES, FOLLOW_UPS), max_size=12)


def firing_order(schedule, items, before, after) -> list[str]:
    engine = Engine()
    fired: list[str] = []

    def make(label, follow_ups):
        def action(*_args):
            fired.append(label)
            for j, (delay, priority) in enumerate(follow_ups):
                engine.schedule(delay, make(f"{label}.{j}", ()), priority=priority)
        return action

    for i, (time, priority, follow_ups) in enumerate(before):
        engine.schedule_at(time, make(f"before{i}", follow_ups), priority=priority)
    arrivals = {i: make(f"item{i}", follow_ups) for i, (_t, follow_ups) in enumerate(items)}
    count = schedule(
        engine, list(range(len(items))),
        lambda i: arrivals[i](), time_of=lambda i: items[i][0],
    )
    assert count == len(items)
    for i, (time, priority, follow_ups) in enumerate(after):
        engine.schedule_at(time, make(f"after{i}", follow_ups), priority=priority)
    engine.run()
    return fired


@settings(max_examples=300, deadline=None)
@given(items=ITEMS, before=EVENTS, after=EVENTS)
def test_lazy_schedule_all_fires_in_eager_order(items, before, after):
    assert firing_order(schedule_all, items, before, after) == firing_order(
        eager_schedule_all, items, before, after
    )


def test_schedule_all_keeps_one_arrival_pending():
    engine = Engine()
    fired: list[float] = []
    times = [3.0, 1.0, 2.0, 1.0, 0.0]
    assert schedule_all(engine, times, fired.append, time_of=float) == len(times)
    assert engine.pending == 1
    while engine.step():
        assert engine.pending <= 1
    assert fired == sorted(times)


def test_schedule_all_of_nothing_schedules_nothing():
    engine = Engine()
    assert schedule_all(engine, [], lambda item: None, time_of=float) == 0
    assert engine.pending == 0


def test_schedule_all_rejects_an_item_in_the_past():
    engine = Engine()
    engine.run(until=5.0)
    with pytest.raises(SimulationError, match="before now"):
        schedule_all(engine, [6.0, 4.0], lambda item: None, time_of=float)
    assert engine.pending == 0
