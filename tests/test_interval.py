"""Unit tests for the partitioned unit interval."""

import random

import pytest

from repro.core.interval import (
    HALF,
    RESOLUTION,
    IntervalError,
    MappedInterval,
    fractions_to_ticks,
    min_partitions,
)


def test_min_partitions_rule():
    assert min_partitions(1) == 4
    assert min_partitions(2) == 8
    assert min_partitions(3) == 8
    assert min_partitions(5) == 16
    assert min_partitions(7) == 16
    assert min_partitions(8) == 32
    with pytest.raises(IntervalError):
        min_partitions(0)


def test_fractions_to_ticks_sums_exactly_half():
    ticks = fractions_to_ticks({"a": 0.3, "b": 0.3, "c": 0.4})
    assert sum(ticks.values()) == HALF


def test_fractions_to_ticks_zero_share_stays_zero():
    ticks = fractions_to_ticks({"a": 1.0, "b": 0.0})
    assert ticks["b"] == 0
    assert ticks["a"] == HALF


def test_fractions_to_ticks_rejects_negative_and_all_zero():
    with pytest.raises(IntervalError):
        fractions_to_ticks({"a": -0.1, "b": 1.0})
    with pytest.raises(IntervalError):
        fractions_to_ticks({"a": 0.0, "b": 0.0})


def test_initial_equal_shares():
    iv = MappedInterval(["a", "b", "c", "d"])
    iv.check_invariants()
    for name in "abcd":
        assert iv.share_fraction(name) == pytest.approx(0.125)


def test_duplicate_and_empty_server_lists_rejected():
    with pytest.raises(IntervalError):
        MappedInterval(["a", "a"])
    with pytest.raises(IntervalError):
        MappedInterval([])


def test_locate_point_respects_regions():
    iv = MappedInterval(["a", "b"])
    # Every mapped point locates to the owner of its segment.
    for name in ("a", "b"):
        for seg in iv.segments(name):
            mid = (seg.start + seg.end) / 2
            assert iv.locate_point(mid) == name


def test_locate_point_unmapped_returns_none():
    iv = MappedInterval(["a"])
    total_mapped = sum(
        seg.length for s in iv.servers for seg in iv.segments(s)
    )
    assert total_mapped == pytest.approx(0.5)
    free = iv.free_partitions()
    assert free
    psize = 1.0 / iv.partitions
    x = (free[0] + 0.5) * psize
    assert iv.locate_point(x) is None


def test_locate_point_out_of_range():
    iv = MappedInterval(["a"])
    with pytest.raises(IntervalError):
        iv.locate_point(1.0)
    with pytest.raises(IntervalError):
        iv.locate_point(-0.01)


def test_set_shares_changes_fractions():
    iv = MappedInterval(["a", "b"])
    iv.set_shares({"a": 3.0, "b": 1.0})
    iv.check_invariants()
    assert iv.share_fraction("a") == pytest.approx(0.375)
    assert iv.share_fraction("b") == pytest.approx(0.125)


def test_set_shares_minimal_movement_on_shrink():
    """Points in an unshrunk region never move."""
    iv = MappedInterval(["a", "b", "c"])
    before = {s: iv.segments(s) for s in iv.servers}
    iv.set_shares({"a": 1.0, "b": 1.0, "c": 0.5})  # only c shrinks... and a, b grow
    # Every point of c's new region was already c's.
    for seg in iv.segments("c"):
        for old in before["c"]:
            if old.start <= seg.start and seg.end <= old.end:
                break
        else:
            pytest.fail(f"c gained space while shrinking: {seg}")


def test_set_shares_wrong_server_set_rejected():
    iv = MappedInterval(["a", "b"])
    with pytest.raises(IntervalError):
        iv.set_shares({"a": 1.0})
    with pytest.raises(IntervalError):
        iv.set_shares({"a": 1.0, "b": 1.0, "c": 1.0})


def test_share_can_go_to_zero_and_back():
    iv = MappedInterval(["a", "b"])
    iv.set_shares({"a": 1.0, "b": 0.0})
    iv.check_invariants()
    assert iv.share_ticks("b") == 0
    assert iv.segments("b") == []
    iv.set_shares({"a": 1.0, "b": 1.0})
    iv.check_invariants()
    assert iv.share_ticks("b") == HALF // 2


def test_add_server_scales_down_others():
    iv = MappedInterval(["a", "b", "c"])
    iv.add_server("d")
    iv.check_invariants()
    assert set(iv.servers) == {"a", "b", "c", "d"}
    assert iv.share_fraction("d") == pytest.approx(0.5 / 4, rel=1e-6)


def test_add_server_repartitions_when_needed():
    iv = MappedInterval(["s0", "s1", "s2"])  # p = 8
    assert iv.partitions == 8
    iv.add_server("s3")  # 2*(4+1) = 10 > 8 -> repartition to 16
    assert iv.partitions == 16
    iv.check_invariants()


def test_add_existing_server_rejected():
    iv = MappedInterval(["a"])
    with pytest.raises(IntervalError):
        iv.add_server("a")


def test_add_server_invalid_share():
    iv = MappedInterval(["a"])
    with pytest.raises(IntervalError):
        iv.add_server("b", share_fraction=0.0)
    with pytest.raises(IntervalError):
        iv.add_server("b", share_fraction=1.0)


def test_remove_server_restores_half_occupancy():
    iv = MappedInterval(["a", "b", "c"])
    iv.remove_server("b")
    iv.check_invariants()
    assert set(iv.servers) == {"a", "c"}
    assert sum(iv.shares().values()) == HALF


def test_remove_unknown_or_last_server_rejected():
    iv = MappedInterval(["a"])
    with pytest.raises(IntervalError):
        iv.remove_server("zz")
    with pytest.raises(IntervalError):
        iv.remove_server("a")


def test_remove_survivors_scale_proportionally():
    iv = MappedInterval(["a", "b", "c", "d"])
    iv.set_shares({"a": 4.0, "b": 2.0, "c": 1.0, "d": 1.0})
    iv.remove_server("d")
    iv.check_invariants()
    # a:b:c stays 4:2:1.
    assert iv.share_ticks("a") / iv.share_ticks("b") == pytest.approx(2.0, rel=1e-9)
    assert iv.share_ticks("b") / iv.share_ticks("c") == pytest.approx(2.0, rel=1e-9)


def test_repartition_preserves_point_ownership():
    iv = MappedInterval(["a", "b", "c"], shares={"a": 0.7, "b": 0.2, "c": 0.1})
    points = [i / 997 for i in range(997)]
    before = [iv.locate_point(x) for x in points]
    iv.repartition()
    iv.check_invariants()
    after = [iv.locate_point(x) for x in points]
    assert before == after


def test_repartition_doubles_partition_count():
    iv = MappedInterval(["a"])
    p = iv.partitions
    iv.repartition()
    assert iv.partitions == 2 * p


def test_segments_merge_adjacent():
    iv = MappedInterval(["a"])
    segs = iv.segments("a")
    for s1, s2 in zip(segs, segs[1:]):
        assert s2.start > s1.end  # strictly disjoint, merged


def test_free_partition_always_available_under_stress():
    iv = MappedInterval([f"s{i}" for i in range(5)])
    iv.set_shares({f"s{i}": (i + 1.0) ** 3 for i in range(5)})
    iv.check_invariants()
    assert iv.free_partitions()


def test_locate_point_accepts_largest_double_below_one():
    """hash_to_unit clamps to nextafter(1.0, 0.0); locate_point must take it."""
    import math

    iv = MappedInterval(["a"])
    x = math.nextafter(1.0, 0.0)
    # The top partition is free under half occupancy, so the result is None,
    # but the point itself is in-domain: no IntervalError.
    assert iv.locate_point(x) is None
    assert int(x * RESOLUTION) == RESOLUTION - 1


def test_locate_point_partial_partition_tick_edges():
    """Ownership flips exactly at the partial-partition prefix boundary."""
    iv = MappedInterval(["a", "b", "c"])  # equal thirds force partials
    psize = RESOLUTION // iv.partitions
    checked = 0
    for name in iv.servers:
        partial = iv._partial[name]
        if partial is None:
            continue
        idx, ticks = partial
        assert iv._prefix[idx] == ticks
        # Last owned tick of the prefix: offset == prefix - 1.
        inside = (idx * psize + ticks - 1) / RESOLUTION
        assert iv.locate_point(inside) == name
        # First tick past the prefix: offset == prefix.
        if ticks < psize:
            outside = (idx * psize + ticks) / RESOLUTION
            assert iv.locate_point(outside) is None
        checked += 1
    assert checked >= 1  # the layout really exercised a partial partition


def test_locate_point_whole_partition_edges():
    """Full partitions own their first and last tick; neighbours do not leak."""
    iv = MappedInterval(["a", "b"])
    psize = RESOLUTION // iv.partitions
    for name in iv.servers:
        for idx in sorted(iv._full[name]):
            first = (idx * psize) / RESOLUTION
            last = (idx * psize + psize - 1) / RESOLUTION
            assert iv.locate_point(first) == name
            assert iv.locate_point(last) == name


def test_add_server_invalid_share_leaves_interval_untouched():
    """Regression: a rejected add_server must not repartition.

    Before the validate-then-mutate fix, add_server doubled the
    partition count (to fit the prospective newcomer) *before* checking
    share_fraction, so a rejected call left the interval torn: same
    owners, twice the partitions.  ``tests/test_contract_atomicity.py``
    checks the same property for every contract-decorated mutator.
    """
    iv = MappedInterval(["a", "b", "c"])
    partitions_before = iv.partitions
    shares_before = dict(iv.shares())
    for bad in (0.0, 1.0, 1.5, -0.25):
        with pytest.raises(IntervalError):
            iv.add_server("d", share_fraction=bad)
        assert iv.partitions == partitions_before
        assert dict(iv.shares()) == shares_before
        iv.check_invariants()
    # A legal add still repartitions and lands the newcomer.
    iv.add_server("d")
    assert "d" in iv.servers
    iv.check_invariants()


def test_set_shares_rejects_shares_without_a_finite_total():
    """Weights whose sum overflows (or is NaN) are rejected up front;
    before the check, two shares of 1e308 rounded to 4 mapped ticks and
    tore the half-occupancy invariant."""
    iv = MappedInterval(["a", "b"])
    shares_before = dict(iv.shares())
    for bad in (1e308, float("inf"), float("nan")):
        with pytest.raises(IntervalError):
            iv.set_shares({"a": bad, "b": bad})
        assert dict(iv.shares()) == shares_before
    iv.check_invariants()


class PerGrowerRebuild(MappedInterval):
    """Rebuilds the ascending free list for every grower, as ``set_shares``
    did before one list was shared across phase 2."""

    def _grow(self, name, delta, free):
        rebuilt = sorted(i for i in range(self._p) if self._owner[i] is None)
        super()._grow(name, delta, iter(rebuilt))


def test_shared_free_list_claims_what_a_per_grower_rebuild_claims():
    """Sharing one free list changes no claimed partition: shrinks all run
    before grows, so each grower sees the same free indices either way."""
    rng = random.Random(11)
    names = [f"s{i}" for i in range(12)]
    shared, rebuilt = MappedInterval(names), PerGrowerRebuild(names)
    for step in range(60):
        if step % 15 == 7:
            victim = rng.choice(shared.servers)
            shared.remove_server(victim)
            rebuilt.remove_server(victim)
        elif step % 15 == 14:
            shared.add_server(f"n{step}")
            rebuilt.add_server(f"n{step}")
        else:
            target = {s: rng.choice([0.01, 0.5, 1.0, 3.0]) for s in shared.servers}
            shared.set_shares(target)
            rebuilt.set_shares(target)
        assert shared._owner == rebuilt._owner
        assert shared._prefix == rebuilt._prefix
        assert shared._partial == rebuilt._partial
        shared.check_invariants()
