"""Unit tests for the membership subsystem: roster, schedule, director."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    LifecycleError,
    MembershipDirector,
    MembershipRoster,
    ServerState,
)
from repro.units import Seconds


# ----------------------------------------------------------------------
# MembershipRoster: the state machine itself
# ----------------------------------------------------------------------
def test_roster_initial_states_and_views():
    roster = MembershipRoster({"a": 1.0, "b": 3.0})
    assert roster.live() == ["a", "b"]
    assert roster.live_count == 2
    assert roster.speeds() == {"a": 1.0, "b": 3.0}
    assert roster.state_of("b") is ServerState.UP
    assert "a" in roster and "ghost" not in roster
    assert list(roster) == ["a", "b"]


def test_roster_full_lifecycle_cycle():
    roster = MembershipRoster(["a", "b"])
    roster.fail("a")
    assert roster.state_of("a") is ServerState.DOWN
    assert roster.live() == ["b"]
    roster.recover("a")
    assert roster.state_of("a") is ServerState.UP
    roster.decommission("a")
    assert roster.state_of("a") is ServerState.DRAINING
    assert not roster.is_live("a")
    roster.drained("a")
    assert roster.state_of("a") is ServerState.DOWN
    # Recover after a completed decommission is legal (documented).
    roster.recover("a")
    assert roster.is_live("a")


def test_roster_recover_straight_from_draining():
    roster = MembershipRoster(["a", "b"])
    roster.decommission("a")
    roster.recover("a")
    assert roster.is_live("a")


@pytest.mark.parametrize(
    "setup, action",
    [
        (lambda r: None, lambda r: r.fail("ghost")),          # unknown
        (lambda r: r.fail("a"), lambda r: r.fail("a")),       # double fail
        (lambda r: None, lambda r: r.recover("a")),           # recover up
        (lambda r: None, lambda r: r.commission("a")),        # known name
        (lambda r: r.fail("a"), lambda r: r.decommission("a")),  # decom down
        (lambda r: r.fail("a"), lambda r: r.drained("a")),    # drain w/o decom
    ],
)
def test_roster_illegal_transitions_raise(setup, action):
    roster = MembershipRoster(["a", "b"])
    setup(roster)
    with pytest.raises(LifecycleError):
        action(roster)


def test_roster_never_forgets_members():
    roster = MembershipRoster(["a", "b"])
    roster.fail("a")
    assert "a" in roster
    assert roster.known() == ["a", "b"]
    with pytest.raises(LifecycleError):
        roster.commission("a")  # must use recover for a former member


# ----------------------------------------------------------------------
# MembershipRoster: the gray-failure (degradation) dimension
# ----------------------------------------------------------------------
def test_roster_degrade_and_restore_adjust_effective_speed():
    roster = MembershipRoster({"a": 4.0, "b": 2.0})
    assert roster.degradation_of("a") == 1.0
    assert not roster.is_degraded("a")
    roster.degrade("a", 0.25)
    assert roster.degradation_of("a") == 0.25
    assert roster.is_degraded("a")
    assert roster.effective_speed("a") == pytest.approx(1.0)  # 4.0 * 0.25
    assert roster.speed_of("a") == 4.0  # nominal speed untouched
    assert roster.effective_speeds() == {"a": 1.0, "b": 2.0}
    assert roster.degraded() == ["a"]
    # Degraded-but-UP is still live: gray failures never change liveness.
    assert roster.is_live("a") and roster.live() == ["a", "b"]
    roster.restore("a")
    assert roster.degradation_of("a") == 1.0
    assert roster.degraded() == []


def test_roster_redegrade_is_legal_for_ramps():
    roster = MembershipRoster(["a", "b"])
    roster.degrade("a", 0.5)
    roster.degrade("a", 0.25)  # slow-then-dead ramps re-degrade in place
    assert roster.degradation_of("a") == 0.25


@pytest.mark.parametrize(
    "setup, action",
    [
        (lambda r: r.fail("a"), lambda r: r.degrade("a", 0.5)),  # down
        (lambda r: r.decommission("a"), lambda r: r.degrade("a", 0.5)),
        (lambda r: None, lambda r: r.restore("a")),  # not degraded
        (lambda r: r.fail("a"), lambda r: r.restore("a")),
        (lambda r: None, lambda r: r.degrade("ghost", 0.5)),  # unknown
    ],
)
def test_roster_illegal_degradation_transitions_raise(setup, action):
    roster = MembershipRoster(["a", "b"])
    setup(roster)
    with pytest.raises(LifecycleError):
        action(roster)


@pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
def test_roster_degrade_rejects_bad_factor(factor):
    roster = MembershipRoster(["a", "b"])
    with pytest.raises(LifecycleError):
        roster.degrade("a", factor)


def test_roster_recover_cures_the_limp():
    """A reboot resets degradation: recover() implies full speed."""
    roster = MembershipRoster(["a", "b"])
    roster.degrade("a", 0.1)
    roster.fail("a")
    assert roster.degraded() == []  # down servers are not "degraded"
    roster.recover("a")
    assert roster.degradation_of("a") == 1.0
    assert roster.effective_speed("a") == roster.speed_of("a")


# ----------------------------------------------------------------------
# FaultEvent: gray-failure validation
# ----------------------------------------------------------------------
def test_degrade_event_validates_factor():
    FaultEvent(Seconds(1.0), FaultKind.DEGRADE, "a", factor=0.5)
    for bad in (0.0, -0.1, 1.0001):
        with pytest.raises(ValueError):
            FaultEvent(Seconds(1.0), FaultKind.DEGRADE, "a", factor=bad)
    # factor is ignored for non-DEGRADE kinds (stays at its default).
    FaultEvent(Seconds(1.0), FaultKind.RESTORE, "a")


def test_schedule_validates_gray_failure_lifecycle():
    sched = (
        FaultSchedule()
        .degrade(1.0, "a", 0.25)
        .restore(5.0, "a")
        .degrade(6.0, "a", 0.5)
        .fail(7.0, "a")       # death cuts the limp short
        .recover(8.0, "a")    # reboot cures it
        .degrade(9.0, "a", 0.4)
    )
    sched.validate({"a", "b"})
    with pytest.raises(ValueError):
        FaultSchedule().restore(1.0, "a").validate({"a", "b"})
    with pytest.raises(ValueError):
        # Degrading a down server is illegal.
        FaultSchedule().fail(1.0, "a").degrade(2.0, "a", 0.5).validate(
            {"a", "b", "c"}
        )


# ----------------------------------------------------------------------
# FaultSchedule: ordered insertion + lifecycle validation
# ----------------------------------------------------------------------
def _legal_event_sequence(draw):
    """Strategy: a list of events legal to replay from servers a/b/c."""
    roster = MembershipRoster(["a", "b", "c"])
    events = []
    time = 0.0
    n = draw(st.integers(min_value=0, max_value=30))
    fresh = 0
    for _ in range(n):
        # Strictly increasing times: the schedule sorts ties by (time,
        # server), which would permute same-time events out of the legal
        # order this generator constructed them in.
        time += draw(st.floats(min_value=0.001, max_value=10.0))
        choices = []
        live = roster.live()
        if roster.live_count > 1:
            choices.append("fail")
            choices.append("decommission")
        downed = [
            s for s in roster.known()
            if roster.state_of(s) is not ServerState.UP
        ]
        if downed:
            choices.append("recover")
        if fresh < 4:
            choices.append("commission")
        if roster.live_count >= 2:
            choices.append("delegate-crash")
        if not choices:
            break
        what = draw(st.sampled_from(sorted(choices)))
        if what == "fail":
            victim = draw(st.sampled_from(live))
            roster.fail(victim)
            events.append(FaultEvent(Seconds(time), FaultKind.FAIL, victim))
        elif what == "decommission":
            victim = draw(st.sampled_from(live))
            roster.decommission(victim)
            events.append(
                FaultEvent(Seconds(time), FaultKind.DECOMMISSION, victim)
            )
        elif what == "recover":
            victim = draw(st.sampled_from(downed))
            roster.recover(victim)
            events.append(FaultEvent(Seconds(time), FaultKind.RECOVER, victim))
        elif what == "commission":
            name = f"new{fresh}"
            fresh += 1
            roster.commission(name, 2.0)
            events.append(
                FaultEvent(Seconds(time), FaultKind.COMMISSION, name, 2.0)
            )
        else:
            events.append(
                FaultEvent(Seconds(time), FaultKind.DELEGATE_CRASH, "*")
            )
    return events


legal_events = st.composite(_legal_event_sequence)()


@settings(max_examples=60, deadline=None)
@given(events=legal_events, order=st.randoms(use_true_random=False))
def test_schedule_add_matches_append_then_sort(events, order):
    """bisect-insort insertion equals the old append+stable-sort, for any
    insertion order of the same event set."""
    shuffled = list(events)
    order.shuffle(shuffled)
    fast = FaultSchedule()
    for ev in shuffled:
        fast.add(ev)
    slow = list(shuffled)
    slow.sort(key=lambda e: (e.time, e.server))  # the old implementation
    assert fast.events == slow


@settings(max_examples=60, deadline=None)
@given(events=legal_events)
def test_legal_sequences_validate(events):
    schedule = FaultSchedule()
    for ev in events:
        schedule.add(ev)
    schedule.validate({"a", "b", "c"})


def test_validate_rejects_double_fail():
    sched = FaultSchedule().fail(1.0, "a").fail(2.0, "a")
    with pytest.raises(ValueError):
        sched.validate({"a", "b"})


def test_validate_rejects_losing_last_server():
    sched = FaultSchedule().fail(1.0, "a").fail(2.0, "b")
    with pytest.raises(ValueError):
        sched.validate({"a", "b"})


def test_validate_rejects_delegate_crash_without_successor():
    """A delegate crash needs >= 2 live servers to elect a successor;
    the old validator silently skipped DELEGATE_CRASH events."""
    sched = FaultSchedule().fail(1.0, "a").delegate_crash(2.0)
    with pytest.raises(ValueError):
        sched.validate({"a", "b"})
    # With a third server the same schedule is fine.
    sched.validate({"a", "b", "c"})


def test_validate_allows_recover_after_decommission():
    FaultSchedule().decommission(1.0, "a").recover(5.0, "a").validate(
        {"a", "b"}
    )


# ----------------------------------------------------------------------
# MembershipDirector against a recording host
# ----------------------------------------------------------------------
class RecordingHost:
    """Minimal host that logs primitive calls and manages a toy placement."""

    def __init__(self, roster: MembershipRoster, filesets: list[str]) -> None:
        self.roster = roster
        self.filesets = filesets
        self.calls: list[tuple] = []
        self.assignment = {
            fs: roster.live()[i % len(roster.live())]
            for i, fs in enumerate(filesets)
        }

    def crash_server(self, server, now):
        self.calls.append(("crash", server))
        return [f"orphan-from-{server}"]

    def drain_server(self, server, now):
        self.calls.append(("drain", server))

    def restart_server(self, server, now):
        self.calls.append(("restart", server))

    def install_server(self, server, speed, now):
        self.calls.append(("install", server, speed))

    def set_speed(self, server, factor, now):
        self.calls.append(("set_speed", server, factor))

    def delegate_failover(self, now):
        self.calls.append(("failover",))
        return None

    def membership_assignment(self):
        self.calls.append(("assign",))
        old = dict(self.assignment)
        live = self.roster.live()
        new = {fs: live[i % len(live)] for i, fs in enumerate(self.filesets)}
        return old, new

    def realize_membership(self, old, new, now):
        self.calls.append(("realize",))
        self.assignment = dict(new)

    def reinject(self, orphans, now):
        self.calls.append(("reinject", tuple(orphans)))


def _director():
    roster = MembershipRoster({"a": 1.0, "b": 2.0, "c": 3.0})
    host = RecordingHost(roster, ["f0", "f1", "f2", "f3"])
    return roster, host, MembershipDirector(roster, host)


def test_director_fail_orders_crash_rebalance_reinject():
    roster, host, director = _director()
    change = director.apply(FaultEvent(Seconds(1.0), FaultKind.FAIL, "a"))
    kinds = [c[0] for c in host.calls]
    assert kinds == ["crash", "assign", "realize", "reinject"]
    assert roster.state_of("a") is ServerState.DOWN
    assert change.live == ("b", "c")
    assert change.diff is not None and change.moved >= 1
    # Every move off the dead server is classified as an orphan re-home.
    assert change.orphaned >= 1 and change.rebalanced >= 0
    assert change.orphaned + change.rebalanced == change.moved
    assert director.applied == [FaultEvent(Seconds(1.0), FaultKind.FAIL, "a")]


def test_director_delegate_crash_needs_survivor():
    roster, host, director = _director()
    director.apply(FaultEvent(Seconds(1.0), FaultKind.FAIL, "a"))
    director.apply(FaultEvent(Seconds(2.0), FaultKind.FAIL, "b"))
    with pytest.raises(LifecycleError):
        director.apply(FaultEvent(Seconds(3.0), FaultKind.DELEGATE_CRASH, "*"))


def test_director_delegate_crash_is_logical_only():
    roster, host, director = _director()
    change = director.apply(
        FaultEvent(Seconds(1.0), FaultKind.DELEGATE_CRASH, "*")
    )
    assert [c[0] for c in host.calls] == ["failover"]
    assert change.diff is None and change.moved == 0


def test_director_commission_and_decommission_rebalance():
    roster, host, director = _director()
    change = director.apply(
        FaultEvent(Seconds(1.0), FaultKind.COMMISSION, "d", speed=4.0)
    )
    assert ("install", "d", 4.0) in host.calls
    assert roster.speed_of("d") == 4.0
    assert change.live == ("a", "b", "c", "d")
    host.calls.clear()
    director.apply(FaultEvent(Seconds(2.0), FaultKind.DECOMMISSION, "d"))
    assert [c[0] for c in host.calls] == ["drain", "assign", "realize"]
    assert roster.state_of("d") is ServerState.DRAINING


def test_director_illegal_event_mutates_nothing():
    roster, host, director = _director()
    with pytest.raises(LifecycleError):
        director.apply(FaultEvent(Seconds(1.0), FaultKind.RECOVER, "a"))
    assert host.calls == []
    assert director.applied == []


def test_director_emits_telemetry_records():
    from repro.runtime import MemorySink

    roster = MembershipRoster({"a": 1.0, "b": 2.0})
    host = RecordingHost(roster, ["f0", "f1"])
    sink = MemorySink()
    director = MembershipDirector(roster, host, telemetry=sink)
    director.apply(FaultEvent(Seconds(5.0), FaultKind.FAIL, "a"))
    counts = sink.counts()
    assert counts["fault"] == 1
    assert counts["membership"] == 1
    (record,) = sink.of_kind("membership")
    assert record.fault == "fail"
    assert record.live == 1
    assert record.orphaned + record.rebalanced >= 1


def test_director_degrade_is_set_speed_only():
    """Gray failures must not rebalance, reset history, or re-place.

    The whole point of the limplock model: the placement layer is not
    told — ANU must *discover* the slow server through latency.  The
    director realizes a DEGRADE purely as a host ``set_speed`` call.
    """
    roster, host, director = _director()
    change = director.apply(
        FaultEvent(Seconds(1.0), FaultKind.DEGRADE, "a", factor=0.25)
    )
    assert host.calls == [("set_speed", "a", 0.25)]
    assert change.diff is None and change.moved == 0
    assert change.live == ("a", "b", "c")  # degraded is still live
    assert roster.effective_speed("a") == pytest.approx(0.25)
    host.calls.clear()
    change = director.apply(FaultEvent(Seconds(2.0), FaultKind.RESTORE, "a"))
    assert host.calls == [("set_speed", "a", 1.0)]
    assert change.diff is None
    assert roster.degradation_of("a") == 1.0


def test_director_gray_failure_telemetry_has_no_membership_record():
    from repro.runtime import MemorySink

    roster = MembershipRoster({"a": 1.0, "b": 2.0})
    host = RecordingHost(roster, ["f0", "f1"])
    sink = MemorySink()
    director = MembershipDirector(roster, host, telemetry=sink)
    director.apply(FaultEvent(Seconds(5.0), FaultKind.DEGRADE, "a", factor=0.5))
    director.apply(FaultEvent(Seconds(9.0), FaultKind.RESTORE, "a"))
    assert [r.kind for r in sink.records] == ["fault", "speed", "fault", "speed"]
    degrade_rec, restore_rec = sink.of_kind("speed")
    assert degrade_rec.server == "a" and degrade_rec.factor == 0.5
    assert degrade_rec.effective_speed == pytest.approx(0.5)
    assert restore_rec.factor == 1.0
    assert restore_rec.effective_speed == pytest.approx(1.0)
    assert sink.counts().get("membership", 0) == 0


def test_director_illegal_degrade_mutates_nothing():
    roster, host, director = _director()
    director.apply(FaultEvent(Seconds(1.0), FaultKind.FAIL, "a"))
    host.calls.clear()
    applied = list(director.applied)
    with pytest.raises(LifecycleError):
        director.apply(
            FaultEvent(Seconds(2.0), FaultKind.DEGRADE, "a", factor=0.5)
        )
    with pytest.raises(LifecycleError):
        director.apply(FaultEvent(Seconds(3.0), FaultKind.RESTORE, "b"))
    assert host.calls == []
    assert director.applied == applied


def test_director_rejected_event_emits_no_telemetry():
    """Regression: an illegal event leaves no dangling record.

    Before the validate-then-emit fix the director published
    ``FaultInjected`` *before* asking the roster whether the transition
    was legal, so a rejected event left a fault record with no matching
    ``membership`` record — and any digest-chain comparison against the
    true harness state diverged from that point on.  The general check
    is the soak's :class:`~repro.membership.soak.PairingLaw`, run on
    every chaos-soak record stream and on the director's stream in
    :func:`test_director_stream_obeys_pairing_law_around_rejected_events`.
    """
    from repro.runtime import MemorySink

    roster = MembershipRoster({"a": 1.0, "b": 2.0})
    host = RecordingHost(roster, ["f0", "f1"])
    sink = MemorySink()
    director = MembershipDirector(roster, host, telemetry=sink)
    # Illegal transition (recover a live server): rejected silently.
    with pytest.raises(LifecycleError):
        director.apply(FaultEvent(Seconds(1.0), FaultKind.RECOVER, "a"))
    assert sink.records == []
    # Duplicate commission: also rejected before any emission.
    with pytest.raises(LifecycleError):
        director.apply(FaultEvent(Seconds(2.0), FaultKind.COMMISSION, "a"))
    assert sink.records == []
    # Delegate crash without a survivor: same guarantee.
    director.apply(FaultEvent(Seconds(3.0), FaultKind.FAIL, "a"))
    sink.records.clear()
    with pytest.raises(LifecycleError):
        director.apply(FaultEvent(Seconds(4.0), FaultKind.DELEGATE_CRASH, "*"))
    assert sink.records == []
    assert host.calls[-1][0] != "failover"
    # A legal event still emits the full fault/membership pair.
    director.apply(FaultEvent(Seconds(5.0), FaultKind.RECOVER, "a"))
    assert [r.kind for r in sink.records] == ["fault", "membership"]


def test_director_stream_obeys_pairing_law_around_rejected_events():
    """Illegal events between legal ones leave every record pair whole.

    The stream runs through the pairing law the chaos soak applies: each
    ``FaultInjected`` must be completed by its ``MembershipChanged`` (or
    ``SpeedChanged`` for a limp) before the next fault, so a rejected
    event that still announced itself fails here.
    """
    from repro.membership.soak import PairingLaw
    from repro.runtime import MemorySink

    roster = MembershipRoster({"a": 1.0, "b": 2.0})
    sink = MemorySink()
    director = MembershipDirector(
        roster, RecordingHost(roster, ["f0", "f1"]), telemetry=sink
    )
    steps = [
        (FaultKind.DEGRADE, "b", True),
        (FaultKind.RECOVER, "a", False),         # a is live
        (FaultKind.COMMISSION, "c", True),
        (FaultKind.COMMISSION, "c", False),      # duplicate commission
        (FaultKind.FAIL, "c", True),
        (FaultKind.DEGRADE, "c", False),         # c has crashed
        (FaultKind.DELEGATE_CRASH, "*", True),
        (FaultKind.FAIL, "a", True),
        (FaultKind.DELEGATE_CRASH, "*", False),  # b is the only survivor
        (FaultKind.RESTORE, "b", True),
    ]
    for i, (kind, server, legal) in enumerate(steps):
        event = FaultEvent(Seconds(float(i)), kind, server, factor=0.5)
        if legal:
            director.apply(event)
        else:
            with pytest.raises(LifecycleError):
                director.apply(event)
    law = PairingLaw()
    for record in sink.records:
        law.observe(record)
    law.close()
    assert len(sink.of_kind("fault")) == sum(legal for *_, legal in steps)


@pytest.mark.parametrize(
    "stream",
    [
        # Fault never completed.
        [("fault", "fail", "a", 1.0)],
        # Second fault before the first completes.
        [("fault", "fail", "a", 1.0), ("fault", "recover", "a", 2.0)],
        # Completion of the wrong type: a limp completes with SpeedChanged.
        [("fault", "degrade", "a", 1.0), ("membership", "degrade", "a", 1.0)],
        # Completion for another server, and for another time.
        [("fault", "fail", "a", 1.0), ("membership", "fail", "b", 1.0)],
        [("fault", "fail", "a", 1.0), ("membership", "fail", "a", 2.0)],
        # Completion with no open fault.
        [("membership", "fail", "a", 1.0)],
        # The last move start never finishes at its destination.
        [("move-start", "fs0", "b"), ("move-start", "fs0", "c"),
         ("move-finish", "fs0", "b")],
    ],
)
def test_pairing_law_rejects_split_pairs(stream):
    from repro.membership.soak import PairingLaw
    from repro.runtime.telemetry import (
        FaultInjected,
        MembershipChanged,
        MoveFinished,
        MoveStarted,
    )

    build = {
        "fault": lambda f, s, t: FaultInjected(time=t, fault=f, server=s),
        "membership": lambda f, s, t: MembershipChanged(
            time=t, fault=f, server=s, live=1
        ),
        "move-start": lambda fs, d: MoveStarted(
            time=0.0, fileset=fs, source="a", destination=d
        ),
        "move-finish": lambda fs, d: MoveFinished(
            time=0.0, fileset=fs, destination=d
        ),
    }
    law = PairingLaw()
    with pytest.raises(AssertionError, match="pairing law"):
        for kind, *fields in stream:
            law.observe(build[kind](*fields))
        law.close()


@pytest.mark.parametrize("kind", [FaultKind.FAIL, FaultKind.DECOMMISSION])
def test_director_rejects_taking_down_the_last_live_server(kind):
    """No host can re-place the last server's file sets, so the event is
    rejected before the roster, the host or the sink sees it."""
    from repro.runtime import MemorySink

    roster = MembershipRoster({"a": 1.0, "b": 2.0})
    host = RecordingHost(roster, ["f0", "f1"])
    sink = MemorySink()
    director = MembershipDirector(roster, host, telemetry=sink)
    director.apply(FaultEvent(Seconds(1.0), FaultKind.FAIL, "a"))
    calls, records = list(host.calls), list(sink.records)
    with pytest.raises(LifecycleError):
        director.apply(FaultEvent(Seconds(2.0), kind, "b"))
    assert roster.live() == ["b"]
    assert host.calls == calls and sink.records == records


@pytest.mark.parametrize("kind", [FaultKind.FAIL, FaultKind.DECOMMISSION])
def test_apply_event_rejects_last_live_server_before_touching_roster(kind):
    """The shared event dispatch checks for a survivor before the
    transition, so a rejected event leaves the roster as it was, and the
    schedule validator rejects the same event."""
    from repro.membership import apply_event

    roster = MembershipRoster({"a": 1.0, "b": 2.0})
    apply_event(roster, FaultEvent(Seconds(1.0), FaultKind.FAIL, "a"))
    with pytest.raises(LifecycleError, match="no live server"):
        apply_event(roster, FaultEvent(Seconds(2.0), kind, "b"))
    assert roster.state_of("b") is ServerState.UP
    assert roster.live() == ["b"]
    roster.check_invariants()
    schedule = FaultSchedule().fail(1.0, "a")
    schedule.add(FaultEvent(Seconds(2.0), kind, "b"))
    with pytest.raises(ValueError, match="no live server"):
        schedule.validate({"a", "b"})
