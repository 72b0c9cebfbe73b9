"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.events import PRIORITY_EARLY, PRIORITY_LATE, reserve_seqs


def test_schedule_and_run_fires_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(2.0, fired.append, "b")
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(3.0, fired.append, "c")
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 3.0


def test_equal_time_ties_break_by_priority_then_insertion():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "normal-1")
    engine.schedule(1.0, fired.append, "late", priority=PRIORITY_LATE)
    engine.schedule(1.0, fired.append, "early", priority=PRIORITY_EARLY)
    engine.schedule(1.0, fired.append, "normal-2")
    engine.run()
    assert fired == ["early", "normal-1", "normal-2", "late"]


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(5.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [5.5]


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(10.0, fired.append, "b")
    engine.run(until=5.0)
    assert fired == ["a"]
    assert engine.now == 5.0  # clock advanced to `until` like YACSIM
    engine.run()
    assert fired == ["a", "b"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule(1.0, fired.append, "x")
    engine.schedule(2.0, fired.append, "y")
    handle.cancel()
    engine.run()
    assert fired == ["y"]


def test_pending_drops_when_events_are_cancelled():
    engine = Engine()
    handles = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert engine.pending == 5
    handles[0].cancel()
    handles[3].cancel()
    assert engine.pending == 3
    # Cancelling twice must not double-count.
    handles[0].cancel()
    assert engine.pending == 3
    engine.run()
    assert engine.pending == 0
    assert engine.events_fired == 3


def test_pending_counts_live_events_during_run():
    engine = Engine()
    seen = []

    def observe():
        seen.append(engine.pending)

    guard = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, observe)
    guard.cancel()
    engine.schedule(3.0, observe)
    engine.run()
    # At t=2 only the t=3 observer remains; at t=3 nothing does.
    assert seen == [1, 0]


def test_cancel_after_fire_does_not_skew_pending():
    engine = Engine()
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run(until=1.5)
    handle.cancel()  # already fired: harmless no-op
    assert engine.pending == 1
    engine.run()
    assert engine.pending == 0


def test_cancel_after_drain_does_not_skew_pending():
    engine = Engine()
    handle = engine.schedule(1.0, lambda: None)
    engine.drain()
    assert engine.pending == 0
    handle.cancel()
    assert engine.pending == 0
    engine.schedule(2.0, lambda: None)
    assert engine.pending == 1


def test_calendar_compaction_evicts_cancelled_corpses():
    engine = Engine()
    live = [engine.schedule(1000.0 + i, lambda: None) for i in range(4)]
    corpses = [engine.schedule(5000.0 + i, lambda: None) for i in range(200)]
    for handle in corpses:
        handle.cancel()
    # Cancelled entries outnumbered live ones: the heap was compacted.
    assert engine.pending == 4
    assert len(engine._calendar) < 64
    fired = []
    for handle in live:
        handle.action = fired.append  # replaced for observability
        handle.args = (handle.time,)
    engine.run()
    assert fired == [1000.0, 1001.0, 1002.0, 1003.0]


def test_compaction_preserves_tie_order():
    engine = Engine()
    fired = []
    keep = [engine.schedule(1.0, fired.append, i) for i in range(10)]
    corpses = [engine.schedule(1.0, fired.append, 100 + i) for i in range(300)]
    for handle in corpses:
        handle.cancel()
    engine.run()
    assert fired == list(range(10))
    assert keep[0].cancelled is False


def test_events_scheduled_during_run_fire():
    engine = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(0.0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_max_events_bounds_execution():
    engine = Engine()
    count = [0]

    def recur():
        count[0] += 1
        engine.schedule(1.0, recur)

    engine.schedule(0.0, recur)
    engine.run(max_events=10)
    assert count[0] == 10


def test_step_returns_false_when_empty():
    engine = Engine()
    assert engine.step() is False


def test_events_fired_counter():
    engine = Engine()
    for i in range(5):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_fired == 5


def test_drain_discards_pending():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "x")
    engine.drain()
    engine.run()
    assert fired == []


def test_zero_delay_event_fires_at_current_time():
    engine = Engine()
    times = []
    engine.schedule(1.0, lambda: engine.schedule(0.0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [1.0]


def test_reserved_seq_keeps_its_place_in_the_tie_break():
    engine = Engine()
    fired = []
    base = reserve_seqs(2)
    engine.schedule(1.0, fired.append, "ordinary")
    engine.schedule_reserved(1.0, base + 1, fired.append, "reserved-1")
    engine.schedule_reserved(1.0, base, fired.append, "reserved-0")
    engine.run()
    assert fired == ["reserved-0", "reserved-1", "ordinary"]
    with pytest.raises(SimulationError):
        engine.schedule_reserved(0.5, base, fired.append, "past")
    with pytest.raises(ValueError):
        reserve_seqs(0)


def test_engine_not_reentrant():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule(1.0, reenter)
    engine.run()
    assert len(errors) == 1
