"""Unit tests for cluster building blocks: requests, file sets, servers,
mover, fault schedules."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.membership.faults import FaultEvent, FaultKind, FaultSchedule
from repro.cluster.fileset import FileSetState
from repro.cluster.mover import FREE_MOVES, FileSetMover, MoveCostModel
from repro.cluster.request import MetadataRequest
from repro.cluster.server import MetadataServer, ServerSpec
from repro.metrics.latency import LatencyCollector
from repro.runtime.routing import SingleOwnerRouter, dispatch
from repro.runtime.telemetry import MemorySink
from repro.sim import Engine


# ----------------------------------------------------------------------
# MetadataRequest
# ----------------------------------------------------------------------
def test_request_latency_lifecycle():
    r = MetadataRequest(arrival=1.0, fileset="fs", cost=0.5)
    assert r.completion is None
    lat = r.complete(3.0)
    assert lat == pytest.approx(2.0)
    assert r.completion == 3.0
    with pytest.raises(ValueError):
        r.complete(4.0)


def test_request_completion_before_arrival_rejected():
    r = MetadataRequest(arrival=5.0, fileset="fs", cost=0.5)
    with pytest.raises(ValueError):
        r.complete(4.0)


def test_request_ids_unique():
    a = MetadataRequest(0.0, "f", 0.1)
    b = MetadataRequest(0.0, "f", 0.1)
    assert a.rid != b.rid


# ----------------------------------------------------------------------
# FileSetState
# ----------------------------------------------------------------------
def test_fileset_move_lifecycle():
    st = FileSetState(name="fs", owner="a")
    st.begin_move("b")
    assert st.moving and st.move_target == "b"
    st.buffer.append(MetadataRequest(0.0, "fs", 0.1))
    drained = st.finish_move(cold_requests=2)
    assert st.owner == "b" and not st.moving
    assert len(drained) == 1
    assert st.buffer == []
    assert st.moves == 1
    assert st.cold_remaining == 2


def test_fileset_move_validation():
    st = FileSetState(name="fs", owner="a")
    with pytest.raises(ValueError):
        st.begin_move("a")  # move to self
    with pytest.raises(ValueError):
        st.finish_move(0)  # not moving
    st.begin_move("b")
    with pytest.raises(ValueError):
        st.begin_move("c")  # already moving
    st.redirect_move("c")
    assert st.move_target == "c"
    st.finish_move(0)
    with pytest.raises(ValueError):
        st.redirect_move("d")  # settled


def test_cold_cache_multiplier_decays():
    st = FileSetState(name="fs", owner="a", cold_remaining=2)
    assert st.next_cost_multiplier(3.0) == 3.0
    assert st.next_cost_multiplier(3.0) == 3.0
    assert st.next_cost_multiplier(3.0) == 1.0


# ----------------------------------------------------------------------
# MetadataServer
# ----------------------------------------------------------------------
def test_server_spec_validation():
    with pytest.raises(ValueError):
        ServerSpec("s", 0.0)


def test_dispatch_scales_service_time_by_speed_and_multiplier():
    engine = Engine()
    fast = MetadataServer(engine, ServerSpec("fast", 9.0))
    sink = MemorySink()
    host = SimpleNamespace(
        engine=engine, router=SingleOwnerRouter(), collector=LatencyCollector(),
        completed={"fast": 0}, telemetry=sink,
    )
    dispatch(host, 0, fast, MetadataRequest(0.0, "fs", 0.9))
    dispatch(host, 0, fast, MetadataRequest(0.0, "fs", 0.9), multiplier=2.0)
    fast.set_degradation(0.5)
    dispatch(host, 0, fast, MetadataRequest(0.0, "fs", 0.9))
    engine.run()
    assert [r.service_time for r in sink.of_kind("dispatch")] == pytest.approx(
        [0.1, 0.2, 0.2]
    )
    # The latency is the wait: each request waits for the ones before it.
    assert [r.latency for r in sink.of_kind("completion")] == pytest.approx(
        [0.0, 0.1, 0.3]
    )
    assert host.completed == {"fast": 3}
    assert fast.outstanding == {}


def test_server_submit_and_complete():
    engine = Engine()
    server = MetadataServer(engine, ServerSpec("s", 2.0))
    done = []
    req = MetadataRequest(0.0, "fs", 1.0)
    server.submit(req, 0.5, lambda: done.append(engine.now))
    assert server.outstanding == {req.rid: req}
    engine.run()
    assert done == [0.5]


def test_server_fail_orphans_outstanding():
    engine = Engine()
    server = MetadataServer(engine, ServerSpec("s", 1.0))
    reqs = [MetadataRequest(0.0, "fs", 10.0) for _ in range(3)]
    for r in reqs:
        server.submit(r, 10.0, lambda: None)
    orphans = server.fail()
    assert orphans == reqs
    assert server.outstanding == {}
    assert not server.alive
    with pytest.raises(RuntimeError):
        server.fail()
    with pytest.raises(RuntimeError):
        server.submit(reqs[0], 10.0, lambda: None)
    engine.run()  # nothing completes


def test_server_recover():
    engine = Engine()
    server = MetadataServer(engine, ServerSpec("s", 1.0))
    server.fail()
    server.recover()
    assert server.alive
    with pytest.raises(RuntimeError):
        server.recover()
    done = []
    server.submit(MetadataRequest(0.0, "fs", 1.0), 1.0, lambda: done.append(1))
    engine.run()
    assert done == [1]


# ----------------------------------------------------------------------
# FileSetMover
# ----------------------------------------------------------------------
def test_move_cost_model_validation():
    with pytest.raises(ValueError):
        MoveCostModel(min_delay=5.0, max_delay=4.0)
    with pytest.raises(ValueError):
        MoveCostModel(cold_multiplier=0.5)


def test_mover_delay_in_bounds():
    engine = Engine()
    mover = FileSetMover(engine, MoveCostModel(), np.random.default_rng(0))
    for _ in range(100):
        d = mover.sample_delay()
        assert 5.0 <= d <= 10.0


def test_free_moves_zero_delay():
    engine = Engine()
    mover = FileSetMover(engine, FREE_MOVES, np.random.default_rng(0))
    assert mover.sample_delay() == 0.0


def test_mover_completes_and_drains_buffer():
    engine = Engine()
    mover = FileSetMover(
        engine, MoveCostModel(min_delay=5.0, max_delay=5.0, cold_requests=4),
        np.random.default_rng(0),
    )
    st = FileSetState(name="fs", owner="a")
    done = []
    mover.start_move(st, "b", lambda s, drained: done.append((engine.now, s.owner, len(drained))))
    st.buffer.append(MetadataRequest(1.0, "fs", 0.1))
    engine.run()
    assert done == [(5.0, "b", 1)]
    assert mover.moves_started == 1
    assert mover.moves_completed == 1
    assert st.cold_remaining == 4


# ----------------------------------------------------------------------
# FaultSchedule
# ----------------------------------------------------------------------
def test_fault_schedule_builders_and_ordering():
    sched = (
        FaultSchedule()
        .recover(200.0, "a")
        .fail(100.0, "a")
        .commission(300.0, "x", speed=2.0)
        .decommission(400.0, "x")
        .delegate_crash(50.0)
    )
    times = [e.time for e in sched]
    assert times == sorted(times)
    assert len(sched) == 5


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, FaultKind.FAIL, "a")
    with pytest.raises(ValueError):
        FaultEvent(1.0, FaultKind.COMMISSION, "a", speed=0.0)


def test_schedule_validate_catches_inconsistencies():
    FaultSchedule().fail(1.0, "a").recover(2.0, "a").validate({"a", "b"})
    with pytest.raises(ValueError):
        FaultSchedule().fail(1.0, "ghost").validate({"a"})
    with pytest.raises(ValueError):
        FaultSchedule().recover(1.0, "a").validate({"a"})  # a is already up
    with pytest.raises(ValueError):
        FaultSchedule().commission(1.0, "a", 1.0).validate({"a"})
    with pytest.raises(ValueError):
        FaultSchedule().fail(1.0, "a").validate({"a"})  # empties the cluster
    with pytest.raises(ValueError):
        s = FaultSchedule().fail(1.0, "a").fail(2.0, "a")
        s.validate({"a", "b"})
