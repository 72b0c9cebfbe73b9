"""Per-layer spans installed from outside the simulator.

The benchmark does not edit the program to trace it.  :class:`Tracer`
replaces each layer's entry callables (class methods and module-level
functions) with timing wrappers for one run and puts the originals back
afterwards.  Spans are aggregated in memory per callable: calls, self ns
(the span's time minus its child spans', kept on a span stack), direct
child spans, and the span's own bookkeeping time.

Each wrapper costs time of its own.  The bookkeeping is timed and
charged to no layer.  The rest cannot be timed: :func:`calibrate`
measures it around a no-op, split into the part inside a span's own
interval (charged to the span) and the part outside (charged to the
parent).  Inside the simulator every part of the wrapper is dearer than
in a tight loop, so :func:`layer_budget` scales the calibration by
:func:`in_situ_scale` (the timed bookkeeping in place over its
calibrated cost) before subtracting it.  Nothing in the correction looks
at the untraced run time, so comparing the corrected sum with it is a
real check.  :func:`profile_shares` is the independent cross-check of
the split: it folds a cProfile ``tottime`` table into the same layer
names by module.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from typing import Any, Callable

clock = time.perf_counter_ns

#: (layer, module, "Class.attr" or "function", hook).  A module-level
#: function is patched where the simulator looks it up, not where it is
#: defined.  The router's ``choose`` and the sink's ``emit`` are added per
#: run from the simulator's own instances (see :meth:`Tracer.install`).
SPANS: tuple[tuple[str, str, str, str | None], ...] = (
    # Engine.step is deliberately not a span: its self time is calendar
    # time either way (it is a child of Engine.run), and two more spans
    # per request would double the calendar's share of tracer overhead.
    ("calendar", "repro.sim.engine", "Engine.run", None),
    ("calendar", "repro.sim.engine", "Engine.schedule_at", None),
    ("calendar", "repro.sim.engine", "Engine._note_cancelled", None),
    ("arrivals", "repro.runtime.arrivals", "ArrivalPump._fire", None),
    ("arrivals", "repro.fs.simulation", "schedule_all", None),
    ("dispatch", "repro.cluster.cluster", "ClusterSimulation._on_arrival", None),
    ("dispatch", "repro.cluster.cluster", "ClusterSimulation._route", None),
    ("dispatch", "repro.fs.simulation", "FullSystemSimulation._on_arrival", None),
    ("facility", "repro.sim.resources", "Facility.request", "request"),
    ("facility", "repro.sim.resources", "Facility._finish", None),
    ("tuning", "repro.runtime.loop", "TuningLoop._round", None),
    ("tuning.reports", "repro.metrics.latency", "LatencyCollector.reports", None),
    ("tuning.decide", "repro.cluster.cluster", "ClusterSimulation.decide", "decide"),
    ("tuning.decide", "repro.fs.simulation", "FullSystemSimulation.decide", "decide"),
    ("tuning.realize", "repro.cluster.cluster", "ClusterSimulation.realize", None),
    ("tuning.realize", "repro.fs.simulation", "FullSystemSimulation.realize", None),
    ("mover", "repro.cluster.mover", "FileSetMover.start_move", None),
    ("mover", "repro.cluster.cluster", "ClusterSimulation._on_move_done", None),
    ("mover", "repro.cluster.fileset", "FileSetState.redirect_move", None),
    ("mover", "repro.fs.simulation", "FullSystemSimulation._finish_move", None),
    ("membership", "repro.membership.director", "MembershipDirector.apply", None),
    ("membership", "repro.cluster.cluster", "ClusterSimulation.crash_server", "crash"),
    ("results", "repro.cluster.cluster", "summarize_collector", None),
    ("results", "repro.fs.simulation", "summarize_collector", None),
    ("fs.resolve", "repro.fs.cluster", "FileSetRegistry.fileset_of", None),
    ("fs.owner_set", "repro.fs.cluster", "MetadataCluster.owner_set_of", None),
    ("fs.execute", "repro.fs.cluster", "MetadataCluster.submit", None),
)

#: Every layer, in the order reports list them.
LAYERS = (
    "calendar", "arrivals", "dispatch", "routing", "facility", "completion",
    "telemetry", "tuning", "tuning.reports", "tuning.decide", "tuning.realize",
    "mover", "membership", "results", "fs.resolve", "fs.owner_set", "fs.execute",
)

COMPLETION_KEY = "completion:on_complete"


def layer_of(key: str) -> str:
    """``"layer:Callable.name"`` -> ``"layer"``."""
    return key.split(":", 1)[0]


def group_of(layer: str) -> str:
    """Top-level layer: the tuning sub-spans fold into ``tuning``."""
    return "tuning" if layer.startswith("tuning") else layer


class Tracer:
    """Span aggregation plus the patches that feed it."""

    def __init__(self) -> None:
        #: key -> [calls, self ns, direct child spans, bookkeeping ns];
        #: see :data:`_WRAPPER`.
        self.stats: dict[str, list[int]] = {}
        #: key -> wrapper kind ("<hook>:exact" or "<hook>:generic"), the
        #: unit :func:`calibrate` measures the untimed cost in.
        self.kinds: dict[str, str] = {}
        self.peak_pending = 0
        self.changed_rounds = 0
        self.orphans = 0
        self._stack: list[list[int]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def span(self, key: str, fn: Callable, hook: str | None = None) -> Callable:
        """``fn`` wrapped in a span named ``key`` (with an optional hook).

        Hooks run inside the span's own interval, so their cost is part of
        the per-kind overhead that :func:`calibrate` measures.
        """
        target = self._hooked(fn, hook) if hook else fn
        params = _parameters(target)
        shape = "generic" if params == _GENERIC else "exact"
        rec = self._record(key, f"{hook}:{shape}")
        wrapper = _factory(params)(rec, self._stack, target, clock)
        if shape == "exact":
            wrapper.__defaults__ = target.__defaults__
        return wrapper

    def _hooked(self, fn: Callable, hook: str) -> Callable:
        """``fn`` plus the counter its hook kind keeps."""
        if hook == "request":
            # Facility.request: the completion callback, a no-argument
            # closure, gets a span of its own.  The calendar depth is
            # sampled here, right after a dispatch queued its work, rather
            # than on every Engine.schedule_at: a hook there would double
            # the cost of the hottest span for one number.
            completion = self._record(COMPLETION_KEY, "None:exact")
            stack, make = self._stack, _factory("")

            def hooked(facility, service_time, on_complete=None):
                if on_complete is not None:
                    on_complete = make(completion, stack, on_complete, clock)
                fn(facility, service_time, on_complete)
                if facility.engine.pending > self.peak_pending:
                    self.peak_pending = facility.engine.pending
        elif hook == "decide":
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                if result[0] is not None:
                    self.changed_rounds += 1
                return result
        elif hook == "crash":
            def hooked(*args, **kwargs):
                orphans = fn(*args, **kwargs)
                self.orphans += len(orphans)
                return orphans
        else:
            raise ValueError(f"unknown span hook {hook!r}")
        return hooked

    def _record(self, key: str, kind: str) -> list[int]:
        self.kinds.setdefault(key, kind)
        return self.stats.setdefault(key, [0, 0, 0, 0])

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, key: str, hook: str | None = None) -> None:
        """Replace ``owner.attr`` with a span wrapper until :meth:`restore`.

        The attribute must be defined on ``owner`` itself (a KeyError
        otherwise), so restoring puts back exactly what was there.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(key, original, hook))

    def install(self, sim: Any) -> None:
        """Wrap every layer's entry callables for one run of ``sim``."""
        for layer, module_name, path, hook in SPANS:
            owner: Any = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            self.patch(owner, attr, f"{layer}:{path}", hook)
        router, sink = type(sim.router), type(sim.telemetry)
        self.patch(router, "choose", f"routing:{router.__name__}.choose")
        self.patch(sink, "emit", f"telemetry:{sink.__name__}.emit")

    def restore(self) -> None:
        """Put back every original callable, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError("span stack not empty after the traced run")


#: The span wrapper, compiled once per parameter list by :func:`_factory`.
#:
#: Three clock reads: ``t0`` on entry, ``t1`` when ``fn`` returns, ``t2``
#: after the bookkeeping.  Self time is ``t1 - t0`` minus the children's
#: ``t2 - t0``, so a child's bookkeeping (``t2 - t1``, summed into
#: ``rec[3]``) is measured and charged to no layer.  What stays unmeasured
#: is the call into the wrapper before ``t0`` and the return after ``t2``,
#: which land in the parent, and the frame set-up inside ``[t0, t1]``;
#: :func:`calibrate` estimates both.  The wrapper takes exactly the wrapped
#: function's parameters, so the interpreter can specialize and inline the
#: calls into and out of it; a ``*args, **kwargs`` wrapper cannot be
#: inlined, and cost about twice as much in place.
_WRAPPER = """
def _s_make(_s_rec, _s_stack, _s_fn, _s_clock):
    def wrapper({params}):
        _s_t0 = _s_clock()
        _s_frame = [0, 0]
        _s_stack.append(_s_frame)
        try:
            return _s_fn({params})
        finally:
            _s_t1 = _s_clock()
            _s_stack.pop()
            _s_rec[0] += 1
            _s_rec[1] += _s_t1 - _s_t0 - _s_frame[0]
            _s_rec[2] += _s_frame[1]
            if _s_stack:
                _s_parent = _s_stack[-1]
                _s_parent[1] += 1
                _s_t2 = _s_clock()
                _s_parent[0] += _s_t2 - _s_t0
                _s_rec[3] += _s_t2 - _s_t1
    return wrapper
"""
_GENERIC = "*args, **kwargs"
_FACTORIES: dict[str, Callable] = {}


def _parameters(fn: Callable) -> str:
    """A parameter list that forwards every valid call of ``fn`` unchanged."""
    code = getattr(fn, "__code__", None)
    if (
        code is None
        or code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
        or code.co_kwonlyargcount
    ):
        return _GENERIC
    names = code.co_varnames[: code.co_argcount]
    if any(name.startswith("_s_") for name in names):
        return _GENERIC
    return ", ".join(names)


def _factory(params: str) -> Callable:
    """``make(rec, stack, fn, clock)`` for wrappers taking ``params``."""
    make = _FACTORIES.get(params)
    if make is None:
        namespace: dict[str, Any] = {}
        exec(_WRAPPER.format(params=params), namespace)
        make = _FACTORIES[params] = namespace["_s_make"]
    return make


# ----------------------------------------------------------------------
# Overhead calibration
# ----------------------------------------------------------------------
def _nothing() -> None:
    return None


def _pair(a: Any, b: Any) -> Any:
    return a


def _triple(a: Any, b: Any, c: Any) -> Any:
    return a


def _varargs(*args: Any, **kwargs: Any) -> Any:
    return args


class _IdleFacility:
    """Stands in for a Facility: the request hook reads ``engine.pending``."""

    def __init__(self) -> None:
        from repro.sim.engine import Engine

        self.engine = Engine()


def _decide_noop(*args: Any) -> tuple[None, None]:
    return None, None


def _crash_noop(*args: Any) -> list[Any]:
    return []


def _loop_ns(fn: Callable, args: tuple, n: int) -> int:
    t0 = clock()
    for _ in range(n):
        fn(*args)
    return clock() - t0


def calibrate(n: int = 20_000, repeats: int = 7) -> dict[str, float]:
    """Per-span wrapper cost in ns around a no-op, per wrapper kind.

    ``inner:<kind>`` is the unmeasured cost inside a span's own interval
    beyond the wrapped call itself (charged to that span's self time);
    ``outer:<kind>`` is the unmeasured cost outside it (charged to the
    parent); ``book`` is the bookkeeping a span times itself, the
    yardstick :func:`in_situ_scale` compares against.  Each is the median
    over ``repeats`` timed loops of ``n`` calls.
    """
    # One no-op per (hook, shape) the real spans use; hooks read their
    # argument or result, so each takes and returns values of the real shape.
    samples: dict[tuple[str | None, Callable], tuple] = {
        (None, _pair): (None, None),
        (None, _varargs): (None, None),
        ("request", _triple): (_IdleFacility(), 0.0, _nothing),
        ("decide", _decide_noop): (),
        ("crash", _crash_noop): (),
    }
    inner: dict[str, list[float]] = {}
    outer: dict[str, list[float]] = {}
    book: list[float] = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(n):
            pass
        empty = clock() - t0
        for (hook, body), args in samples.items():
            call = (_loop_ns(body, args, n) - empty) / n
            tracer = Tracer()
            span = tracer.span("inner", body, hook)
            tracer.span("outer", _loop_ns)(span, args, n)
            # Untraced, one iteration costs loop + call.  Traced, the
            # outer span's self time holds loop + (call into the wrapper
            # + its outside part) per iteration, and the inner span's
            # holds call + the inside part.
            kind = tracer.kinds["inner"]
            inner.setdefault(kind, []).append(tracer.stats["inner"][1] / n - call)
            outer.setdefault(kind, []).append((tracer.stats["outer"][1] - empty) / n)
            if kind == "None:exact":
                book.append(tracer.stats["inner"][3] / n)
    result = {f"inner:{k}": statistics.median(v) for k, v in inner.items()}
    result.update({f"outer:{k}": statistics.median(v) for k, v in outer.items()})
    result["book"] = statistics.median(book)
    return result


def in_situ_scale(stats: dict[str, list[int]], calibration: dict[str, float]) -> float:
    """How much dearer the wrapper is inside the simulator than around a no-op.

    The bookkeeping after ``t1`` is the one part of the wrapper every
    nested span times in place; its mean over the run, divided by its
    calibrated cost, scales the parts that cannot be timed.  Inside the
    simulator caches and branch predictors are shared with the program,
    so the ratio is above 1 (1.2-1.8 on a shared 2-vCPU VM).
    """
    nested = sum(rec[2] for rec in stats.values())
    if not nested or calibration["book"] <= 0:
        return 1.0
    return sum(rec[3] for rec in stats.values()) / nested / calibration["book"]


def layer_budget(
    stats: dict[str, list[int]],
    kinds: dict[str, str],
    calibration: dict[str, float],
) -> dict[str, dict[str, float]]:
    """Corrected per-layer calls and self ns, summed over the layer's spans.

    A span's outside cost lands in whichever span called it.  Parents are
    not told which kind each child was, so every child is charged the
    outside cost averaged over all calls by kind, which keeps the total
    exact.
    """
    scale = in_situ_scale(stats, calibration)
    calls_total = sum(rec[0] for rec in stats.values()) or 1
    outer = scale * sum(
        rec[0] * calibration[f"outer:{kinds[key]}"] for key, rec in stats.items()
    ) / calls_total
    budget = {layer: {"calls": 0.0, "self_ns": 0.0} for layer in LAYERS}
    for key, (calls, self_ns, children, _book) in stats.items():
        inner = calibration[f"inner:{kinds[key]}"] * scale
        entry = budget.setdefault(layer_of(key), {"calls": 0.0, "self_ns": 0.0})
        entry["calls"] += calls
        entry["self_ns"] += self_ns - calls * inner - children * outer
    return budget


# ----------------------------------------------------------------------
# cProfile cross-check
# ----------------------------------------------------------------------
#: Module (relative to the ``repro`` package) -> layer, for the fold.
PROFILE_MODULES = {
    "sim/engine.py": "calendar",
    "sim/events.py": "calendar",
    "runtime/arrivals.py": "arrivals",
    "workloads/trace.py": "arrivals",
    "cluster/cluster.py": "dispatch",
    "cluster/server.py": "dispatch",
    "cluster/request.py": "dispatch",
    "fs/simulation.py": "dispatch",
    "runtime/routing.py": "routing",
    "sim/resources.py": "facility",
    "metrics/latency.py": "completion",
    "runtime/telemetry.py": "telemetry",
    "runtime/loop.py": "tuning",
    "core/": "tuning",
    "placement/": "tuning",
    "cluster/mover.py": "mover",
    "cluster/fileset.py": "mover",
    "membership/": "membership",
    "runtime/result.py": "results",
    "metrics/summary.py": "results",
    "fs/cluster.py": "fs.execute",
    "fs/paths.py": "fs.resolve",
    "fs/": "fs.execute",
}

#: Functions whose layer differs from their module's.  ``None`` means
#: "the layer of whoever called it" (shared helpers).
PROFILE_FUNCTIONS: dict[tuple[str, str], str | None] = {
    ("cluster/cluster.py", "_on_complete"): "completion",
    ("cluster/server.py", "_done"): "completion",
    ("cluster/request.py", "complete"): "completion",
    ("cluster/cluster.py", "_on_move_done"): "mover",
    ("cluster/cluster.py", "crash_server"): "membership",
    ("cluster/cluster.py", "reinject"): "membership",
    ("cluster/cluster.py", "membership_assignment"): "membership",
    ("cluster/cluster.py", "_on_fault"): "membership",
    ("cluster/cluster.py", "build_tuning_context"): "tuning",
    ("cluster/cluster.py", "decide"): "tuning",
    ("cluster/cluster.py", "realize"): "tuning",
    ("cluster/cluster.py", "_refresh_replicas"): "tuning",
    ("cluster/cluster.py", "planned_assignment"): "tuning",
    ("cluster/cluster.py", "<dictcomp>"): None,
    ("cluster/cluster.py", "_result"): "results",
    ("metrics/latency.py", "reports"): "tuning",
    ("metrics/latency.py", "interval_report"): "tuning",
    ("metrics/latency.py", "series"): "results",
    ("metrics/latency.py", "tail_summary"): "results",
    ("metrics/latency.py", "_columns"): None,
    ("metrics/latency.py", "_window_slice"): None,
    ("fs/simulation.py", "_serve"): "completion",
    ("fs/simulation.py", "_finish_move"): "mover",
    ("fs/simulation.py", "decide"): "tuning",
    ("fs/simulation.py", "realize"): "tuning",
    ("fs/simulation.py", "build_tuning_context"): "tuning",
    ("fs/cluster.py", "fileset_of"): "fs.resolve",
    ("fs/cluster.py", "owner_set_of"): "fs.owner_set",
}


def _module_layer(filename: str, funcname: str) -> str | None:
    """The layer of a function, or ``None`` when it takes its callers'
    (shared helpers, and all code outside the package)."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0:
        return None
    rel = path[at + len("/repro/"):]
    if (rel, funcname) in PROFILE_FUNCTIONS:
        return PROFILE_FUNCTIONS[(rel, funcname)]
    for prefix, layer in PROFILE_MODULES.items():
        if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix)):
            return layer
    return "other"


def profile_shares(stats: Any) -> dict[str, float]:
    """Fold a ``pstats.Stats`` table's tottime into layer shares.

    Functions outside the package (numpy, heapq, hashlib, builtins) and
    shared helpers take the layers of their callers, weighted by the
    time each caller accounts for.
    """
    table = stats.stats
    memo: dict[Any, dict[str, float]] = {}

    def resolve(func: Any, depth: int) -> dict[str, float]:
        if func in memo:
            return memo[func]
        filename, _line, funcname = func
        layer = _module_layer(filename, funcname)
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        weights = {c: v[2] for c, v in callers.items() if v[2] > 0}
        total = sum(weights.values())
        if depth > 8 or total <= 0:
            memo[func] = {"other": 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # breaks recursion cycles
        mix: dict[str, float] = {}
        for caller, weight in weights.items():
            for name, share in resolve(caller, depth + 1).items():
                mix[name] = mix.get(name, 0.0) + share * weight / total
        memo[func] = mix
        return mix

    folded: dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        for layer, share in resolve(func, 0).items():
            folded[layer] = folded.get(layer, 0.0) + tottime * share
    grand = sum(folded.values()) or 1.0
    return {layer: value / grand for layer, value in folded.items()}
