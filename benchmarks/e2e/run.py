"""End-to-end benchmark: host µs per simulated request, plus a per-layer budget.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all workloads, report
    python3 benchmarks/e2e/run.py --quick              # small shapes, smoke
    python3 benchmarks/e2e/run.py --workloads fig6-r1,fs-ops-r2-jsq2 --out a.json
    python3 benchmarks/e2e/run.py --compare a.json b.json
    python3 benchmarks/e2e/run.py --workload fig6-r1 --seed 3 --seconds 12 --trace 0

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.  Without it, every workload in ``--workloads`` is
measured with tracing and a readable report is printed.

Each workload runs in its own child process with contracts compiled out,
a pinned hash seed and one thread; the parent only waits, so one process
is busy at a time.  Inside the child: set up (generate inputs, build the
simulator) several times, one warm-up run, untimed; then timed untraced
runs, each on a freshly built simulator, until ``--seconds`` have passed;
then, with tracing, untraced/traced run pairs for another half of
``--seconds``.  Every run must conserve requests and produce the same
digest of its simulated outputs, traced or not.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-up is repeated at least SETUP_MIN times, and more (up to SETUP_MAX)
#: while SETUP_SECONDS last; ``setup_s`` is the median.  Cheap set-ups
#: get more repeats, which is what keeps a ~15 ms median steady.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 25, 0.5
#: Fewest timed untraced runs, however long each takes.
MIN_RUNS = 3
#: Workloads that get one extra cProfile run in the report.
PROFILED = ("fig6-r1", "fig6-r3-jsq2")
#: A child that has not finished by then is killed, so one invocation
#: always ends within 180 s.
CHILD_TIMEOUT_S = 170
#: Largest |unattributed share| at which the traced budget "closes".
BUDGET_TOLERANCE = 0.15
#: ``--compare`` lets ``setup_s`` move by its bound or by this many
#: seconds, whichever is larger: a ~15 ms set-up swings by a few ms
#: with the machine's load, more than any share bound allows.
SETUP_FLOOR_S = 0.005


# ----------------------------------------------------------------------
# Child: measure one workload
# ----------------------------------------------------------------------
def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(
    name: str, seed: int, seconds: float, quick: bool, trace: bool, profile: bool
) -> dict[str, Any]:
    """Everything one invocation reports for one workload."""
    import resource

    import repro
    from workloads import digest, missing, simulated_stats

    # Measure this checkout's code, never an installed copy.
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")

    clock = time.perf_counter_ns
    workload = WORKLOADS[name]
    setups: list[tuple[int, int]] = []
    inputs = sim = None
    setup_deadline = clock() + int(SETUP_SECONDS * 1e9)
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and clock() < setup_deadline
    ):
        inputs = sim = None
        gc.collect()
        t0 = clock()
        inputs = workload.inputs(seed, quick)
        t1 = clock()
        sim = workload.build(inputs, seed)
        setups.append((t1 - t0, clock() - t1))
    n = workload.size(inputs)

    digests: set[str] = set()
    attempted = failed = 0
    builds: list[int] = []

    def check(result) -> None:
        nonlocal attempted, failed
        digests.add(digest(result))
        attempted += n
        failed += missing(result, n)

    def fresh():
        gc.collect()
        t0 = clock()
        built = workload.build(inputs, seed)
        builds.append(clock() - t0)
        gc.collect()
        return built

    warm = sim.run()
    check(warm)
    simulated = simulated_stats(warm)
    first_digest = digest(warm)
    del warm, sim

    runs: list[int] = []
    deadline = clock() + int(seconds * 1e9)
    # Another run starts only if at least half of it fits before the
    # deadline, so an invocation overshoots --seconds by half a run at most.
    while len(runs) < MIN_RUNS or clock() + runs[-1] // 2 < deadline:
        run_sim = fresh()
        t0 = clock()
        result = run_sim.run()
        runs.append(clock() - t0)
        check(result)
        del result, run_sim

    out: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "requests": n,
        "runs_us_per_request": [r / n / 1e3 for r in runs],
        "setup_s": [(a + b) / 1e9 for a, b in setups],
        "inputs_s": [a / 1e9 for a, _ in setups],
        "digest": first_digest,
        "simulated": simulated,
    }
    if trace:
        out["trace"] = _traced(fresh, check, seconds)
    if profile:
        out["profile"] = _profiled(fresh, check)
    out["build_s"] = [b / 1e9 for b in builds]
    out["digests_equal"] = len(digests) == 1
    out["attempted"] = attempted
    out["failed"] = failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _traced(fresh, check, seconds) -> dict:
    """Untraced/traced run pairs for ``seconds / 2`` (at least one pair).

    Each traced run follows an untraced run of the same inputs, so the
    tracer's cost and the budget's closure are judged against runs made
    close together, which drift less with the machine's load than runs
    made apart.
    """
    from tracer import Tracer, calibrate

    clock = time.perf_counter_ns
    calibration = calibrate()
    tracer = Tracer()
    pairs: list[tuple[int, int]] = []
    events = 0
    deadline = clock() + int(seconds * 0.5e9)
    while not pairs or clock() + sum(pairs[-1]) // 2 < deadline:
        sim = fresh()
        t0 = clock()
        check(sim.run())
        untraced = clock() - t0
        sim = fresh()
        tracer.install(sim)
        try:
            t0 = clock()
            result = sim.run()
            traced = clock() - t0
        finally:
            tracer.restore()
        check(result)
        events += sim.engine.events_fired
        pairs.append((untraced, traced))
        del result, sim
    return {
        "runs": len(pairs),
        "untraced_ns": statistics.median(u for u, _ in pairs),
        "overhead_ns": statistics.median(t - u for u, t in pairs),
        "events": events,
        "stats": tracer.stats,
        "kinds": tracer.kinds,
        "calibration": calibration,
        "peak_pending": tracer.peak_pending,
        "changed_rounds": tracer.changed_rounds,
        "orphans": tracer.orphans,
    }


def _profiled(fresh, check) -> dict[str, float]:
    """One cProfile run folded into layer shares."""
    import cProfile
    import pstats

    from tracer import profile_shares

    sim = fresh()
    profiler = cProfile.Profile()
    profiler.enable()
    result = sim.run()
    profiler.disable()
    check(result)
    return profile_shares(pstats.Stats(profiler))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(m: dict[str, Any]) -> dict[str, float]:
    """The gated metrics of one invocation."""
    runs = m["runs_us_per_request"]
    return {
        "us_per_request": statistics.median(runs),
        "us_per_request_min": min(runs),
        "setup_s": statistics.median(m["setup_s"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def budget_of(m: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Corrected per-layer calls and self ns per traced run."""
    from tracer import layer_budget

    t = m["trace"]
    budget = layer_budget(t["stats"], t["kinds"], t["calibration"])
    for entry in budget.values():
        entry["calls"] /= t["runs"]
        entry["self_ns"] /= t["runs"]
    return budget


def per_layer(m: dict[str, Any]) -> dict[str, float]:
    """The traced metrics of one invocation (names as in BENCHMARK.json)."""
    from tracer import in_situ_scale

    t = m["trace"]
    runs = t["runs"]
    n = m["requests"]
    budget = budget_of(m)
    untraced = t["untraced_ns"]

    def calls(key: str) -> float:
        return t["stats"].get(key, [0])[0] / runs

    def self_ns(layer: str) -> float:
        return budget[layer]["self_ns"]

    def us_per_req(layer: str) -> float:
        return self_ns(layer) / 1e3 / n

    rounds = calls("tuning:TuningLoop._round")
    moves = (
        calls("mover:FileSetMover.start_move")
        + calls("mover:FullSystemSimulation._finish_move")
    )
    events = calls("membership:MembershipDirector.apply")
    tuning_ns = sum(self_ns(x) for x in budget if x.startswith("tuning"))
    attributed = sum(e["self_ns"] for e in budget.values())
    out = {
        "calendar.events_per_req": t["events"] / runs / n,
        "calendar.self_us_per_req": us_per_req("calendar"),
        "calendar.peak_pending": float(t["peak_pending"]),
        "calendar.cancelled_frac": calls("calendar:Engine._note_cancelled")
        / max(calls("calendar:Engine.schedule_at"), 1),
        "arrivals.self_us_per_req": us_per_req("arrivals"),
        "dispatch.self_us_per_req": us_per_req("dispatch"),
        "dispatch.calls_per_req": (
            calls("dispatch:ClusterSimulation._route")
            + calls("dispatch:FullSystemSimulation._on_arrival")
        ) / n,
        "routing.decisions_per_req": budget["routing"]["calls"] / n,
        "facility.self_us_per_req": us_per_req("facility"),
        "completion.self_us_per_req": us_per_req("completion"),
        "telemetry.records_per_req": budget["telemetry"]["calls"] / n,
        "tuning.rounds": rounds,
        "tuning.ms_per_round": tuning_ns / 1e6 / max(rounds, 1),
        "tuning.changed_frac": t["changed_rounds"] / runs / max(rounds, 1),
        "mover.moves": moves,
        "mover.us_per_move": self_ns("mover") / 1e3 / max(moves, 1),
        "mover.redirect_frac": calls("mover:FileSetState.redirect_move") / max(moves, 1),
        "membership.events": events,
        "membership.orphans_per_event": t["orphans"] / runs / max(events, 1),
        "results.ms": self_ns("results") / 1e6,
        "fs.resolve.calls_per_op": calls("fs.resolve:FileSetRegistry.fileset_of") / n,
        "setup.inputs_s": statistics.median(m["inputs_s"]),
        "setup.build_s": statistics.median(m["build_s"]),
        "trace.overhead_frac": t["overhead_ns"] / untraced,
        "trace.overhead_scale": in_situ_scale(t["stats"], t["calibration"]),
        "trace.unattributed_frac": (untraced - attributed) / untraced,
    }
    for sub in ("reports", "decide", "realize"):
        out[f"tuning.{sub}.ms_per_round"] = self_ns(f"tuning.{sub}") / 1e6 / max(rounds, 1)
    for layer in budget:
        if layer.startswith("tuning."):
            continue
        share = tuning_ns if layer == "tuning" else self_ns(layer)
        out[f"{layer}.self_frac"] = share / untraced
    return out


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(m: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The one-line result the ``--workload`` mode prints last."""
    spec = load_spec()
    values = per_layer(m) if trace else end_to_end(m)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": correct(m),
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {
            w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted
        },
    }


def correct(m: dict[str, Any]) -> bool:
    """Conservation held on every run and every run had one digest."""
    return m["failed"] == 0 and m["digests_equal"]


# ----------------------------------------------------------------------
# Parent: one child per workload
# ----------------------------------------------------------------------
def run_child(
    name: str, seed: int, seconds: float, quick: bool, trace: bool, profile: bool
) -> dict[str, Any]:
    """Measure one workload in a fresh single-threaded child process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        REPRO_CONTRACTS="off",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    if quick:
        cmd.append("--quick")
    if profile:
        cmd.append("--profile")
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{name}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def print_report(m: dict[str, Any]) -> None:
    e2e = end_to_end(m)
    runs = m["runs_us_per_request"]
    q1, med, q3 = _quartiles(runs)
    print(f"\n== {m['workload']}  ({m['requests']:,} simulated requests, seed {m['seed']}"
          f"{', quick' if m['quick'] else ''}) ==")
    print("end to end (gated)")
    print(f"  us_per_request      {med:9.3f} us   q1 {q1:.3f}  q3 {q3:.3f}  n={len(runs)}")
    print(f"  us_per_request_min  {e2e['us_per_request_min']:9.3f} us")
    print(f"  setup_s             {e2e['setup_s']:9.4f} s    n={len(m['setup_s'])}")
    print(f"  peak_rss_mb         {e2e['peak_rss_mb']:9.1f} MiB")
    print(f"  failed_frac         {m['failed'] / m['attempted']:9.3g}      "
          f"({m['failed']} of {m['attempted']:,} requests)")
    s = m["simulated"]
    print("simulated (not gated)")
    print(f"  digest {m['digest']}  ({'stable' if m['digests_equal'] else 'DIFFERS'} "
          f"across runs)")
    print(f"  mean latency {s['mean_latency_s'] * 1e3:.3f} ms  p99 "
          f"{s['p99_latency_s'] * 1e3:.3f} ms  moves {s['moves']:.0f}  "
          f"tuning rounds {s['tuning_rounds']:.0f}")
    if "trace" not in m:
        return
    layers = per_layer(m)
    budget = budget_of(m)
    t = m["trace"]
    closes = abs(layers["trace.unattributed_frac"]) <= BUDGET_TOLERANCE
    print(f"per-layer budget (traced runs {t['runs']}, tracer overhead "
          f"{layers['trace.overhead_frac']:+.0%}, wrapper cost in place "
          f"{layers['trace.overhead_scale']:.2f}x its no-op calibration, unattributed "
          f"{layers['trace.unattributed_frac']:+.1%}: "
          f"{'closes' if closes else 'DOES NOT CLOSE'})")
    print(f"  {'layer':15s} {'calls/req':>10s} {'self us/req':>12s} {'share':>7s}")
    total = sum(e["self_ns"] for e in budget.values()) or 1.0
    for layer, entry in budget.items():
        if not entry["calls"]:
            continue
        print(f"  {layer:15s} {entry['calls'] / m['requests']:10.3f} "
              f"{entry['self_ns'] / 1e3 / m['requests']:12.3f} "
              f"{entry['self_ns'] / total:7.1%}")
    if "profile" in m:
        print_profile_check(budget, m["profile"])
    print("  " + ", ".join(f"{k}={v:.4g}" for k, v in layers.items()
                           if not k.endswith("self_frac")))


def print_profile_check(budget: dict[str, dict[str, float]], profile: dict[str, float]) -> None:
    """Tracer vs cProfile shares per top-level layer, with disagreements flagged."""
    from tracer import group_of

    traced: dict[str, float] = {}
    for layer, entry in budget.items():
        traced[group_of(layer)] = traced.get(group_of(layer), 0.0) + entry["self_ns"]
    total = sum(traced.values()) or 1.0
    print("  cProfile cross-check (share of attributed time)")
    print(f"  {'layer':15s} {'tracer':>7s} {'cProfile':>9s}")
    for layer in sorted(set(traced) | set(profile)):
        a = traced.get(layer, 0.0) / total
        b = profile.get(layer, 0.0)
        if a < 0.005 and b < 0.005:
            continue
        flag = "  <-- differs by >5 pp" if max(a, b) >= 0.05 and abs(a - b) > 0.05 else ""
        print(f"  {layer:15s} {a:7.1%} {b:9.1%}{flag}")


# ----------------------------------------------------------------------
# Compare two --out files
# ----------------------------------------------------------------------
def samples_of(m: dict[str, Any], metric: str) -> tuple[float, list[float]]:
    """(value, the samples whose spread is its noise) for one metric."""
    value = end_to_end(m)[metric]
    if metric.startswith("us_per_request"):
        return value, m["runs_us_per_request"]
    if metric == "setup_s":
        return value, m["setup_s"]
    return value, [value]


def verdict(a: float, a_samples: list[float], b: float, b_samples: list[float],
            bound: float) -> str:
    """Lower-is-better verdict of B against A for one metric.

    When A's own interquartile spread is wider than the bound the answer
    is ``unresolved`` unless every B sample beats every A sample.
    """
    q1, _, q3 = _quartiles(a_samples)
    spread = (q3 - q1) / a if a else 0.0
    change = b / a - 1.0 if a else 0.0
    if spread > bound:
        return "better" if max(b_samples) < min(a_samples) else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a, encoding="utf-8") as fh:
        a_all = json.load(fh)["workloads"]
    with open(path_b, encoding="utf-8") as fh:
        b_all = json.load(fh)["workloads"]
    print(f"{'workload':18s} {'metric':20s} {'A':>11s} {'B':>11s} {'change':>8s} "
          f"{'bound':>6s}  verdict")
    for name in [w for w in WORKLOADS if w in a_all and w in b_all]:
        a, b = a_all[name], b_all[name]
        if a["digest"] != b["digest"]:
            print(f"{name:18s} digest changed: {a['digest']} -> {b['digest']}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va, sa = samples_of(a, key)
            vb, sb = samples_of(b, key)
            bound = metric["bound"]
            if key == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / va)
            print(f"{name:18s} {key:20s} {va:11.4g} {vb:11.4g} {vb / va - 1:+8.1%} "
                  f"{bound:6.0%}  {verdict(va, sa, vb, sb, bound)}")
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; print the one-line JSON result")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads for the report")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed untraced run time per workload "
                             "(default: run_seconds in BENCHMARK.json; quick: 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics "
                             "(the report always traces)")
    parser.add_argument("--quick", action="store_true", help="small shapes, minimal runs")
    parser.add_argument("--out", help="write every measurement to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(load_spec()["run_seconds"])
    if args.child:
        m = measure(args.child, args.seed, seconds, args.quick, bool(args.trace),
                    args.profile)
        print(json.dumps(m))
        return 0

    single = args.workload is not None
    names = [args.workload] if single else args.workloads.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {', '.join(WORKLOADS)}")
    if single:
        m = run_child(args.workload, args.seed, seconds, args.quick, bool(args.trace), False)
        print(json.dumps(result_line(m, bool(args.trace))))
        return 0 if correct(m) else 1

    results: dict[str, Any] = {}
    ok = True
    for name in names:
        m = run_child(name, args.seed, seconds, args.quick, True, name in PROFILED)
        results[name] = m
        print_report(m)
        ok = ok and correct(m)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": seconds, "quick": args.quick,
                       "workloads": results}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
