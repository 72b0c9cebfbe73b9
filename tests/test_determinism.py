"""Determinism regression: same seed => bit-identical simulation.

Every figure in EXPERIMENTS.md assumes a run is a pure function of its
configuration and seed.  These tests run the same scenario twice in the
same process and demand *exact* equality — event counts, per-window
latency series arrays, final assignments, and scalar metrics — so any
stray wall-clock read, unseeded draw, or unordered iteration introduced
anywhere in the stack shows up as a hard failure here.
"""

import numpy as np

from repro import (
    ClusterConfig,
    ClusterSimulation,
    SyntheticConfig,
    generate_synthetic,
    paper_servers,
)
from repro.fs import FsWorkloadConfig, MetadataCluster, generate_operations, populate
from repro.fs.simulation import FullSystemConfig, FullSystemSimulation
from repro.placement.anu_policy import ANUPolicy

ROOTS = {f"fs{i}": f"/p{i}" for i in range(6)}
SPEEDS = {f"server{i}": float(2 * i + 1) for i in range(4)}


def _series_fingerprint(series):
    """Every array in a LatencySeries, for exact comparison."""
    return (
        series.window,
        series.times.tolist(),
        {s: series.mean_latency[s].tolist() for s in series.servers},
        {s: series.counts[s].tolist() for s in series.servers},
    )


def _run_cluster_once(seed: int):
    trace = generate_synthetic(
        SyntheticConfig(
            n_filesets=30, n_requests=4000, duration=1000.0, seed=seed
        )
    )
    config = ClusterConfig(
        servers=paper_servers(), tuning_interval=120.0,
        sample_window=60.0, seed=seed,
    )
    sim = ClusterSimulation(config, ANUPolicy(), trace)
    result = sim.run()
    return sim, result


def test_cluster_simulation_replays_bit_identically():
    sim_a, a = _run_cluster_once(seed=7)
    sim_b, b = _run_cluster_once(seed=7)
    # Event log: same number of events fired at the same final clock.
    assert sim_a.engine.events_fired == sim_b.engine.events_fired
    assert sim_a.engine.now == sim_b.engine.now
    # Scalar metrics, exactly (no tolerance).
    assert a.mean_latency == b.mean_latency
    assert a.total_requests == b.total_requests
    assert a.completed == b.completed
    assert a.moves_started == b.moves_started
    assert a.moves_completed == b.moves_completed
    assert a.retries == b.retries
    assert a.tuning_rounds == b.tuning_rounds
    assert a.final_assignment == b.final_assignment
    assert a.utilization == b.utilization
    # Full latency series, array-exact.
    assert _series_fingerprint(a.series) == _series_fingerprint(b.series)


def test_cluster_simulation_diverges_across_seeds():
    """Sanity check that the fingerprint is discriminating at all."""
    _, a = _run_cluster_once(seed=7)
    _, b = _run_cluster_once(seed=8)
    assert (
        a.completed != b.completed
        or a.mean_latency != b.mean_latency
        or a.final_assignment != b.final_assignment
    )


def _run_full_system_once(seed: int):
    workload = FsWorkloadConfig(
        n_operations=1500, duration=900.0, seed=seed, popularity_skew=1.2
    )
    gen_cluster = MetadataCluster(["gen"], ROOTS)
    ops = generate_operations(gen_cluster, workload)
    sim = FullSystemSimulation(
        FullSystemConfig(
            server_speeds=SPEEDS, fileset_roots=ROOTS,
            tuning_interval=120.0, sample_window=60.0,
            mean_op_cost=0.2, seed=seed,
        ),
        ops,
    )
    populate(sim.cluster, workload)
    return sim.run()


def test_full_system_simulation_replays_bit_identically():
    a = _run_full_system_once(seed=11)
    b = _run_full_system_once(seed=11)
    assert a.total_requests == b.total_requests
    assert a.ops_failed == b.ops_failed
    assert a.moves_completed == b.moves_completed
    assert a.tuning_rounds == b.tuning_rounds
    assert a.cluster.ownership() == b.cluster.ownership()
    assert a.cluster.placement.shares() == b.cluster.placement.shares()
    assert _series_fingerprint(a.series) == _series_fingerprint(b.series)


def test_tuning_context_rng_fallback_is_deprecated():
    """The deprecated seed-0 fallback is gone: omitting rng fails at
    build time instead of silently sharing one stream across seeds."""
    import warnings

    import pytest

    from repro.placement.base import TuningContext

    with pytest.raises(ValueError, match="explicit rng"):
        TuningContext(
            time=0.0, filesets=[], servers=["s0"], assignment={}, reports=[]
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an explicit rng must stay silent
        TuningContext(
            time=0.0, filesets=[], servers=["s0"], assignment={}, reports=[],
            rng=np.random.default_rng(1),
        )


def test_harness_contexts_carry_the_run_seeded_policy_stream():
    """The runtime loop plumbs the sim's own policy stream into every
    context — two sims with different seeds must never share policy
    randomness (the regression behind the old default_factory)."""

    class ProbePolicy(ANUPolicy):
        def __init__(self):
            super().__init__()
            self.rngs = []

        def update(self, context):
            self.rngs.append(context.rng)
            return super().update(context)

    def run(seed):
        trace = generate_synthetic(
            SyntheticConfig(
                n_filesets=10, n_requests=500, duration=300.0, seed=seed
            )
        )
        policy = ProbePolicy()
        sim = ClusterSimulation(
            ClusterConfig(servers=paper_servers(), seed=seed), policy, trace
        )
        sim.run()
        return sim, policy

    sim_a, probe_a = run(seed=0)
    sim_b, probe_b = run(seed=1)
    assert probe_a.rngs and probe_b.rngs
    assert all(r is sim_a._policy_rng for r in probe_a.rngs)
    assert all(r is sim_b._policy_rng for r in probe_b.rngs)
    # Different run seeds => streams in different states, not clones.
    assert (
        probe_a.rngs[0].bit_generator.state
        != probe_b.rngs[0].bit_generator.state
    )


def test_trace_generation_is_deterministic():
    cfg = SyntheticConfig(n_filesets=25, n_requests=2000, duration=500.0, seed=3)
    t1 = generate_synthetic(cfg)
    t2 = generate_synthetic(cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.fileset_ids, t2.fileset_ids)
    assert np.array_equal(t1.costs, t2.costs)
    assert t1.fileset_names == t2.fileset_names


def test_trace_thinning_is_deterministic_and_seeded():
    cfg = SyntheticConfig(n_filesets=25, n_requests=2000, duration=500.0, seed=3)
    trace = generate_synthetic(cfg)
    thin_a = trace.thin(0.5, seed=1)
    thin_b = trace.thin(0.5, seed=1)
    thin_c = trace.thin(0.5, seed=2)
    assert np.array_equal(thin_a.times, thin_b.times)
    assert len(thin_a) != len(trace)
    assert not np.array_equal(thin_a.times, thin_c.times)
