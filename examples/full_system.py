"""The full system, end to end: timed, tuned, and semantically real.

Run:  python examples/full_system.py

Everything at once — clients issue real metadata operations; operations
queue at heterogeneous FIFO servers; the elected delegate rescales ANU's
mapped regions from observed waits; reconfiguration physically moves
namespace images over the shared disk after a 5-10 s flush/initialize
delay.  At the end, the namespace is byte-identical to an untimed replay
of the same operation stream — placement never loses or misroutes an
operation — while the slow server's load has been tuned away.
"""

from repro.fs import (
    FsWorkloadConfig,
    FullSystemConfig,
    FullSystemSimulation,
    MetadataCluster,
    generate_operations,
    populate,
)

ROOTS = {f"vol{i:02d}": f"/vol{i:02d}" for i in range(16)}
SPEEDS = {f"server{i}": float(2 * i + 1) for i in range(5)}  # 1,3,5,7,9
WORKLOAD = FsWorkloadConfig(
    n_operations=20_000, duration=3_000.0, popularity_skew=1.3, seed=8,
)


def main() -> None:
    ops = generate_operations(MetadataCluster(["gen"], ROOTS), WORKLOAD)
    print(f"operation stream: {len(ops)} metadata ops over "
          f"{WORKLOAD.duration:.0f}s across {len(ROOTS)} file sets")

    sim = FullSystemSimulation(
        FullSystemConfig(
            server_speeds=SPEEDS,
            fileset_roots=ROOTS,
            tuning_interval=120.0,
            mean_op_cost=1.0,
            seed=2,
        ),
        ops,
    )
    populate(sim.cluster, WORKLOAD)
    result = sim.run()

    print(f"\ncompleted: {result.total_requests - result.ops_failed}, "
          f"failed: {result.ops_failed}")
    print(f"tuning rounds: {result.tuning_rounds}, "
          f"file-set images moved over the shared disk: "
          f"{result.moves_completed}")

    print("\nper-server steady state (last 10 minutes):")
    for server in result.series.servers:
        count = result.series.counts[server][-10:].sum()
        wait = result.series.tail_window_mean(server, 10) * 1000
        print(f"  {server} (speed {SPEEDS[server]:.0f}): "
              f"{count:6.0f} ops, mean wait {wait:7.2f} ms")

    # Verify semantic correctness against an untimed replay.
    ref = MetadataCluster(["ref"], ROOTS)
    populate(ref, WORKLOAD)
    for op in ops:
        ref.submit(op)
    mismatches = 0
    for fileset in ref.registry.filesets:
        ref_ns = ref.services["ref"]._owned[fileset]
        owner = result.cluster.owner_of(fileset)
        timed_ns = result.cluster.services[owner]._owned[fileset]
        if {p for p, _ in ref_ns.walk()} != {p for p, _ in timed_ns.walk()}:
            mismatches += 1
    print(f"\nnamespace equivalence vs untimed replay: "
          f"{len(ROOTS) - mismatches}/{len(ROOTS)} file sets identical")


if __name__ == "__main__":
    main()
