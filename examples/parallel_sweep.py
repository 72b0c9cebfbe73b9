"""A parameter sweep whose output does not depend on how it ran.

Run:  python examples/parallel_sweep.py

The paper's evaluation is a grid: every placement policy crossed with
many seeds, each cell one full simulation.  :mod:`repro.sweep` turns
that grid into a *plan* — cells with content-derived ids, canonically
ordered — and runs it under a pluggable executor (in-process, a spawn
``multiprocessing.Pool``, or ``concurrent.futures``).  Because workers
share no process state, exchange only plain dicts, and the merge is
keyed by cell id rather than completion order (properties CI's
``sweep-smoke`` job checks by comparing serial and process-pool output
byte for byte), the merged JSONL is a pure function of the plan: byte-identical at any
worker count, under any executor, across any interrupt/resume split.

This script runs the same small grid three ways — serially, on a
2-worker process pool, and split across two resumed invocations — and
shows all three produce the same merged digest.
"""

import json
import tempfile
from pathlib import Path

from repro.sweep import GridSpec, run_sweep

# Two policies x six seeds = 12 cells, each a quick-sized simulation.
SPEC = GridSpec(
    axes={"policy": ["anu", "simple-random"]},
    seeds=range(6),
    base={
        "n_filesets": 12,
        "n_requests": 60,
        "duration": 120.0,
        "tuning_interval": 30.0,
    },
)


def main() -> None:
    plan = SPEC.build_plan()
    print(f"plan: {len(plan)} cells, digest {plan.digest()[:16]}...")
    print(f"first cell id {plan.cells[0].cell_id} "
          "(derived from its params+seed, not its position)\n")

    with tempfile.TemporaryDirectory() as tmp:
        # 1. The reference run: one process, cells in plan order.
        serial = run_sweep(plan, Path(tmp) / "serial", executor="serial")
        print(f"serial:          ran {serial.ran:2d}, "
              f"merged {serial.merged_digest[:16]}...")

        # 2. A spawn-based process pool.  Workers race; rows land in
        # shards in completion order; the merge re-keys by cell id.
        pooled = run_sweep(
            plan, Path(tmp) / "process", executor="process", jobs=2
        )
        print(f"process pool x2: ran {pooled.ran:2d}, "
              f"merged {pooled.merged_digest[:16]}...")

        # 3. Interrupt and resume: compute 5 cells serially, then let a
        # process pool finish the rest into the same output directory.
        outdir = Path(tmp) / "resumed"
        partial = run_sweep(plan, outdir, executor="serial", max_cells=5)
        print(f"partial run:     ran {partial.ran:2d}, "
              f"complete={partial.complete}")
        resumed = run_sweep(plan, outdir, executor="process", jobs=2)
        print(f"resumed run:     ran {resumed.ran:2d}, "
              f"resumed {resumed.resumed}, "
              f"merged {resumed.merged_digest[:16]}...\n")

        digests = {serial.merged_digest, pooled.merged_digest,
                   resumed.merged_digest}
        assert len(digests) == 1, f"executors diverged: {digests}"
        print("all three merged.jsonl files are byte-identical")

        # The rows themselves: one plain-JSON line per cell, carrying
        # the scenario summary plus the cell's telemetry digest chain
        # head (the proof the simulation inside was deterministic too).
        lines = (outdir / "merged.jsonl").read_text().splitlines()
        by_policy: dict[str, list[float]] = {}
        for line in lines:
            row = json.loads(line)
            by_policy.setdefault(row["params"]["policy"], []).append(
                row["summary"]["mean_latency"]
            )
        print(f"\nper-policy mean latency over {len(SPEC.seeds)} seeds:")
        for policy, latencies in sorted(by_policy.items()):
            mean = sum(latencies) / len(latencies)
            print(f"  {policy:12s} {mean:8.3f}")


if __name__ == "__main__":
    main()
