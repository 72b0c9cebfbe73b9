"""``repro-sweep``: run a (policy x seed) grid from the command line.

Exit codes: 0 — the plan completed (merged output written); 1 — the run
is still partial (``--max-cells`` stopped early; rerun to resume);
2 — usage error (bad grid, mismatched output directory, unknown policy).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from ..placement.registry import available_policies
from ..runtime.routing import ROUTER_FACTORIES
from .grid import GridSpec, PlanError
from .orchestrator import EXECUTORS, run_sweep
from .worker import LIMP_SCHEDULES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description=(
            "Sweep a (policy x seed) grid through the queueing simulator, "
            "sharding cells across an executor; merged output is "
            "byte-identical regardless of executor kind or worker count."
        ),
    )
    parser.add_argument(
        "--out",
        help="output directory (plan.json, shards/, merged.jsonl)",
    )
    parser.add_argument(
        "--policies", default="anu,simple-random",
        help="comma-separated policy axis (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds", type=int, default=10, metavar="N",
        help="sweep seeds 0..N-1 (default: %(default)s)",
    )
    parser.add_argument(
        "--filesets", type=int, default=40,
        help="synthetic file sets per cell (default: %(default)s)",
    )
    parser.add_argument(
        "--requests", type=int, default=400,
        help="synthetic requests per cell (default: %(default)s)",
    )
    parser.add_argument(
        "--duration", type=float, default=600.0,
        help="trace duration in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--alpha", type=float, default=4.0,
        help="Pareto shape of the file-set popularity skew "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--tuning-interval", type=float, default=60.0,
        help="delegate tuning period in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--limps", default=None,
        help="comma-separated gray-failure axis (none, sustained, ramp, "
             "couple); omitted = no limp axis",
    )
    parser.add_argument(
        "--routers", default=None,
        help="comma-separated routing-plane axis (single, jsq2, jsq3, "
             "wjsq2, wjsq3); omitted = no router axis (single-owner "
             "dispatch)",
    )
    parser.add_argument(
        "--replication", default=None, metavar="R[,R...]",
        help="comma-separated owner-set-size axis (e.g. 1,2,3); omitted "
             "= no replication axis (r=1)",
    )
    parser.add_argument(
        "--executor", choices=EXECUTORS, default="serial",
        help="execution backend (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallel executors (default: %(default)s)",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="compute at most N outstanding cells, then stop (resumable)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny per-cell workload (12 file sets, 60 requests, 120 s)",
    )
    parser.add_argument(
        "--table", action="store_true",
        help="after a complete run, print a markdown comparison table "
             "(policy x r x router x limp, seed-aggregated) to stdout",
    )
    parser.add_argument(
        "--list-policies", action="store_true",
        help="print the policy registry and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-sweep``; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_policies:
        for name in available_policies():
            print(name)
        return 0
    if args.out is None:
        parser.error("--out is required (unless --list-policies)")

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown = sorted(set(policies) - set(available_policies()))
    if not policies or unknown:
        parser.error(
            f"unknown policies: {', '.join(unknown)}" if unknown
            else "--policies needs at least one policy"
        )
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    axes: dict[str, list] = {"policy": policies}
    if args.limps is not None:
        limps = [p.strip() for p in args.limps.split(",") if p.strip()]
        unknown = sorted(set(limps) - set(LIMP_SCHEDULES))
        if not limps or unknown:
            parser.error(
                f"unknown limp profiles: {', '.join(unknown)}" if unknown
                else "--limps needs at least one profile"
            )
        axes["limp"] = limps
    if args.routers is not None:
        routers = [p.strip() for p in args.routers.split(",") if p.strip()]
        unknown = sorted(set(routers) - set(ROUTER_FACTORIES))
        if not routers or unknown:
            parser.error(
                f"unknown routers: {', '.join(unknown)}" if unknown
                else "--routers needs at least one router"
            )
        axes["router"] = routers
    if args.replication is not None:
        try:
            levels = [
                int(p.strip())
                for p in args.replication.split(",")
                if p.strip()
            ]
        except ValueError:
            parser.error("--replication must be comma-separated integers")
        if not levels or any(r < 1 for r in levels):
            parser.error("--replication needs integers >= 1")
        axes["r"] = levels

    base = {
        "n_filesets": 12 if args.quick else args.filesets,
        "n_requests": 60 if args.quick else args.requests,
        "duration": 120.0 if args.quick else args.duration,
        "alpha": args.alpha,
        "tuning_interval": 30.0 if args.quick else args.tuning_interval,
    }
    spec = GridSpec(
        axes=axes, seeds=list(range(args.seeds)), base=base
    )

    def progress(done: int, total: int, cell_id: str) -> None:
        sys.stderr.write(f"\r[{done}/{total}] {cell_id}")
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    started = time.perf_counter()
    try:
        result = run_sweep(
            spec.build_plan(),
            args.out,
            executor=args.executor,
            jobs=args.jobs,
            max_cells=args.max_cells,
            progress=progress,
        )
    except (PlanError, ValueError) as exc:
        print(f"repro-sweep: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    done = result.resumed + result.ran
    print(
        f"{result.ran} cell(s) ran, {result.resumed} resumed "
        f"({done}/{result.total}) in {elapsed:.2f}s "
        f"[{args.executor}, jobs={args.jobs}]"
    )
    if result.complete:
        print(f"merged: {result.outdir / 'merged.jsonl'}")
        print(f"digest: {result.merged_digest}")
        if args.table:
            from .table import aggregate, read_rows, render_markdown

            print()
            print(
                render_markdown(
                    aggregate(read_rows(result.outdir / "merged.jsonl"))
                ),
                end="",
            )
        return 0
    print(f"partial: {result.total - done} cell(s) outstanding; rerun to resume")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
