"""Sweep orchestration: executors, sharded JSONL, order-free merge.

The orchestrator's single invariant: **the bytes on disk are a function
of the plan, never of the schedule.**  Three mechanisms enforce it —

- every row is serialized canonically (sorted keys) and assigned to a
  shard by *cell id*, so which worker computed it and when cannot move
  it between files;
- shards and the merged output are written in cell-id order at the end
  of the run (rows accumulate in a dict keyed by cell id — a
  commutative reduce — and are sorted before any file is written);
- the merged manifest records per-cell digest chains, so two runs of
  the same plan under different executors/worker counts can be compared
  byte-for-byte and, on mismatch, pinpointed to the first divergent
  cell.

Resume works through the same canonical form: a restarted run re-reads
the shard files, keeps every row whose cell id is in the plan, and runs
only the remainder — the final artifacts are identical to an
uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .grid import PlanError, SweepPlan
from .worker import pool_initializer, run_cell

__all__ = ["EXECUTORS", "SweepResult", "run_sweep"]

#: Supported executor kinds (CLI ``--executor`` values).
EXECUTORS = ("serial", "process", "futures")

#: Invoked after each finished cell: (done_count, total, cell_id).
ProgressFn = Callable[[int, int, str], None]


@dataclass(frozen=True)
class SweepResult:
    """What one orchestrator invocation accomplished."""

    outdir: Path
    total: int
    #: Cells computed by *this* invocation (excludes resumed rows).
    ran: int
    #: Cells already present from prior partial runs.
    resumed: int
    complete: bool
    #: SHA-256 of ``merged.jsonl`` bytes; None until the plan completes.
    merged_digest: str | None


def _shard_path(outdir: Path, shard: int) -> Path:
    return outdir / "shards" / f"shard-{shard:02d}.jsonl"


def _row_line(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def _load_existing(outdir: Path, plan: SweepPlan) -> dict[str, dict]:
    """Rows from prior partial runs, keyed by cell id.

    Rows whose cell id is not in the plan are dropped (stale output from
    an earlier, different grid in the same directory); a malformed
    trailing line — the signature of a run killed mid-write — is
    skipped, and its cell simply re-runs.
    """
    wanted = {c.cell_id for c in plan.cells}
    rows: dict[str, dict] = {}
    for shard in range(plan.n_shards):
        path = _shard_path(outdir, shard)
        if not path.exists():
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            cell_id = row.get("cell")
            if cell_id in wanted:
                rows[cell_id] = row
    return rows


def _check_plan_file(outdir: Path, plan: SweepPlan) -> None:
    """Refuse to mix output from two different plans in one directory."""
    plan_path = outdir / "plan.json"
    if plan_path.exists():
        existing = SweepPlan.from_json(plan_path.read_text(encoding="utf-8"))
        if existing.digest() != plan.digest():
            raise PlanError(
                f"{plan_path} describes a different sweep "
                f"(digest {existing.digest()[:12]}... != "
                f"{plan.digest()[:12]}...); use a fresh --out directory"
            )
    else:
        plan_path.write_text(plan.to_json() + "\n", encoding="utf-8")


def _compute(
    plan: SweepPlan,
    todo: list,
    executor: str,
    jobs: int,
    progress: ProgressFn | None,
    done_already: int,
) -> dict[str, dict]:
    """Run the outstanding cells; returns rows keyed by cell id.

    Completion order is executor-dependent and deliberately discarded:
    the dict is keyed by cell id, and every consumer sorts.
    """
    rows: dict[str, dict] = {}
    done = done_already
    total = len(plan)

    def note(row: dict) -> None:
        nonlocal done
        rows[row["cell"]] = row
        done += 1
        if progress is not None:
            progress(done, total, row["cell"])

    payloads = [cell.payload() for cell in todo]
    if executor == "serial" or jobs <= 1:
        pool_initializer()
        for payload in payloads:
            note(run_cell(payload))
    elif executor == "process":
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(jobs, initializer=pool_initializer) as pool:
            for row in pool.imap_unordered(run_cell, payloads):
                note(row)
    elif executor == "futures":
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=ctx, initializer=pool_initializer
        ) as pool:
            futures = [pool.submit(run_cell, payload) for payload in payloads]
            for future in as_completed(futures):
                note(future.result())
    else:
        raise ValueError(
            f"unknown executor {executor!r}; known: {', '.join(EXECUTORS)}"
        )
    return rows


def _write_shards(outdir: Path, plan: SweepPlan, rows: dict[str, dict]) -> None:
    """Rewrite every shard in canonical (cell-id) order."""
    shard_dir = outdir / "shards"
    shard_dir.mkdir(parents=True, exist_ok=True)
    by_shard: dict[int, list[str]] = {}
    for cell_id in sorted(rows):
        shard = plan.shard_of(cell_id)
        by_shard.setdefault(shard, []).append(_row_line(rows[cell_id]))
    for shard in range(plan.n_shards):
        lines = by_shard.get(shard, [])
        path = _shard_path(outdir, shard)
        if lines:
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        elif path.exists():
            path.unlink()


def _write_merged(
    outdir: Path, plan: SweepPlan, rows: dict[str, dict]
) -> str:
    """Write ``merged.jsonl`` + ``manifest.json``; returns the digest."""
    body = "".join(
        _row_line(rows[cell_id]) + "\n" for cell_id in sorted(rows)
    )
    data = body.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    (outdir / "merged.jsonl").write_bytes(data)
    manifest = {
        "cells": len(rows),
        "merged_digest": digest,
        "plan_digest": plan.digest(),
        "cell_digests": {
            cell_id: rows[cell_id].get("digest", "")
            for cell_id in sorted(rows)
        },
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return digest


def run_sweep(
    plan: SweepPlan,
    outdir: str | Path,
    executor: str = "serial",
    jobs: int = 1,
    max_cells: int | None = None,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """Run ``plan``, writing sharded JSONL plus a canonical merge.

    ``max_cells`` caps how many *outstanding* cells this invocation
    computes (for incremental/interrupted runs); the merged output is
    only written once every cell in the plan has a row, and is then
    byte-identical no matter how the work was split across invocations,
    executors, or worker counts.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; known: {', '.join(EXECUTORS)}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _check_plan_file(outdir, plan)

    rows = _load_existing(outdir, plan)
    resumed = len(rows)
    todo = [cell for cell in plan.cells if cell.cell_id not in rows]
    if max_cells is not None:
        todo = todo[:max_cells]
    fresh = _compute(plan, todo, executor, jobs, progress, resumed)
    rows.update(fresh)

    _write_shards(outdir, plan, rows)
    complete = len(rows) == len(plan)
    merged_digest = _write_merged(outdir, plan, rows) if complete else None
    return SweepResult(
        outdir=outdir,
        total=len(plan),
        ran=len(fresh),
        resumed=resumed,
        complete=complete,
        merged_digest=merged_digest,
    )
