"""Out-of-core sharded execution benchmark: peak RSS next to wall-clock.

The claim under test: ``FeaturePlan.apply_stream`` serves a table larger
than a hard memory budget — peak RSS stays bounded by the configured
``memory_budget_mb`` while the in-memory ``plan.apply`` path blows
through it — at ≥ 0.8× the in-memory throughput, with bit-identical
output.

Because ``ru_maxrss`` is process-lifetime-monotone, the in-memory and
sharded phases each run in their **own subprocess** (``--phase``
self-exec); the parent fits the plan once, hands both phases the same
plan JSON and the same deterministic chunk seeds, and compares their
per-chunk output checksums exactly.  The sharded phase generates its
input chunks on the fly — the full table never exists in its address
space — and its serve time is the stream wall-clock minus the measured
chunk-generation time, so the throughput ratio compares plan work
against plan work.

``python benchmarks/bench_sharded.py`` runs the full 10⁷-row comparison
and writes ``BENCH_sharded.json`` at the repo root; ``--smoke`` runs the
identity gates (demo workload across chunkings, all nine eval datasets
sharded vs in-memory) plus a small two-phase run, same assertions on
identity, and writes ``results/BENCH_sharded.smoke.json`` (the CI gate).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from conftest import bench_json_path, peak_rss_mb, write_bench_json
from repro.dataframe.io import concat_shards, iter_frame_shards
from repro.eval.serving import (
    ALL_DATASETS,
    build_demo_result,
    make_serving_frame,
    sharded_identity_report,
)
from repro.serve import FeaturePlan, compile_plan, frames_identical

FULL_ROWS = 10_000_000
FULL_BUDGET_MB = 2048.0
FULL_N_GROUPS = 5_000
FULL_FIT_ROWS = 200_000
SMOKE_ROWS = 60_000
SMOKE_BUDGET_MB = 48.0
SMOKE_N_GROUPS = 64
SMOKE_FIT_ROWS = 4_000
THROUGHPUT_FLOOR = 0.8
#: Chunk seeds offset so serve chunks never replicate the fit frame.
CHUNK_SEED_BASE = 1000


def _chunk_specs(n_rows: int, chunk_rows: int) -> list[tuple[int, int]]:
    """(seed, rows) per generated serve chunk — shared by both phases."""
    specs = []
    index = 0
    remaining = n_rows
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        specs.append((CHUNK_SEED_BASE + index, rows))
        remaining -= rows
        index += 1
    return specs


def _frame_checksum(frame) -> list:
    """Exact per-column digest, cheap enough for 10⁷ rows.

    Float columns record ``nansum`` bits (pairwise summation over equal
    values of equal length is bit-deterministic, whole-array or
    slice-view alike) plus the NaN count; int/bool record the exact sum;
    object columns an md5 over the rendered values.  Two featured frames
    with equal checksums per chunk are byte-equal for numerics and
    rendered-equal for objects.
    """
    out = []
    for name in frame.columns:
        values = frame[name].values
        if values.dtype.kind == "f":
            out.append([name, float(np.nansum(values)).hex(), int(np.isnan(values).sum())])
        elif values.dtype.kind in "iub":
            out.append([name, int(values.sum())])
        else:
            digest = hashlib.md5(
                "\x1f".join(str(v) for v in values.tolist()).encode()
            ).hexdigest()
            out.append([name, digest])
    return out


def fit_plan(fit_rows: int, n_groups: int) -> FeaturePlan:
    """Fit the every-operator demo workload and compile its plan.

    The fit frame pins ``n_groups`` to the serve scale's cardinality so
    the frozen group tables cover (virtually) every group the serve
    chunks draw — the realistic fit-small / serve-big shape.
    """
    result, frame = build_demo_result(fit_rows, seed=0, n_groups=n_groups)
    plan = compile_plan(result, frame, "Target")
    counts = plan.counts()
    assert counts == {"compiled": len(plan.features), "omitted": 0}, counts
    return plan


# ----------------------------------------------------------------------
# Subprocess phases (each owns its ru_maxrss)
# ----------------------------------------------------------------------
def phase_inmem(plan: FeaturePlan, specs: list, n_groups: int) -> dict:
    """Materialize the whole table, apply the plan once, checksum per
    chunk-aligned slice of the output."""
    chunks = [
        make_serving_frame(rows, seed=seed, n_groups=n_groups)
        for seed, rows in specs
    ]
    full = concat_shards(chunks)
    chunk_rows = specs[0][1]
    del chunks
    start = time.perf_counter()
    out = plan.apply(full)
    apply_s = time.perf_counter() - start
    checksums = [
        _frame_checksum(shard.frame)
        for shard in iter_frame_shards(out, chunk_rows)
    ]
    n_rows = len(full)
    return {
        "phase": "inmem",
        "n_rows": n_rows,
        "apply_s": round(apply_s, 3),
        "rows_per_s": round(n_rows / apply_s),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "checksums": checksums,
    }


def phase_sharded(
    plan: FeaturePlan, specs: list, n_groups: int, budget_mb: float
) -> dict:
    """Generate chunks on the fly and stream them through the plan under
    the memory budget; the full table never exists in this process."""
    gen_s = 0.0

    def shards():
        nonlocal gen_s
        for seed, rows in specs:
            start = time.perf_counter()
            frame = make_serving_frame(rows, seed=seed, n_groups=n_groups)
            gen_s += time.perf_counter() - start
            yield frame

    checksums = []
    n_rows = 0
    start = time.perf_counter()
    for out in plan.apply_stream(shards(), memory_budget_mb=budget_mb):
        checksums.append(_frame_checksum(out))
        n_rows += len(out)
    wall_s = time.perf_counter() - start
    serve_s = max(wall_s - gen_s, 1e-9)
    return {
        "phase": "sharded",
        "n_rows": n_rows,
        "wall_s": round(wall_s, 3),
        "generate_s": round(gen_s, 3),
        "serve_s": round(serve_s, 3),
        "rows_per_s": round(n_rows / serve_s),
        "memory_budget_mb": budget_mb,
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "checksums": checksums,
    }


def _run_phase(
    phase: str, plan_path: str, n_rows: int, chunk_rows: int,
    n_groups: int, budget_mb: float,
) -> dict:
    """Re-exec this script for one phase; parse its PHASE_RESULT line."""
    argv = [
        sys.executable, __file__,
        "--phase", phase,
        "--plan-path", plan_path,
        "--rows", str(n_rows),
        "--chunk-rows", str(chunk_rows),
        "--n-groups", str(n_groups),
        "--budget-mb", str(budget_mb),
    ]
    proc = subprocess.run(
        argv,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{phase} phase failed:\n{proc.stdout}\n{proc.stderr}"
        )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("PHASE_RESULT "):
            return json.loads(line[len("PHASE_RESULT "):])
    raise RuntimeError(f"{phase} phase printed no PHASE_RESULT:\n{proc.stdout}")


def two_phase_comparison(
    n_rows: int, budget_mb: float, n_groups: int, fit_rows: int
) -> dict:
    """Fit once, run both phases as subprocesses, compare exactly."""
    plan = fit_plan(fit_rows, n_groups)
    sample = make_serving_frame(1000, seed=CHUNK_SEED_BASE, n_groups=n_groups)
    chunk_rows = plan.budget_rows(sample, budget_mb)
    specs = _chunk_specs(n_rows, chunk_rows)
    print(
        f"two-phase @ {n_rows:,} rows: budget {budget_mb:.0f} MB -> "
        f"{chunk_rows:,} rows/chunk, {len(specs)} chunks"
    )
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        plan_path = handle.name
        handle.write(plan.to_json())
    try:
        inmem = _run_phase("inmem", plan_path, n_rows, chunk_rows, n_groups, budget_mb)
        sharded = _run_phase("sharded", plan_path, n_rows, chunk_rows, n_groups, budget_mb)
    finally:
        Path(plan_path).unlink(missing_ok=True)
    assert inmem["checksums"] == sharded["checksums"], (
        "sharded output diverged from in-memory apply (per-chunk checksums differ)"
    )
    ratio = inmem["apply_s"] / sharded["serve_s"]
    for result in (inmem, sharded):
        result.pop("checksums", None)
    print(
        f"  inmem:     apply {inmem['apply_s']:.2f}s "
        f"({inmem['rows_per_s']:,} rows/s), peak RSS {inmem['peak_rss_mb']} MB"
    )
    print(
        f"  sharded:   serve {sharded['serve_s']:.2f}s "
        f"({sharded['rows_per_s']:,} rows/s), peak RSS {sharded['peak_rss_mb']} MB"
    )
    print(f"  throughput ratio (sharded/inmem): {ratio:.2f}x — outputs identical")
    return {
        "n_rows": n_rows,
        "memory_budget_mb": budget_mb,
        "chunk_rows": chunk_rows,
        "n_chunks": len(specs),
        "identical": True,
        "throughput_ratio": round(ratio, 3),
        "cpu_count": os.cpu_count(),
        "inmem": inmem,
        "sharded": sharded,
    }


# ----------------------------------------------------------------------
# Identity gates (in-process)
# ----------------------------------------------------------------------
def demo_identity_section(n_rows: int = 2000) -> dict:
    """Every codegen form: apply_stream == apply across chunkings, and
    under a tiny memory budget that forces re-chunking."""
    result, frame = build_demo_result(n_rows, seed=0)
    plan = FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json())
    base = plan.apply(frame)
    for chunk in (113, 1000, n_rows * 2):
        merged = concat_shards(list(plan.apply_stream(iter_frame_shards(frame, chunk))))
        identical, detail = frames_identical(merged, base)
        assert identical, f"demo sharded replay diverged at chunk={chunk}: {detail}"
    pieces = list(plan.apply_stream(iter_frame_shards(frame, n_rows), memory_budget_mb=1))
    assert len(pieces) > 1, "1 MB budget should force re-chunking"
    merged = concat_shards(pieces)
    identical, detail = frames_identical(merged, base)
    assert identical, f"budget re-chunked replay diverged: {detail}"
    print(
        f"demo identity @ {n_rows} rows: chunks 113/1000/whole + "
        f"1MB-budget re-chunk ({len(pieces)} pieces) all bit-identical"
    )
    return {"n_rows": n_rows, "budget_pieces": len(pieces), "identical": True}


def dataset_identity_section(fit_rows: int, chunk_rows: int = 37) -> list[dict]:
    """All nine eval datasets: concat(apply_stream) == apply, bit-exact."""
    rows = sharded_identity_report(ALL_DATASETS, n_rows=fit_rows, chunk_rows=chunk_rows)
    for row in rows:
        status = "bit-identical" if row["identical"] else f"DIVERGED: {row['detail']}"
        print(
            f"sharded identity {row['dataset']:10s} shards={row['n_shards']:2d} "
            f"features={row['n_features']:3d} {status}"
        )
        assert row["identical"], (
            f"sharded replay diverged on {row['dataset']}: {row['detail']}"
        )
    return rows


def run(mode: str) -> dict:
    if mode == "smoke":
        n_rows, budget, groups, fit = (
            SMOKE_ROWS, SMOKE_BUDGET_MB, SMOKE_N_GROUPS, SMOKE_FIT_ROWS
        )
    else:
        n_rows, budget, groups, fit = (
            FULL_ROWS, FULL_BUDGET_MB, FULL_N_GROUPS, FULL_FIT_ROWS
        )
    report = {
        "mode": mode,
        "cpu_count": os.cpu_count(),
        "demo_identity": demo_identity_section(),
        "dataset_identity": dataset_identity_section(fit_rows=240),
        "comparison": two_phase_comparison(n_rows, budget, groups, fit),
    }
    comparison = report["comparison"]
    if mode == "full":
        # The tentpole claims, asserted at scale: the sharded path stays
        # under the configured budget the in-memory path blows through,
        # at >= 0.8x the in-memory throughput.
        assert comparison["sharded"]["peak_rss_mb"] <= budget, (
            f"sharded peak RSS {comparison['sharded']['peak_rss_mb']} MB "
            f"exceeds the {budget} MB budget"
        )
        assert comparison["inmem"]["peak_rss_mb"] > budget, (
            f"in-memory peak RSS {comparison['inmem']['peak_rss_mb']} MB "
            f"fits the budget — the workload is too small to demonstrate "
            f"out-of-core execution"
        )
        assert comparison["throughput_ratio"] >= THROUGHPUT_FLOOR, (
            f"sharded throughput {comparison['throughput_ratio']:.2f}x is "
            f"below the {THROUGHPUT_FLOOR}x floor"
        )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small rows, identity assertions + a small two-phase run (CI gate)",
    )
    parser.add_argument(
        "--phase", choices=("inmem", "sharded"), help=argparse.SUPPRESS
    )
    parser.add_argument("--plan-path", help=argparse.SUPPRESS)
    parser.add_argument("--rows", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--chunk-rows", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--n-groups", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--budget-mb", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.phase:
        plan = FeaturePlan.load(args.plan_path)
        specs = _chunk_specs(args.rows, args.chunk_rows)
        if args.phase == "inmem":
            result = phase_inmem(plan, specs, args.n_groups)
        else:
            result = phase_sharded(plan, specs, args.n_groups, args.budget_mb)
        print("PHASE_RESULT " + json.dumps(result))
        return 0
    mode = "smoke" if args.smoke else "full"
    report = run(mode)
    write_bench_json(bench_json_path("sharded", args.smoke), report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


# ----------------------------------------------------------------------
# Pytest entry points (benchmarks/ is also collected as a suite)
# ----------------------------------------------------------------------
def test_sharded_identity_smoke():
    """Sharded replay is bit-identical to in-memory on the demo workload."""
    demo_identity_section(n_rows=600)

