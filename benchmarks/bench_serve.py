"""Serving benchmark: FeaturePlan replay vs the legacy sandbox baseline.

Three sections:

* ``identity`` — fit SMARTFEAT on all nine eval datasets, JSON-round-trip
  each fit's plan, replay it on
  the original frame, and assert the result is **bit-identical** (dtype
  and missingness exact) to ``fit_transform``'s frame.  Each fit is also
  recompiled with the ``op[args]:`` tag stripped from every description
  (as a real provider's descriptions read): the ``compiled_stripped``
  count must equal the tagged ``compiled`` count, since the compiler
  lifts each feature from its source.
* ``throughput`` — the every-operator demo workload
  (:func:`repro.eval.serving.build_demo_result`) at serving scale:
  ``plan.apply`` (pure-numpy expression replay) against
  :func:`repro.eval.serving.sandbox_replay` (re-exec every recorded
  source — what serving cost before plans), gated at **≥10×**; plus the
  raw kernel loop (expression evaluation with no plan bookkeeping) to
  show plan overhead stays within ~1.2×, and a per-feature table timing
  ``evaluate_feature`` for each plan feature.  Every timed repeat runs on
  fresh column objects, as a served batch does, so each column's cached
  dictionary encoding is paid by the first op that reads it.
* ``concurrency`` — one :class:`~repro.serve.FeatureServer` hammered by
  8 threads; aggregate throughput must hold up (no shared-state
  serialization on the hot path).

``python benchmarks/bench_serve.py`` writes ``BENCH_serve.json`` at the
repo root, stamped with ``cpu_count``, the Python and numpy versions and
the git commit; ``--smoke`` runs smaller row counts with the same
assertions (the CI gate) and writes ``results/BENCH_serve.smoke.json``
instead.
"""

import argparse
import dataclasses
import re
import threading
import time

from conftest import bench_json_path, write_bench_json
from repro.dataframe import DataFrame, Series
from repro.dataframe.expr import evaluate_feature
from repro.eval.serving import (
    ALL_DATASETS,
    build_demo_result,
    fit_and_export,
    replay_identity_report,
    sandbox_replay,
)
from repro.serve import FeaturePlan, FeatureServer, compile_plan, frames_identical

SANDBOX_SPEEDUP_FLOOR = 10.0
FIT_ROWS = {"smoke": 240, "full": 400}
SERVE_ROWS = {"smoke": 100_000, "full": 1_000_000}
CONCURRENT_CALLERS = 8
OP_TAG = re.compile(r"^[A-Za-z_]+(\[[^\]]*\])*:\s*")


def _fresh(frame: DataFrame) -> DataFrame:
    """The same arrays under new Series objects: no cached encodings or
    groupings, like a freshly decoded batch."""
    return DataFrame(
        {name: Series._from_array(frame[name].values, name) for name in frame.columns}
    )


def _timed(fn, repeats: int = 1):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


# ----------------------------------------------------------------------
# Section 1: replay identity across the eval datasets
# ----------------------------------------------------------------------
def compiled_with_tags_stripped(dataset: str, fit_rows: int) -> int:
    """Compiled count of *dataset*'s fit with untagged descriptions."""
    bundle, result = fit_and_export(dataset, n_rows=fit_rows, seed=0)
    features = {
        name: dataclasses.replace(f, description=OP_TAG.sub("", f.description))
        for name, f in result.new_features.items()
    }
    untagged = dataclasses.replace(result, new_features=features)
    plan = compile_plan(untagged, bundle["frame"], bundle["target"])
    return plan.counts()["compiled"]


def identity_section(fit_rows: int) -> list[dict]:
    rows = replay_identity_report(ALL_DATASETS, n_rows=fit_rows, seed=0)
    for row in rows:
        row["compiled_stripped"] = compiled_with_tags_stripped(row["dataset"], fit_rows)
        status = "bit-identical" if row["identical"] else f"DIVERGED: {row['detail']}"
        print(
            f"identity {row['dataset']:10s} features={row['n_features']:3d} "
            f"compiled={row['compiled']:3d} "
            f"compiled_stripped={row['compiled_stripped']:3d} "
            f"omitted={row['omitted']} {status}"
        )
        assert row["identical"], (
            f"plan replay diverged from fitted frame on {row['dataset']}: "
            f"{row['detail']}"
        )
        assert row["compiled_stripped"] == row["compiled"], (
            f"{row['dataset']}: {row['compiled_stripped']} features compile with "
            f"untagged descriptions vs {row['compiled']} tagged"
        )
    return rows


# ----------------------------------------------------------------------
# Section 2: throughput at serving scale
# ----------------------------------------------------------------------
def throughput_section(serve_rows: int) -> dict:
    result, frame = build_demo_result(serve_rows, seed=0)
    plan = FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json())
    counts = plan.counts()
    assert counts == {"compiled": len(plan.features), "omitted": 0}, (
        f"demo workload must fully compile, got {counts}"
    )

    replayed, t_plan = _timed(lambda: plan.apply(_fresh(frame)), repeats=3)
    identical, detail = frames_identical(replayed, result.frame)
    assert identical, f"plan replay diverged at {serve_rows} rows: {detail}"

    _, t_sandbox = _timed(lambda: sandbox_replay(result, _fresh(frame)), repeats=3)

    # Raw kernel loop: the frozen expressions evaluated with no plan
    # bookkeeping (no schema validation, no spec dispatch) — the floor
    # plan.apply overhead is measured against.  ``per_feature`` keeps each
    # feature's fastest evaluation over the repeats.
    per_feature = [float("inf")] * len(plan.features)

    def raw():
        working = _fresh(frame)
        for i, spec in enumerate(plan.features):
            start = time.perf_counter()
            out = evaluate_feature(spec.expr, working)
            per_feature[i] = min(per_feature[i], time.perf_counter() - start)
            if isinstance(out, dict):
                for name in spec.output_columns:
                    working[name] = out[name]
            else:
                working[spec.output_columns[0]] = out
        working.drop(columns=list(plan.drop_columns), inplace=True)
        return working

    _, t_raw = _timed(raw, repeats=3)
    features = [
        {"feature": spec.name, "op": spec.expr["op"], "ms": round(t * 1000, 2)}
        for spec, t in zip(plan.features, per_feature)
    ]
    for row in features:
        print(f"  feature {row['feature']:28s} {row['op']:14s} {row['ms']:9.2f} ms")

    speedup = t_sandbox / t_plan
    overhead = t_plan / t_raw
    cell = {
        "n_rows": serve_rows,
        "n_features": len(plan.features),
        "t_plan_s": round(t_plan, 4),
        "t_sandbox_s": round(t_sandbox, 4),
        "t_raw_s": round(t_raw, 4),
        "speedup_vs_sandbox": round(speedup, 2),
        "overhead_vs_raw": round(overhead, 3),
        "rows_per_s_plan": round(serve_rows / t_plan),
        "per_feature_ms": features,
    }
    print(
        f"throughput @ {serve_rows} rows: plan={t_plan:.3f}s "
        f"sandbox={t_sandbox:.3f}s raw={t_raw:.3f}s "
        f"speedup={speedup:.1f}x overhead_vs_raw={overhead:.2f}x"
    )
    assert speedup >= SANDBOX_SPEEDUP_FLOOR, (
        f"plan replay must be >= {SANDBOX_SPEEDUP_FLOOR}x the sandbox baseline, "
        f"got {speedup:.1f}x"
    )
    return cell


# ----------------------------------------------------------------------
# Section 3: concurrent callers
# ----------------------------------------------------------------------
def concurrency_section(serve_rows: int) -> dict:
    batch_rows = max(serve_rows // 20, 1000)
    result, frame = build_demo_result(batch_rows, seed=1)
    plan = compile_plan(result, frame, "Target")
    server = FeatureServer(plan=plan)

    calls_per_thread = 4
    server.transform(frame)  # warm caches before timing
    _, t_serial = _timed(lambda: server.transform(frame))

    errors: list[Exception] = []

    def caller():
        try:
            for _ in range(calls_per_thread):
                out = server.transform(frame)
                assert out.columns == result.frame.columns
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=caller) for _ in range(CONCURRENT_CALLERS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, f"concurrent transform raised: {errors[0]!r}"

    total_calls = CONCURRENT_CALLERS * calls_per_thread
    per_call = elapsed / total_calls
    cell = {
        "batch_rows": batch_rows,
        "callers": CONCURRENT_CALLERS,
        "calls_per_thread": calls_per_thread,
        "t_serial_call_s": round(t_serial, 4),
        "t_concurrent_per_call_s": round(per_call, 4),
        "aggregate_calls_per_s": round(total_calls / elapsed, 2),
    }
    print(
        f"concurrency: {CONCURRENT_CALLERS} callers x {calls_per_thread} calls "
        f"@ {batch_rows} rows: serial={t_serial * 1000:.1f}ms/call "
        f"concurrent={per_call * 1000:.1f}ms/call "
        f"({cell['aggregate_calls_per_s']} calls/s aggregate)"
    )
    return cell


def run(mode: str) -> dict:
    from conftest import peak_rss_mb

    report = {
        "mode": mode,
        "identity": identity_section(FIT_ROWS[mode]),
        "throughput": throughput_section(SERVE_ROWS[mode]),
        "concurrency": concurrency_section(SERVE_ROWS[mode]),
    }
    report["peak_rss_mb"] = round(peak_rss_mb(), 1)
    print(f"peak RSS: {report['peak_rss_mb']} MB")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="smaller rows, same assertions (CI gate)"
    )
    args = parser.parse_args()
    mode = "smoke" if args.smoke else "full"
    report = run(mode)
    write_bench_json(bench_json_path("serve", args.smoke), report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
