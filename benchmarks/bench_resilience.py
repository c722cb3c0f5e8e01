"""Resilience benchmark: total compiled ops, quarantine and isolation overhead.

Three sections:

* ``op_fuzz`` — seeded kind-valid batches
  (:func:`~repro.eval.chaos.kind_valid_frame`: NaN, ±inf, ±1e300, −0.0,
  empty, number-like and unparseable text, long strings, numbers in text
  columns) through the plans of the 9 eval datasets at seeds 0 and 1,
  the demo plan, and one hand-built plan per serve op none of them uses.
  Every batch passes the plan's schema check, and every feature must
  serve: the gate is **0 escapes** (features that raise) over ≥10⁶ rows
  in full mode.
* ``hostile`` — a seeded hostile row-dict batch through a degrade-mode
  :class:`~repro.serve.FeatureServer`: every surviving row serves, every
  quarantined row carries a reason, no feature fails on the survivors
  (health ``ok``), and the strict server refuses the same batch with a
  typed error.
* ``overhead`` — degrade-mode ``apply_with_report`` vs a strict
  ``plan.apply`` on the fault-free demo workload (both run the one
  replay loop; this prices the degrade bookkeeping), gated at **≤5%**
  overhead at serving scale.  The overhead is the median of interleaved
  (raw, degrade) per-pair time ratios, alternating which side runs
  first, so one slow run or a drifting machine cannot tip the gate.
  Every timed apply serves a fresh slice view of the frame, whose Series
  carry no dictionary codes cached by an earlier apply, so each pays the
  per-batch column lookup that serving pays.

``python benchmarks/bench_resilience.py`` writes ``BENCH_resilience.json``
at the repo root; ``--smoke`` runs smaller row counts with the same
assertions (the CI gate) and writes ``results/BENCH_resilience.smoke.json``
instead.
"""

import argparse
import statistics
import time
from collections import Counter

from conftest import bench_json_path, write_bench_json
from repro.dataframe.expr import OPS, _walk
from repro.dataframe.io import iter_frame_shards
from repro.eval.chaos import hostile_rows, kind_valid_frame
from repro.eval.serving import ALL_DATASETS, build_demo_result, fit_and_export
from repro.serve import (
    BatchValidationError,
    FeaturePlan,
    FeatureServer,
    FeatureSpec,
    compile_plan,
    series_identical,
)

ISOLATION_OVERHEAD_CEILING = 1.05  # ≤5% vs raw plan.apply
SERVE_ROWS = {"smoke": 100_000, "full": 1_000_000}
HOSTILE_ROWS = {"smoke": 400, "full": 2_000}
FUZZ_ROWS = {"smoke": 100_000, "full": 1_000_000}
FUZZ_BATCH_ROWS = 5_000
OVERHEAD_PAIRS = 21

#: A node for each serve op that no fitted plan uses, over one float
#: column ``x``.
HAND_BUILT = {"qcut_collapsed": {"op": "qcut_collapsed", "column": "x"}}


# ----------------------------------------------------------------------
# Section 1: compiled-op fuzz gate
# ----------------------------------------------------------------------
def _one_op_plan(node: dict) -> FeaturePlan:
    spec = FeatureSpec(node["op"], "unary", "", ["x"], [node["op"]], "compiled", expr=node)
    return FeaturePlan(["x"], [("x", "float")], "y", [spec])


def fuzz_plans() -> list[tuple[str, FeaturePlan]]:
    """The 19 fitted plans, then one hand-built plan per serve op none of
    them uses; fails if a serve op has neither."""
    plans = [
        (f"{dataset}/seed{seed}", fit_and_export(dataset, 300, seed)[1].plan)
        for seed in (0, 1)
        for dataset in ALL_DATASETS
    ]
    result, frame = build_demo_result(600, seed=0)
    plans.append(("demo", compile_plan(result, frame, "Target")))
    used = {
        node["op"]
        for _name, plan in plans
        for spec in plan.features
        if spec.status == "compiled"
        for node in _walk(spec.expr)
    }
    unused = {op for op, spec in OPS.items() if spec.kernel is not None} - used
    assert unused <= set(HAND_BUILT), f"serve ops with no fuzz plan: {sorted(unused - set(HAND_BUILT))}"
    return plans + [(f"hand_built/{op}", _one_op_plan(HAND_BUILT[op])) for op in sorted(unused)]


def op_fuzz_section(n_rows: int) -> dict:
    plans = fuzz_plans()
    batches = -(-n_rows // (FUZZ_BATCH_ROWS * len(plans)))
    escapes: Counter = Counter()
    rows = 0
    started = time.perf_counter()
    for index, (name, plan) in enumerate(plans):
        for batch in range(batches):
            frame = kind_valid_frame(plan, FUZZ_BATCH_ROWS, seed=1000 * index + batch)
            assert not plan.schema_problems(frame), (name, plan.schema_problems(frame))
            _out, report = plan.apply_with_report(frame, failure_policy="degrade")
            rows += len(frame)
            for failure in report.failures():
                escapes[f"{name} {failure.feature}: {failure.error}: {failure.reason}"] += 1
    elapsed = time.perf_counter() - started
    print(
        f"op fuzz: {rows} rows over {len(plans)} plans in {elapsed:.1f}s, "
        f"{sum(escapes.values())} escapes"
    )
    assert not escapes, f"compiled ops raised on kind-valid input: {escapes.most_common(5)}"
    return {
        "rows": rows,
        "batch_rows": FUZZ_BATCH_ROWS,
        "plans": [name for name, _plan in plans],
        "escapes": sum(escapes.values()),
        "seconds": round(elapsed, 2),
    }


# ----------------------------------------------------------------------
# Section 2: hostile row-dict batch
# ----------------------------------------------------------------------
def hostile_section(n_rows: int) -> dict:
    result, frame = build_demo_result(max(n_rows // 5, 200), seed=1)
    plan = compile_plan(result, frame, "Target")
    batch = hostile_rows(plan.input_schema, n_rows=n_rows, hostility=0.3, seed=7)

    server = FeatureServer(plan=plan, failure_policy="degrade")
    out, report = server.transform_with_report(batch)
    quarantine = report.quarantine
    assert len(out) + quarantine.quarantined_rows == len(batch)
    assert all(reason for _idx, reason in quarantine.quarantined)

    strict = FeatureServer(plan=plan)
    try:
        strict.transform(batch)
    except BatchValidationError:
        strict_refused = True
    else:
        raise AssertionError("strict server accepted a hostile batch")

    health = server.health()
    assert health["status"] == "ok", f"features failed on surviving rows: {health}"
    cell = {
        "batch_rows": len(batch),
        "served_rows": len(out),
        "quarantined_rows": quarantine.quarantined_rows,
        "patched_cells": quarantine.patched_cells,
        "warnings": len(quarantine.warnings),
        "strict_refused": strict_refused,
        "health_status": health["status"],
    }
    print(
        f"hostile batch: {cell['served_rows']}/{cell['batch_rows']} served, "
        f"{cell['quarantined_rows']} quarantined, "
        f"{cell['patched_cells']} cells patched, strict refused={strict_refused}"
    )
    return cell


# ----------------------------------------------------------------------
# Section 3: isolation overhead at serving scale
# ----------------------------------------------------------------------
def overhead_section(serve_rows: int) -> dict:
    result, frame = build_demo_result(serve_rows, seed=0)
    plan = FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json())

    def fresh_batch():
        """The frame as a new slice view, as a served batch arrives: its
        Series hold no dictionary codes from an earlier apply."""
        (shard,) = iter_frame_shards(frame, len(frame))
        batch = shard.frame
        assert all(batch[name]._dictionary_cache is None for name in batch.columns)
        return batch

    def raw(batch):
        return plan.apply(batch)

    def degraded(batch):
        out, report = plan.apply_with_report(batch, failure_policy="degrade")
        assert report.ok
        return out

    # Untimed first runs, which also fill the plan's column dictionaries:
    # fault-free degrade must be bit-identical to the raw strict apply.
    strict_out, degrade_out = raw(fresh_batch()), degraded(fresh_batch())
    assert strict_out.columns == degrade_out.columns
    for name in strict_out.columns:
        assert series_identical(strict_out[name], degrade_out[name]), (
            f"degrade-mode column {name!r} diverged from strict apply"
        )

    times = {"raw": [], "degrade": []}
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        order = [("raw", raw), ("degrade", degraded)]
        for side, fn in order[:: -1 if pair % 2 else 1]:
            batch = fresh_batch()
            start = time.perf_counter()
            fn(batch)
            times[side].append(time.perf_counter() - start)
        ratios.append(times["degrade"][-1] / times["raw"][-1])

    overhead = statistics.median(ratios)
    t_raw = statistics.median(times["raw"])
    t_degrade = statistics.median(times["degrade"])
    cell = {
        "n_rows": serve_rows,
        "n_features": len(plan.features),
        "pairs": OVERHEAD_PAIRS,
        "t_raw_apply_s": round(t_raw, 4),
        "t_degrade_apply_s": round(t_degrade, 4),
        "isolation_overhead": round(overhead, 4),
        "overhead_range": [round(min(ratios), 4), round(max(ratios), 4)],
        "ceiling": ISOLATION_OVERHEAD_CEILING,
    }
    print(
        f"overhead @ {serve_rows} rows: raw={t_raw:.3f}s "
        f"degrade={t_degrade:.3f}s overhead={overhead:.3f}x, median of "
        f"{OVERHEAD_PAIRS} pairs {min(ratios):.3f}-{max(ratios):.3f}x "
        f"(ceiling {ISOLATION_OVERHEAD_CEILING}x)"
    )
    assert overhead <= ISOLATION_OVERHEAD_CEILING, (
        f"per-feature isolation costs {overhead:.3f}x vs raw plan.apply, "
        f"ceiling is {ISOLATION_OVERHEAD_CEILING}x"
    )
    return cell


def run(mode: str) -> dict:
    return {
        "mode": mode,
        "op_fuzz": op_fuzz_section(FUZZ_ROWS[mode]),
        "hostile": hostile_section(HOSTILE_ROWS[mode]),
        "overhead": overhead_section(SERVE_ROWS[mode]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="smaller rows, same assertions (CI gate)"
    )
    args = parser.parse_args()
    mode = "smoke" if args.smoke else "full"
    report = run(mode)
    write_bench_json(bench_json_path("resilience", args.smoke), report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
