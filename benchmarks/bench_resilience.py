"""Resilience benchmark: degraded-mode correctness and isolation overhead.

Three sections:

* ``chaos`` — seeded fault schedules drive every injection mode (raise,
  bad output) through ``failure_policy="degrade"`` with breakers,
  asserting the blast-radius contract:
  failing features NaN-fill, **healthy features stay bit-identical** to
  a fault-free run, breakers trip and recover on their exact schedule,
  and ``strict`` mode still fails loudly on the same schedule.
* ``hostile`` — a seeded hostile row-dict batch through a degrade-mode
  :class:`~repro.serve.FeatureServer`: every surviving row serves, every
  quarantined row carries a reason, and the strict server refuses the
  same batch with a typed error.
* ``overhead`` — degrade-mode ``apply_with_report`` with breakers vs a
  strict ``plan.apply`` on the fault-free demo workload (both run the
  one replay loop; this prices the breaker consultation and degrade
  bookkeeping), gated at **≤5%** overhead at serving scale.  The
  overhead is the median of interleaved (raw, degrade) per-pair time
  ratios, alternating which side runs first, so one slow run or a
  drifting machine cannot tip the gate.

``python benchmarks/bench_resilience.py`` writes ``BENCH_resilience.json``
at the repo root; ``--smoke`` runs smaller row counts with the same
assertions (the CI gate) and writes ``results/BENCH_resilience.smoke.json``
instead.
"""

import argparse
import statistics
import time

import numpy as np

from conftest import bench_json_path, write_bench_json
from repro.eval.chaos import CHAOS_MODES, ChaosSchedule, FaultInjector, hostile_rows
from repro.eval.serving import build_demo_result
from repro.serve import (
    BatchValidationError,
    BreakerBoard,
    FeaturePlan,
    FeatureServer,
    compile_plan,
    series_identical,
)

ISOLATION_OVERHEAD_CEILING = 1.05  # ≤5% vs raw plan.apply
SERVE_ROWS = {"smoke": 100_000, "full": 1_000_000}
CHAOS_ROWS = {"smoke": 400, "full": 2_000}
OVERHEAD_PAIRS = 21


# ----------------------------------------------------------------------
# Section 1: chaos gate
# ----------------------------------------------------------------------
def chaos_section(n_rows: int) -> dict:
    result, frame = build_demo_result(n_rows, seed=0)
    plan = FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json())
    served = [s for s in plan.features if s.status != "omitted"]
    clean = plan.apply(frame)

    # Every injection mode, one victim at a time.
    mode_outcomes = {}
    for mode in CHAOS_MODES:
        victim = served[0]
        injector = FaultInjector(ChaosSchedule({victim.name: {0: mode}}))
        out, report = plan.apply_with_report(
            frame, failure_policy="degrade", evaluator=injector
        )
        entry = next(r for r in report.reports if r.feature == victim.name)
        assert entry.status == "failed", f"{mode}: fault not contained"
        for name in victim.output_columns:
            assert np.isnan(out[name].values).all(), f"{mode}: no NaN fill"
        for name in clean.columns:
            if name not in victim.output_columns:
                assert series_identical(clean[name], out[name]), (
                    f"{mode}: healthy column {name!r} not bit-identical"
                )
        mode_outcomes[mode] = entry.error
        print(f"chaos mode={mode:10s} contained as {entry.error}")

    # Breaker schedule: 3 failures trip, 2 refusals, probe recovers.
    victim = served[0]
    injector = FaultInjector(
        ChaosSchedule({victim.name: {0: "raise", 1: "raise", 2: "raise"}})
    )
    board = BreakerBoard(failure_threshold=3, cooldown_calls=2)
    timeline = []
    for _ in range(7):
        _out, report = plan.apply_with_report(
            frame, failure_policy="degrade", breakers=board, evaluator=injector
        )
        timeline.append(
            next(r.status for r in report.reports if r.feature == victim.name)
        )
    expected = ["failed", "failed", "failed", "skipped", "skipped", "ok", "ok"]
    assert timeline == expected, f"breaker timeline {timeline} != {expected}"
    print(f"chaos breaker timeline: {' -> '.join(timeline)}")

    # Strict mode fails loudly on the same schedule.
    injector = FaultInjector(ChaosSchedule({victim.name: {0: "raise"}}))
    try:
        plan.apply_with_report(
            frame, failure_policy="strict", evaluator=injector
        )
    except Exception as exc:
        strict_error = type(exc).__name__
    else:
        raise AssertionError("strict policy served through an injected fault")
    print(f"chaos strict policy raised {strict_error}")

    # Seeded storm stays reproducible and never corrupts healthy outputs.
    names = [s.name for s in served]
    storm = FaultInjector(
        ChaosSchedule.seeded(names, modes=("raise", "bad_output"), rate=0.25, n_calls=4, seed=13)
    )
    storm_board = BreakerBoard(failure_threshold=2, cooldown_calls=2)
    degraded_fractions = []
    for _ in range(4):
        out, report = plan.apply_with_report(
            frame, failure_policy="degrade", breakers=storm_board, evaluator=storm
        )
        degraded_fractions.append(round(report.degraded_fraction, 4))
        for entry in report.reports:
            if entry.status != "ok":
                continue
            spec = next(s for s in plan.features if s.name == entry.feature)
            for name in spec.output_columns:
                assert series_identical(clean[name], out[name]), name
    print(f"chaos storm degraded fractions per batch: {degraded_fractions}")

    return {
        "n_rows": n_rows,
        "modes": mode_outcomes,
        "breaker_timeline": timeline,
        "strict_error": strict_error,
        "storm_injected_faults": len(storm.injected),
        "storm_degraded_fractions": degraded_fractions,
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

    board = BreakerBoard(failure_threshold=3, cooldown_calls=5)

    def raw():
        return plan.apply(frame)

    def degraded():
        out, report = plan.apply_with_report(
            frame, failure_policy="degrade", breakers=board
        )
        assert report.ok
        return out

    # Untimed first runs, which also fill the plan's column dictionaries:
    # fault-free degrade must be bit-identical to the raw strict apply.
    strict_out, degrade_out = raw(), degraded()
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
            start = time.perf_counter()
            fn()
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
        "chaos": chaos_section(CHAOS_ROWS[mode]),
        "hostile": hostile_section(CHAOS_ROWS[mode]),
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
