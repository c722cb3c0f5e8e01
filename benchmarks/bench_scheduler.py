"""Stage-graph scheduler benchmark: overlap makespan and budget planning.

Three claims, each asserted:

* **Stage overlap** — running the same SMARTFEAT search under
  ``stage_plan="overlap"`` accepts identical features, produces an
  identical frame, and issues identical FM call counts as the serial
  §3.2 chain (the stage-graph equivalence contract), while the modelled
  single-run makespan at concurrency 8 drops ≥1.5× because the binary /
  high-order / extractor stages — which declare no read/write conflict
  with each other — schedule side by side.  The narrower per-stage views
  also shrink prompts by ~10-16%.
* **Budget-aware planning** — with ``plan_budget=True`` and a tight
  :class:`~repro.fm.base.Budget`, ``fit_transform`` completes instead of
  raising: the scheduler shrinks sampling stages' draw budgets, skips
  stages it cannot afford, and records every decision in
  ``execution["schedule"]``.
* **Physical stage overlap** — the same search through stateless
  transport clients with real per-call latency on an
  :class:`~repro.fm.executor.FMExecutor` with concurrency 8: under
  ``stage_plan="overlap"`` the scheduler detects the stateless clients
  and fans the independent post-unary stages out on threads, and their
  measured windows genuinely intersect (the serial plan never does).

``python benchmarks/bench_scheduler.py`` runs standalone and writes
``BENCH_scheduler.json`` at the repo root; ``--smoke`` runs the
equivalence assertion and the physical-overlap check on one dataset
(the CI gate).
"""

import sys

from repro.core import SmartFeat
from repro.datasets import load_dataset
from repro.eval import physical_overlap_report, render_table, stage_overlap_report
from repro.fm import Budget, SimulatedFM

CONCURRENCY = 8
N_ROWS = 300
#: Datasets whose searches have enough sampling-stage work for the
#: overlapped schedule to clear 1.5x (the unary stage is a shared
#: prefix on the critical path everywhere).
OVERLAP_DATASETS = ("heart", "tennis", "west_nile")
#: Call-budget ladder for the degradation benchmark.
BUDGET_LADDER = (40, 25, 8)


def run_overlap_benchmark(datasets=OVERLAP_DATASETS, n_rows=N_ROWS) -> dict:
    """Serial vs overlapped stage plans across a few datasets."""
    reports = [
        stage_overlap_report(
            load_dataset(name, n_rows=n_rows), concurrency=CONCURRENCY
        )
        for name in datasets
    ]
    return {
        "concurrency": CONCURRENCY,
        "datasets": reports,
        "min_speedup": min(r["speedup"] for r in reports),
        "min_token_savings": min(r["token_savings"] for r in reports),
        "all_equivalent": all(
            r["identical_features"]
            and r["identical_frames"]
            and r["identical_call_counts"]
            for r in reports
        ),
    }


def render_overlap_table(payload: dict) -> str:
    rows = [
        [
            r["dataset"],
            str(r["n_calls"]),
            str(r["n_features"]),
            f"{r['makespan_serial_s']:,.1f}",
            f"{r['makespan_overlap_s']:,.1f}",
            f"{r['speedup']:.2f}x",
            f"{r['token_savings']:.0%}",
            " -> ".join(r["critical_path"]),
            "yes"
            if r["identical_features"]
            and r["identical_frames"]
            and r["identical_call_counts"]
            else "NO",
        ]
        for r in payload["datasets"]
    ]
    return render_table(
        [
            "dataset",
            "FM calls",
            "features",
            "serial (s)",
            f"overlap c={payload['concurrency']} (s)",
            "speedup",
            "tokens saved",
            "critical path",
            "equivalent",
        ],
        rows,
    )


def _budget_run(max_calls: int, n_rows: int = N_ROWS) -> dict:
    """One budget-planned run; returns the schedule plus spend facts."""
    bundle = load_dataset("heart", n_rows=n_rows)
    budget = Budget(max_calls=max_calls)
    tool = SmartFeat(
        fm=SimulatedFM(seed=0, model="gpt-4"),
        function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
        budget=budget,
        plan_budget=True,
        stage_plan="overlap",
        fm_feature_removal=True,
    )
    result = tool.fit_transform(
        bundle.frame,
        target=bundle.target,
        descriptions=bundle.descriptions,
        title=bundle.title,
        target_description=bundle.target_description,
    )
    schedule = result.fm_usage["execution"]["schedule"]
    return {
        "max_calls": max_calls,
        "spent_calls": budget.spent_calls,
        "n_features": len(result.new_features),
        "statuses": {n["name"]: n["status"] for n in schedule["nodes"]},
        "degraded": schedule["degraded"],
    }


def run_budget_benchmark(ladder=BUDGET_LADDER, n_rows: int = N_ROWS) -> dict:
    """Tight budgets must degrade the schedule, never abort the run."""
    runs = [_budget_run(max_calls, n_rows) for max_calls in ladder]
    return {
        "runs": runs,
        # Tighter budgets must shrink or skip at least as many stages.
        "monotone_degradation": all(
            len(a["degraded"]) <= len(b["degraded"]) for a, b in zip(runs, runs[1:])
        ),
        "all_completed": True,  # _budget_run raising would have propagated
        "any_degraded": all(r["degraded"] for r in runs),
    }


def render_budget_table(payload: dict) -> str:
    rows = [
        [
            str(r["max_calls"]),
            str(r["spent_calls"]),
            str(r["n_features"]),
            ", ".join(f"{k}={v}" for k, v in r["statuses"].items() if v != "ran")
            or "all ran",
        ]
        for r in payload["runs"]
    ]
    return render_table(["max calls", "spent", "features", "degraded stages"], rows)


def run_physical_benchmark(dataset: str = "heart", n_rows: int = 250) -> dict:
    """Measured physical stage fan-out against stateless transport clients."""
    return physical_overlap_report(
        load_dataset(dataset, n_rows=n_rows), concurrency=CONCURRENCY
    )


def render_physical_table(payload: dict) -> str:
    rows = [
        [
            payload["dataset"],
            f"{payload['wall_serial_s']:.2f}",
            f"{payload['wall_overlap_s']:.2f}",
            f"{payload['measured_speedup']:.2f}x",
            "yes" if payload["physical_overlap"] else "NO",
            "; ".join("+".join(pair) for pair in payload["stages_overlapped"]) or "-",
        ]
    ]
    return render_table(
        [
            "dataset",
            "serial plan (s)",
            "overlap plan (s)",
            "speedup",
            "physical",
            "measured overlaps",
        ],
        rows,
    )


def assert_physical(payload: dict) -> None:
    assert payload["physical_overlap"], payload
    assert not payload["serial_plan_physical"], payload
    assert payload["stages_overlapped"], (
        "no post-unary stages physically overlapped: "
        f"{payload['schedule']['nodes']}"
    )


def assert_overlap(payload: dict, min_speedup: float = 1.5) -> None:
    assert payload["all_equivalent"], (
        "serial and overlapped stage plans diverged: "
        f"{[r['dataset'] for r in payload['datasets']]}"
    )
    assert payload["min_speedup"] >= min_speedup, (
        f"overlap speedup below {min_speedup}x: {payload['min_speedup']}"
    )


def assert_budget(payload: dict) -> None:
    assert payload["any_degraded"], payload
    for run in payload["runs"]:
        assert run["spent_calls"] <= run["max_calls"] + 25, run  # batch overshoot cap


def run_smoke() -> int:
    """CI gate: serial == overlap on one seeded dataset, schedule sane."""
    payload = run_overlap_benchmark(datasets=("heart",), n_rows=200)
    report = payload["datasets"][0]
    assert payload["all_equivalent"], report
    assert report["speedup"] > 1.0, report
    budget_payload = run_budget_benchmark(ladder=(25,), n_rows=200)
    assert_budget(budget_payload)
    physical = run_physical_benchmark(n_rows=150)
    assert_physical(physical)
    print("scheduler smoke ok: serial == overlap, "
          f"speedup {report['speedup']:.2f}x, "
          f"budget degradation {budget_payload['runs'][0]['degraded']}, "
          f"physical stage overlap {physical['stages_overlapped']} "
          f"({physical['measured_speedup']:.2f}x measured)")
    return 0


def test_stage_overlap_speedup(results_dir):
    """Overlapped schedule: ≥1.5x shorter modelled makespan, identical output."""
    from benchmarks.conftest import write_result

    payload = run_overlap_benchmark()
    write_result(results_dir, "scheduler_overlap.txt", render_overlap_table(payload))
    assert_overlap(payload)


def test_budget_planned_degradation(results_dir):
    """Tight budgets shrink/skip stages in the schedule instead of raising."""
    from benchmarks.conftest import write_result

    payload = run_budget_benchmark()
    write_result(results_dir, "scheduler_budget.txt", render_budget_table(payload))
    assert_budget(payload)


def test_physical_stage_overlap(results_dir):
    """Stateless clients: the overlap plan physically fans stages out."""
    from benchmarks.conftest import write_result

    payload = run_physical_benchmark()
    write_result(results_dir, "scheduler_physical.txt", render_physical_table(payload))
    assert_physical(payload)


def main() -> int:
    from conftest import bench_json_path, write_bench_json

    if "--smoke" in sys.argv:
        return run_smoke()
    payload = run_overlap_benchmark()
    print(render_overlap_table(payload))
    budget_payload = run_budget_benchmark()
    print()
    print(render_budget_table(budget_payload))
    physical = run_physical_benchmark()
    print()
    print(render_physical_table(physical))
    write_bench_json(
        bench_json_path("scheduler", smoke=False),
        {"overlap": payload, "budget_planning": budget_payload, "physical_overlap": physical},
    )
    assert_overlap(payload)
    assert_budget(budget_payload)
    assert_physical(physical)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
