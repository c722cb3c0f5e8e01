"""Section 4.2 "Efficiency" — modelled full-scale runtimes and DNFs,
plus the concurrent-execution critical-path benchmark.

From the shared sweep: per method × dataset, the modelled full-scale
time (working-sample wall time extrapolated to Table 3 row counts, plus
simulated FM latency; see EXPERIMENTS.md).  Shape assertions mirror the
paper's findings:

* SMARTFEAT and Featuretools finish well within budget everywhere;
* AutoFeat exhausts the budget on the large datasets (Bank, Adult);
* CAAFE is slower than SMARTFEAT in general, with its DNN-validated runs
  timing out on large datasets.

The concurrency benchmark compares the FM executor at concurrency 1 and
8 on identical wave semantics: same accepted features, same
ledger totals, ≥3× lower modelled critical-path latency at concurrency
8.  The sweep benchmark applies the same comparison one level up: the
cell-parallel eval sweep must reproduce the serial sweep cell for cell
with a ≥2.5× lower modelled sweep wall-clock at ``sweep_concurrency=4``.
``python benchmarks/bench_efficiency.py`` runs both standalone (no
pytest session) and writes ``BENCH_efficiency.json`` at the repo root
for the performance trajectory.
"""

from repro.datasets import load_dataset
from repro.eval import SweepConfig, concurrency_speedup_report, render_table, run_sweep

CONCURRENCY = 8
SPEEDUP_DATASETS = ("heart", "diabetes", "tennis")
SWEEP_CONCURRENCY = 4
SWEEP_DATASETS = ("heart", "diabetes", "tennis")
#: AutoFeat is excluded from the sweep benchmark: its modelled duration is
#: pure measured-wall-time extrapolation (no fixed FM latency), so on a
#: slow machine it becomes the makespan's long pole and the speedup number
#: would measure the benchmark host, not the engine.  The FM-driven cells'
#: modelled durations are dominated by deterministic simulated latency,
#: keeping the assertion machine-independent.
SWEEP_METHODS = ("initial", "smartfeat", "caafe", "featuretools")


def run_concurrency_benchmark() -> dict:
    """Serial vs thread-pool critical path across a few datasets."""
    reports = [
        concurrency_speedup_report(
            load_dataset(name, n_rows=300), concurrency=CONCURRENCY
        )
        for name in SPEEDUP_DATASETS
    ]
    return {
        "concurrency": CONCURRENCY,
        "datasets": reports,
        "min_speedup": min(r["speedup"] for r in reports),
        "all_equivalent": all(
            r["identical_features"] and r["identical_ledgers"] for r in reports
        ),
    }


def render_concurrency_table(payload: dict) -> str:
    rows = [
        [
            r["dataset"],
            str(r["n_calls"]),
            str(r["n_features"]),
            f"{r['serial_critical_path_s']:,.1f}",
            f"{r['concurrent_critical_path_s']:,.1f}",
            f"{r['speedup']:.2f}x",
            "yes" if r["identical_features"] and r["identical_ledgers"] else "NO",
        ]
        for r in payload["datasets"]
    ]
    return render_table(
        [
            "dataset",
            "FM calls",
            "features",
            "serial (s)",
            f"c={payload['concurrency']} (s)",
            "speedup",
            "equivalent",
        ],
        rows,
    )


def _sweep_fingerprint(result) -> dict:
    """Per-cell outcome identity, excluding real-time measurements."""
    return {
        f"{dataset}/{method}": (
            outcome.status,
            {model: round(auc, 9) for model, auc in outcome.auc_by_model.items()},
            outcome.fm_calls,
            round(outcome.fm_cost_usd, 9),
        )
        for (dataset, method), outcome in result.outcomes.items()
    }


def run_sweep_speedup_benchmark() -> dict:
    """Serial vs cell-parallel eval sweep: identical cells, shorter makespan.

    The modelled numbers extrapolate each cell's full-scale duration and
    schedule them onto ``SWEEP_CONCURRENCY`` workers (the same greedy
    makespan model the FM executor uses), so the headline speedup does
    not depend on the benchmark machine's core count.
    """
    config = SweepConfig(
        datasets=SWEEP_DATASETS,
        methods=SWEEP_METHODS,
        models=("lr", "nb"),
        n_rows=250,
        n_splits=3,
        time_limit_s=None,
    )
    serial = run_sweep(config)
    parallel = run_sweep(config, sweep_concurrency=SWEEP_CONCURRENCY)
    modelled_serial = serial.modelled_serial_s
    modelled_parallel = serial.modelled_wall_s(SWEEP_CONCURRENCY)
    return {
        "sweep_concurrency": SWEEP_CONCURRENCY,
        "datasets": list(SWEEP_DATASETS),
        "n_cells": len(serial.outcomes),
        "status_counts": serial.status_counts(),
        "total_fm_calls": serial.total_fm_calls,
        "modelled_serial_s": round(modelled_serial, 1),
        "modelled_parallel_s": round(modelled_parallel, 1),
        "speedup": round(modelled_serial / modelled_parallel, 2),
        "wall_serial_s": round(serial.wall_s, 2),
        "wall_parallel_s": round(parallel.wall_s, 2),
        "identical_cells": _sweep_fingerprint(serial) == _sweep_fingerprint(parallel),
    }


def render_sweep_speedup_table(payload: dict) -> str:
    rows = [
        [
            "+".join(payload["datasets"]),
            str(payload["n_cells"]),
            f"{payload['modelled_serial_s']:,.1f}",
            f"{payload['modelled_parallel_s']:,.1f}",
            f"{payload['speedup']:.2f}x",
            "yes" if payload["identical_cells"] else "NO",
        ]
    ]
    return render_table(
        [
            "sweep",
            "cells",
            "serial (s)",
            f"c={payload['sweep_concurrency']} (s)",
            "speedup",
            "equivalent",
        ],
        rows,
    )


def test_concurrent_critical_path(results_dir):
    """Thread-pool execution: ≥3× shorter critical path, identical output."""
    from benchmarks.conftest import write_result

    payload = run_concurrency_benchmark()
    write_result(
        results_dir, "efficiency_concurrency.txt", render_concurrency_table(payload)
    )
    assert payload["all_equivalent"], payload
    assert payload["min_speedup"] >= 3.0, payload


def test_sweep_parallel_speedup(results_dir):
    """Cell-parallel sweep: ≥2.5× shorter modelled makespan, identical cells."""
    from benchmarks.conftest import write_result

    payload = run_sweep_speedup_benchmark()
    write_result(results_dir, "efficiency_sweep.txt", render_sweep_speedup_table(payload))
    assert payload["identical_cells"], payload
    assert payload["speedup"] >= 2.5, payload


def main() -> int:
    from conftest import bench_json_path, write_bench_json

    payload = run_concurrency_benchmark()
    print(render_concurrency_table(payload))
    sweep_payload = run_sweep_speedup_benchmark()
    payload["sweep"] = sweep_payload
    print()
    print(render_sweep_speedup_table(sweep_payload))
    write_bench_json(bench_json_path("efficiency", smoke=False), payload)
    assert payload["all_equivalent"], "serial/concurrent runs diverged"
    assert payload["min_speedup"] >= 3.0, f"speedup below 3x: {payload['min_speedup']}"
    assert sweep_payload["identical_cells"], "serial/parallel sweeps diverged"
    assert sweep_payload["speedup"] >= 2.5, f"sweep speedup below 2.5x: {sweep_payload['speedup']}"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


def _cell(outcome) -> str:
    if outcome.status == "dnf" and not outcome.auc_by_model:
        return "DNF"
    dnf_models = [m for m, s in outcome.model_status.items() if s == "dnf"]
    suffix = f" (DNF: {','.join(dnf_models)})" if dnf_models else ""
    return f"{outcome.modelled_s:,.0f}s{suffix}"


def test_efficiency_runtimes(benchmark, paper_sweep, results_dir):
    from benchmarks.conftest import write_result

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # table is derived, not re-run

    datasets = paper_sweep.config.datasets
    methods = [m for m in paper_sweep.config.methods if m != "initial"]
    rows = []
    for method in methods:
        rows.append(
            [method] + [_cell(paper_sweep.get(dataset, method)) for dataset in datasets]
        )
    table = render_table(["Method", *datasets], rows)
    write_result(results_dir, "efficiency_runtimes.txt", table)

    limit = paper_sweep.config.time_limit_s

    # SMARTFEAT and Featuretools: no DNF anywhere, comfortably inside budget.
    for method in ("smartfeat", "featuretools"):
        for dataset in datasets:
            outcome = paper_sweep.get(dataset, method)
            assert outcome.status in ("ok", "partial"), (method, dataset, outcome.detail)
            assert "dnf" not in outcome.model_status.values(), (method, dataset)
            assert outcome.modelled_s < limit

    # AutoFeat: DNF on the two largest datasets, like the paper.
    for dataset in ("bank", "adult"):
        assert paper_sweep.get(dataset, "autofeat").status == "dnf", dataset

    # CAAFE: the DNN-validated runs exhaust the budget on large datasets.
    caafe_dnn_dnfs = [
        dataset
        for dataset in datasets
        if paper_sweep.get(dataset, "caafe").model_status.get("dnn") == "dnf"
    ]
    assert "bank" in caafe_dnn_dnfs and "adult" in caafe_dnn_dnfs, caafe_dnn_dnfs

    # CAAFE is slower than SMARTFEAT overall (validation retraining).
    slower = sum(
        1
        for dataset in datasets
        if paper_sweep.get(dataset, "caafe").modelled_s
        > paper_sweep.get(dataset, "smartfeat").modelled_s
    )
    assert slower >= 5, slower
