"""Figure 1 and Section 4.2 "Efficiency": interaction-cost accounting.

The paper's core efficiency claim: row-level FM interactions (serialise
every row, ask the FM to fill the masked token) cost O(rows) calls,
while SMARTFEAT's feature-level interactions cost O(features) calls —
independent of table size.  This module prices both styles with the same
:class:`~repro.fm.cost.CostModel` so the comparison is quantitative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import SmartFeat
from repro.datasets.schema import DatasetBundle
from repro.eval.methods import fit_method
from repro.fm import (
    FMExecutor,
    SimulatedHTTPTransport,
    TransportFMClient,
    simulated_pair,
)
from repro.fm.cost import CostModel, estimate_tokens
from repro.serve import frames_identical

__all__ = [
    "InteractionCostPoint",
    "concurrency_speedup_report",
    "interaction_cost_comparison",
    "physical_overlap_report",
    "smartfeat_call_profile",
    "stage_overlap_report",
]


@dataclass
class InteractionCostPoint:
    """Cost of completing one new feature over a table of ``n_rows``."""

    n_rows: int
    style: str  # "row_level" | "feature_level"
    n_calls: int
    tokens: int
    cost_usd: float
    latency_s: float


def _row_level_cost(n_rows: int, record_tokens: int, cost_model: CostModel) -> InteractionCostPoint:
    """Price a row-level completion pass: one call per row."""
    completion_tokens = 8
    prompt_tokens = record_tokens + 24  # serialised record + instruction
    total_tokens = n_rows * (prompt_tokens + completion_tokens)
    return InteractionCostPoint(
        n_rows=n_rows,
        style="row_level",
        n_calls=n_rows,
        tokens=total_tokens,
        cost_usd=n_rows * cost_model.price(prompt_tokens, completion_tokens),
        latency_s=n_rows * cost_model.latency(completion_tokens),
    )


def smartfeat_call_profile(
    bundle: DatasetBundle,
    seed: int = 0,
    executor: FMExecutor | None = None,
    wave_size: int | None = None,
) -> dict[str, float]:
    """Measure SMARTFEAT's actual FM footprint on *bundle* (all families).

    ``latency_s`` sums every call (the cost-accounting view);
    ``critical_path_s`` is the modelled wall-clock under the given
    executor's concurrency — equal to the sum when running serially.
    """
    run = fit_method(
        "smartfeat",
        bundle,
        seed=seed,
        model="random_forest",
        executor=executor,
        wave_size=wave_size,
    )
    return {
        "n_calls": run.fm_calls,
        "tokens": run.fm_tokens,
        "cost_usd": run.fm_cost_usd,
        "latency_s": run.fm_latency_s,
        "critical_path_s": run.result.fm_usage["execution"]["critical_path_s"],
        "n_features": len(run.result.new_features),
    }


def interaction_cost_comparison(
    bundle: DatasetBundle,
    row_counts: tuple[int, ...] = (100, 1_000, 10_000, 100_000),
    seed: int = 0,
) -> list[InteractionCostPoint]:
    """Figure 1's series: row-level vs feature-level cost as rows grow.

    The feature-level numbers are *measured* from a real SMARTFEAT run on
    *bundle* (its call count does not depend on table size); the
    row-level numbers are priced from the cost model for a single
    DI-style masked-token completion per row.
    """
    cost_model = CostModel(model="gpt-4")
    sample_record = ", ".join(
        f"{name}: {bundle.frame[name][0]}" for name in bundle.feature_columns()
    )
    record_tokens = estimate_tokens(sample_record)
    profile = smartfeat_call_profile(bundle, seed=seed)
    points: list[InteractionCostPoint] = []
    for n_rows in row_counts:
        points.append(_row_level_cost(n_rows, record_tokens, cost_model))
        points.append(
            InteractionCostPoint(
                n_rows=n_rows,
                style="feature_level",
                n_calls=int(profile["n_calls"]),
                tokens=int(profile["tokens"]),
                cost_usd=profile["cost_usd"],
                latency_s=profile["latency_s"],
            )
        )
    return points


def concurrency_speedup_report(
    bundle: DatasetBundle,
    concurrency: int = 8,
    seed: int = 0,
) -> dict:
    """Concurrency 1 vs *concurrency* execution of the same SMARTFEAT search.

    Both runs use identical wave semantics (``wave_size=concurrency``),
    so the executor's concurrency is the only variable: the report verifies the
    two runs accept the same features at the same ledger totals, and
    quantifies how much shorter the modelled critical path becomes under
    bounded concurrency.
    """
    serial = _instrumented_run(bundle, FMExecutor(), concurrency, seed)
    with FMExecutor(concurrency) as pool:
        threaded = _instrumented_run(bundle, pool, concurrency, seed)
    speedup = (
        serial["critical_path_s"] / threaded["critical_path_s"]
        if threaded["critical_path_s"] > 0
        else 1.0
    )
    return {
        "dataset": bundle.name,
        "concurrency": concurrency,
        "n_calls": serial["n_calls"],
        "n_features": len(serial["features"]),
        "summed_latency_s": serial["summed_latency_s"],
        "serial_critical_path_s": serial["critical_path_s"],
        "concurrent_critical_path_s": threaded["critical_path_s"],
        "speedup": round(speedup, 2),
        "identical_features": serial["features"] == threaded["features"],
        "identical_ledgers": serial["ledgers"] == threaded["ledgers"],
    }


def _instrumented_run(
    bundle: DatasetBundle,
    executor: FMExecutor,
    wave_size: int,
    seed: int,
    stage_plan: str = "serial",
) -> dict:
    run = fit_method(
        "smartfeat",
        bundle,
        seed=seed,
        model="random_forest",
        executor=executor,
        wave_size=wave_size,
        stage_plan=stage_plan,
    )
    stats = executor.stats.snapshot()
    return {
        "features": sorted(run.result.new_features),
        "feature_order": list(run.result.new_features),
        "result": run.result,
        "ledgers": tuple(client.ledger.snapshot() for client in run.clients),
        "n_calls": run.fm_calls,
        "cache_hits": run.fm_cache_hits,
        "tokens": run.fm_tokens,
        "summed_latency_s": stats["summed_latency_s"],
        "critical_path_s": stats["critical_path_s"],
        "schedule": run.schedule,
    }


def stage_overlap_report(
    bundle: DatasetBundle,
    concurrency: int = 8,
    seed: int = 0,
) -> dict:
    """Serial vs overlapped stage scheduling of the same SMARTFEAT search.

    Both runs use identical wave semantics and dispatch stages in the
    canonical §3.2 order; the plans differ in what each stage *sees*
    (the overlap plan cuts every stage's view to its declared reads) and
    in the modelled timeline.  The report verifies the equivalence
    contract — identical frames, accepted-feature order, and ledger call
    counts — and quantifies the modelled makespan win from overlapping
    independent stages plus the prompt tokens the narrower views save.
    """
    with FMExecutor(concurrency) as serial_pool:
        serial = _instrumented_run(
            bundle, serial_pool, concurrency, seed, stage_plan="serial"
        )
    with FMExecutor(concurrency) as overlap_pool:
        overlap = _instrumented_run(
            bundle, overlap_pool, concurrency, seed, stage_plan="overlap"
        )
    makespan_serial = serial["schedule"]["makespan_serial_s"]
    makespan_overlap = overlap["schedule"]["makespan_overlap_s"]
    speedup = makespan_serial / makespan_overlap if makespan_overlap > 0 else 1.0
    return {
        "dataset": bundle.name,
        "concurrency": concurrency,
        "n_calls": serial["n_calls"],
        "n_features": len(serial["features"]),
        "makespan_serial_s": makespan_serial,
        "makespan_overlap_s": makespan_overlap,
        "speedup": round(speedup, 2),
        "tokens_serial": serial["tokens"],
        "tokens_overlap": overlap["tokens"],
        "token_savings": round(1.0 - overlap["tokens"] / serial["tokens"], 4)
        if serial["tokens"]
        else 0.0,
        "critical_path": overlap["schedule"]["critical_path"],
        "identical_features": serial["feature_order"] == overlap["feature_order"],
        "identical_frames": frames_identical(
            serial["result"].frame, overlap["result"].frame
        )[0],
        "identical_call_counts": (
            serial["n_calls"] == overlap["n_calls"]
            and serial["cache_hits"] == overlap["cache_hits"]
        ),
        "schedule": overlap["schedule"],
    }


def _transport_run(
    bundle: DatasetBundle,
    stage_plan: str,
    concurrency: int,
    base_latency_s: float,
    seed: int,
    wave_size: int,
    sampling_budget: int,
) -> dict:
    """One SMARTFEAT search over transport-backed stateless clients.

    The seeded simulators sit *behind* the transport as the server's
    text generator (a real API's entropy is server-side too), so the
    clients themselves are stateless and the overlap plan may physically
    fan independent stages out.  Latency is real: the transport sleeps.
    """
    fm, function_fm = (
        TransportFMClient(
            SimulatedHTTPTransport(
                responder=lambda req, server=server: server._complete_text(
                    req.prompt, req.temperature
                ),
                base_latency_s=base_latency_s,
                jitter_s=0.0,
                seed=server.seed,
            ),
            model=server.model,
        )
        for server in simulated_pair(seed)
    )
    with FMExecutor(concurrency) as executor:
        tool = SmartFeat(
            fm=fm,
            function_fm=function_fm,
            downstream_model="random_forest",
            executor=executor,
            wave_size=wave_size,
            sampling_budget=sampling_budget,
            stage_plan=stage_plan,
        )
        started = time.perf_counter()
        result = tool.fit_transform(
            bundle.frame,
            target=bundle.target,
            descriptions=bundle.descriptions,
            title=bundle.title,
            target_description=bundle.target_description,
        )
        wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "n_features": len(result.new_features),
        "n_calls": fm.ledger.n_calls + function_fm.ledger.n_calls,
        "schedule": result.fm_usage["execution"]["schedule"],
    }


def physical_overlap_report(
    bundle: DatasetBundle,
    concurrency: int = 8,
    base_latency_s: float = 0.03,
    seed: int = 0,
    wave_size: int = 4,
    sampling_budget: int = 8,
) -> dict:
    """Measured (not modelled) stage overlap against a stateless client.

    Runs the same search twice through transport-backed clients with
    real per-call latency on a *concurrency*-wide executor: once with the
    serial stage chain, once with ``stage_plan="overlap"`` — where the
    scheduler detects the stateless clients and physically fans the
    independent stages out through the shared executor.  The report's
    ``stages_overlapped`` counts post-unary stages whose *measured*
    windows intersect; on a serial plan that count is zero by
    construction.  Feature identity is **not** asserted here: against a
    server-side-entropy backend, concurrent plans may legitimately draw
    different candidates — exactly like a real deployment.
    """
    serial = _transport_run(
        bundle, "serial", concurrency, base_latency_s, seed, wave_size, sampling_budget
    )
    overlap = _transport_run(
        bundle, "overlap", concurrency, base_latency_s, seed, wave_size, sampling_budget
    )
    windows = {
        node["name"]: node["measured_window_s"]
        for node in overlap["schedule"]["nodes"]
        if node["measured_window_s"] and node["fm_calls"] > 0
    }
    names = list(windows)
    overlapped_pairs = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if windows[a][0] < windows[b][1] and windows[b][0] < windows[a][1]
    ]
    speedup = serial["wall_s"] / overlap["wall_s"] if overlap["wall_s"] > 0 else 1.0
    return {
        "dataset": bundle.name,
        "concurrency": concurrency,
        "base_latency_s": base_latency_s,
        "wall_serial_s": round(serial["wall_s"], 3),
        "wall_overlap_s": round(overlap["wall_s"], 3),
        "measured_speedup": round(speedup, 2),
        "physical_overlap": overlap["schedule"]["physical_overlap"],
        "serial_plan_physical": serial["schedule"]["physical_overlap"],
        "stages_overlapped": [list(pair) for pair in overlapped_pairs],
        "n_calls_serial": serial["n_calls"],
        "n_calls_overlap": overlap["n_calls"],
        "n_features_serial": serial["n_features"],
        "n_features_overlap": overlap["n_features"],
        "schedule": overlap["schedule"],
    }
