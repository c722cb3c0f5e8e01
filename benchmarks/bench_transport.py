"""Production transport benchmark: hedging, AIMD, and resume economics.

Three claims of the transport layer, each measured against the
simulated HTTP transport with **real sleeps** and asserted:

* **Hedged tail latency** — a latency-spike schedule (a slice of calls
  pay an extra ~10× latency, the classic cold-shard tail) run with and
  without hedging on the thread-pool backend.  Asserted: hedging cuts the
  spiked schedule's p99 per-call latency AND its measured batch
  makespan, while the ledger still records exactly one result per
  logical request.
* **AIMD under rate-limit pressure** — a capacity-limited server (every
  send past 4 in flight is shed with an instant 429) driven at a fixed
  concurrency of 16 vs the same ceiling under AIMD admission.
  Asserted: the adaptive run provokes far fewer 429s per useful call
  and its retry traffic (total sends per success) drops.
* **Resume re-spend = $0** — a checkpointed SMARTFEAT run killed
  mid-graph and resumed.  Asserted: the resumed run's output frame is
  bit-identical to an uninterrupted run's and the final ledgers show
  zero extra FM calls and an unrounded cost total equal (``==``) to the
  uninterrupted run's.

``python benchmarks/bench_transport.py`` writes ``BENCH_transport.json``
at the repo root; ``--smoke`` runs reduced sizes with the same
assertions (the CI gate).
"""

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import SmartFeat
from repro.dataframe import DataFrame
from repro.fm import (
    FMExecutor,
    FMRequest,
    HedgePolicy,
    RetryPolicy,
    SimulatedFM,
    SimulatedHTTPTransport,
    TransportFMClient,
)
from repro.serve import frames_identical

# ----------------------------------------------------------------------
# Hedging: tail-latency spikes
# ----------------------------------------------------------------------
SPIKE = dict(
    base_latency_s=0.02,
    jitter_s=0.005,
    spike_rate=0.10,
    spike_latency_s=0.30,
)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _run_spiked_batch(hedge: HedgePolicy | None, n_requests: int, seed: int = 7):
    client = TransportFMClient(SimulatedHTTPTransport(seed=seed, **SPIKE))
    requests = [FMRequest(f"spiky request {i}") for i in range(n_requests)]
    with FMExecutor(8, hedge=hedge) as executor:
        started = time.perf_counter()
        results = executor.run(client, requests)
        wall = time.perf_counter() - started
        stats = executor.stats.snapshot()
    assert all(r.ok for r in results), "spiked batch had failures"
    latencies = [r.response.latency_s for r in results]
    return {
        "wall_s": round(wall, 3),
        "p50_latency_s": round(_percentile(latencies, 50), 4),
        "p99_latency_s": round(_percentile(latencies, 99), 4),
        "hedges_issued": stats["hedges_issued"],
        "hedges_won": stats["hedges_won"],
        "ledger": client.ledger.snapshot(),
    }


def run_hedging_benchmark(n_requests: int = 96) -> dict:
    unhedged = _run_spiked_batch(None, n_requests)
    hedged = _run_spiked_batch(
        HedgePolicy(quantile=0.9, min_observations=8, initial_delay_s=0.06),
        n_requests,
    )
    return {
        "n_requests": n_requests,
        "schedule": {k: v for k, v in SPIKE.items()},
        "unhedged": unhedged,
        "hedged": hedged,
        "p99_improvement": round(
            unhedged["p99_latency_s"] / max(hedged["p99_latency_s"], 1e-9), 2
        ),
        "makespan_improvement": round(
            unhedged["wall_s"] / max(hedged["wall_s"], 1e-9), 2
        ),
    }


def assert_hedging(payload: dict) -> None:
    hedged, unhedged = payload["hedged"], payload["unhedged"]
    assert hedged["hedges_issued"] > 0, "spike schedule never armed a hedge"
    assert hedged["p99_latency_s"] < unhedged["p99_latency_s"], payload
    assert hedged["wall_s"] < unhedged["wall_s"], payload
    # Exactly one result per logical request reaches the main totals.
    assert hedged["ledger"]["n_calls"] == payload["n_requests"]
    assert unhedged["ledger"]["n_calls"] == payload["n_requests"]
    assert hedged["ledger"]["hedges_issued"] == hedged["hedges_issued"]


# ----------------------------------------------------------------------
# AIMD: capacity-limited server
# ----------------------------------------------------------------------
def _run_capacity_batch(adaptive, n_requests: int, seed: int = 11):
    transport = SimulatedHTTPTransport(
        base_latency_s=0.02, jitter_s=0.005, capacity=4, retry_after_s=0.01, seed=seed
    )
    client = TransportFMClient(transport)
    # Effectively unbounded attempts: the *fixed* run needs them to grind
    # through its self-inflicted 429 storm (the waste shows up in
    # sends_per_success, not in failures); the adaptive run barely retries.
    retry = RetryPolicy(max_attempts=200, backoff_s=0.01, max_backoff_s=0.2)
    requests = [FMRequest(f"capacity probe {i}") for i in range(n_requests)]
    with FMExecutor(16, retry=retry, adaptive=adaptive) as executor:
        started = time.perf_counter()
        results = executor.run(client, requests)
        wall = time.perf_counter() - started
        limit_after = None if executor.adaptive is None else executor.adaptive.limit
    n_ok = sum(1 for r in results if r.ok)
    assert n_ok == n_requests, f"{n_requests - n_ok} requests failed after retries"
    return {
        "wall_s": round(wall, 3),
        "n_sent": transport.stats.n_sent,
        "n_rate_limited": transport.stats.n_rate_limited,
        "sends_per_success": round(transport.stats.n_sent / n_requests, 2),
        "throughput_rps": round(n_requests / wall, 1),
        "final_limit": limit_after,
    }


def run_aimd_benchmark(n_requests: int = 96) -> dict:
    fixed = _run_capacity_batch(None, n_requests)
    adaptive = _run_capacity_batch(True, n_requests)
    return {
        "n_requests": n_requests,
        "server_capacity": 4,
        "client_concurrency": 16,
        "fixed": fixed,
        "adaptive": adaptive,
        "rate_limit_reduction": round(
            fixed["n_rate_limited"] / max(adaptive["n_rate_limited"], 1), 2
        ),
    }


def assert_aimd(payload: dict) -> None:
    fixed, adaptive = payload["fixed"], payload["adaptive"]
    # A fixed concurrency of 16 against capacity 4 must storm.
    assert fixed["n_rate_limited"] > 0, payload
    # AIMD sheds far less load onto the floor...
    assert adaptive["n_rate_limited"] < fixed["n_rate_limited"], payload
    assert adaptive["sends_per_success"] < fixed["sends_per_success"], payload
    # ...and settles near the server's real capacity.
    assert adaptive["final_limit"] is not None
    assert adaptive["final_limit"] <= 10, payload


# ----------------------------------------------------------------------
# Resume: kill mid-graph, re-spend nothing
# ----------------------------------------------------------------------
def _bench_frame(n_repeats: int) -> DataFrame:
    return DataFrame(
        {
            "Age": [21, 35, 42, 22, 45, 56, 30, 28] * n_repeats,
            "Income": [10.0, 25.0, 18.5, 40.0, 31.0, 22.0, 15.5, 60.0] * n_repeats,
            "City": ["SF", "LA", "SEA", "SF", "SEA", "LA", "SF", "LA"] * n_repeats,
            "Target": [0, 1, 1, 0, 1, 1, 0, 1] * n_repeats,
        }
    )


DESCRIPTIONS = {
    "Age": "Age of the customer in years",
    "Income": "Annual income in thousands of dollars",
    "City": "City of residence",
}


class KillSignal(BaseException):
    """Simulated process kill (not an Exception: nothing may catch it)."""


def _make_tool(checkpoint=None, resume=False) -> SmartFeat:
    return SmartFeat(
        fm=SimulatedFM(seed=0, model="gpt-4"),
        function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
        downstream_model="decision_tree",
        checkpoint=checkpoint,
        resume=resume,
    )


def _fit(tool: SmartFeat, frame: DataFrame):
    return tool.fit_transform(frame, target="Target", descriptions=dict(DESCRIPTIONS))


def _install_kill_switch(tool: SmartFeat, kill_after: int) -> None:
    count = {"n": 0}
    lock = threading.Lock()
    for client in (tool.fm, tool.function_fm):
        original = client._complete_with_state

        def killer(prompt, temperature, state, _original=original):
            with lock:
                count["n"] += 1
                n = count["n"]
            if n > kill_after:
                raise KillSignal("simulated kill")
            return _original(prompt, temperature, state)

        client._complete_with_state = killer


def run_resume_benchmark(n_repeats: int = 6, tmp_dir: Path | None = None) -> dict:
    import tempfile

    frame = _bench_frame(n_repeats)
    base_tool = _make_tool()
    base_result = _fit(base_tool, frame)
    base_calls = base_tool.fm.ledger.n_calls + base_tool.function_fm.ledger.n_calls
    base_cost = base_tool.fm.ledger.cost_usd + base_tool.function_fm.ledger.cost_usd

    directory = tmp_dir or Path(tempfile.mkdtemp(prefix="bench_transport_"))
    path = directory / "checkpoint.json"
    killed = _make_tool(checkpoint=str(path))
    kill_after = max(1, base_calls // 2)
    _install_kill_switch(killed, kill_after)
    try:
        _fit(killed, frame)
        raise AssertionError("kill switch did not fire")
    except KillSignal:
        pass

    resumed = _make_tool(checkpoint=str(path), resume=True)
    result = _fit(resumed, frame)
    total_calls = resumed.fm.ledger.n_calls + resumed.function_fm.ledger.n_calls
    total_cost = resumed.fm.ledger.cost_usd + resumed.function_fm.ledger.cost_usd
    schedule = result.fm_usage["execution"]["schedule"]
    restored = [n["name"] for n in schedule["nodes"] if n["status"] == "restored"]
    return {
        "baseline_calls": base_calls,
        "baseline_cost_usd": round(base_cost, 6),
        "killed_after_calls": kill_after,
        "restored_stages": restored,
        "resumed_total_calls": total_calls,
        "resumed_total_cost_usd": round(total_cost, 6),
        "respent_calls": total_calls - base_calls,
        "respent_cost_usd": round(total_cost - base_cost, 6),
        # Unrounded totals for the exact gate (JSON floats round-trip).
        "exact_cost_usd": {"baseline": base_cost, "resumed": total_cost},
        "bit_identical": frames_identical(result.frame, base_result.frame)[0],
    }


def assert_resume(payload: dict) -> None:
    assert payload["bit_identical"], payload
    assert payload["respent_calls"] == 0, payload
    # "$0 re-spend", exactly: the checkpoint stores unrounded ledger
    # state, so the resumed cost total equals the uninterrupted run's.
    exact = payload["exact_cost_usd"]
    assert exact["resumed"] == exact["baseline"], payload
    assert payload["restored_stages"], "kill landed before any stage completed"


# ----------------------------------------------------------------------
def run_smoke() -> int:
    """CI gate: reduced sizes, same assertions."""
    hedging = run_hedging_benchmark(n_requests=48)
    assert_hedging(hedging)
    aimd = run_aimd_benchmark(n_requests=48)
    assert_aimd(aimd)
    resume = run_resume_benchmark(n_repeats=6)
    assert_resume(resume)
    print(
        "transport smoke ok: "
        f"hedging p99 {hedging['unhedged']['p99_latency_s']:.3f}s -> "
        f"{hedging['hedged']['p99_latency_s']:.3f}s "
        f"({hedging['p99_improvement']:.1f}x), "
        f"AIMD 429s {aimd['fixed']['n_rate_limited']} -> "
        f"{aimd['adaptive']['n_rate_limited']}, "
        f"resume re-spend {resume['respent_calls']} calls / "
        f"${resume['respent_cost_usd']:.2f}"
    )
    return 0


def test_hedging_cuts_tail_latency(results_dir):
    from benchmarks.conftest import write_result

    payload = run_hedging_benchmark()
    write_result(
        results_dir, "transport_hedging.txt", json.dumps(payload, indent=2)
    )
    assert_hedging(payload)


def test_aimd_reduces_rate_limit_storms(results_dir):
    from benchmarks.conftest import write_result

    payload = run_aimd_benchmark()
    write_result(results_dir, "transport_aimd.txt", json.dumps(payload, indent=2))
    assert_aimd(payload)


def test_resume_respends_nothing(results_dir, tmp_path):
    from benchmarks.conftest import write_result

    payload = run_resume_benchmark(tmp_dir=tmp_path)
    write_result(results_dir, "transport_resume.txt", json.dumps(payload, indent=2))
    assert_resume(payload)


def main() -> int:
    from conftest import bench_json_path, write_bench_json

    if "--smoke" in sys.argv:
        return run_smoke()
    hedging = run_hedging_benchmark()
    aimd = run_aimd_benchmark()
    resume = run_resume_benchmark()
    payload = {"hedging": hedging, "aimd": aimd, "resume": resume}
    print(json.dumps(payload, indent=2))
    write_bench_json(bench_json_path("transport", smoke=False), payload)
    assert_hedging(hedging)
    assert_aimd(aimd)
    assert_resume(resume)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
