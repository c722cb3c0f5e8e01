"""The repository's benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload fit_dataplane --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fit_dataplane`` — ``SmartFeat.fit_transform`` on a 1e5-row synthetic
  table with a zero-latency simulated FM: the fit's data plane.
* ``fit_fm_bound`` — the same search on a 2000-row synthetic table behind
  simulated HTTP transports (50 ms + U(0, 20 ms), 5% 429s) on a
  two-thread executor: FM dispatch.
* ``serve_batches`` — one closed-loop client, 100 ``FeatureServer.transform``
  calls of 10k rows each: the per-feature ops.
* ``serve_csv`` — ``repro plan apply --chunk-rows 2000`` on a 5e4-row
  CSV, in-process: decode, ops and write.

A run sets the workload up several times (``setup_s`` is the median),
then starts ``job.py`` in a fresh process that repeats the timed job for
``--seconds``.  End-to-end metrics (``--trace 0``) are medians over those
jobs; ``batch_p50_ms``/``batch_p90_ms`` pool every batch of every job (a
batch is an FM round trip in a fit, a ``transform`` call, or a CSV
chunk).  Times of CPU-bound jobs are scaled to a reference machine speed
by :class:`workloads.Metronome`.  With ``--trace 1`` every other job is
traced and the metrics are the per-layer medians over the traced jobs.

The correctness gates compare the jobs' output digests with each other,
with a reference computed another way (the serial executor, one
whole-table ``plan.apply``, the unchunked CLI), and with every earlier
run of the same seed.  A failed gate prints ``"correct": false`` and
exits 1.  ``--mode smoke`` runs small inputs and keeps its files apart
from full-mode ones.  Work files and result stamps go under
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run: at least SETUP_REPS, and more while they add up to
#: less than SETUP_MIN_S (at most SETUP_MAX_REPS); ``setup_s`` is their
#: median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25
#: Every run ends within this many seconds.
RUN_LIMIT_S = 170


def metric_specs() -> tuple[list, list]:
    """``(end_to_end, per_layer)`` names and units from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        [(m["name"], m["unit"]) for m in spec[kind]] for kind in ("end_to_end", "per_layer")
    )


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p90(samples: list[float]) -> float:
    """The 90th percentile (exclusive method)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[-1]


def run_setup(workload, work: Path, tracer) -> tuple[float, int, list[float]]:
    """Repeat the set-up: (median scaled seconds, rows, compiler seconds
    per rep).  The metronome ticks between repetitions."""
    from workloads import Metronome, window

    times, compiler = [], []
    rows = 0
    Metronome.warm_up()
    metronome = Metronome()
    while len(times) < SETUP_REPS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS
    ):
        metronome.tick()
        first = len(tracer.spans) if tracer is not None else 0
        with window(tracer):
            started = time.perf_counter()
            rows = workload.setup(work)
            times.append(time.perf_counter() - started)
        if tracer is not None:
            compiler.append(
                sum(s.dur_s for s in tracer.spans[first:] if s.layer == "compiler")
            )
    metronome.tick()
    return statistics.median(times) * metronome.scale, rows, compiler


def run_job_process(args, work: Path, remaining_s: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "job.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--work", str(work),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", args.mode,
    ]  # fmt: skip
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=max(remaining_s, 1.0)
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"job process exited {done.returncode}")
    return json.loads((work / "job.json").read_text())


def check(workload, work: Path, jobs: list[dict], store: Path) -> list[str]:
    """Every correctness gate; returns the failures."""
    from tracing import RECONCILE_TOLERANCE

    problems = []
    digests = {job["digest"] for job in jobs}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different outputs across {len(jobs)} jobs")
    digest = jobs[0]["digest"]
    expected = workload.reference(work)
    if expected and expected != digest:
        problems.append("output differs from the reference route")
    if store.exists():
        if store.read_text() != digest:
            problems.append(f"output differs from an earlier run of this seed ({store})")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(digest)
    if any(job["failed"] for job in jobs):
        problems.append("operations failed")
    for job in jobs:
        layers = job["layers"]
        if layers and (
            layers["trace.reconcile_error"] > RECONCILE_TOLERANCE
            or layers["trace.nesting_errors"]
        ):
            problems.append(
                f"span self times do not reconcile with the traced wall "
                f"(error {layers['trace.reconcile_error']:.2%}, "
                f"{layers['trace.nesting_errors']} spans outside their parent)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from tracing import Tracer
    from workloads import SCALES, WORKLOADS

    end_to_end_spec, per_layer_spec = metric_specs()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    base = ROOT / ".perfbench"
    work = base / args.mode / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](SCALES[args.mode], args.seed)

    tracer = None
    if args.trace:
        import repro.serve

        tracer = Tracer()
        tracer.patch(repro.serve, "compile_plan", tracer.wrapper("compiler", "compile_plan"))
    try:
        setup_s, rows, compiler_s = run_setup(workload, work, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    report = run_job_process(args, work, RUN_LIMIT_S - (time.perf_counter() - started))
    jobs = report["jobs"]
    plain = [job for job in jobs if not job["traced"]]
    traced = [job for job in jobs if job["traced"]]
    problems = check(
        workload, work, jobs, base / "digests" / args.mode / f"{args.workload}-{args.seed}"
    )

    wall_s = statistics.median(job["wall_s"] * job["scale"] for job in plain)
    raw_wall_s = statistics.median(job["wall_s"] for job in plain)
    scale = statistics.median(job["scale"] for job in plain)
    batches = [ms for job in plain for ms in job["latencies_ms"]]
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rows_per_s": plain[0]["rows"] / wall_s,
        "batch_p50_ms": statistics.median(batches),
        "batch_p90_ms": p90(batches),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    attempted = sum(job["attempted"] for job in plain)
    failed = sum(job["failed"] for job in plain)
    fm = plain[0]["counters"]

    print(
        f"perfbench {args.workload} seed={args.seed} mode={args.mode} "
        f"trace={args.trace} jobs={len(plain)}+{len(traced)} traced "
        f"rows/job={plain[0]['rows']} batches={len(batches)}"
    )
    for name, unit in end_to_end_spec:
        print(f"  {name:<24} {end_to_end[name]:>14.4f} {unit}")
    print(f"  {'unscaled wall_s':<24} {raw_wall_s:>14.4f} s (metronome scale {scale:.3f})")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.4f} ratio ({failed}/{attempted})")
    if "fm.calls" in fm:
        print(f"  {'fm_calls':<24} {fm['fm.calls']:>14d} count")
        print(f"  {'fm_cost_usd':<24} {fm['fm.cost_usd']:>14.4f} USD")
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(job["layers"][key] for job in traced)
        layers["compiler.busy_s"] = statistics.median(compiler_s) if compiler_s else 0.0
        # Traced jobs do not tick, so both sides of the ratio are unscaled.
        layers["trace.overhead_frac"] = (
            statistics.median(job["wall_s"] for job in traced) / raw_wall_s - 1
        )
        traced_wall = layers["trace.wall_s"]
        self_times = {
            key[: -len(".self_s")]: value
            for key, value in layers.items()
            if key.endswith(".self_s")
        }
        self_times["unattributed"] = layers["trace.unattributed_s"]
        print(f"  layer self times (median of {len(traced)} traced jobs, wall {traced_wall:.3f} s):")
        for layer, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
            if value > 0:
                print(f"    {layer:<22} {value:>9.4f} s {value / traced_wall:>7.1%}")
        dominant = max(self_times, key=self_times.get)
        layers["dominant_layer"] = dominant
        print(f"  dominant layer: {dominant}")
        for name, unit in per_layer_spec:
            print(f"  {name:<28} {layers[name]:>14.6g} {unit}")
    print("  correctness: " + ("; ".join(problems) if problems else "ok"))

    stamp = {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "trace": args.trace,
        "seconds": args.seconds,
        "rows_per_job": plain[0]["rows"],
        "jobs": len(plain),
        "traced_jobs": len(traced),
        "batches": len(batches),
        "end_to_end": end_to_end,
        "unscaled_wall_s": raw_wall_s,
        "metronome_scale": scale,
        "fm": fm,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "problems": problems,
    }
    results = base / "results" / args.mode
    results.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    (results / f"{args.workload}.{kind}.json").write_text(json.dumps(stamp, indent=2) + "\n")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer_spec}
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit} for name, unit in end_to_end_spec
        }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
