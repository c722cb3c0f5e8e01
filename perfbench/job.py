"""The job process: load one workload's inputs and run its timed jobs.

``run.py`` starts this process after set-up, so the process's peak RSS
covers loading the inputs and the timed jobs only.  Jobs repeat until
``--seconds`` have passed and at least :data:`MIN_JOBS` are done.  With
``--trace 1`` every other job is traced.  The records go to ``job.json``
in the work directory, and the spans, when tracing, to ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer, install_job_layers, summarize  # noqa: E402
from workloads import SCALES, WORKLOADS, Metronome  # noqa: E402

#: Fewest untraced jobs in a run, and fewest traced jobs in a traced run.
MIN_JOBS = 3
MIN_TRACED_JOBS = 2

#: FM counters a fit job records, reported under the ``fm`` layer.
FM_COUNTERS = (
    "fm.batches",
    "fm.requests",
    "fm.sends",
    "fm.retries",
    "fm.failed",
    "fm.cache_hits",
    "fm.calls",
    "fm.cost_usd",
)


def layer_metrics(spans, record, counters) -> dict:
    layers = summarize(spans)
    for key in FM_COUNTERS:
        layers[key] = record.counters.get(key, 0)
    layers["fm.wait_s"] = layers["fm.busy_s"]
    sends = layers["fm.sends"]
    layers["fm.useful_ratio"] = layers["fm.requests"] / sends if sends else 0.0
    layers["plan.shards"] = counters["plan.shards"]
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=sorted(SCALES), default="full")
    args = parser.parse_args()

    work = Path(args.work)
    workload = WORKLOADS[args.workload](SCALES[args.mode], args.seed)
    workload.load(work)
    tracer = Tracer() if args.trace else None
    counters: dict = defaultdict(int)
    if tracer is not None:
        install_job_layers(tracer, counters)

    records = []
    Metronome.warm_up()
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        first_span = len(tracer.spans) if tracer is not None else 0
        counters.clear()
        record = workload.run_job(tracer if traced else None, work, len(records))
        record.traced = traced
        if traced:
            record.layers = layer_metrics(tracer.spans[first_span:], record, counters)
        records.append(record)
        n_traced = sum(r.traced for r in records)
        if (
            time.perf_counter() >= deadline
            and len(records) - n_traced >= MIN_JOBS
            and (tracer is None or n_traced >= MIN_TRACED_JOBS)
        ):
            break

    if tracer is not None:
        tracer.restore()
        tracer.write_jsonl(work / "spans.jsonl")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "jobs": [asdict(r) for r in records],
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    (work / "job.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
