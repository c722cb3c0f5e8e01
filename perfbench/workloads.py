"""The benchmark's four workloads.

Each workload has four parts:

* ``setup`` (parent process, timed as ``setup_s``) builds the inputs from
  the seed and leaves them in the run's work directory;
* ``load`` (job process) reads them back;
* ``run_job`` (job process) runs one timed job and returns a
  :class:`JobRecord`;
* ``reference`` (parent process, after the job process has exited)
  recomputes the expected output by another route, for the correctness
  gate.

The simulated FMs' sampling seed is the constant :data:`FM_SEED`; the
benchmark seed picks the data.  So every seed runs the same search over
different values, and run-to-run spread measures the code, not a
different search path.
"""

from __future__ import annotations

import functools
import hashlib
import io as _stdio
import json
import os
import pickle
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Patches, trace_executor

#: Sampling seed of every simulated FM (see the module docstring).
FM_SEED = 0

#: Input sizes.  ``smoke`` is a fast check of the whole machinery.
SCALES = {
    "full": {
        "fit_rows": 100_000,
        "fm_bound_rows": 2000,
        "fm_latency_s": 0.05,
        "fm_jitter_s": 0.02,
        "table_rows": 100_000,
        "n_groups": 5000,
        "batch_rows": 10_000,
        "batches": 100,
        "csv_rows": 50_000,
        "chunk_rows": 2000,
        "plan_rows": 4000,
    },
    "smoke": {
        "fit_rows": 3000,
        "fm_bound_rows": 300,
        "fm_latency_s": 0.005,
        "fm_jitter_s": 0.002,
        "table_rows": 4000,
        "n_groups": 200,
        "batch_rows": 500,
        "batches": 20,
        "csv_rows": 2000,
        "chunk_rows": 200,
        "plan_rows": 1000,
    },
}


#: Mean :meth:`Metronome.tick` time on the reference machine (2-core
#: build box, Python 3.11, unloaded).  Reported times are scaled to it.
METRONOME_REF_S = 0.005


class Metronome:
    """Samples the machine's speed while a job runs, and keeps the job's
    batch latencies.

    The build box's speed drifts by tens of percent within seconds (other
    tenants share its cores), and a slice of work timed only before and
    after a job misses most of it.  So jobs tick at their batch
    boundaries: each tick times a fixed slice of interpreter work.  A
    batch latency is scaled by ``METRONOME_REF_S`` over the mean of the
    ticks just before and after it, and the job's wall by
    ``METRONOME_REF_S`` over the mean of all ticks.  Tick time is taken
    out of every measured interval.  A disabled metronome (traced jobs,
    and jobs that mostly wait on simulated network sleeps) does not tick
    and scales by 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.ticks: list[float] = []
        self._latencies: list[tuple[int, float]] = []

    def tick(self) -> None:
        if not self.enabled:
            return
        started = time.perf_counter()
        values = list(range(20_000))
        total = 0
        for v in values:
            total += v * v
        len(set(map(str, values)))
        self.ticks.append(time.perf_counter() - started)

    def record(self, latency_s: float) -> None:
        """Keep one batch latency, placed after the latest tick."""
        self._latencies.append((len(self.ticks) - 1, latency_s))

    def latencies_ms(self) -> list[float]:
        """The recorded latencies in ms, each scaled by its nearby ticks."""
        out = []
        for before, latency_s in self._latencies:
            near = self.ticks[max(before, 0) : before + 2]
            scale = METRONOME_REF_S / (sum(near) / len(near)) if near else 1.0
            out.append(latency_s * scale * 1e3)
        return out

    @staticmethod
    def warm_up() -> None:
        """A new process's first ticks run slow; spend them here."""
        metronome = Metronome()
        for _ in range(3):
            metronome.tick()

    @property
    def spent_s(self) -> float:
        return sum(self.ticks)

    @property
    def scale(self) -> float:
        if not self.ticks:
            return 1.0
        return METRONOME_REF_S / (sum(self.ticks) / len(self.ticks))


@dataclass
class JobRecord:
    """What one timed job reports back to the parent."""

    wall_s: float
    rows: int
    latencies_ms: list[float]
    digest: str
    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)
    traced: bool = False
    layers: dict = field(default_factory=dict)
    #: Factor from this job's raw times to reference-machine times.
    scale: float = 1.0


def window(tracer, **attrs):
    """The root span of timed work when tracing, else nothing."""
    return tracer.root(**attrs) if tracer is not None else nullcontext()


def latency_probe(metronome: Metronome):
    """``make`` for a patch: ticks, then records the call's latency."""

    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            metronome.tick()
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                metronome.record(time.perf_counter() - started)

        return timed

    return make


def frame_digest(frame, ordered: bool = True) -> str:
    """SHA-256 over names, dtypes and values; *ordered* includes column order.

    Object cells hash by ``repr``, so equal values hash equal whether or
    not they are the same Python objects.
    """
    digest = hashlib.sha256()
    for name in frame.columns if ordered else sorted(frame.columns):
        values = frame[name].values
        digest.update(f"{name}:{values.dtype}:{len(values)}".encode())
        if values.dtype == object:
            digest.update("\x1e".join(map(repr, values.tolist())).encode())
        else:
            digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _save(path: Path, obj) -> None:
    with open(path, "wb") as handle:
        pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _load(path: Path):
    # Only files this benchmark's own set-up wrote are read back.
    with open(path, "rb") as handle:
        return pickle.load(handle)


class Workload:
    name = ""
    #: Whether the timed job is CPU work, so its times are scaled by the
    #: :class:`Metronome` (a job that mostly waits on simulated network
    #: sleeps is not).
    cpu_bound = True

    def __init__(self, scale: dict, seed: int) -> None:
        self.scale = scale
        self.seed = seed

    def setup(self, work: Path) -> int:
        """Build the inputs into *work*; return input rows per job."""
        raise NotImplementedError

    def load(self, work: Path) -> None:
        raise NotImplementedError

    def run_job(self, tracer, work: Path, job: int) -> JobRecord:
        """Timed job number *job* of the run; traced when *tracer* is given."""
        raise NotImplementedError

    def metronome(self, tracer) -> Metronome:
        return Metronome(enabled=self.cpu_bound and tracer is None)

    def reference(self, work: Path) -> str:
        """The digest a correct job must produce."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Fits
# ----------------------------------------------------------------------
class _Fit(Workload):
    """``SmartFeat.fit_transform`` over a synthetic table (mixed types,
    missing values, text, dates) of ``scale[rows_key]`` rows."""

    rows_key = ""
    #: Whether install order is part of the result (False where thread
    #: completion order may permute draws inside a sampling wave).
    ordered = True
    wave_size = 1

    def setup(self, work: Path) -> int:
        from repro.datasets.synth import make_synthetic_bundle

        bundle = make_synthetic_bundle(self.scale[self.rows_key], seed=self.seed)
        bundle.setdefault("target_description", "")
        _save(work / "bundle.pkl", bundle)
        return len(bundle["frame"])

    def load(self, work: Path) -> None:
        self.bundle = _load(work / "bundle.pkl")

    def clients(self, job: int):
        """``(fm, function_fm, executor, transports)`` for fit *job*."""
        raise NotImplementedError

    def fit(self, fm, function_fm, executor, tracer=None, metronome=None):
        from repro.core import SmartFeat

        tool = SmartFeat(
            fm, function_fm=function_fm, executor=executor, wave_size=self.wave_size
        )
        bundle = self.bundle
        with window(tracer):
            started = time.perf_counter()
            result = tool.fit_transform(
                bundle["frame"],
                bundle["target"],
                descriptions=bundle["descriptions"],
                title=bundle["title"],
                target_description=bundle["target_description"],
            )
            wall_s = time.perf_counter() - started
        if metronome is not None:
            wall_s -= metronome.spent_s
        return result, wall_s

    def digest(self, result, clients) -> str:
        names = list(result.new_features)
        ledgers = [
            (
                c.ledger.n_calls,
                c.ledger.prompt_tokens,
                c.ledger.completion_tokens,
                round(c.ledger.cost_usd, 9),
            )
            for c in clients
        ]
        head = json.dumps([names if self.ordered else sorted(names), ledgers])
        return hashlib.sha256(
            (head + frame_digest(result.frame, self.ordered)).encode()
        ).hexdigest()

    def run_job(self, tracer, work: Path, job: int) -> JobRecord:
        fm, function_fm, executor, transports = self.clients(job)
        metronome = self.metronome(tracer)
        if tracer is not None:
            trace_executor(tracer, executor)
        Patches().patch(executor, "run", latency_probe(metronome))
        try:
            result, wall_s = self.fit(fm, function_fm, executor, tracer, metronome)
        finally:
            executor.close()
        clients = [fm] if function_fm is None else [fm, function_fm]
        stats = executor.stats
        requests = stats.n_calls + stats.n_errors + stats.cache_hits
        sends = (
            sum(t.stats.n_sent for t in transports)
            if transports
            else stats.n_calls + stats.n_errors + stats.n_retries
        )
        return JobRecord(
            wall_s=wall_s,
            rows=len(self.bundle["frame"]),
            latencies_ms=metronome.latencies_ms(),
            digest=self.digest(result, clients),
            attempted=requests,
            failed=stats.n_errors,
            scale=metronome.scale,
            counters={
                "fm.batches": stats.n_batches,
                "fm.requests": requests,
                "fm.sends": sends,
                "fm.retries": stats.n_retries,
                "fm.failed": stats.n_errors,
                "fm.cache_hits": stats.cache_hits,
                "fm.calls": sum(c.ledger.n_calls for c in clients),
                "fm.cost_usd": sum(c.ledger.cost_usd for c in clients),
                "features": len(result.new_features),
            },
        )


class FitDataplane(_Fit):
    """A large table and a zero-latency simulated FM on the serial
    executor: the data plane does nearly all the work."""

    name = "fit_dataplane"
    rows_key = "fit_rows"

    def clients(self, job: int):
        from repro.fm import SerialExecutor, SimulatedFM

        return SimulatedFM(seed=FM_SEED), None, SerialExecutor(), []

    def reference(self, work: Path) -> str:
        # No second route exists for a serial fit; the gate is that every
        # job of the run, and every run of the seed, gives one digest.
        return ""


class FitFMBound(_Fit):
    """The same search on a small table, behind simulated HTTP transports
    with real latency and 429s, on a thread-pool executor: FM dispatch
    does nearly all the work.

    Each job of a run draws the network's latencies and 429s afresh
    (the transports are seeded with the job number).  Which sends fail
    changes only timing, never an answer, and a run's median then spans
    several retry patterns instead of hanging on one.
    """

    name = "fit_fm_bound"
    rows_key = "fm_bound_rows"
    cpu_bound = False
    ordered = False
    wave_size = 2

    def clients(self, job: int, sleep: bool = True, serial: bool = False):
        from repro.fm import (
            SerialExecutor,
            SimulatedFM,
            SimulatedHTTPTransport,
            ThreadPoolFMExecutor,
            TransportFMClient,
        )
        from repro.fm.executor import RetryPolicy

        transports = []
        clients = []
        for offset, model in ((0, "gpt-4"), (1, "gpt-3.5-turbo")):
            server = SimulatedFM(seed=FM_SEED + offset, model=model)
            transport = SimulatedHTTPTransport(
                responder=lambda req, server=server: server._complete_text(
                    req.prompt, req.temperature
                ),
                base_latency_s=self.scale["fm_latency_s"],
                jitter_s=self.scale["fm_jitter_s"],
                rate_limit_rate=0.05,
                seed=2 * job + offset,
                sleep=sleep,
            )
            transports.append(transport)
            clients.append(TransportFMClient(transport, model=model))
        retry = RetryPolicy(max_attempts=4)
        executor = (
            SerialExecutor(retry=retry)
            if serial
            else ThreadPoolFMExecutor(os.cpu_count() or 1, retry=retry)
        )
        return clients[0], clients[1], executor, transports

    def reference(self, work: Path) -> str:
        """The executor contract: the same search with non-sleeping
        transports on the serial executor."""
        self.load(work)
        fm, function_fm, executor, _ = self.clients(0, sleep=False, serial=True)
        result, _ = self.fit(fm, function_fm, executor)
        return self.digest(result, [fm, function_fm])


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _demo_plan(scale: dict, seed: int):
    """The every-codegen-form demo plan, compiled and JSON round-tripped."""
    import repro.serve as serve
    from repro.eval.serving import build_demo_result

    result, frame = build_demo_result(scale["plan_rows"], seed=seed)
    plan = serve.compile_plan(result, frame, "Target")
    return serve.FeaturePlan.from_json(plan.to_json())


def _serving_table(scale: dict, seed: int, rows: int):
    from repro.eval.serving import make_serving_frame

    return make_serving_frame(rows, seed=seed + 1000, n_groups=scale["n_groups"])


class ServeBatches(Workload):
    """One closed-loop client calling ``FeatureServer.transform`` on
    in-memory batches; the per-feature ops do nearly all the work."""

    name = "serve_batches"

    def setup(self, work: Path) -> int:
        plan = _demo_plan(self.scale, self.seed)
        plan.save(str(work / "plan.json"))
        table = _serving_table(self.scale, self.seed, self.scale["table_rows"])
        _save(work / "table.pkl", table)
        return self.scale["batch_rows"] * self.scale["batches"]

    def load(self, work: Path) -> None:
        from repro.serve import FeaturePlan

        self.plan = FeaturePlan.load(str(work / "plan.json"))
        self.table = _load(work / "table.pkl")

    def _batches(self):
        """Fresh slice views of the table, cycled until the job's batch
        count is reached (fresh views carry no cached groupings)."""
        from repro.dataframe.io import iter_frame_shards

        produced = 0
        while True:
            for shard in iter_frame_shards(self.table, self.scale["batch_rows"]):
                if produced == self.scale["batches"]:
                    return
                produced += 1
                yield shard.index, shard.frame

    def run_job(self, tracer, work: Path, job: int) -> JobRecord:
        from repro.serve import FeatureServer

        server = FeatureServer(plan=self.plan)
        metronome = self.metronome(tracer)
        wall_s = 0.0
        digests: dict[int, str] = {}
        mismatched = 0
        for index, batch in self._batches():
            metronome.tick()
            with window(tracer, batch=index):
                started = time.perf_counter()
                out = server.transform(batch)
                latency_s = time.perf_counter() - started
            metronome.record(latency_s)
            wall_s += latency_s
            digest = frame_digest(out)
            if digests.setdefault(index, digest) != digest:
                mismatched += 1
        stats = server.stats()
        return JobRecord(
            wall_s=wall_s,
            rows=stats["rows_in"],
            latencies_ms=metronome.latencies_ms(),
            digest=json.dumps([digests[i] for i in sorted(digests)] + [mismatched]),
            attempted=stats["rows_in"],
            failed=stats["rows_in"] - stats["rows_served"],
            scale=metronome.scale,
        )

    def reference(self, work: Path) -> str:
        """One ``plan.apply`` over the whole table, cut into the batches."""
        from repro.dataframe.io import iter_frame_shards

        self.load(work)
        whole = self.plan.apply(self.table)
        digests = [
            frame_digest(shard.frame)
            for shard in iter_frame_shards(whole, self.scale["batch_rows"])
        ]
        return json.dumps(digests + [0])


class ServeCSV(Workload):
    """``repro plan apply --chunk-rows`` on a CSV, run in-process."""

    name = "serve_csv"

    def setup(self, work: Path) -> int:
        from repro.dataframe.io import to_csv

        _demo_plan(self.scale, self.seed).save(str(work / "plan.json"))
        table = _serving_table(self.scale, self.seed, self.scale["csv_rows"])
        to_csv(table, work / "in.csv")
        return len(table)

    def load(self, work: Path) -> None:
        pass

    def argv(self, work: Path, out: str, chunked: bool) -> list[str]:
        argv = ["plan", "apply", "--plan", str(work / "plan.json")]
        argv += ["--csv", str(work / "in.csv"), "--out", str(work / out)]
        if chunked:
            argv += ["--chunk-rows", str(self.scale["chunk_rows"])]
        return argv

    def run_job(self, tracer, work: Path, job: int) -> JobRecord:
        import repro.dataframe.io as io
        from repro.cli import main

        # A chunk's latency runs from the end of the previous chunk's
        # write (of the schema scan, for the first chunk) to the end of
        # its own; the metronome ticks between chunks.
        metronome = self.metronome(tracer)
        last = [0.0]
        rows = {"read": 0, "written": 0}

        def on_scan(fn):
            @functools.wraps(fn)
            def scanned(*args, **kwargs):
                schema = fn(*args, **kwargs)
                last[0] = time.perf_counter()
                return schema

            return scanned

        def on_read(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                for shard in fn(*args, **kwargs):
                    rows["read"] += len(shard.frame)
                    yield shard

            return counted

        def on_write(fn):
            @functools.wraps(fn)
            def counted(frame, *args, **kwargs):
                fn(frame, *args, **kwargs)
                metronome.record(time.perf_counter() - last[0])
                rows["written"] += len(frame)
                metronome.tick()
                last[0] = time.perf_counter()

            return counted

        probes = Patches()
        probes.patch(io, "scan_csv_kinds", on_scan)
        probes.patch(io, "read_csv_shards", on_read)
        probes.patch(io, "to_csv", on_write)
        try:
            with window(tracer), redirect_stdout(_stdio.StringIO()):
                started = time.perf_counter()
                code = main(self.argv(work, "out.csv", chunked=True))
                wall_s = time.perf_counter() - started - metronome.spent_s
        finally:
            probes.restore()
        if code != 0:
            raise RuntimeError(f"plan apply exited {code}")
        return JobRecord(
            wall_s=wall_s,
            rows=rows["read"],
            latencies_ms=metronome.latencies_ms(),
            digest=file_digest(work / "out.csv"),
            attempted=rows["read"],
            failed=rows["read"] - rows["written"],
            scale=metronome.scale,
        )

    def reference(self, work: Path) -> str:
        """The unchunked ``plan apply`` of the same CSV, byte for byte."""
        from repro.cli import main

        with redirect_stdout(_stdio.StringIO()):
            code = main(self.argv(work, "whole.csv", chunked=False))
        if code != 0:
            raise RuntimeError(f"plan apply exited {code}")
        return file_digest(work / "whole.csv")


WORKLOADS = {
    w.name: w for w in (FitDataplane, FitFMBound, ServeBatches, ServeCSV)
}
