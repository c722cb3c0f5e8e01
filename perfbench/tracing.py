"""Outside-in span tracer: times calls into each layer's public functions.

Nothing inside ``src/`` changes.  :class:`Tracer` replaces a layer's
public name *where its caller looks it up* (``repro.core.pipeline``'s
imported ``validate_output``, a class attribute such as
``FeaturePlan.apply``, an executor instance's ``run``) with a wrapper
that records a span around the original call.

* A span holds its name, its layer, its parent span, ``perf_counter_ns``
  start and end, and a few attributes (rows, op, bytes).  Spans stay in
  memory until :meth:`Tracer.write_jsonl`.
* Spans are recorded only inside a *root* span the benchmark opens
  around its timed work (one job, or one serving call), and only on the
  thread that opened it.  FM worker threads are not traced; their work
  is counted through ``executor.stats``, the ledgers and
  ``transport.stats``.  The tracer starts no threads.
* A span's self time is its duration minus the durations of its child
  spans.  Spans on one thread nest strictly, so the children never
  overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Root ops of ``dataframe.expr`` features reported on their own; every
#: other root op (arithmetic, ufuncs, clip, isna flags, ...) is "numeric".
EXPR_OP_GROUPS = (
    "group_lookup",
    "split_parts",
    "dummies",
    "fillna",
    "date_split",
    "str_len",
    "cut",
)

#: Largest allowed gap, as a share of the traced wall, between the traced
#: wall and the sum of every span's self time plus the unattributed rest.
RECONCILE_TOLERANCE = 0.01


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, layer, parent, start):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def dur_s(self) -> float:
        return (self.end - self.start) / 1e9


class Patches:
    """Replace attributes and put the originals back, last in first out."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``.

        A classmethod is unwrapped and re-wrapped.  An attribute found
        only through the class of an instance is set on the instance and
        deleted again on :meth:`restore`.
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw, own = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


class Tracer(Patches):
    """In-memory span recorder for the thread that created it."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._thread = threading.get_ident()

    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str, root: bool = False) -> Span | None:
        if threading.get_ident() != self._thread or (not root and not self._stack):
            return None
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, parent, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, **attrs):
        """The window of one unit of timed work; layer spans nest in it."""
        span = self._open("job", "job", root=True)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    # ------------------------------------------------------------------
    def wrapper(self, layer: str, name: str, attrs=None):
        """``make`` for :meth:`patch`: a span around each call.

        *attrs* maps ``(args, kwargs, result)`` to span attributes.
        """

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self._open(name, layer)
                if span is None:
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                    if attrs is not None:
                        span.attrs.update(attrs(args, kwargs, result))
                    return result
                finally:
                    self._close(span)

            return traced

        return make

    def iter_wrapper(self, layer: str, name: str, attrs=None):
        """``make`` for :meth:`patch` on a function returning an iterator:
        a span around each ``next()``, the one that ends the stream too."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._traced_iter(iter(fn(*args, **kwargs)), layer, name, attrs)

            return traced

        return make

    def _traced_iter(self, it, layer, name, attrs):
        while True:
            span = self._open(name, layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if span is not None:
                    self._close(span)
            if span is not None and attrs is not None:
                span.attrs.update(attrs(item))
            yield item

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                record = {
                    "id": s.sid,
                    "name": s.name,
                    "layer": s.layer,
                    "parent": s.parent,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "attrs": s.attrs,
                }
                handle.write(json.dumps(record) + "\n")


def counting_wrapper(counter: dict, key: str):
    """``make`` for :meth:`Patches.patch` on a generator function: counts
    the items it yields (no span — the work inside is traced by others)."""

    def make(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counter[key] += 1
                yield item

        return counted

    return make


def expr_op_group(expr: dict) -> str:
    op = expr.get("op", "")
    return op if op in EXPR_OP_GROUPS else "numeric"


def install_job_layers(tracer: Tracer, counters: dict) -> None:
    """Wrap every layer boundary a timed job crosses."""
    import repro.core.function_generator as function_generator
    import repro.core.pipeline as pipeline
    import repro.dataframe.io as io
    import repro.serve.plan as plan_module
    from repro.core.agenda import DataAgenda
    from repro.core.function_generator import FunctionGenerator
    from repro.core.operator_selector import OperatorSelector
    from repro.core.scheduler import StageScheduler
    from repro.serve.plan import FeaturePlan
    from repro.serve.server import FeatureServer

    wrap = tracer.wrapper
    for method in ("from_dataframe", "subset", "add"):
        tracer.patch(DataAgenda, method, wrap("agenda", method))
    tracer.patch(
        pipeline,
        "validate_output",
        wrap(
            "validation",
            "validate_output",
            lambda args, kwargs, report: {
                "accepted": len(report.accepted),
                "screened": len(report.accepted) + len(report.rejected),
            },
        ),
    )
    tracer.patch(function_generator, "run_transform", wrap("sandbox", "run_transform"))
    for method in ("unary_candidates_batch", "sample_batch", "binary_candidates_proposal"):
        tracer.patch(OperatorSelector, method, wrap("operator_selector", method))
    for method in ("realize_batch", "realize"):
        tracer.patch(FunctionGenerator, method, wrap("function_generator", method))
    tracer.patch(StageScheduler, "execute", wrap("scheduler", "execute"))
    for method in ("transform", "transform_with_report"):
        tracer.patch(FeatureServer, method, wrap("server", method))
    tracer.patch(FeaturePlan, "apply", wrap("plan", "apply"))
    tracer.patch(FeaturePlan, "apply_stream", counting_wrapper(counters, "plan.shards"))
    tracer.patch(FeatureServer, "transform_stream", counting_wrapper(counters, "plan.shards"))
    tracer.patch(
        plan_module,
        "evaluate_feature",
        wrap(
            "expr",
            "evaluate_feature",
            lambda args, kwargs, out: {"op": expr_op_group(args[0])},
        ),
    )
    tracer.patch(io, "scan_csv_kinds", wrap("io", "scan_csv_kinds"))
    tracer.patch(
        io,
        "read_csv_shards",
        tracer.iter_wrapper("io", "decode", lambda shard: {"rows": len(shard.frame)}),
    )
    tracer.patch(
        io,
        "to_csv",
        wrap(
            "io",
            "to_csv",
            lambda args, kwargs, out: {"rows": len(args[0]), "path": str(args[1])},
        ),
    )


def trace_executor(tracer: Tracer, executor) -> None:
    """Wrap one executor instance's ``run`` (``complete`` calls ``run``)."""
    tracer.patch(
        executor,
        "run",
        tracer.wrapper(
            "fm", "run", lambda args, kwargs, results: {"requests": len(args[1])}
        ),
    )


# ----------------------------------------------------------------------
# Per-job layer summary
# ----------------------------------------------------------------------
def summarize(spans: list[Span]) -> dict:
    """Layer metrics for the spans of one job (one or more root spans).

    ``<layer>.calls`` counts entries into the layer (spans whose parent
    is in another layer), ``<layer>.busy_s`` sums their durations, and
    ``<layer>.self_s`` sums every span's self time in the layer.
    """
    by_id = {s.sid: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    expr_busy: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    wall = top = attributed = 0.0
    nesting_errors = 0
    for s in spans:
        dur = s.dur_s
        if s.parent is None:
            wall += dur
            continue
        parent = by_id[s.parent]
        if s.start < parent.start or s.end > parent.end:
            nesting_errors += 1
        if parent.parent is None:
            top += dur
        own = dur - child_ns[s.sid] / 1e9
        attributed += own
        self_s[s.layer] += own
        if parent.layer != s.layer:
            calls[s.layer] += 1
            busy[s.layer] += dur
        key = f"{s.layer}.{s.name}"
        attrs[f"{key}.s"] += dur
        for name, value in s.attrs.items():
            if isinstance(value, (int, float)):
                attrs[f"{key}.{name}"] += value
        if s.layer == "expr":
            expr_busy[s.attrs["op"]] += dur
    unattributed = wall - top
    screened = attrs["validation.validate_output.screened"]
    out = {}
    for layer in (
        "agenda",
        "validation",
        "sandbox",
        "operator_selector",
        "function_generator",
        "fm",
        "scheduler",
        "server",
        "plan",
        "expr",
        "io",
    ):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["validation.accept_ratio"] = (
        attrs["validation.validate_output.accepted"] / screened if screened else 0.0
    )
    for group in (*EXPR_OP_GROUPS, "numeric"):
        out[f"expr.{group}.busy_s"] = expr_busy[group]
    out["io.scan_s"] = attrs["io.scan_csv_kinds.s"]
    out["io.decode_s"] = attrs["io.decode.s"]
    out["io.decode_rows"] = attrs["io.decode.rows"]
    out["io.write_s"] = attrs["io.to_csv.s"]
    out["io.write_bytes"] = sum(_written_sizes(spans).values())
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = unattributed
    out["trace.reconcile_error"] = (
        abs(attributed + unattributed - wall) / wall if wall else 0.0
    )
    out["trace.nesting_errors"] = nesting_errors
    return out


def _written_sizes(spans: list[Span]) -> dict[str, int]:
    """Final size of every file a traced ``to_csv`` wrote."""
    paths = {s.attrs["path"] for s in spans if s.layer == "io" and "path" in s.attrs}
    return {p: os.path.getsize(p) for p in paths if os.path.exists(p)}
