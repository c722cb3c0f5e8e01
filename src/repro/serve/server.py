"""Batched serving entry point over a compiled FeaturePlan.

``FeatureServer.transform(rows)`` is the production-traffic surface: it
accepts a :class:`DataFrame` or a list of row dicts, validates the batch
against the plan's schema fingerprint, and replays the plan's pure-numpy
program.  A loaded plan's features are immutable; per-call frames are
per-caller.  Replay writes shared state in two places, both safe under
concurrent callers of one server: Series cache fills (each an idempotent
publish: whichever thread computes a column's encoding or dictionary
codes computes equal data), and the plan's column dictionaries, which
grow by publishing a new state under a lock while each batch reads one
consistent state
(:class:`~repro.dataframe.dictionary.ColumnDictionaries`).  Neither
changes any batch's output.

Registry-backed resolution is cached per ``(name, version)``: explicit
versions are immutable and cached forever; pin-or-latest resolution
revalidates against :meth:`PlanRegistry.state_token` (two stat calls)
instead of re-reading plan JSON on every batch, and no disk I/O ever
happens while the server lock is held.

Row-dict batches are coerced/quarantined against the plan schema, and
``failure_policy="degrade"`` NaN-fills a failing feature (an input the
batch does not carry) instead of failing the batch.  The compiled ops
are total on input of the plan's kinds, so a feature that fails does so
because of the batch it was given, and the next batch evaluates it
afresh.  :meth:`FeatureServer.health` and :meth:`FeatureServer.stats`
expose the accumulated picture.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.dataframe.frame import DataFrame
from repro.serve.plan import FeaturePlan, PlanError
from repro.serve.registry import PlanRegistry
from repro.serve.resilience import (
    FAILURE_POLICIES,
    ApplyReport,
    QuarantineReport,
    ServerStats,
    validate_rows,
)

__all__ = ["FeatureServer", "ServeReport"]


class ServeReport:
    """Everything one resilient ``transform_with_report`` call observed."""

    def __init__(
        self,
        apply_report: ApplyReport,
        quarantine: QuarantineReport | None = None,
    ) -> None:
        self.apply_report = apply_report
        self.quarantine = quarantine

    @property
    def ok(self) -> bool:
        clean_rows = self.quarantine is None or not self.quarantine.quarantined
        return self.apply_report.ok and clean_rows

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "apply": self.apply_report.to_dict(),
            "quarantine": self.quarantine.to_dict() if self.quarantine else None,
        }


class FeatureServer:
    """Serve one plan directly, or any plan out of a registry.

    Parameters
    ----------
    plan:
        A plan to serve directly (no registry needed).
    registry, name, version:
        Registry-backed resolution: *name* (and optional *version*) select
        the plan; omitted versions follow the registry pin/latest rules.
    failure_policy:
        ``"strict"`` (default — one bad feature or hostile row fails the
        batch loudly, the historical contract) or ``"degrade"`` (failing
        features NaN-fill, hostile rows quarantine, everything is
        reported).
    """

    def __init__(
        self,
        plan: FeaturePlan | None = None,
        registry: PlanRegistry | None = None,
        name: str | None = None,
        version: int | None = None,
        *,
        failure_policy: str = "strict",
    ) -> None:
        if plan is None and registry is None:
            raise PlanError("FeatureServer needs a plan or a registry")
        if failure_policy not in FAILURE_POLICIES:
            raise PlanError(
                f"unknown failure_policy {failure_policy!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )
        self._plan = plan
        self._registry = registry
        self._default_name = name
        self._default_version = version
        self._lock = threading.Lock()
        self._plan_cache: dict[tuple[str, int | None], tuple[tuple | None, FeaturePlan]] = {}
        self.failure_policy = failure_policy
        self.stats_board = ServerStats()

    # ------------------------------------------------------------------
    # Plan resolution
    # ------------------------------------------------------------------
    def plan_for(
        self, name: str | None = None, version: int | None = None
    ) -> FeaturePlan:
        """Resolve the plan a call should replay.

        Registry resolution is cached: an explicit *version* names an
        immutable artifact and is cached unconditionally; pin-or-latest
        resolution is cached against the registry's
        :meth:`~repro.serve.registry.PlanRegistry.state_token`, so a
        save/pin/unpin invalidates on the next call.  All registry I/O
        happens outside the server lock — the lock only guards the
        cache dict.
        """
        if name is None and self._plan is not None:
            return self._plan
        if self._registry is None:
            raise PlanError(f"no registry configured to resolve plan {name!r}")
        resolved = name if name is not None else self._default_name
        if resolved is None:
            raise PlanError("no plan name given and no default configured")
        wanted = version if version is not None else self._default_version
        key = (resolved, wanted)
        token = None if wanted is not None else self._registry.state_token(resolved)
        with self._lock:
            cached = self._plan_cache.get(key)
        if cached is not None and cached[0] == token:
            return cached[1]
        plan = self._registry.load(resolved, wanted)
        with self._lock:
            self._plan_cache[key] = (token, plan)
        return plan

    # ------------------------------------------------------------------
    # Transform
    # ------------------------------------------------------------------
    def transform(
        self,
        rows: DataFrame | Sequence[Mapping] | Iterable,
        name: str | None = None,
        version: int | None = None,
    ) -> DataFrame:
        """Replay the plan over a batch of rows; returns the featured frame.

        The batch may be a DataFrame, a list of row dicts, or any other
        iterable — a generator of :class:`~repro.dataframe.io.Shard`
        objects / DataFrames streams through :meth:`transform_stream`
        shard-by-shard and the results concatenate back into one frame,
        bit-identical to transforming the table whole.  (Concatenating
        holds every featured shard; keep the memory bound by consuming
        :meth:`transform_stream` directly.)

        Under the default strict policy, schema mismatches raise
        :class:`repro.serve.plan.PlanSchemaError` and hostile row dicts
        raise :class:`repro.serve.resilience.BatchValidationError` —
        always a typed ``PlanError`` subclass, never an internal
        traceback.  Under ``degrade``, hostile rows quarantine and
        failing features NaN-fill; use :meth:`transform_with_report` to
        see what happened.
        """
        if not isinstance(rows, (DataFrame, Sequence)) and isinstance(rows, Iterable):
            from repro.dataframe.io import concat_shards

            return concat_shards(list(self.transform_stream(rows, name, version)))
        frame, _report = self.transform_with_report(rows, name, version)
        return frame

    def transform_stream(
        self,
        shards: Iterable,
        name: str | None = None,
        version: int | None = None,
    ) -> Iterator[DataFrame]:
        """Stream featured frames shard-by-shard (out-of-core serving).

        *shards* iterates :class:`~repro.dataframe.io.Shard` objects,
        DataFrames, or row-dict batches; each goes through the identical
        validation/resilience path a :meth:`transform` batch does, so
        fault isolation applies per shard under ``degrade`` (a failing
        feature NaN-fills only the shards it fails on) while the stats
        board accumulates across the whole stream.  Never holds
        more than one shard plus its featured output.
        """
        from repro.dataframe.io import Shard

        for piece in shards:
            rows = piece.frame if isinstance(piece, Shard) else piece
            out, _report = self.transform_with_report(rows, name, version)
            yield out

    def transform_with_report(
        self,
        rows: DataFrame | Sequence[Mapping],
        name: str | None = None,
        version: int | None = None,
    ) -> tuple[DataFrame, ServeReport]:
        """Like :meth:`transform`, also returning the :class:`ServeReport`."""
        plan = self.plan_for(name, version)
        quarantine: QuarantineReport | None = None
        if isinstance(rows, DataFrame):
            frame = rows
        else:
            frame, quarantine = validate_rows(
                plan, rows, strict=self.failure_policy == "strict"
            )
        out, apply_report = plan.apply_with_report(
            frame, failure_policy=self.failure_policy
        )
        self.stats_board.record(
            rows_in=quarantine.total_rows if quarantine else len(frame),
            rows_served=len(out),
            quarantine=quarantine,
            apply_report=apply_report,
        )
        return out, ServeReport(apply_report, quarantine)

    # ------------------------------------------------------------------
    # Health / stats surface
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cumulative counters: batches, rows, quarantines and per-feature
        success/failure counts."""
        out = self.stats_board.snapshot()
        out["failure_policy"] = self.failure_policy
        return out

    def health(self) -> dict:
        """Condensed liveness view: ``status`` is ``"ok"`` when no feature
        has failed, ``"degraded"`` when any has — the payload says which."""
        stats = self.stats()
        failing = sorted(
            feature for feature, counts in stats["features"].items() if counts["failed"]
        )
        status = "degraded" if failing else "ok"
        return {
            "status": status,
            "failure_policy": self.failure_policy,
            "batches": stats["batches"],
            "rows_served": stats["rows_served"],
            "rows_quarantined": stats["rows_quarantined"],
            "failing_features": failing,
        }
