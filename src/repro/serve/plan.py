"""The FeaturePlan artifact: a fitted run's features as replayable data.

A plan records, per accepted feature, its column provenance and a frozen
expression tree (:mod:`repro.dataframe.expr` — the pure-numpy hot path),
or, for a feature that did not compile, the reason it is omitted.  No
FM-written code runs at serve time.  Plans carry an input-schema
fingerprint and a schema version: loading validates both, so a plan can
never be silently replayed against the wrong table shape or by a reader
that does not understand its encoding.

Input kinds: a v3 plan pins each input column to a CSV coercion kind
(:data:`CSV_KINDS`; fit records ``int``, ``float``, ``bool`` or
``object``, see :func:`csv_kind`).  ``plan apply`` decodes a CSV against
those kinds in one pass (:meth:`FeaturePlan.csv_schema`), and a cell
that breaks one fails naming its column and row.  An in-memory batch is
checked only by each kind's coarse kind (:func:`coarse_kind`), so a
float ``Age`` where fit saw int still serves.  A v2 plan recorded the
coarse kinds alone; it loads as v2, and ``plan apply`` scans the CSV for
its kinds as before.

Replay cost: each plan instance also holds runtime-only column
dictionaries (:class:`~repro.dataframe.dictionary.ColumnDictionaries`; not
serialized, not fingerprinted, not compared).  A served batch looks each
all-plain-``str`` column its string ops read up once against that
column's dictionary, however many features read it (a Series served
again keeps its codes and skips the lookup), and the ops gather
per-entry results computed once per distinct value over the plan's
lifetime; new values are added up to a fixed cap.  Every other column is
encoded per batch, as outside a plan.  Outputs are functions of each
cell alone, so a batch's output never depends on what the plan served
before.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.dataframe.dictionary import ColumnDictionaries
from repro.dataframe.expr import (
    ExprError,
    evaluate_feature,
    expr_columns,
    group_tables,
    validate_expr,
)
from repro.dataframe.frame import DataFrame
from repro.dataframe.series import Series
from repro.records import from_record, to_record, write_json_atomic

__all__ = [
    "CSV_KINDS",
    "PLAN_SCHEMA_VERSION",
    "FeaturePlan",
    "FeatureSpec",
    "PlanError",
    "PlanNotFoundError",
    "PlanSchemaError",
    "PlanVersionError",
    "coarse_kind",
    "column_kind",
    "csv_kind",
    "schema_fingerprint",
]

#: Current plan encoding version.  Bump when the serialized shape changes;
#: readers migrate older versions explicitly and refuse newer ones.  v3
#: pins each input column's CSV kind; a v2 plan, the same shape with
#: coarse kinds, loads as itself.
PLAN_SCHEMA_VERSION = 3

#: Each input kind of a v3 plan (``kernels.coercion_kind``'s names) and
#: the coarse kind an in-memory batch is checked against.
CSV_KINDS = {
    "int": "numeric",
    "float": "numeric",
    "bool": "bool",
    "bool_missing": "object",
    "empty": "object",
    "object": "object",
}
#: The input kinds of a v2 plan: :func:`column_kind`'s.
_COARSE_KINDS = ("numeric", "bool", "object")


class PlanError(Exception):
    """Base class for plan compilation/serialization/replay failures."""


class PlanVersionError(PlanError):
    """The plan's schema version is newer than this reader understands."""


class PlanSchemaError(PlanError):
    """The plan payload, or the frame it is applied to, has the wrong shape."""


class PlanNotFoundError(PlanError):
    """The registry has no plan under the requested name/version."""


def column_kind(series: Series) -> str:
    """The coarse schema kind a plan records per input column.

    ``numeric`` covers int and float (a serve batch may legitimately
    arrive with ``Age`` as float where fit saw int); ``bool`` and
    ``object`` stay distinct because the replay kernels branch on them.
    """
    kind = series.dtype.kind
    if kind in "if":
        return "numeric"
    if kind == "b":
        return "bool"
    return "object"


def csv_kind(series: Series) -> str:
    """The CSV kind a v3 plan pins for an input column: the
    ``coercion_kind`` name whose :data:`CSV_KINDS` coarse kind is the
    column's :func:`column_kind`.  Every object column is ``object``: a
    CSV column of kind ``bool_missing`` or ``empty`` decodes to the same
    cells under ``object``, so telling them apart would cost a type pass
    over the column and change no decoded value.
    """
    kind = series.dtype.kind
    if kind == "i":
        return "int"
    if kind == "f":
        return "float"
    return "bool" if kind == "b" else "object"


def coarse_kind(kind: str) -> str:
    """The coarse kind (:func:`column_kind`'s) of a plan's input kind,
    whatever the plan's version."""
    return CSV_KINDS.get(kind, kind)


def schema_fingerprint(input_schema: list[tuple[str, str]]) -> str:
    """Stable digest of the ordered ``(column, kind)`` input contract."""
    payload = "|".join(f"{name}={kind}" for name, kind in input_schema)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class FeatureSpec:
    """One accepted feature's replay recipe.

    ``status`` is ``"compiled"`` (frozen expression) or ``"omitted"``
    (not replayable; ``reason`` says why — the plan records it so the gap
    is loud).
    """

    name: str
    family: str
    description: str
    input_columns: list[str]
    output_columns: list[str]
    status: str
    expr: dict | None = None
    reason: str = ""
    #: Optional per-output-column schema kinds (parallel to
    #: ``output_columns``), recorded at compile time; only
    #: :meth:`FeaturePlan.budget_rows` reads them, to size streamed
    #: shards.  Old plans lack them (no schema version bump): absent kinds
    #: count as numeric.
    output_kinds: list[str] | None = None

    def __post_init__(self) -> None:
        # An empty kinds list is recorded as absent, exactly like a plan
        # compiled before the field existed.
        self.output_kinds = list(self.output_kinds) if self.output_kinds else None

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureSpec":
        """Rebuild and validate one spec.  Keys that are not fields are
        ignored, such as the null ``fallback_source`` of plans written
        before FM-source fallbacks were removed; a spec with the old
        ``"fallback"`` status fails as an unknown status, naming the
        feature, rather than being dropped."""
        try:
            spec = from_record(cls, {"family": "", "description": "", **data})
        except TypeError as exc:
            raise PlanSchemaError(f"malformed feature spec: {exc}") from exc
        if spec.status == "compiled":
            if spec.expr is None:
                raise PlanSchemaError(f"compiled feature {spec.name!r} has no expression")
            try:
                validate_expr(spec.expr)
            except ExprError as exc:
                raise PlanSchemaError(f"feature {spec.name!r}: {exc}") from exc
        elif spec.status != "omitted":
            raise PlanSchemaError(
                f"feature {spec.name!r} has unknown status {spec.status!r}"
            )
        if not spec.output_columns and spec.status != "omitted":
            raise PlanSchemaError(f"feature {spec.name!r} declares no output columns")
        return spec


@dataclass
class FeaturePlan:
    """A versioned, serializable replay program for a fitted run."""

    input_columns: list[str]
    input_schema: list[tuple[str, str]]
    target: str
    features: list[FeatureSpec]
    drop_columns: list[str] = field(default_factory=list)
    schema_version: int = PLAN_SCHEMA_VERSION
    fingerprint: str = ""
    metadata: dict = field(default_factory=dict)
    #: Runtime state of :meth:`apply_with_report`: grows as batches are
    #: served, never serialized or compared.
    _dictionaries: ColumnDictionaries = field(
        default_factory=ColumnDictionaries,
        init=False,
        repr=False,
        compare=False,
        metadata={"record": False},
    )

    def __post_init__(self) -> None:
        self.input_schema = [(name, kind) for name, kind in self.input_schema]
        if not self.fingerprint:
            self.fingerprint = schema_fingerprint(self.input_schema)

    # ------------------------------------------------------------------
    # Validation and replay
    # ------------------------------------------------------------------
    def schema_problems(self, frame: DataFrame) -> list[tuple[str, str, str]]:
        """Every schema-contract violation in *frame* as
        ``(column, expected kind, problem)`` — empty when the frame
        conforms (the target column is optional at serve time)."""
        problems = []
        for name, pinned in self.input_schema:
            kind = coarse_kind(pinned)
            if name not in frame:
                problems.append(
                    (name, kind, f"missing column {name!r} (expected kind {kind})")
                )
                continue
            actual = column_kind(frame[name])
            if actual != kind:
                problems.append(
                    (name, kind, f"column {name!r} has kind {actual}, plan expects {kind}")
                )
        return problems

    def validate_frame(self, frame: DataFrame) -> None:
        """Raise :class:`PlanSchemaError` unless *frame* matches the plan's
        input contract."""
        problems = self.schema_problems(frame)
        if problems:
            raise PlanSchemaError(
                f"frame does not match plan schema fingerprint "
                f"{self.fingerprint[:12]}…: "
                + "; ".join(text for _name, _kind, text in problems)
            )

    def apply(
        self,
        frame: DataFrame,
        *,
        failure_policy: str = "strict",
    ) -> DataFrame:
        """Replay the plan against *frame* and return the featured frame.

        Pure data-plane work: input columns are shared (zero copy), each
        feature evaluates through the kernel layer, and the fitted run's
        dropped originals are removed at the end — reproducing
        ``fit_transform``'s output frame column-for-column.  The input
        frame itself is never mutated.

        ``failure_policy="strict"`` (the default) fails the whole batch
        on the first failing feature.  ``"degrade"`` isolates failures
        per feature (NaN-filled columns); :meth:`apply_with_report` also
        returns the per-feature report.
        """
        out, _report = self.apply_with_report(frame, failure_policy=failure_policy)
        return out

    def apply_with_report(
        self,
        frame: DataFrame,
        *,
        failure_policy: str = "degrade",
    ):
        """Replay with per-feature fault isolation: ``(frame, ApplyReport)``.

        The one replay loop every serve path runs.  Compiled ops are
        total on cells of the plan's input kinds (a cell a kernel cannot
        read, such as a date that does not parse, serves as missing), so
        a feature fails only on a bad batch: an unavailable input
        column, or an in-memory cell no kernel takes.  A failing feature
        costs exactly its own output columns: under ``degrade`` they are
        NaN-filled and the failure is recorded in the returned
        :class:`~repro.serve.resilience.ApplyReport`; under ``strict``
        the original exception propagates.  Healthy features evaluate
        identically under either policy, so their outputs are
        bit-identical to a fault-free run.
        """
        from repro.serve.resilience import FAILURE_POLICIES, ApplyReport, FeatureReport

        if failure_policy not in FAILURE_POLICIES:
            raise PlanError(
                f"unknown failure_policy {failure_policy!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )
        degrade = failure_policy == "degrade"
        problems = self.schema_problems(frame)
        if problems and not degrade:
            self.validate_frame(frame)  # raises with the canonical message
        unavailable = {name: text for name, _kind, text in problems}
        working = frame.column_view(
            [c for c in self.input_columns if c in frame and c not in unavailable]
        )
        n_rows = len(frame)
        report = ApplyReport(policy=failure_policy)

        for spec in self.features:
            if spec.status == "omitted":
                report.reports.append(
                    FeatureReport(spec.name, "omitted", reason=spec.reason)
                )
                continue
            # Under strict, a missing input raises from evaluation itself.
            missing = degrade and [c for c in spec.input_columns if c not in working]
            if missing:
                reasons = "; ".join(
                    unavailable.get(c, f"column {c!r} unavailable") for c in missing
                )
                _nan_fill(spec, working, n_rows)
                report.reports.append(
                    FeatureReport(
                        spec.name, "failed", error="PlanSchemaError",
                        reason=f"input unavailable: {reasons}",
                    )
                )
                continue
            try:
                out = evaluate_feature(spec.expr, working, self._dictionaries)
                self._install(spec, out, working)
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                if not degrade:
                    raise
                _nan_fill(spec, working, n_rows)
                report.reports.append(
                    FeatureReport(
                        spec.name, "failed", error=type(exc).__name__, reason=str(exc)
                    )
                )
                continue
            report.reports.append(FeatureReport(spec.name, "ok"))

        to_drop = [c for c in self.drop_columns if c in working]
        if to_drop:
            working.drop(columns=to_drop, inplace=True)
        return working, report

    def csv_schema(self) -> dict[str, str | None] | None:
        """The kinds :func:`~repro.dataframe.io.read_csv_shards` decodes
        a CSV by for this plan: each input column's pinned kind, ``None``
        (its own cells' kind) for an unpinned column a feature reads (the
        target), and text for every other column.  ``None`` for a v2
        plan, whose kinds do not say int or float."""
        if self.schema_version < 3:
            return None
        reads = {
            name
            for spec in self.features
            if spec.status == "compiled"
            for name in expr_columns(spec.expr)
        }
        schema: dict[str, str | None] = {c: None for c in self.input_columns if c in reads}
        schema.update(self.input_schema)
        return schema

    # ------------------------------------------------------------------
    # Out-of-core streaming
    # ------------------------------------------------------------------
    def apply_stream(
        self,
        shards,
        *,
        memory_budget_mb: float | None = None,
        failure_policy: str = "strict",
    ):
        """Replay the plan shard-by-shard: a generator of featured frames.

        *shards* is any iterable of :class:`~repro.dataframe.io.Shard` or
        plain DataFrames (stream order = logical row order).  Each shard
        replays through the identical :meth:`apply` call the in-memory
        path makes — every frozen op is row-local given its fitted
        statistics, so concatenating the yielded frames
        (:func:`~repro.dataframe.io.concat_shards`) is bit-identical to
        ``apply`` over the whole table.  Nothing beyond the current shard
        (plus its featured output) is ever held.

        ``memory_budget_mb`` caps the working set: incoming shards are
        re-chunked so that (estimated input row bytes + output row bytes)
        × a working-set factor stays under the budget, whatever chunk
        size the producer chose.  The bound is enforced empirically by
        ``benchmarks/bench_sharded.py`` against process peak RSS.

        Fault isolation composes per shard: under
        ``failure_policy="degrade"`` a failing feature NaN-fills only the
        shard it failed on.
        """
        from repro.dataframe.io import Shard, iter_frame_shards

        for piece in shards:
            frame = piece.frame if isinstance(piece, Shard) else piece
            if len(frame) == 0:
                continue
            if memory_budget_mb is None:
                subs = [frame]
            else:
                max_rows = self.budget_rows(frame, memory_budget_mb)
                subs = (s.frame for s in iter_frame_shards(frame, max_rows))
            for sub in subs:
                yield self.apply(sub, failure_policy=failure_policy)

    #: Estimated per-row bytes for an object-dtype cell (pointer plus a
    #: typical small payload) and the multiplier covering transient
    #: working state (sort buffers, key encodes, per-op temporaries).
    _OBJECT_ROW_BYTES = 80
    _WORKING_FACTOR = 3.0

    def budget_rows(self, frame: DataFrame, memory_budget_mb: float) -> int:
        """Max rows per shard to keep the streaming working set under budget.

        Best-effort arithmetic, not an allocator: input columns count
        their dtype itemsize (object columns a flat per-row estimate),
        every plan output column adds its estimated width, and the total
        is scaled by a working-set factor for transients.
        """
        if memory_budget_mb <= 0:
            raise PlanError(
                f"memory_budget_mb must be positive, got {memory_budget_mb}"
            )
        row_bytes = 0
        for name in self.input_columns:
            if name in frame:
                series = frame[name]
                row_bytes += (
                    self._OBJECT_ROW_BYTES
                    if series.dtype == object
                    else series.dtype.itemsize
                )
        for spec in self.features:
            if spec.status == "omitted":
                continue
            kinds = spec.output_kinds or ["numeric"] * len(spec.output_columns)
            for kind in kinds:
                row_bytes += self._OBJECT_ROW_BYTES if kind == "object" else 8
        budget_bytes = memory_budget_mb * 1_000_000
        return max(int(budget_bytes / (max(row_bytes, 1) * self._WORKING_FACTOR)), 1)

    def refresh_group_tables(self, shards) -> int:
        """Second fit pass: re-aggregate every frozen ``group_lookup``
        table over a full shard stream.

        A plan fitted on a bounded sample carries group tables that only
        reflect the sampled rows; streaming the *whole* table through the
        two-pass segmented aggregation
        (:class:`~repro.dataframe.groupby.StreamingGroupAgg` — exact
        merges, sequential-fold sums, mean-from-sums) rebuilds each table
        from every row while holding one shard at a time.  All tables
        update in one pass over the stream.  Returns the number of tables
        refreshed (0 consumes nothing from *shards*).

        Group keys and aggregands may themselves be *generated* columns
        (a groupby over a bucketized or log-transformed feature): each
        shard replays the plan's compiled features in install order —
        stopping as soon as every needed column exists — before the
        aggregators see it, so derived inputs materialize exactly as
        they do at serve time.  A needed column only an omitted feature
        would produce raises :class:`PlanError`.

        Mutates this plan in place: do it at fit/publish time, before the
        plan is saved or served (loaded plans are treated as immutable).
        """
        from repro.dataframe.expr import refreeze_group_table
        from repro.dataframe.groupby import StreamingGroupAgg
        from repro.dataframe.io import Shard

        nodes = self._group_lookup_nodes()
        if not nodes:
            return 0
        aggs = []
        needed: set[str] = set()
        for node in nodes:
            agg_col = node.get("agg_col")
            if agg_col is None and node["agg"].strip().lower() != "size":
                raise PlanError(
                    "plan predates agg_col recording on group_lookup nodes; "
                    "re-export it before refreshing group tables"
                )
            aggs.append(StreamingGroupAgg(node["keys"], agg_col, node["agg"]))
            needed.update(node["keys"])
            if agg_col is not None:
                needed.add(agg_col)

        for piece in shards:
            frame = piece.frame if isinstance(piece, Shard) else piece
            if len(frame) == 0:
                continue
            working = frame.column_view(frame.columns)
            for spec in self.features:
                if needed <= set(working.columns):
                    break
                if spec.status != "compiled" or not spec.expr:
                    continue
                out = evaluate_feature(spec.expr, working)
                self._install(spec, out, working)
            missing = needed - set(working.columns)
            if missing:
                raise PlanError(
                    f"group-table refresh needs columns {sorted(missing)} that "
                    "no compiled feature produces"
                )
            for agg in aggs:
                agg.update(working)
        for node, agg in zip(nodes, aggs):
            labels, per = agg.result()
            refreeze_group_table(node, labels, per)
        return len(nodes)

    def _group_lookup_nodes(self) -> list[dict]:
        """Every frozen ``group_lookup`` node across compiled features."""
        compiled = [spec.expr for spec in self.features if spec.status == "compiled" and spec.expr]
        return [node for expr in compiled for node in group_tables(expr)]

    @staticmethod
    def _install(spec: FeatureSpec, out: Any, working: DataFrame) -> None:
        """Add a feature's output columns to *working*, each checked to
        exist and to match the batch's row count."""
        if isinstance(out, Series):
            if len(spec.output_columns) != 1:
                raise PlanError(
                    f"feature {spec.name!r} produced one column, plan expects "
                    f"{len(spec.output_columns)}"
                )
            out = {spec.output_columns[0]: out}
        for name in spec.output_columns:
            if name not in out:
                raise PlanError(
                    f"feature {spec.name!r} did not produce column {name!r}"
                )
            if len(out[name]) != len(working):
                raise PlanError(
                    f"feature {spec.name!r} produced {len(out[name])} rows "
                    f"for a {len(working)}-row batch"
                )
            working[name] = out[name]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "target": self.target,
            "input_columns": list(self.input_columns),
            "input_schema": [[name, kind] for name, kind in self.input_schema],
            "drop_columns": list(self.drop_columns),
            "metadata": self.metadata,
            "features": to_record(self.features),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "FeaturePlan":
        if not isinstance(data, dict):
            raise PlanSchemaError("plan payload must be a JSON object")
        version = data.get("schema_version")
        if not isinstance(version, int):
            raise PlanSchemaError("plan has no integer schema_version field")
        if version > PLAN_SCHEMA_VERSION:
            raise PlanVersionError(
                f"plan schema_version {version} is newer than the supported "
                f"version {PLAN_SCHEMA_VERSION}; upgrade the reader"
            )
        while version not in _INPUT_KINDS:
            migrate = _MIGRATIONS.get(version)
            if migrate is None:
                raise PlanVersionError(
                    f"no migration registered from plan schema_version {version}"
                )
            data = migrate(dict(data))
            version = data["schema_version"]
        try:
            schema = [(name, kind) for name, kind in data["input_schema"]]
            plan = cls(
                input_columns=list(data["input_columns"]),
                input_schema=schema,
                target=data["target"],
                features=[FeatureSpec.from_dict(f) for f in data["features"]],
                drop_columns=list(data.get("drop_columns", [])),
                schema_version=version,
                fingerprint="",
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanSchemaError(f"malformed plan payload: {exc!r}") from exc
        for name, kind in plan.input_schema:
            if kind not in _INPUT_KINDS[version]:
                raise PlanSchemaError(
                    f"input column {name!r} has kind {kind!r}, which a v{version} "
                    f"plan does not name (expected one of {_INPUT_KINDS[version]})"
                )
        stored = data.get("fingerprint", "")
        if stored and stored != plan.fingerprint:
            raise PlanSchemaError(
                f"plan fingerprint mismatch: stored {stored[:12]}… but the "
                f"input schema hashes to {plan.fingerprint[:12]}… — the plan "
                f"file was edited or corrupted"
            )
        return plan

    @classmethod
    def from_json(cls, text: str) -> "FeaturePlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanSchemaError(f"plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        write_json_atomic(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "FeaturePlan":
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise PlanNotFoundError(f"cannot read plan file {path!r}: {exc}") from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def new_columns(self) -> list[str]:
        """Every output column the plan produces, in install order."""
        out: list[str] = []
        for spec in self.features:
            if spec.status != "omitted":
                out.extend(spec.output_columns)
        return out

    def counts(self) -> dict[str, int]:
        """How many features compiled / were omitted."""
        out = {"compiled": 0, "omitted": 0}
        for spec in self.features:
            out[spec.status] = out.get(spec.status, 0) + 1
        return out


def _nan_fill(spec: FeatureSpec, working: DataFrame, n_rows: int) -> None:
    for name in spec.output_columns:
        working[name] = Series._from_array(np.full(n_rows, np.nan), name)


def _migrate_v1(data: dict) -> dict:
    """v1 → v2: flat ``columns`` mapping became ordered ``input_schema``.

    v1 plans (the pre-release shape) recorded ``{"columns": {name: kind}}``
    with no fingerprint and no explicit column order; the migration
    reconstructs both, appending the target to the column order when it
    was not listed.
    """
    columns = data.get("columns")
    if not isinstance(columns, dict):
        raise PlanSchemaError("v1 plan has no 'columns' mapping to migrate")
    target = data.get("target", "")
    input_schema = [[name, kind] for name, kind in columns.items()]
    input_columns = data.get("input_columns") or [
        *columns.keys(),
        *([target] if target and target not in columns else []),
    ]
    out = dict(data)
    out.pop("columns", None)
    out["input_schema"] = input_schema
    out["input_columns"] = input_columns
    out["fingerprint"] = ""  # recomputed from the migrated schema
    out["schema_version"] = 2
    return out


_MIGRATIONS = {1: _migrate_v1}
#: The input kinds of each version read as it is: v2 and v3 share one
#: shape, so a v2 plan keeps its version and its coarse kinds.
_INPUT_KINDS = {2: _COARSE_KINDS, 3: tuple(CSV_KINDS)}
