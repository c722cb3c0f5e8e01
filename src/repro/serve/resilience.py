"""Serve-path resilience: reports, quarantine, stats.

``FeaturePlan.apply`` under the default ``strict`` policy fails the
whole batch the moment one feature raises, which is the right contract
for offline replay and tests.  Production traffic can ask for the
opposite: under ``degrade`` a failing feature (an unavailable input
column, or an in-memory cell no kernel takes) costs exactly its own
columns, with the outcome recorded, never the batch.  Compiled ops are
total on input of the plan's kinds, so a failure comes from the batch,
not from the op.  The replay loop itself lives in :meth:`FeaturePlan.apply_with_report
<repro.serve.plan.FeaturePlan.apply_with_report>`; this module holds the
pieces it and the server compose:

* :class:`FeatureReport` / :class:`ApplyReport` — per-feature outcomes
  of one replay (``ok``, ``failed``, ``omitted``).
* :func:`validate_rows` — typed coercion of row-dict batches against the
  plan's schema fingerprint with per-cell patching and per-row
  quarantine, so hostile input surfaces as a reasoned
  :class:`QuarantineReport` instead of a deep-in-kernel crash.
* :class:`ServerStats` — the cumulative counters behind
  ``FeatureServer.health()`` / ``stats()``.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.dataframe.expr import vocabularies
from repro.dataframe.frame import DataFrame
from repro.dataframe.io import is_number_cell
from repro.dataframe.series import Series
from repro.records import to_record
from repro.serve.plan import PlanError, coarse_kind

__all__ = [
    "FAILURE_POLICIES",
    "ApplyReport",
    "BatchValidationError",
    "FeatureReport",
    "QuarantineReport",
    "ServerStats",
    "ValidationLimits",
    "plan_known_categories",
    "validate_rows",
]

#: ``strict`` is today's contract (one bad feature fails the batch) and
#: stays the default; ``degrade`` NaN-fills failing features and reports.
FAILURE_POLICIES = ("strict", "degrade")


class BatchValidationError(PlanError):
    """A row-dict batch cannot be served at all (empty, or fully hostile)."""


# ----------------------------------------------------------------------
# Per-feature reports
# ----------------------------------------------------------------------
@dataclass
class FeatureReport:
    """One feature's outcome in one ``apply`` call.

    ``status`` is ``ok`` (served normally), ``failed`` (an input was
    unavailable or evaluation raised — NaN-filled under degrade), or
    ``omitted`` (the plan itself never compiled it).  ``error`` is the
    exception class name for ``failed``; ``reason`` is human-readable in
    every non-ok case.
    """

    feature: str
    status: str
    error: str = ""
    reason: str = ""


@dataclass
class ApplyReport:
    """Structured outcome of one resilient ``apply`` call."""

    policy: str
    reports: list[FeatureReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status in ("ok", "omitted") for r in self.reports)

    def by_status(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for report in self.reports:
            out[report.status] = out.get(report.status, 0) + 1
        return out

    @property
    def degraded_fraction(self) -> float:
        """Fraction of served (non-omitted) features that were NaN-filled."""
        served = [r for r in self.reports if r.status != "omitted"]
        if not served:
            return 0.0
        bad = sum(1 for r in served if r.status != "ok")
        return bad / len(served)

    def failures(self) -> list[FeatureReport]:
        return [r for r in self.reports if r.status == "failed"]

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "degraded_fraction": self.degraded_fraction,
            "by_status": self.by_status(),
            "features": to_record(self.reports),
        }


# ----------------------------------------------------------------------
# Hostile-input validation / quarantine
# ----------------------------------------------------------------------
@dataclass
class ValidationLimits:
    """Knobs bounding what a row-dict batch may contain.

    ``max_string_chars`` quarantines oversized strings before they reach
    the object kernels; ``nan_flood_fraction`` is the per-column NaN
    fraction above which the batch is flagged (a flood is a *warning* —
    NaN is a legal value — but a sudden all-NaN column is usually an
    upstream outage, and health checks want to see it).
    ``max_patch_examples`` caps the per-cell patch examples kept in the
    report so a hostile batch cannot balloon memory.
    """

    max_string_chars: int = 10_000
    nan_flood_fraction: float = 0.5
    max_patch_examples: int = 20


@dataclass
class QuarantineReport:
    """What :func:`validate_rows` did to a row-dict batch."""

    total_rows: int = 0
    kept_rows: int = 0
    quarantined: list[tuple[int, str]] = field(default_factory=list)
    patched_cells: int = 0
    patches: list[tuple[int, str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def quarantined_rows(self) -> int:
        return len(self.quarantined)

    def to_dict(self) -> dict:
        return {
            "total_rows": self.total_rows,
            "kept_rows": self.kept_rows,
            "quarantined_rows": self.quarantined_rows,
            "quarantined": [
                {"row": idx, "reason": reason} for idx, reason in self.quarantined
            ],
            "patched_cells": self.patched_cells,
            "patches": [
                {"row": idx, "column": col, "reason": reason}
                for idx, col, reason in self.patches
            ],
            "warnings": list(self.warnings),
        }


_MISSING = object()


def _coerce_numeric(value: Any):
    """``(float value, patch reason | None)`` or ``(None, quarantine reason)``."""
    if value is _MISSING or value is None:
        return float("nan"), None
    if isinstance(value, bool):
        return float(value), "bool coerced to numeric"
    if isinstance(value, (int, float, np.integer, np.floating)):
        value = float(value)
        if math.isinf(value):
            return float("nan"), "inf patched to NaN"
        return value, None
    if isinstance(value, str):
        # The CSV reader's strict grammar, so "nan", "inf", "1_000" and
        # " 3 " stay strings here exactly as they do in a CSV cell.
        if not is_number_cell(value):
            return None, f"non-numeric string {value[:40]!r} in numeric column"
        parsed = float(value)
        if math.isinf(parsed):  # "1e999" overflows
            return float("nan"), "inf patched to NaN"
        return parsed, "numeric string coerced"
    return None, f"value of type {type(value).__name__} in numeric column"


def _coerce_bool(value: Any):
    if isinstance(value, (bool, np.bool_)):
        return bool(value), None
    if isinstance(value, (int, np.integer)) and value in (0, 1):
        return bool(value), "0/1 coerced to bool"
    if value is _MISSING or value is None:
        return None, "missing value in boolean column"
    return None, f"value of type {type(value).__name__} in boolean column"


def _coerce_object(value: Any, limits: ValidationLimits):
    if value is _MISSING or value is None:
        return None, None
    if isinstance(value, str):
        if len(value) > limits.max_string_chars:
            return None, (
                f"string of {len(value)} chars exceeds "
                f"max_string_chars={limits.max_string_chars}"
            )
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return None, "string is not UTF-8-encodable"
        return value, None
    if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
        return value, None
    return None, f"value of type {type(value).__name__} in object column"


def validate_rows(
    plan,
    rows: Sequence[Mapping],
    limits: ValidationLimits | None = None,
    *,
    strict: bool = False,
) -> tuple[DataFrame, QuarantineReport]:
    """Coerce a row-dict batch against *plan*'s schema, quarantining hostiles.

    Cell-level problems with an obvious safe reading are *patched* (inf →
    NaN, numeric string → float, missing key → NaN/None) and counted;
    problems with no safe reading (nested values, un-coercible dtypes,
    oversized or non-UTF-8 strings, a non-mapping row) *quarantine the
    whole row* with a reason.  Surviving rows become a frame whose
    columns already carry the plan's expected dtypes, so
    ``validate_frame`` passes by construction.

    ``strict=True`` converts any quarantine *or patch* into a raised
    :class:`BatchValidationError` — the strict-policy contract is that a
    hostile batch fails loudly rather than being silently shrunk or
    repaired.  An empty batch, or a batch with no surviving rows, always
    raises.
    """
    limits = limits or ValidationLimits()
    rows = list(rows)
    report = QuarantineReport(total_rows=len(rows))
    if not rows:
        raise BatchValidationError("empty batch: no rows to transform")
    schema = [(name, coarse_kind(kind)) for name, kind in plan.input_schema]
    kept: list[int] = []
    columns: dict[str, list] = {name: [] for name, _ in schema}

    for idx, row in enumerate(rows):
        if not isinstance(row, Mapping):
            report.quarantined.append(
                (idx, f"row is not a mapping (got {type(row).__name__})")
            )
            continue
        staged: dict[str, Any] = {}
        patches: list[tuple[str, str]] = []
        reason = None
        for name, kind in schema:
            value = row.get(name, _MISSING)
            if isinstance(value, (Mapping, list, tuple, set)):
                reason = f"nested value of type {type(value).__name__} in column {name!r}"
                break
            if kind == "numeric":
                coerced, note = _coerce_numeric(value)
                if coerced is None:
                    reason = f"column {name!r}: {note}"
                    break
            elif kind == "bool":
                coerced, note = _coerce_bool(value)
                if coerced is None:
                    reason = f"column {name!r}: {note}"
                    break
            else:
                coerced, note = _coerce_object(value, limits)
                if note is not None:
                    reason = f"column {name!r}: {note}"
                    break
            if value is _MISSING and kind != "bool":
                patches.append((name, "missing key defaulted"))
            elif note is not None:
                patches.append((name, note))
            staged[name] = coerced
        if reason is not None:
            report.quarantined.append((idx, reason))
            continue
        kept.append(idx)
        for name, note in patches:
            report.patched_cells += 1
            if len(report.patches) < limits.max_patch_examples:
                report.patches.append((idx, name, note))
        for name, _kind in schema:
            columns[name].append(staged[name])

    report.kept_rows = len(kept)
    if strict and (report.quarantined or report.patched_cells):
        if report.quarantined:
            idx, first = report.quarantined[0]
            detail = f"row {idx}: {first}"
        else:
            idx, col, note = report.patches[0]
            detail = f"row {idx}, column {col!r}: {note}"
        raise BatchValidationError(
            f"{report.quarantined_rows} rows quarantined and "
            f"{report.patched_cells} cells patched out of {report.total_rows} "
            f"rows under strict policy; first: {detail}"
        )
    if not kept:
        sample = "; ".join(
            f"row {idx}: {reason}" for idx, reason in report.quarantined[:3]
        )
        raise BatchValidationError(
            f"no rows survived validation ({report.total_rows} quarantined): {sample}"
        )

    data: dict[str, Any] = {}
    for name, kind in schema:
        values = columns[name]
        if kind == "numeric":
            array = np.asarray(values, dtype=np.float64)
        elif kind == "bool":
            array = np.asarray(values, dtype=bool)
        else:
            array = np.empty(len(values), dtype=object)
            array[:] = values
        data[name] = Series._from_array(array, name)
    # Plan input columns outside the serve schema (the target, when the
    # batch carries it) pass through untouched, as the raw-DataFrame path
    # would keep them.
    schema_names = {name for name, _ in schema}
    for name in plan.input_columns:
        if name in schema_names or name not in rows[kept[0]]:
            continue
        data[name] = [rows[idx].get(name) for idx in kept]
    frame = DataFrame(data)

    for name, kind in schema:
        if kind != "numeric":
            continue
        values = frame[name].values
        flood = float(np.isnan(values).mean()) if len(values) else 0.0
        if flood > limits.nan_flood_fraction:
            report.warnings.append(
                f"column {name!r}: NaN fraction {flood:.2f} exceeds "
                f"flood threshold {limits.nan_flood_fraction:.2f}"
            )
    known = plan_known_categories(plan)
    for name, categories in known.items():
        if name not in frame:
            continue
        values = frame[name].values
        unknown = sum(
            1 for v in values.tolist() if v is not None and v not in categories
        )
        if unknown:
            report.warnings.append(
                f"column {name!r}: {unknown} values outside the "
                f"{len(categories)} categories the plan froze"
            )
    return frame, report


def plan_known_categories(plan) -> dict[str, set]:
    """Category vocabularies the plan froze, per input column.

    Derived from the ops whose fit-time statistics enumerate the values
    they saw (:func:`~repro.dataframe.expr.vocabularies`).  A serve-time
    value outside the set is not an error (the kernels all have an
    unseen-value path), but a surge of them is drift worth flagging.
    """
    out: dict[str, set] = {}
    for spec in plan.features:
        if spec.status != "compiled" or spec.expr is None:
            continue
        for column, values in vocabularies(spec.expr):
            out.setdefault(column, set()).update(values)
    return out


# ----------------------------------------------------------------------
# Cumulative server stats
# ----------------------------------------------------------------------
class ServerStats:
    """Thread-safe cumulative counters behind the server health surface."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._batches = 0
        self._rows_in = 0
        self._rows_served = 0
        self._rows_quarantined = 0
        self._cells_patched = 0
        self._features: dict[str, dict[str, int]] = {}

    def record(
        self,
        *,
        rows_in: int,
        rows_served: int,
        quarantine: QuarantineReport | None = None,
        apply_report: ApplyReport | None = None,
    ) -> None:
        with self._lock:
            self._batches += 1
            self._rows_in += rows_in
            self._rows_served += rows_served
            if quarantine is not None:
                self._rows_quarantined += quarantine.quarantined_rows
                self._cells_patched += quarantine.patched_cells
            if apply_report is not None:
                for feature in apply_report.reports:
                    if feature.status == "omitted":
                        continue
                    counts = self._features.setdefault(
                        feature.feature, {"ok": 0, "failed": 0}
                    )
                    counts[feature.status] = counts.get(feature.status, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "batches": self._batches,
                "rows_in": self._rows_in,
                "rows_served": self._rows_served,
                "rows_quarantined": self._rows_quarantined,
                "cells_patched": self._cells_patched,
                "features": {
                    name: dict(counts) for name, counts in self._features.items()
                },
            }
