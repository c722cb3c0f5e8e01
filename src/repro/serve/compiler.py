"""Assemble fitted features into a :class:`FeaturePlan`, and compare
frames bit for bit.

Fit freezes and evaluates every accepted feature itself
(:func:`~repro.core.function_generator.realize_source`), so
:func:`compile_plan` is assembly, not verification: it collects each
feature's frozen expression into a spec, records the input schema, and
omits a feature that has none or reads a column that is neither an
input nor an earlier feature's output.  Each input column is pinned to
its CSV kind (:func:`~repro.serve.plan.csv_kind`).
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import kernels as _kernels
from repro.dataframe.expr import expr_columns
from repro.dataframe.frame import DataFrame
from repro.dataframe.series import Series
from repro.serve.plan import FeaturePlan, FeatureSpec, column_kind, csv_kind

__all__ = ["compile_plan", "frames_identical", "series_identical"]


# ----------------------------------------------------------------------
# Bitwise comparison
# ----------------------------------------------------------------------
def series_identical(a: Series, b: Series) -> bool:
    """True when two Series match in dtype, missingness, and every value."""
    if len(a) != len(b) or a.dtype != b.dtype:
        return False
    va, vb = a.values, b.values
    if va.dtype.kind == "f":
        return bool(np.array_equal(va, vb, equal_nan=True))
    if va.dtype == object:
        for x, y in zip(va, vb):
            mx = _kernels.is_missing_scalar(x)
            if mx != _kernels.is_missing_scalar(y):
                return False
            if mx:
                continue
            if type(x) is not type(y) or x != y:
                return False
        return True
    return bool(np.array_equal(va, vb))


def frames_identical(a: DataFrame, b: DataFrame) -> tuple[bool, str]:
    """Column-for-column bitwise identity; returns ``(ok, first difference)``."""
    if a.columns != b.columns:
        return False, f"column sets differ: {a.columns} vs {b.columns}"
    for name in a.columns:
        if not series_identical(a[name], b[name]):
            return False, f"column {name!r} differs (dtype/values/missingness)"
    return True, ""


# ----------------------------------------------------------------------
# Plan assembly
# ----------------------------------------------------------------------
def compile_plan(
    result,
    frame: DataFrame,
    target: str,
    metadata: dict | None = None,
) -> FeaturePlan:
    """Assemble a fitted *result*'s features into a :class:`FeaturePlan`.

    *frame* is the frame ``fit_transform`` was called with: its columns
    are the plan's inputs.  Each feature ships the frozen expression fit
    evaluated, or is omitted: it has none (``omit_reason``), an output
    column is missing from the fitted frame, or its expression reads a
    column that is neither an input nor an earlier feature's output
    (FM-driven removal can take one away).
    """
    input_columns = frame.columns
    input_schema = [
        (name, csv_kind(frame[name])) for name in input_columns if name != target
    ]
    available = set(input_columns)
    specs: list[FeatureSpec] = []
    for feature in result.new_features.values():
        specs.append(_spec(feature, result.frame, available))
        available.update(n for n in feature.output_columns if n in result.frame)
    plan = FeaturePlan(
        input_columns=input_columns,
        input_schema=input_schema,
        target=target,
        features=specs,
        drop_columns=list(result.dropped),
        metadata=dict(metadata or {}),
    )
    omitted = [{"name": s.name, "reason": s.reason} for s in specs if s.status == "omitted"]
    plan.metadata.setdefault("compile", {}).update(
        {"n_features": len(specs), **plan.counts(), "omitted_features": omitted}
    )
    return plan


def _spec(feature, fitted: DataFrame, available: set) -> FeatureSpec:
    """One feature's spec: ``compiled`` with its frozen expression and the
    fitted outputs' schema kinds (``budget_rows`` sizes streamed shards by
    them), or ``omitted`` with the reason."""
    missing = [n for n in feature.output_columns if n not in fitted]
    expr, reason = feature.expr, ""
    if missing:
        reason = f"output column {missing[0]!r} missing from fitted frame"
    elif expr is None:
        reason = feature.omit_reason or "no frozen expression"
    else:
        absent = [c for c in expr_columns(expr) if c not in available]
        if absent:
            reason = f"expression reads columns absent at serve time: {absent}"
    if reason:
        expr = None
    return FeatureSpec(
        name=feature.name,
        family=getattr(feature.family, "value", None) or str(feature.family),
        description=feature.description,
        input_columns=list(feature.input_columns),
        output_columns=list(feature.output_columns),
        status="omitted" if reason else "compiled",
        expr=expr,
        reason=reason,
        output_kinds=None if reason else [column_kind(fitted[n]) for n in feature.output_columns],
    )
