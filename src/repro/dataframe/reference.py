"""Retained pure-Python reference implementations of the data plane.

These are the element-loop implementations the vectorized kernels replaced
(verbatim from the pre-vectorization tree).  They exist for two reasons:

* the property-based equivalence suite
  (``tests/dataframe/test_vectorized_equivalence.py``) asserts the numpy
  fast paths are value- and dtype-identical to these loops, including
  NaN/None propagation;
* ``benchmarks/bench_dataplane.py`` times them against the vectorized
  paths to measure the speedup per operation.

Nothing in the library itself calls into this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.dataframe.frame import DataFrame
from repro.dataframe.kernels import ColumnProfile, _as_float, coercion_kind
from repro.dataframe.series import Series, _is_missing_scalar

__all__ = [
    "FLOAT_RTOL",
    "assert_frame_equivalent",
    "assert_series_equivalent",
    "reference_apply",
    "reference_astype",
    "reference_coerce_listlike",
    "reference_coerce_values",
    "reference_column_profile",
    "reference_cut",
    "reference_factorize",
    "reference_feature_matrix",
    "reference_get_dummies",
    "reference_groupby_agg",
    "reference_groupby_transform",
    "reference_isin",
    "reference_map",
    "reference_mode",
    "reference_nunique",
    "reference_unique",
    "reference_value_counts",
    "reference_where",
    "REFERENCE_TRANSFORM_SOURCES",
]


#: Relative tolerance for float accumulations: the vectorized paths change
#: summation order / use SIMD libm, so sums, means, and ``log`` agree with
#: the loops to a few ulp rather than bitwise.
FLOAT_RTOL = 1e-12


def assert_series_equivalent(new: Series, ref: Series, label: str = "series") -> None:
    """Assert the vectorized/reference equivalence contract for one column:
    exact dtype, exact missingness, exact values (and value types) except
    floats, which compare within :data:`FLOAT_RTOL`."""
    assert new.dtype == ref.dtype, f"{label}: dtype {new.dtype} != {ref.dtype}"
    assert len(new) == len(ref), f"{label}: length {len(new)} != {len(ref)}"
    a, b = new.to_numpy(), ref.to_numpy()
    if a.dtype.kind == "f":
        na, nb = np.isnan(a), np.isnan(b)
        assert (na == nb).all(), f"{label}: missingness mismatch"
        assert np.allclose(a[~na], b[~nb], rtol=FLOAT_RTOL, atol=0.0), (
            f"{label}: values diverge"
        )
        return
    for x, y in zip(new.tolist(), ref.tolist()):
        if _is_missing_scalar(x) or _is_missing_scalar(y):
            assert _is_missing_scalar(x) and _is_missing_scalar(y), (
                f"{label}: missingness mismatch ({x!r} vs {y!r})"
            )
        else:
            assert x == y and type(x) is type(y), f"{label}: {x!r} != {y!r}"


def assert_frame_equivalent(new: DataFrame, ref: DataFrame, label: str = "frame") -> None:
    """Column-wise :func:`assert_series_equivalent` over two frames."""
    assert new.columns == ref.columns, (
        f"{label}: columns {new.columns} != {ref.columns}"
    )
    for col in ref.columns:
        assert_series_equivalent(new[col], ref[col], f"{label}[{col}]")


def reference_coerce_values(values: Any) -> np.ndarray:
    """The seed's triple-scan list coercion (``Series.__init__`` data path)."""
    values = list(values)
    has_missing = any(_is_missing_scalar(v) for v in values)
    non_missing = [v for v in values if not _is_missing_scalar(v)]
    if non_missing and all(isinstance(v, (bool, np.bool_)) for v in non_missing):
        if has_missing:
            return np.array(
                [None if _is_missing_scalar(v) else bool(v) for v in values], dtype=object
            )
        return np.array([bool(v) for v in values], dtype=bool)
    if non_missing and all(
        isinstance(v, (int, float, np.integer, np.floating)) for v in non_missing
    ):
        if has_missing or any(isinstance(v, (float, np.floating)) for v in non_missing):
            return np.array(
                [np.nan if _is_missing_scalar(v) else float(v) for v in values],
                dtype=np.float64,
            )
        return np.array([int(v) for v in values], dtype=np.int64)
    return np.array(
        [None if _is_missing_scalar(v) else v for v in values], dtype=object
    )


def _reference_classify(values: list) -> str:
    """One ``isinstance`` loop over *values* → its ``coercion_kind``."""
    has_missing = False
    n_present = 0
    all_bool = True
    any_float = False
    any_wide = False
    for v in values:
        if v is None:
            has_missing = True
            continue
        if isinstance(v, (bool, np.bool_)):
            n_present += 1
            continue
        if isinstance(v, (float, np.floating)):
            if math.isnan(v):
                has_missing = True
            else:
                n_present += 1
                any_float = True
                all_bool = False
            continue
        if isinstance(v, (int, np.integer)):
            n_present += 1
            all_bool = False
            if not -(2**63) <= v <= 2**63 - 1:
                any_wide = True
            continue
        return "object"
    return coercion_kind(False, n_present > 0, all_bool, any_float, has_missing, any_wide)


def reference_coerce_listlike(values: list) -> np.ndarray:
    """The per-cell list coercion ``kernels.coerce_listlike`` replaced: an
    ``isinstance`` classification loop, then a per-cell missing check.
    Object results are filled cell by cell, so they are always 1-D."""
    kind = _reference_classify(values)
    if kind == "bool":
        return np.array([bool(v) for v in values], dtype=bool)
    if kind == "float":
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:  # an int past a float's range
            return np.array([_as_float(v) for v in values], dtype=np.float64)
    if kind == "int":
        return np.array(values, dtype=np.int64)
    if kind == "bool_missing":
        cells = [None if _is_missing_scalar(v) else bool(v) for v in values]
    else:
        cells = [None if _is_missing_scalar(v) else v for v in values]
    out = np.empty(len(cells), dtype=object)
    for i, cell in enumerate(cells):
        out[i] = cell
    return out


def reference_map(series: Series, mapper: Callable[[Any], Any] | Mapping[Any, Any]) -> Series:
    """Element-loop ``Series.map``."""
    if isinstance(mapper, Mapping):
        get = mapper.get
        out = [None if _is_missing_scalar(v) else get(v) for v in series.tolist()]
    else:
        out = [None if _is_missing_scalar(v) else mapper(v) for v in series.tolist()]
    return Series(out, series.name)


def reference_apply(series: Series, func: Callable[[Any], Any]) -> Series:
    """Element-loop ``Series.apply`` (missing values included)."""
    return Series([func(v) for v in series.tolist()], series.name)


def reference_astype(series: Series, dtype: Any) -> Series:
    """Element-loop ``Series.astype``."""
    if dtype in (str, "str", "string"):
        return Series(
            [None if _is_missing_scalar(v) else str(v) for v in series.tolist()], series.name
        )
    if dtype in (float, "float", "float64"):
        return Series(
            [np.nan if _is_missing_scalar(v) else float(v) for v in series.tolist()],
            series.name,
        )
    if dtype in (int, "int", "int64"):
        return Series([int(v) for v in series.tolist()], series.name)
    if dtype in (bool, "bool"):
        return Series([bool(v) for v in series.tolist()], series.name)
    return Series._from_array(series.values.astype(dtype), series.name)


def reference_where(series: Series, cond: Series | np.ndarray, other: Any = None) -> Series:
    """Element-loop ``Series.where``."""
    mask = cond.to_numpy() if isinstance(cond, Series) else np.asarray(cond)
    out = [v if m else other for v, m in zip(series.tolist(), mask)]
    return Series(out, series.name)


def reference_isin(series: Series, values) -> Series:
    """Element-loop ``Series.isin``."""
    lookup = set(values)
    out = np.array(
        [not _is_missing_scalar(v) and v in lookup for v in series.tolist()], dtype=bool
    )
    return Series._from_array(out, series.name)


def reference_unique(series: Series) -> list:
    """Element-loop ``Series.unique`` (first-seen order)."""
    seen: dict[Any, None] = {}
    for v in series.tolist():
        if not _is_missing_scalar(v) and v not in seen:
            seen[v] = None
    return list(seen)


def reference_nunique(series: Series, dropna: bool = True) -> int:
    values = series.tolist()
    if dropna:
        values = [v for v in values if not _is_missing_scalar(v)]
    return len(set(values))


#: The binary-column test the screens and the agenda applied to a
#: column's distinct values.
_BINARY_VALUES = {0, 1, 0.0, 1.0, True, False}


def reference_column_profile(values: np.ndarray, cap: int) -> ColumnProfile:
    """``column_profile`` from the expressions it replaced: ``count()``, the
    ``len(set(tolist()))`` single-valued screen and the ``unique()`` scans."""
    series = Series._from_array(values)
    uniques = reference_unique(series)
    return ColumnProfile(
        non_null=series.count(),
        single_valued=reference_nunique(series, dropna=False) <= 1,
        uniques=uniques if len(uniques) <= cap else None,
        binary=set(uniques) <= _BINARY_VALUES,
    )


def reference_mode(series: Series) -> Any:
    counts: dict[Any, int] = {}
    for v in series.tolist():
        if not _is_missing_scalar(v):
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    return max(counts, key=counts.get)


def reference_value_counts(series: Series, normalize: bool = False) -> dict:
    """Element-loop ``Series.value_counts``."""
    counts: dict[Any, int] = {}
    for v in series.tolist():
        if not _is_missing_scalar(v):
            counts[v] = counts.get(v, 0) + 1
    ordered = dict(sorted(counts.items(), key=lambda kv: -kv[1]))
    if normalize:
        total = sum(ordered.values())
        return {k: v / total for k, v in ordered.items()}
    return ordered


def reference_factorize(series: Series) -> tuple[np.ndarray, list]:
    """Element-loop ``factorize`` (missing → -1, first-seen uniques)."""
    uniques: list = []
    lookup: dict = {}
    codes = np.empty(len(series), dtype=np.int64)
    for i, v in enumerate(series.tolist()):
        if _is_missing_scalar(v):
            codes[i] = -1
            continue
        if v not in lookup:
            lookup[v] = len(uniques)
            uniques.append(v)
        codes[i] = lookup[v]
    return codes, uniques


def reference_cut(
    series: Series,
    bins: Sequence[float],
    labels: Sequence | None = None,
    right: bool = True,
) -> Series:
    """Element-loop ``cut`` with the inner per-bin scan."""
    edges = list(bins)
    if sorted(edges) != edges:
        raise ValueError("bin edges must be sorted ascending")
    if labels is not None and len(labels) != len(edges) - 1:
        raise ValueError(
            f"expected {len(edges) - 1} labels for {len(edges)} edges, got {len(labels)}"
        )
    out: list = []
    for v in series.tolist():
        if _is_missing_scalar(v):
            out.append(None)
            continue
        x = float(v)
        idx = None
        for b in range(len(edges) - 1):
            lo, hi = edges[b], edges[b + 1]
            if right:
                inside = (lo < x <= hi) or (b == 0 and x == lo)
            else:
                inside = (lo <= x < hi) or (b == len(edges) - 2 and x == hi)
            if inside:
                idx = b
                break
        if idx is None:
            out.append(None)
        elif labels is None:
            out.append(idx)
        else:
            out.append(labels[idx])
    return Series(out, series.name)


def reference_get_dummies(series: Series, prefix: str | None = None, drop_first: bool = False) -> DataFrame:
    """Per-category element-loop one-hot encoding."""
    name = prefix if prefix is not None else (series.name or "col")
    values = series.tolist()
    categories = reference_unique(series)
    if drop_first:
        categories = categories[1:]
    out: dict[str, list[int]] = {}
    for cat in categories:
        out[f"{name}_{cat}"] = [int(v == cat) for v in values]
    return DataFrame(out)


# ----------------------------------------------------------------------
# Group-by: the per-group Python loops
# ----------------------------------------------------------------------
def _reference_groups(frame: DataFrame, keys: Sequence[str]) -> dict[Any, list[int]]:
    key_lists = [frame[k].tolist() for k in keys]
    groups: dict[Any, list[int]] = {}
    for i, key in enumerate(zip(*key_lists)):
        label = key[0] if len(key) == 1 else key
        groups.setdefault(label, []).append(i)
    return groups


def reference_groupby_transform(
    frame: DataFrame, keys: str | Sequence[str], column: str, func: str | Callable
) -> Series:
    """Per-group reduce + broadcast, exactly as the seed implemented it."""
    from repro.dataframe.groupby import resolve_aggregator

    keys = [keys] if isinstance(keys, str) else list(keys)
    reducer = resolve_aggregator(func)
    series = frame[column]
    out = np.empty(len(frame), dtype=object)
    for rows in _reference_groups(frame, keys).values():
        idx = np.asarray(rows)
        sub = Series._from_array(series.values[idx], series.name)
        out[idx] = reducer(sub)
    return Series(out.tolist(), series.name)


def reference_groupby_agg(
    frame: DataFrame, keys: str | Sequence[str], column: str, func: str | Callable
) -> DataFrame:
    """Per-group reduce into a keys + value frame, as the seed implemented it."""
    from repro.dataframe.groupby import resolve_aggregator

    keys = [keys] if isinstance(keys, str) else list(keys)
    reducer = resolve_aggregator(func)
    series = frame[column]
    out: dict[str, list] = {k: [] for k in keys}
    name = series.name or "value"
    out[name] = []
    for label, rows in _reference_groups(frame, keys).items():
        key = (label,) if len(keys) == 1 else label
        for k, v in zip(keys, key):
            out[k].append(v)
        idx = np.asarray(rows)
        sub = Series._from_array(series.values[idx], series.name)
        out[name].append(reducer(sub))
    return DataFrame(out)


# ----------------------------------------------------------------------
# Evaluation harness: the per-element feature-matrix path
# ----------------------------------------------------------------------
def reference_feature_matrix(
    frame: DataFrame, target: str, strict: bool = True
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``eval.harness.feature_matrix`` built on the loop factorize/numeric paths."""
    from repro.ml.preprocessing import SimpleImputer

    names: list[str] = []
    columns: list[np.ndarray] = []
    for name in frame.columns:
        if name == target:
            continue
        series = frame[name]
        if series.dtype == object:
            codes, _ = reference_factorize(series)
            columns.append(codes.astype(np.float64))
        else:
            out = np.empty(len(series), dtype=np.float64)
            for i, v in enumerate(series.tolist()):
                out[i] = np.nan if _is_missing_scalar(v) else float(v)
            columns.append(out)
        names.append(name)
    if not columns:
        raise ValueError("no feature columns")
    X = np.column_stack(columns)
    if strict and np.isinf(X).any():
        bad = [names[j] for j in range(X.shape[1]) if np.isinf(X[:, j]).any()]
        raise ValueError(f"infinite values in features {bad[:5]} — models cannot fit")
    if not strict:
        X = np.nan_to_num(X, nan=0.0, posinf=1e12, neginf=-1e12)
    elif np.isnan(X).any():
        X = SimpleImputer(strategy="median").fit_transform(X)
    y = frame[target]._numeric().astype(np.int64)
    return X, y, names


#: The element-loop transform sources the codegen emitted before the
#: vectorized data plane — the "generated transform" reference side of the
#: benchmark and equivalence suite.  Keys match the operator tags.
REFERENCE_TRANSFORM_SOURCES: dict[str, str] = {
    "log_transform": (
        "def transform(df):\n"
        "    return (df[{col!r}].clip(0) + 1.0).apply(math.log)\n"
    ),
    "binary_div": (
        "def transform(df):\n"
        "    den = df[{b!r}].apply(lambda v: v if not pd.isna(v) and v != 0 else None)\n"
        "    return df[{a!r}] / den\n"
    ),
    "knowledge_map": (
        "def transform(df):\n"
        "    lookup = {entries}\n"
        "    return df[{col!r}].apply(lambda v: lookup.get(v, {default!r}))\n"
    ),
}
