"""Reshaping helpers: dummies, factorisation, bucketisation, concatenation.

These are the pandas free functions the generated transformations lean on:
``get_dummies`` (unary operator), ``cut`` (bucketisation), ``factorize``
(the paper's pre-processing step), and ``concat`` (harness plumbing).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dataframe import kernels as _kernels
from repro.dataframe.frame import DataFrame
from repro.dataframe.series import Series

__all__ = ["concat", "cut", "factorize", "get_dummies", "qcut", "qcut_params"]


def get_dummies(
    data: Series | DataFrame,
    columns: Sequence[str] | None = None,
    prefix: str | None = None,
    drop_first: bool = False,
) -> DataFrame:
    """One-hot encode a Series, or selected columns of a DataFrame.

    Column names follow pandas: ``{prefix}_{value}`` where the prefix
    defaults to the source column name.  Missing values produce all-zero
    rows.
    """
    if isinstance(data, Series):
        name = prefix if prefix is not None else (data.name or "col")
        codes, categories = data._factorized()
        start = 1 if drop_first else 0
        kept = np.arange(start, len(categories))
        block = np.empty((len(kept), len(codes)), np.int64)  # one row per column
        np.equal(kept[:, None], codes, out=block)
        names = [f"{name}_{cat}" for cat in categories[start:]]
        return DataFrame({c: Series._from_array(row, c) for c, row in zip(names, block)})
    frame = data
    targets = list(columns) if columns is not None else frame.categorical_columns()
    result = frame.drop(columns=targets) if targets else frame.copy()
    for col in targets:
        dummies = get_dummies(frame[col], prefix=col, drop_first=drop_first)
        for dummy_col in dummies.columns:
            result[dummy_col] = dummies[dummy_col]
    return result


def factorize(series: Series) -> tuple[np.ndarray, list]:
    """Encode values as integer codes (missing → -1); return ``(codes, uniques)``.

    Reads the column's cached dictionary encoding
    (:meth:`repro.dataframe.series.Series.encoding`); the result is a
    fresh copy the caller may mutate.
    """
    codes, uniques = series._factorized()
    return codes.copy(), list(uniques)


def cut(
    series: Series,
    bins: Sequence[float],
    labels: Sequence | None = None,
    right: bool = True,
) -> Series:
    """Bucketise numeric values into intervals defined by *bins* edges.

    With ``labels=None`` the output is the integer bin index (0-based);
    otherwise the corresponding label.  Values outside the outermost edges
    map to missing, matching pandas.
    """
    edges = list(bins)
    if sorted(edges) != edges:
        raise ValueError("bin edges must be sorted ascending")
    if labels is not None and len(labels) != len(edges) - 1:
        raise ValueError(
            f"expected {len(edges) - 1} labels for {len(edges)} edges, got {len(labels)}"
        )
    n_bins = len(edges) - 1
    data = series._numeric()
    missing = np.isnan(data)
    edge_arr = np.asarray(edges, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        if right:
            # edges[i-1] < x <= edges[i]  →  bin i-1; the left edge belongs
            # to the first bin.
            codes = np.searchsorted(edge_arr, data, side="left") - 1
            codes[data == edge_arr[0]] = 0
        else:
            # edges[i-1] <= x < edges[i]  →  bin i-1; the right edge
            # belongs to the last bin.
            codes = np.searchsorted(edge_arr, data, side="right") - 1
            codes[data == edge_arr[-1]] = n_bins - 1
    out_of_range = (codes < 0) | (codes >= n_bins)
    codes[out_of_range | missing] = -1
    choices = list(range(n_bins)) if labels is None else list(labels)
    return Series._from_array(
        _kernels.take_uniques(choices, codes), series.name
    )


def qcut_params(series: Series, q: int) -> tuple[str, np.ndarray | None]:
    """Resolve the quantile bin edges ``qcut`` would use for *series*.

    Returns ``(kind, edges)``: ``("cut", edges)`` for the regular case,
    ``("collapsed", None)`` when duplicate quantiles leave fewer than two
    distinct edges (everything lands in one bin), or ``("empty", None)``
    when there are no present values.  This is the single source of truth
    shared by :func:`qcut` and the FeaturePlan freezer, so a compiled plan
    captures exactly the edges the fitted transform used.
    """
    data = series._numeric()
    present = data[~np.isnan(data)]
    if len(present) == 0:
        return "empty", None
    quantiles = np.quantile(present, np.linspace(0, 1, q + 1))
    # Collapse duplicate edges (heavily tied data) to keep bins valid.
    edges = np.unique(quantiles)
    if len(edges) < 2:
        return "collapsed", None
    edges[0] -= 1e-9
    edges[-1] += 1e-9
    return "cut", edges


def qcut(series: Series, q: int, labels: Sequence | None = None) -> Series:
    """Quantile-based bucketisation into *q* (approximately) equal-count bins."""
    kind, edges = qcut_params(series, q)
    if kind == "empty":
        return Series([None] * len(series), series.name)
    if kind == "collapsed":
        data = series._numeric()
        return Series([0 if not np.isnan(v) else None for v in data], series.name)
    effective_labels = None
    if labels is not None:
        effective_labels = list(labels)[: len(edges) - 1]
    return cut(series, edges.tolist(), labels=effective_labels, right=True)


def concat(frames: Sequence[DataFrame], axis: int = 0) -> DataFrame:
    """Concatenate frames row-wise (``axis=0``) or column-wise (``axis=1``)."""
    frames = [f for f in frames if f is not None]
    if not frames:
        return DataFrame()
    if axis == 1:
        out = frames[0].copy()
        for frame in frames[1:]:
            for col in frame.columns:
                out[col] = frame[col]
        return out
    all_columns: dict[str, None] = {}
    for frame in frames:
        for col in frame.columns:
            all_columns.setdefault(col, None)
    data: dict[str, list] = {col: [] for col in all_columns}
    for frame in frames:
        n = len(frame)
        for col in all_columns:
            if col in frame.columns:
                data[col].extend(frame[col].tolist())
            else:
                data[col].extend([None] * n)
    return DataFrame(data)
