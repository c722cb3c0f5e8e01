"""Group-by machinery: ``df.groupby(keys)[col].transform(func)`` and friends.

The high-order operator in SMARTFEAT emits exactly the pandas idiom
``df.groupby(groupby_col)[agg_col].transform(function)``; this module
implements that surface plus the aggregate forms the baselines use.

Grouping is vectorised: each key column is stably sorted once
(:meth:`repro.dataframe.series.Series.grouping`; object columns sort
their cached dictionary codes), multi-key groups are combined by
mixed-radix coding, and the built-in aggregations (``sum`` /
``mean`` / ``min`` / ``max`` / ``count`` / ``size`` / ``first`` /
``last``) run as sort-based segmented reductions
(:func:`repro.dataframe.kernels.segmented_agg`) instead of per-group
Python loops.  Callable specs and the other reductions apply per
segment.  The groups are a dict's keyed on the key tuples — first-seen
group order, every float NaN key its own group, ``None`` one group —
whatever the key columns hold.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.dataframe import kernels as _kernels
from repro.dataframe.series import Series

__all__ = ["DataFrameGroupBy", "SeriesGroupBy", "StreamingGroupAgg"]

_NAMED_AGGS: dict[str, Callable[[Series], Any]] = {
    "mean": lambda s: s.mean(),
    "avg": lambda s: s.mean(),
    "average": lambda s: s.mean(),
    "sum": lambda s: s.sum(),
    "min": lambda s: s.min(),
    "max": lambda s: s.max(),
    "median": lambda s: s.median(),
    "std": lambda s: s.std(),
    "var": lambda s: s.var(),
    "count": lambda s: s.count(),
    "size": lambda s: len(s),
    "nunique": lambda s: s.nunique(),
    "mode": lambda s: s.mode(),
    "first": lambda s: s[0] if len(s) else None,
    "last": lambda s: s[len(s) - 1] if len(s) else None,
}

#: Canonical segmented-reduction name per aggregate alias, where one exists.
_SEGMENTED_NAMES = {
    "mean": "mean",
    "avg": "mean",
    "average": "mean",
    "sum": "sum",
    "min": "min",
    "max": "max",
    "count": "count",
    "size": "size",
    "first": "first",
    "last": "last",
}


def resolve_aggregator(func: str | Callable) -> Callable[[Series], Any]:
    """Translate a pandas-style aggregate name or callable into a reducer.

    Callables are wrapped so they may accept either a :class:`Series` or a
    plain numpy array — generated code uses both styles.
    """
    if isinstance(func, str):
        name = func.strip().lower()
        if name not in _NAMED_AGGS:
            raise ValueError(
                f"unknown aggregate function {func!r}; expected one of {sorted(_NAMED_AGGS)}"
            )
        return _NAMED_AGGS[name]

    def _call(series: Series) -> Any:
        try:
            return func(series)
        except TypeError:
            return func(series.to_numpy())

    return _call


def _segmented_name(func: str | Callable) -> str | None:
    """The segmented-reduction name for *func*, or ``None`` for the loop path."""
    if not isinstance(func, str):
        return None
    return _SEGMENTED_NAMES.get(func.strip().lower())


class _GroupIndex:
    """Shared grouping of row positions by key tuple.

    Holds one stable sort of the key column(s): ``inverse`` maps each row
    to its group segment (sort order), ``order``/``starts`` delimit the
    segments.  First-seen group order — the observable ordering for
    labels, ``agg`` rows, and :attr:`groups` — is recovered lazily from
    each segment's first row position.  The groups are those of a dict
    keyed on the key tuples (see :meth:`Series.grouping`).
    """

    def __init__(self, frame, keys: Sequence[str]) -> None:
        self.keys = list(keys)
        self.n_rows = len(frame)
        self._frame = frame
        self._groups: dict[Any, list[int]] | None = None
        self._labels: list | None = None
        self._first_to_sorted: np.ndarray | None = None
        # Per-column groupings come from Series.grouping(), which caches
        # the stable sort on the column (an object column sorts its
        # cached codes, shared with every other op that reads the column)
        # — repeated group-bys over the same key, the high-order
        # operator's hot pattern, skip straight to the segment arrays.
        # Only the multi-key radix combine below is recomputed per
        # group-by.
        grouped = frame[self.keys[0]].grouping()
        for key in self.keys[1:]:
            nxt = frame[key].grouping()
            # Pairwise mixed-radix combine, re-grouped each step so the
            # codes stay < n_rows² regardless of the key count.
            combined = grouped[2] * np.int64(len(nxt[1])) + nxt[2]
            grouped = _kernels.sorted_grouping(combined)
        self.order, self.starts, self.inverse = grouped
        self.n_groups = len(self.starts)

    def first_last_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row position of each segment's first and last member (sort order)."""
        if self.n_groups == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        ends = np.append(self.starts[1:], self.n_rows) - 1
        # The sort is stable, so segment starts are first occurrences.
        return self.order[self.starts], self.order[ends]

    def first_seen_order(self) -> np.ndarray:
        """Segment ids ordered by first occurrence."""
        if self._first_to_sorted is None:
            firsts, _ = self.first_last_positions()
            self._first_to_sorted = np.argsort(firsts, kind="stable")
        return self._first_to_sorted

    def labels(self) -> list:
        """Group labels (scalars, or key tuples) in first-seen order."""
        if self._labels is None:
            firsts, _ = self.first_last_positions()
            rows = firsts[self.first_seen_order()]
            columns = [self._frame[key].values[rows].tolist() for key in self.keys]
            if len(columns) == 1:
                self._labels = columns[0]
            else:
                self._labels = list(zip(*columns))
        return self._labels

    def segments(self) -> list[np.ndarray]:
        """Each segment's row positions, ascending (sort-segment order)."""
        return np.split(self.order, self.starts[1:]) if self.n_rows else []

    @property
    def groups(self) -> dict[Any, list[int]]:
        """Mapping of group label → list of row positions (built lazily)."""
        if self._groups is None:
            chunks = self.segments()
            first_seen = self.first_seen_order()
            self._groups = {
                label: chunks[seg].tolist()
                for label, seg in zip(self.labels(), first_seen)
            }
        return self._groups


#: Placeholder for ops (``size``) that reduce positions, not values.
_NO_VALUES = np.empty(0, dtype=np.float64)


def _per_group(
    index: _GroupIndex, series: Series | None, func: str | Callable, first_seen: bool = True
) -> np.ndarray | list:
    """One value per group of *index*: *func* reduced over *series*.

    Runs the segmented kernel when *func* has one (an ndarray comes
    back), otherwise applies the reducer to each segment's rows in
    ascending position order (a list comes back; empty for an empty
    frame).  ``first_seen=True`` orders the result like the groups' first
    occurrences (what ``agg`` rows need); ``False`` keeps sort-segment
    order (what a broadcast through ``inverse`` needs).
    """
    op = _segmented_name(func)
    out = _segmented_sorted(index, series, op) if op and index.n_rows else None
    if out is None:
        reducer = resolve_aggregator(func)
        out = [
            reducer(Series._from_array(series.values[rows], series.name))
            for rows in index.segments()
        ]
    if not first_seen:
        return out
    if isinstance(out, list):
        return [out[seg] for seg in index.first_seen_order()]
    return out[index.first_seen_order()]


def _segmented_sorted(
    index: _GroupIndex, series: Series | None, op: str
) -> np.ndarray | None:
    """Per-segment aggregation in sort order (*series* unused for ``size``)."""
    if op == "size":
        return _kernels.segmented_agg(
            "size", _NO_VALUES, index.order, index.starts
        )
    if op in ("first", "last"):
        firsts, lasts = index.first_last_positions()
        return series.values[firsts if op == "first" else lasts]
    if op == "count":
        from repro.dataframe.series import _isna_array

        present = (~_isna_array(series.values)).astype(np.int64)
        return np.add.reduceat(present[index.order], index.starts)
    if series.dtype.kind not in "ifb":
        return None
    return _kernels.segmented_agg(op, series._numeric(), index.order, index.starts)


#: Sentinel marking a first/last slot not yet populated.
_UNSET = object()


class StreamingGroupAgg:
    """Out-of-core grouped aggregation: exact per-shard partials + merge.

    Feed row shards through :meth:`update` in stream order; the final
    per-group values from :meth:`result` are **invariant to shard
    boundaries** — any chunking of the same table, one big shard
    included, produces the identical bit pattern.  The merge rules live
    in :func:`repro.dataframe.kernels.segmented_sum_carry`: ``sum``
    folds sequentially through carried accumulators, ``mean`` is derived
    from the merged sum/count at finalize (the mean-from-sums rule),
    ``min``/``max`` merge associatively via ``fmin``/``fmax``,
    ``count``/``size`` add integer partials, and ``first``/``last``
    keep/overwrite positionally.  Every op except ``sum``/``mean`` is
    additionally bit-exact against the one-shot segmented kernels;
    ``sum``/``mean`` agree with the one-shot (pairwise-summing) kernel
    to within float64 round-off (a few ulps).

    Group labels accumulate in *global* first-seen order — the order an
    in-memory group-by and a frozen group table use.  Labels merge across
    shards by dict keying, the rule the one-shot grouping applies to
    rows: a ``None`` key is one group over the whole stream, and each
    float NaN key a group of its own.
    """

    def __init__(self, keys: Sequence[str], agg_col: str | None, agg: str) -> None:
        op = _segmented_name(agg)
        if op is None:
            raise ValueError(
                f"aggregate {agg!r} has no segmented form; "
                f"expected one of {sorted(_SEGMENTED_NAMES)}"
            )
        if op != "size" and agg_col is None:
            raise ValueError(f"aggregate {agg!r} needs an agg_col")
        self.keys = list(keys)
        self.agg_col = agg_col
        self.op = op
        self._slots: dict[Any, int] = {}
        self._sums = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)
        self._minmax = np.empty(0, dtype=np.float64)
        self._sizes = np.empty(0, dtype=np.int64)
        self._positional: list = []
        self._value_kinds: set[str] = set()
        self.rows_seen = 0

    @property
    def n_groups(self) -> int:
        return len(self._slots)

    def _grow(self, n: int) -> None:
        have = len(self._sums)
        if have >= n:
            return
        pad = n - have
        self._sums = np.concatenate([self._sums, np.zeros(pad)])
        self._counts = np.concatenate(
            [self._counts, np.zeros(pad, dtype=np.int64)]
        )
        self._minmax = np.concatenate([self._minmax, np.full(pad, np.nan)])
        self._sizes = np.concatenate([self._sizes, np.zeros(pad, dtype=np.int64)])
        self._positional.extend([_UNSET] * pad)

    def update(self, frame) -> None:
        """Fold one shard (the next *chunk_rows* of the logical table) in."""
        n = len(frame)
        if n == 0:
            return
        index = _GroupIndex(frame, self.keys)
        self.rows_seen += n
        # Register unseen labels in first-seen order — across the whole
        # stream this reproduces the in-memory global group ordering.
        first_seen = index.first_seen_order()
        slots_first_seen = np.empty(index.n_groups, dtype=np.int64)
        for j, label in enumerate(index.labels()):
            slot = self._slots.get(label)
            if slot is None:
                slot = len(self._slots)
                self._slots[label] = slot
            slots_first_seen[j] = slot
        self._grow(len(self._slots))
        # Slot id per *sorted* segment, to line up with segmented kernels.
        slots = np.empty(index.n_groups, dtype=np.int64)
        slots[first_seen] = slots_first_seen
        op = self.op
        if op == "size":
            self._sizes[slots] += _kernels.segmented_agg(
                "size", _NO_VALUES, index.order, index.starts
            )
            return
        series = frame[self.agg_col]
        if op in ("first", "last"):
            firsts, lasts = index.first_last_positions()
            values = series.values[firsts if op == "first" else lasts]
            self._value_kinds.add(series.dtype.kind)
            if op == "last":
                for slot, value in zip(slots, values):
                    self._positional[slot] = value
            else:
                for slot, value in zip(slots, values):
                    if self._positional[slot] is _UNSET:
                        self._positional[slot] = value
            return
        # Same coercion contract as the in-memory groupby kernels:
        # _numeric() accepts numeric and missing-heavy object columns
        # (None/NaN become NaN) and raises for genuinely non-numeric data.
        try:
            values = series._numeric()
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"aggregate {op!r} over non-numeric column {self.agg_col!r} "
                f"has no segmented form: {exc}"
            ) from None
        if op in ("sum", "mean"):
            self._sums[slots] = _kernels.segmented_sum_carry(
                values, index.order, index.starts, self._sums[slots]
            )
        if op in ("count", "mean"):
            self._counts[slots] += _kernels.segmented_agg(
                "count", values, index.order, index.starts
            )
        if op in ("min", "max"):
            part = _kernels.segmented_agg(op, values, index.order, index.starts)
            fold = np.fmin if op == "min" else np.fmax
            self._minmax[slots] = fold(self._minmax[slots], part)

    def result(self) -> tuple[list, np.ndarray]:
        """``(labels, per_group_values)`` in global first-seen order."""
        labels = list(self._slots)
        n = len(labels)
        op = self.op
        if op == "size":
            return labels, self._sizes[:n].copy()
        if op == "count":
            return labels, self._counts[:n].copy()
        if op == "sum":
            return labels, self._sums[:n].copy()
        if op == "mean":
            # Mean-from-sums: the division's operands are bit-identical
            # to the one-shot kernel's, so the quotient is too.
            counts = self._counts[:n].astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = self._sums[:n] / counts
            out[counts == 0] = np.nan
            return labels, out
        if op in ("min", "max"):
            return labels, self._minmax[:n].copy()
        raw = [
            v.item() if isinstance(v, np.generic) else v
            for v in self._positional[:n]
        ]
        kinds = self._value_kinds
        if kinds in ({"i"}, {"u"}):
            return labels, np.array(raw, dtype=np.int64)
        if kinds and kinds <= {"i", "u", "f"}:
            return labels, np.array(raw, dtype=np.float64)
        if kinds == {"b"}:
            return labels, np.array(raw, dtype=bool)
        # Mixed shard dtypes (schema-less CSV streams): fall back to list
        # coercion, the same authority concat_shards uses.
        return labels, _kernels.coerce_listlike(raw)


class DataFrameGroupBy:
    """Result of ``df.groupby(keys)``; index with a column to aggregate it."""

    def __init__(self, frame, keys: Sequence[str]) -> None:
        self._frame = frame
        self._index = _GroupIndex(frame, keys)

    @property
    def groups(self) -> dict[Any, list[int]]:
        """Mapping of group label → list of row positions."""
        return self._index.groups

    def __len__(self) -> int:
        return self._index.n_groups

    def __getitem__(self, column: str) -> "SeriesGroupBy":
        if column not in self._frame.columns:
            raise KeyError(column)
        return SeriesGroupBy(self._frame[column], self._index)

    def size(self):
        """Per-group row counts as a DataFrame of keys + ``size``."""
        return _aggregate(self._index, {"size": (None, "size")})

    def agg(self, spec: dict[str, str | Callable]):
        """Aggregate several columns at once: ``{column: func}`` → DataFrame."""
        return _aggregate(
            self._index, {col: (self._frame[col], func) for col, func in spec.items()}
        )


def _aggregate(index: _GroupIndex, spec: dict[str, tuple[Series | None, str | Callable]]):
    """Key columns plus one per-group column per ``{name: (series, func)}``,
    one row per group in first-seen order."""
    from repro.dataframe.frame import DataFrame

    labels = index.labels()
    if len(index.keys) == 1:
        out: dict[str, Any] = {index.keys[0]: list(labels)}
    else:
        out = {k: [label[j] for label in labels] for j, k in enumerate(index.keys)}
    for name, (series, func) in spec.items():
        out[name] = _agg_series(_per_group(index, series, func), name)
    return DataFrame(out)


def _agg_series(per_group: np.ndarray | list, name: str | None) -> Series | list:
    """Wrap per-group aggregate values, matching list-coercion dtypes."""
    if isinstance(per_group, list):
        return per_group
    if per_group.dtype == object:
        return Series([v.item() if isinstance(v, np.generic) else v for v in per_group], name)
    return Series._from_array(_kernels.match_coerce_float(per_group), name)


class SeriesGroupBy:
    """A single column grouped by the parent frame's keys."""

    def __init__(self, series: Series, index: _GroupIndex) -> None:
        self._series = series
        self._index = index

    def transform(self, func: str | Callable) -> Series:
        """Per-group reduce then broadcast back to original row order.

        This is the exact call emitted by the high-order operator:
        ``df.groupby(gcols)[acol].transform('mean')``.
        """
        index, name = self._index, self._series.name
        per = _per_group(index, self._series, func, first_seen=False)
        if isinstance(per, list):
            out = np.empty(index.n_rows, dtype=object)
            for rows, value in zip(index.segments(), per):
                out[rows] = value
            return Series(out.tolist(), name)
        out = per[index.inverse]
        if out.dtype == object:
            # first/last of an object column can be all-numeric: re-coerce
            # exactly like the loop's Series(out.tolist()).
            return Series(out.tolist(), name)
        return Series._from_array(_kernels.match_coerce_float(out), name)

    def agg(self, func: str | Callable):
        """Per-group reduce; returns a DataFrame of keys + aggregated value."""
        name = self._series.name or "value"
        return _aggregate(self._index, {name: (self._series, func)})

    def mean(self):
        return self.agg("mean")

    def sum(self):
        return self.agg("sum")

    def max(self):
        return self.agg("max")

    def min(self):
        return self.agg("min")

    def count(self):
        return self.agg("count")
