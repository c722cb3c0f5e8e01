"""Two-dimensional column store: the :class:`DataFrame` type.

The subset implemented here matches the call surface that SMARTFEAT's
function generator emits (``df.apply(..., axis=1)``, boolean masking,
``df.groupby``, column assignment) plus what the evaluation harness needs
(``describe``, ``select_dtypes``, ``corr``, sampling, splitting).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.dataframe.series import Series, _is_missing_scalar

__all__ = ["DataFrame", "Row"]


class Row(Mapping):
    """A single row view used by ``DataFrame.apply(..., axis=1)``.

    Supports both mapping access (``row['Age']``) and attribute access
    (``row.Age``), mirroring how generated lambdas address columns.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict[str, Any]) -> None:
        object.__setattr__(self, "_data", data)

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __getattr__(self, key: str) -> Any:
        try:
            return self._data[key]
        except KeyError as exc:  # pragma: no cover - defensive
            raise AttributeError(key) from exc

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def to_dict(self) -> dict[str, Any]:
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Row({self._data!r})"


class _ILocIndexer:
    """Positional row indexer (``df.iloc[3]``, ``df.iloc[1:4]``, ``df.iloc[[0, 2]]``)."""

    def __init__(self, frame: "DataFrame") -> None:
        self._frame = frame

    def __getitem__(self, key: Any):
        if isinstance(key, int):
            return Row({c: self._frame[c][key] for c in self._frame.columns})
        if isinstance(key, slice):
            return self._frame._take_positions(range(*key.indices(len(self._frame))))
        return self._frame._take_positions(list(key))


class DataFrame:
    """An ordered mapping of column name → :class:`Series`, all equal length.

    Parameters
    ----------
    data:
        A mapping of column name to 1-D data, a list of row dicts, or
        another DataFrame.  Series (and another frame's columns) are
        taken copy-on-write, O(1) per column (see
        :meth:`repro.dataframe.series.Series.copy`); other data is copied.
    columns:
        Optional column ordering / selection applied after construction.
    """

    def __init__(self, data: Any = None, columns: Sequence[str] | None = None) -> None:
        self._columns: dict[str, Series] = {}
        if data is None:
            data = {}
        if isinstance(data, DataFrame):
            for name in data.columns:
                self._columns[name] = data[name].copy()
        elif isinstance(data, Mapping):
            for name, values in data.items():
                self._columns[str(name)] = (
                    values.rename(str(name)) if isinstance(values, Series) else Series(values, str(name))
                )
        elif isinstance(data, list) and data and isinstance(data[0], Mapping):
            keys: dict[str, None] = {}
            for row in data:
                for k in row:
                    keys.setdefault(str(k), None)
            for k in keys:
                self._columns[k] = Series([row.get(k) for row in data], k)
        elif isinstance(data, list) and not data:
            pass
        else:
            raise TypeError(f"cannot construct DataFrame from {type(data).__name__}")
        self._check_lengths()
        if columns is not None:
            missing = [c for c in columns if c not in self._columns]
            if missing:
                raise KeyError(f"columns not found: {missing}")
            self._columns = {c: self._columns[c] for c in columns}

    def _check_lengths(self) -> None:
        lengths = {name: len(s) for name, s in self._columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"column length mismatch: {lengths}")

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        """Column names in order."""
        return list(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), len(self._columns))

    @property
    def empty(self) -> bool:
        return len(self) == 0 or not self._columns

    @property
    def dtypes(self) -> dict[str, np.dtype]:
        return {name: s.dtype for name, s in self._columns.items()}

    @property
    def iloc(self) -> _ILocIndexer:
        return _ILocIndexer(self)

    @property
    def index(self) -> range:
        return range(len(self))

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self):
        return iter(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataFrame(shape={self.shape}, columns={self.columns})"

    def __getitem__(self, key: Any):
        if isinstance(key, str):
            if key not in self._columns:
                raise KeyError(key)
            return self._columns[key]
        if isinstance(key, list):
            return DataFrame({name: self._columns[name] for name in key})
        if isinstance(key, Series) and key.dtype == np.dtype(bool):
            return self._take_mask(key.to_numpy())
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return self._take_mask(key)
        if isinstance(key, slice):
            return self._take_positions(range(*key.indices(len(self))))
        raise TypeError(f"invalid DataFrame index: {key!r}")

    def __setitem__(self, key: str, value: Any) -> None:
        if not isinstance(key, str):
            raise TypeError("column names must be strings")
        if isinstance(value, Series):
            series = value.rename(key)
        elif np.isscalar(value) or value is None:
            series = Series.full(max(len(self), 0) or 0, value, key)
            if len(self) and len(series) != len(self):
                series = Series.full(len(self), value, key)
        else:
            series = Series(value, key)
        if self._columns and len(series) != len(self):
            raise ValueError(
                f"cannot assign column of length {len(series)} to DataFrame of length {len(self)}"
            )
        self._columns[key] = series

    def _take_mask(self, mask: np.ndarray) -> "DataFrame":
        if len(mask) != len(self):
            raise ValueError("boolean mask length mismatch")
        return DataFrame({name: s[mask] for name, s in self._columns.items()})

    def _take_positions(self, positions: Iterable[int]) -> "DataFrame":
        idx = np.fromiter(positions, dtype=np.int64)
        return DataFrame({name: s[idx] for name, s in self._columns.items()})

    # ------------------------------------------------------------------
    # Structure manipulation
    # ------------------------------------------------------------------
    def copy(self) -> "DataFrame":
        """An independent frame: O(1) per column, copy-on-write."""
        return DataFrame(self)

    def column_view(self, columns: Sequence[str]) -> "DataFrame":
        """A frame over the *same* :class:`Series` objects, zero copies.

        The stage scheduler uses this to hand each pipeline stage the
        column subset its declared reads cover: building the view costs
        one dict, not one array copy per column.  The view shares data
        with this frame — treat it as read-only (adding columns to the
        view is safe and does not affect this frame; mutating shared
        Series values would).
        """
        missing = [c for c in columns if c not in self._columns]
        if missing:
            raise KeyError(f"columns not found: {missing}")
        out = DataFrame()
        for name in columns:
            out._columns[name] = self._columns[name]
        return out

    def drop(
        self,
        columns: str | Sequence[str] | None = None,
        errors: str = "raise",
        inplace: bool = False,
    ) -> "DataFrame | None":
        """Remove *columns* (a name or list of names).

        Returns a copy without the columns, or — with ``inplace=True`` —
        removes them from this frame without copying the others and
        returns None (matching pandas).
        """
        if columns is None:
            return None if inplace else self.copy()
        names = [columns] if isinstance(columns, str) else list(columns)
        missing = [n for n in names if n not in self._columns]
        if missing and errors == "raise":
            raise KeyError(f"columns not found: {missing}")
        if inplace:
            for name in names:
                self._columns.pop(name, None)
            return None
        keep = [c for c in self.columns if c not in set(names)]
        return self[keep]

    def rename(self, columns: Mapping[str, str]) -> "DataFrame":
        """Return a copy with columns renamed per the *columns* mapping."""
        return DataFrame({columns.get(name, name): s for name, s in self._columns.items()})

    def assign(self, **new_columns: Any) -> "DataFrame":
        """Return a copy with new/updated columns.

        Callables receive the intermediate DataFrame, matching pandas.
        """
        out = self.copy()
        for name, value in new_columns.items():
            out[name] = value(out) if callable(value) else value
        return out

    def head(self, n: int = 5) -> "DataFrame":
        return self._take_positions(range(min(n, len(self))))

    def tail(self, n: int = 5) -> "DataFrame":
        return self._take_positions(range(max(len(self) - n, 0), len(self)))

    def sample(self, n: int | None = None, frac: float | None = None, seed: int = 0) -> "DataFrame":
        """Sample rows without replacement, deterministically under *seed*."""
        if n is None:
            n = int(round((frac or 1.0) * len(self)))
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=min(n, len(self)), replace=False)
        return self._take_positions(np.sort(idx))

    def reset_index(self, drop: bool = True) -> "DataFrame":
        """Positional indexes make this a copy; kept for pandas compatibility."""
        return self.copy()

    def sort_values(self, by: str | Sequence[str], ascending: bool = True) -> "DataFrame":
        """Return a copy sorted by one or more columns (stable)."""
        names = [by] if isinstance(by, str) else list(by)
        order = np.arange(len(self))
        for name in reversed(names):
            series = self._columns[name]
            keys = series.values[order]
            if series.dtype == object:
                keys = np.array([("" if v is None else str(v)) for v in keys])
            order = order[np.argsort(keys, kind="stable")]
        if not ascending:
            order = order[::-1]
        return self._take_positions(order)

    # ------------------------------------------------------------------
    # Missing data
    # ------------------------------------------------------------------
    def isna(self) -> "DataFrame":
        return DataFrame({name: s.isna() for name, s in self._columns.items()})

    def dropna(self, subset: Sequence[str] | None = None) -> "DataFrame":
        """Drop rows containing any missing value (optionally only in *subset*)."""
        names = list(subset) if subset is not None else self.columns
        mask = np.zeros(len(self), dtype=bool)
        for name in names:
            mask |= self._columns[name].isna().to_numpy()
        return self._take_mask(~mask)

    def fillna(self, value: Any) -> "DataFrame":
        """Fill missing values: scalar fills all columns, dict per column."""
        if isinstance(value, Mapping):
            out = self.copy()
            for name, fill in value.items():
                if name in out._columns:
                    out._columns[name] = out._columns[name].fillna(fill)
            return out
        return DataFrame({name: s.fillna(value) for name, s in self._columns.items()})

    # ------------------------------------------------------------------
    # Row-wise application and iteration
    # ------------------------------------------------------------------
    def row_tuples(self, columns: Sequence[str] | None = None):
        """Iterate row value tuples over *columns* (default: all columns).

        Each column is materialised once up front; the per-row cost is one
        ``zip`` step — no dict, no per-row indexing.  This is the substrate
        for :meth:`iterrows`/:meth:`itertuples` and the batched row-prompt
        builders in the core pipeline.
        """
        names = list(columns) if columns is not None else self.columns
        return names, zip(*[self._columns[n].tolist() for n in names])

    def apply(self, func: Callable, axis: int = 0) -> Series:
        """Apply *func* along an axis.

        ``axis=1`` calls *func* once per :class:`Row` and returns a Series —
        the form used by generated ``df.apply(lambda row: ..., axis=1)``
        transformations.  ``axis=0`` applies to each column Series and
        returns a dict of results.
        """
        if axis == 1:
            names, rows = self.row_tuples()
            out = [func(Row(dict(zip(names, vals)))) for vals in rows]
            return Series(out)
        return {name: func(s) for name, s in self._columns.items()}  # type: ignore[return-value]

    def iterrows(self):
        """Yield ``(position, Row)`` pairs."""
        names, rows = self.row_tuples()
        for i, vals in enumerate(rows):
            yield i, Row(dict(zip(names, vals)))

    def itertuples(self):
        """Yield plain dicts per row (positional stand-in for namedtuples)."""
        names, rows = self.row_tuples()
        for vals in rows:
            yield dict(zip(names, vals))

    def to_dict(self, orient: str = "list") -> Any:
        """Export as ``{col: [values]}`` (``orient='list'``) or list of dicts."""
        if orient == "list":
            return {name: s.tolist() for name, s in self._columns.items()}
        if orient == "records":
            names, rows = self.row_tuples()
            return [dict(zip(names, vals)) for vals in rows]
        raise ValueError(f"unsupported orient: {orient!r}")

    def to_numpy(self, dtype: Any = np.float64) -> np.ndarray:
        """Stack all columns into a 2-D array (numeric cast by default)."""
        if not self._columns:
            return np.empty((0, 0), dtype=dtype)
        cols = [s._numeric() if dtype in (float, np.float64) else s.to_numpy(dtype) for s in self._columns.values()]
        return np.column_stack(cols).astype(dtype)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def select_dtypes(self, include: str) -> "DataFrame":
        """Select columns by kind: ``'number'``, ``'object'`` or ``'bool'``."""
        if include == "number":
            names = [n for n, s in self._columns.items() if s.dtype.kind in "if"]
        elif include == "object":
            names = [n for n, s in self._columns.items() if s.dtype == object]
        elif include == "bool":
            names = [n for n, s in self._columns.items() if s.dtype.kind == "b"]
        else:
            raise ValueError(f"unsupported dtype selector: {include!r}")
        return self[names]

    def numeric_columns(self) -> list[str]:
        """Names of int/float/bool columns."""
        return [n for n, s in self._columns.items() if s.dtype.kind in "ifb"]

    def categorical_columns(self) -> list[str]:
        """Names of object-dtype columns."""
        return [n for n, s in self._columns.items() if s.dtype == object]

    def nunique(self) -> dict[str, int]:
        return {name: s.nunique() for name, s in self._columns.items()}

    def describe(self) -> "DataFrame":
        """Summary statistics for numeric columns (count/mean/std/min/quartiles/max)."""
        stats = ["count", "mean", "std", "min", "25%", "50%", "75%", "max"]
        out: dict[str, list[float]] = {"stat": stats}
        for name in self.numeric_columns():
            s = self._columns[name]
            out[name] = [
                float(s.count()),
                s.mean(),
                s.std(),
                s.min(),
                s.quantile(0.25),
                s.quantile(0.50),
                s.quantile(0.75),
                s.max(),
            ]
        return DataFrame(out)

    def corr(self) -> "DataFrame":
        """Pearson correlation matrix over numeric columns."""
        names = self.numeric_columns()
        out: dict[str, list[float]] = {"column": list(names)}
        for a in names:
            out[a] = [self._columns[a].corr(self._columns[b]) for b in names]
        return DataFrame(out)

    def mean(self) -> dict[str, float]:
        return {name: self._columns[name].mean() for name in self.numeric_columns()}

    # ------------------------------------------------------------------
    # Grouping and merging
    # ------------------------------------------------------------------
    def groupby(self, by: str | Sequence[str]):
        """Group rows by one or more key columns; see :class:`DataFrameGroupBy`."""
        from repro.dataframe.groupby import DataFrameGroupBy

        keys = [by] if isinstance(by, str) else list(by)
        missing = [k for k in keys if k not in self._columns]
        if missing:
            raise KeyError(f"groupby columns not found: {missing}")
        return DataFrameGroupBy(self, keys)

    def merge(self, other: "DataFrame", on: str, how: str = "left") -> "DataFrame":
        """Hash join with *other* on column *on* (``left`` or ``inner``)."""
        if how not in ("left", "inner"):
            raise ValueError(f"unsupported join type: {how!r}")
        right_rows: dict[Any, list[int]] = {}
        right_key = other[on].tolist()
        for j, key in enumerate(right_key):
            right_rows.setdefault(key, []).append(j)
        right_cols = [c for c in other.columns if c != on]
        left_idx: list[int] = []
        right_idx: list[int | None] = []
        for i, key in enumerate(self[on].tolist()):
            matches = right_rows.get(key, [])
            if matches:
                for j in matches:
                    left_idx.append(i)
                    right_idx.append(j)
            elif how == "left":
                left_idx.append(i)
                right_idx.append(None)
        data: dict[str, list] = {}
        for name in self.columns:
            values = self._columns[name].tolist()
            data[name] = [values[i] for i in left_idx]
        for name in right_cols:
            values = other[name].tolist()
            data[name] = [None if j is None else values[j] for j in right_idx]
        return DataFrame(data)

    # ------------------------------------------------------------------
    # Comparison helpers (used in tests)
    # ------------------------------------------------------------------
    def equals(self, other: "DataFrame") -> bool:
        """Structural equality: same columns, same values (NaN == NaN)."""
        if self.columns != other.columns or len(self) != len(other):
            return False
        for name in self.columns:
            for a, b in zip(self._columns[name].tolist(), other[name].tolist()):
                if _is_missing_scalar(a) and _is_missing_scalar(b):
                    continue
                if a != b:
                    return False
        return True

    def to_string(self, max_rows: int = 10) -> str:
        """Render a fixed-width text preview of the frame."""
        names = self.columns
        rows = [[str(v) for v in row.to_dict().values()] for _, row in self.head(max_rows).iterrows()]
        widths = [
            max(len(name), *(len(r[i]) for r in rows)) if rows else len(name)
            for i, name in enumerate(names)
        ]
        header = "  ".join(name.ljust(w) for name, w in zip(names, widths))
        lines = [header, "  ".join("-" * w for w in widths)]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if len(self) > max_rows:
            lines.append(f"... ({len(self)} rows total)")
        return "\n".join(lines)
