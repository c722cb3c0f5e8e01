"""One-dimensional labelled array: the :class:`Series` type.

A :class:`Series` wraps a numpy array plus a name.  Numeric data is kept in
native numpy dtypes (``float64``/``int64``/``bool``); strings and mixed data
live in ``object`` arrays.  Missing values are ``NaN`` for floats and
``None`` for objects; :meth:`Series.isna` treats both uniformly.

Columns are copy-on-write.  :meth:`Series.rename`, :meth:`Series.copy`,
``Series(series)`` and slicing share the backing array instead of
copying it, and mark it read-only; the derived-data caches
(:meth:`Series.encoding`, :meth:`Series.grouping`, the column-dictionary
codes and the :meth:`Series.cell_types` summary) travel with it, and
with a pickle, as does the text a CSV decoder read the cells from
(:meth:`Series._csv_text`).  A slice, a row selection and a frame shard
keep a one-type summary, since their cells are of that type too, and no
text.  :meth:`Series.__setitem__` copies a read-only buffer before it
writes, so a write through one owner never reaches another, and clears
every cache.
"""

from __future__ import annotations

import datetime as _dt
import math
from collections.abc import Callable, Iterable, Mapping
from typing import Any

import numpy as np

from repro.dataframe import kernels as _kernels

__all__ = ["Series"]

#: Missing-value scalar check, shared with the kernels module.
_is_missing_scalar = _kernels.is_missing_scalar

#: Missing-value mask, shared with the kernels module.
_isna_array = _kernels.missing_mask


def _coerce_values(values: Any) -> tuple[np.ndarray, frozenset | None]:
    """Coerce arbitrary input into a 1-D numpy array with a sensible dtype,
    and the types of its cells when that comes free.

    Lists of numbers become ``int64``/``float64``; anything containing
    strings or mixed types becomes an ``object`` array with ``None`` for
    missing entries.  Lists are classified in a single type pass
    (:func:`repro.dataframe.kernels.coerce_typed`).  A numpy array is
    copied: the caller still owns it.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"Series data must be 1-dimensional, got shape {values.shape}")
        if values.dtype.kind == "U":  # fixed-width strings -> object storage
            return values.astype(object), _kernels.PLAIN_STR
        if values.dtype.kind == "S":
            return values.astype(object), None
        return values.copy(), None
    return _kernels.coerce_typed(list(values))


#: Unary ufunc stand-ins for the ``math`` functions generated code applies
#: element-wise.  ``math.floor``/``math.ceil`` are deliberately absent:
#: they return ``int`` where the numpy versions return ``float64``.
_UFUNC_EQUIVALENTS: dict[Any, np.ufunc] = {
    math.log: np.log,
    math.log2: np.log2,
    math.log10: np.log10,
    math.log1p: np.log1p,
    math.exp: np.exp,
    math.expm1: np.expm1,
    math.sqrt: np.sqrt,
    math.sin: np.sin,
    math.cos: np.cos,
    math.tan: np.tan,
    math.tanh: np.tanh,
    math.fabs: np.fabs,
    abs: np.abs,
}


def _as_unary_ufunc(func: Any) -> np.ufunc | None:
    """A vectorisable stand-in for *func*, or ``None`` to run the loop."""
    if isinstance(func, np.ufunc) and func.nin == 1:
        return func
    try:
        return _UFUNC_EQUIVALENTS.get(func)
    except TypeError:  # unhashable callable
        return None


class Series:
    """A named 1-D column of data with vectorised operations.

    Parameters
    ----------
    data:
        Any 1-D iterable (list, numpy array, another Series, or a scalar
        broadcast via ``length``).  A numpy array is copied; another
        Series shares its buffer copy-on-write (see :meth:`copy`).
    name:
        Optional column name carried through operations.
    """

    __slots__ = (
        "_values",
        "name",
        "_grouping_cache",
        "_encoding_cache",
        "_dictionary_cache",
        "_types_cache",
        "_text_cache",
    )

    def __init__(self, data: Any, name: str | None = None) -> None:
        self.name = name
        if isinstance(data, Series):
            self._values = data._shared_values()
            self._grouping_cache = data._grouping_cache
            self._encoding_cache = data._encoding_cache
            self._dictionary_cache = data._dictionary_cache
            self._types_cache = data._types_cache
            self._text_cache = data._text_cache
            return
        values, types = _coerce_values(data)
        self._values = values
        self._grouping_cache = None
        self._encoding_cache = None
        #: This column's codes against a column dictionary, kept by
        #: :mod:`repro.dataframe.dictionary`; cleared like the caches above.
        self._dictionary_cache = None
        self._types_cache = None if types is None else (types, values)
        self._text_cache = None

    def __setstate__(self, state: tuple) -> None:
        # A pickle written before a cache slot existed has no entry for it.
        for slot in Series.__slots__[2:]:
            setattr(self, slot, None)
        for slot, value in state[1].items():
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_array(
        cls,
        values: np.ndarray,
        name: str | None = None,
        types: frozenset | None = None,
        text: tuple | None = None,
    ) -> "Series":
        """Build a Series without re-coercing *values* (internal fast path);
        *types*, when known, cover its cells' types (see :meth:`cell_types`),
        and *text* is the CSV text they were decoded from (see
        :meth:`_csv_text`)."""
        out = cls.__new__(cls)
        out._values = values
        out.name = name
        out._grouping_cache = None
        out._encoding_cache = None
        out._dictionary_cache = None
        if types is not None and not len(values):
            types = frozenset()  # a subset with no cells: none to cover
        out._types_cache = None if types is None else (types, values)
        out._text_cache = None if text is None else (text, values)
        return out

    @classmethod
    def full(cls, length: int, fill_value: Any, name: str | None = None) -> "Series":
        """Return a Series of *length* copies of *fill_value*."""
        return cls([fill_value] * length, name=name)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = ", ".join(repr(v) for v in self.tolist()[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"Series(name={self.name!r}, n={len(self)}, [{shown}{suffix}])"

    @property
    def values(self) -> np.ndarray:
        """The underlying numpy array (no copy).

        A buffer shared with another Series (after :meth:`rename`,
        :meth:`copy`, ``Series(series)``, slicing, or handing the column
        to another frame) is read-only: writing into it raises numpy's
        ``ValueError`` instead of silently changing the other owner.
        Write through :meth:`__setitem__`, which copies a shared buffer
        first and clears :meth:`grouping`, :meth:`encoding` and the
        column-dictionary codes.  Writing into an unshared buffer
        directly bypasses that bookkeeping — mutate through the Series,
        not the array.
        """
        return self._values

    @property
    def dtype(self) -> np.dtype:
        return self._values.dtype

    @property
    def empty(self) -> bool:
        return len(self._values) == 0

    def to_numpy(self, dtype: Any = None) -> np.ndarray:
        """Return the data as a numpy array, optionally cast to *dtype*."""
        if dtype is None:
            return self._values
        return self._values.astype(dtype)

    def tolist(self) -> list:
        """Return the data as a plain Python list (numpy scalars unboxed)."""
        if self._values.dtype.kind != "O":  # ndarray.tolist unboxes like .item()
            return self._values.tolist()
        return [v.item() if isinstance(v, np.generic) else v for v in self._values]

    def _shared_values(self) -> np.ndarray:
        """The backing array, marked read-only: a second owner is about
        to hold it, so the next :meth:`__setitem__` of either copies."""
        self._values.flags.writeable = False
        return self._values

    def _subset_types(self) -> frozenset | None:
        """The :meth:`cell_types` any subset of this column's cells has:
        known when this column's summary is known and names one type."""
        types = self._known_types()
        return types if types is not None and len(types) <= 1 else None

    def _known_types(self) -> frozenset | None:
        """:meth:`cell_types` when it is known without a pass, else ``None``."""
        cache = self._types_cache
        return cache[0] if cache is not None and cache[1] is self._values else None

    def _csv_text(self) -> tuple | None:
        """The CSV text this column's cells were decoded from, or ``None``.

        One entry per codec block of ``io._BLOCK_ROWS`` rows (the last
        may be shorter): the block's cells joined with ``"\\n"`` (a
        number block, whose cells hold no line break), the tuple of its
        cell texts (an object block whose cells are not all strings), or
        ``None`` (a block whose values write back as their text).
        :func:`~repro.dataframe.io.to_csv` writes a block from its text,
        so a pinned input column is written as it was read.  Keyed on the
        backing array's identity like :meth:`cell_types`' summary, carried
        by copy-on-write aliases and pickles, and dropped by
        :meth:`__setitem__`, slices and row selections, whose cells no
        longer line up with the blocks.
        """
        cache = self._text_cache
        return cache[0] if cache is not None and cache[1] is self._values else None

    def copy(self) -> "Series":
        """An independent Series with the same name and values.

        O(1): the copy shares this Series' buffer copy-on-write — the
        buffer is marked read-only and whichever owner writes first
        (through :meth:`__setitem__`) copies it — and keeps its
        :meth:`encoding`, :meth:`grouping` and column-dictionary caches,
        which stay valid because the shared buffer cannot change.
        """
        return Series(self, self.name)

    def rename(self, name: str) -> "Series":
        """An independent Series carrying *name*: O(1), copy-on-write and
        keeping the caches, exactly like :meth:`copy`."""
        return Series(self, name)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, Series):
            key = key.to_numpy()
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return Series._from_array(self._values[key], self.name, self._subset_types())
        if isinstance(key, (list, np.ndarray)):
            idx = np.asarray(key)
            if idx.dtype != bool:
                idx = idx.astype(np.int64, copy=False)
            return Series._from_array(self._values[idx], self.name, self._subset_types())
        if isinstance(key, slice):
            # A view shares the buffer: both sides turn read-only.
            return Series._from_array(
                self._shared_values()[key], self.name, self._subset_types()
            )
        value = self._values[int(key)]
        return value.item() if isinstance(value, np.generic) else value

    def __setitem__(self, key: Any, value: Any) -> None:
        # In-place mutation invalidates the cached grouping, encodings, types and text.
        self._grouping_cache = None
        self._encoding_cache = None
        self._dictionary_cache = None
        self._types_cache = None
        self._text_cache = None
        if isinstance(key, Series):
            key = key.to_numpy()
        if self._values.dtype.kind in "if" and isinstance(value, (int, float, np.number)):
            if self._values.dtype.kind == "i" and (
                isinstance(value, float) and not float(value).is_integer()
            ):
                self._values = self._values.astype(np.float64)
        elif self._values.dtype.kind in "if" and _is_missing_scalar(value):
            self._values = self._values.astype(np.float64)
            value = np.nan
        elif self._values.dtype != object and not isinstance(value, (int, float, bool, np.number)):
            self._values = self._values.astype(object)
        if not self._values.flags.writeable:  # shared: copy on write
            self._values = self._values.copy()
        self._values[key] = value

    def head(self, n: int = 5) -> "Series":
        return self[: n]

    def sample(self, n: int, seed: int = 0) -> "Series":
        """Return *n* rows sampled without replacement using *seed*."""
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=min(n, len(self)), replace=False)
        return Series._from_array(self._values[np.sort(idx)], self.name)

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------
    def encoding(self) -> tuple[np.ndarray, list, dict | None] | None:
        """This column's dictionary encoding, computed once and cached.

        Returns :func:`repro.dataframe.kernels.dictionary_encode`'s
        ``(codes, uniques, index)``: int64 ``codes`` in first-seen order
        with ``-1`` for missing, the distinct ``uniques`` in that order,
        and the ``{value: code}`` ``index`` when every cell is a plain
        ``str`` (else ``None``).  Returns ``None`` when a cell is
        unhashable.  Every factorize, group-by and string op over the
        column reads this one encoding, so each column is encoded once
        however many features touch it.  The shared ``codes`` are
        read-only, and ``uniques``/``index`` must not be mutated.  The
        entry is keyed on the backing array's identity and cleared by
        :meth:`__setitem__`, like :meth:`grouping`'s; it is assigned in
        one step, so threads encoding the same column at once each get an
        equal, complete result.  Copy-on-write aliases (:meth:`rename`,
        :meth:`copy`, ``Series(series)``) share the entry with the
        read-only buffer it describes; a write through any alias gives
        that alias a fresh buffer and an empty entry, and leaves the
        others' untouched.
        """
        cache = self._encoding_cache
        if cache is None or cache[1] is not self._values:
            values = self._values
            items, types = self._typed_cells()
            encoded = _kernels.dictionary_encode(values, types, items)
            if encoded is not None:
                encoded[0].flags.writeable = False
            cache = (encoded, values)
            self._encoding_cache = cache
        return cache[0]

    def cell_types(self) -> frozenset:
        """The types of this column's cells, a frozenset covering
        ``set(map(type, self.values.tolist()))``.

        Every pass that asks whether a column is all plain ``str`` (the
        encoding, the column profile, the served column dictionaries)
        reads this summary instead of scanning the cells.  List coercion
        fills it from its one type pass; a column built from a numpy
        object array finds it with one pass the first time it is asked.
        The summary may name a type no cell holds (list coercion adds
        ``NoneType`` beside a float type, as a NaN cell is stored as
        ``None``), but it is a subset of ``{str}`` exactly when every cell
        is a plain ``str``.  Keyed on the backing array's identity and
        cleared by :meth:`__setitem__`, like :meth:`encoding`'s entry, and
        carried by copy-on-write aliases, pickles and (when it names one
        type) slices and row selections.
        """
        return self._typed_cells()[1]

    def _typed_cells(self) -> tuple[list | None, frozenset]:
        """:meth:`cell_types`, plus this object column's cells as a list
        when finding the types had to build it (else ``None``), so the
        caller that keys the cells next does not build it again."""
        cache = self._types_cache
        if cache is not None and cache[1] is self._values:
            return None, cache[0]
        values = self._values
        items = values.tolist() if values.dtype == object else None
        types = _kernels.cell_types(values, items)
        self._types_cache = (types, values)
        return items, types

    def _factorized(self) -> tuple[np.ndarray, list]:
        """``(codes, uniques)`` from :meth:`encoding`; unhashable cells
        keep :func:`repro.dataframe.kernels.factorize_values`' behaviour."""
        encoded = self.encoding()
        if encoded is None:
            return _kernels.factorize_values(self._values)
        return encoded[0], encoded[1]

    def grouping(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This column's sorted grouping, computed once and cached.

        Returns :func:`repro.dataframe.kernels.sorted_grouping`'s
        ``(order, starts, inverse)``.  The groups are those of a dict
        keyed on :meth:`tolist`: each float NaN is its own group, ``None``
        is one group, an object NaN groups by identity, and ``1``,
        ``1.0`` and ``True`` are one group.  Numeric columns sort their
        values; object columns of plain ``str`` sort their
        :meth:`encoding` codes, and other object columns sort
        :func:`repro.dataframe.kernels.group_codes`.  Raises
        ``TypeError`` for an unhashable cell.  Group-bys dominate the
        high-order operator's transforms and the same key column is
        re-grouped for every candidate feature, so the cache makes the
        sort a one-time cost per column.  The cached arrays are shared
        across group-bys and marked read-only; mutation through
        :meth:`__setitem__` invalidates the cache (the entry is also keyed
        on the backing array's identity, so a swapped-out buffer can never
        serve a stale grouping).  Copy-on-write aliases share the entry
        with their read-only buffer, as :meth:`encoding`'s do.  Writing
        into an unshared :attr:`values` buffer directly is the one
        mutation the cache cannot see — see that property's docstring.
        """
        cache = self._grouping_cache
        if cache is None or cache[1] is not self._values:
            values = self._values
            keys = values
            if values.dtype == object:
                encoded = self.encoding()
                if encoded is not None and encoded[2] is not None:
                    keys = encoded[0]
                else:
                    keys = _kernels.group_codes(values)
            grouped = _kernels.sorted_grouping(keys)
            for arr in grouped:
                arr.flags.writeable = False
            cache = (grouped, values)
            self._grouping_cache = cache
        return cache[0]

    # ------------------------------------------------------------------
    # Missing data
    # ------------------------------------------------------------------
    def isna(self) -> "Series":
        """Boolean mask of missing entries (NaN or ``None``)."""
        return Series._from_array(_isna_array(self._values), self.name)

    def notna(self) -> "Series":
        return Series._from_array(~_isna_array(self._values), self.name)

    isnull = isna
    notnull = notna

    def dropna(self) -> "Series":
        """Return the Series with missing entries removed (positions renumber)."""
        mask = ~_isna_array(self._values)
        return Series._from_array(self._values[mask], self.name)

    def fillna(self, value: Any) -> "Series":
        """Return a copy with missing entries replaced by *value*."""
        mask = _isna_array(self._values)
        if not mask.any():
            return self.copy()
        if self._values.dtype.kind == "f" and isinstance(value, (int, float, np.number)):
            out = self._values.copy()
            out[mask] = float(value)
            return Series._from_array(out, self.name)
        out = self._values.astype(object)
        out[mask] = value
        return Series(out, self.name)

    # ------------------------------------------------------------------
    # Element-wise transforms
    # ------------------------------------------------------------------
    def _apply_ufunc(self, ufunc: np.ufunc, exact_errors: bool) -> np.ndarray | None:
        """Run *ufunc* over the numeric values, or ``None`` to use the loop.

        With ``exact_errors`` the call runs under raising errstate so a
        domain violation (``log(0)``, ``exp`` overflow …) falls back to the
        element loop, which raises exactly what the scalar ``math``
        function would have raised.
        """
        if self._values.dtype.kind not in "if":
            return None
        try:
            if exact_errors:
                with np.errstate(divide="raise", invalid="raise", over="raise", under="ignore"):
                    return ufunc(self._values)
            return ufunc(self._values)
        except FloatingPointError:
            return None

    def map(self, mapper: Callable[[Any], Any] | Mapping[Any, Any]) -> "Series":
        """Apply *mapper* (callable or dict) element-wise.

        Dict mappers translate unmapped keys to ``None``, matching pandas.
        Missing inputs propagate as missing without invoking the mapper.
        Dict mappers and recognised ufuncs run vectorised (each distinct
        value is looked up once); other callables run the element loop.
        """
        if isinstance(mapper, Mapping):
            try:
                codes, uniques = self._factorized()
                mapped = [mapper.get(u) for u in uniques]
            except TypeError:  # unhashable values: surface the same error shape
                return Series(
                    [None if _is_missing_scalar(v) else mapper.get(v) for v in self.tolist()],
                    self.name,
                )
            return Series._from_array(_kernels.take_uniques(mapped, codes), self.name)
        ufunc = _as_unary_ufunc(mapper)
        if ufunc is not None:
            out = self._apply_ufunc(ufunc, exact_errors=mapper is not ufunc)
            # Missing inputs must stay missing without invoking the mapper;
            # only a float result can represent that vectorised.
            if out is not None and (
                self._values.dtype.kind != "f"
                or out.dtype.kind == "f"
                or not np.isnan(self._values).any()
            ):
                if self._values.dtype.kind == "f" and out.dtype.kind == "f":
                    out = np.where(np.isnan(self._values), np.nan, out)
                return Series._from_array(_kernels.match_coerce_float(out), self.name)
        out = [None if _is_missing_scalar(v) else mapper(v) for v in self.tolist()]
        return Series(out, self.name)

    def apply(self, func: Callable[[Any], Any]) -> "Series":
        """Apply *func* to every element, including missing ones.

        Numpy ufuncs — and the ``math`` functions with exact ufunc
        equivalents — dispatch to one vectorised call on numeric dtypes;
        anything else runs the element loop.
        """
        ufunc = _as_unary_ufunc(func)
        if ufunc is not None:
            out = self._apply_ufunc(ufunc, exact_errors=func is not ufunc)
            if out is not None:
                return Series._from_array(_kernels.match_coerce_float(out), self.name)
        return Series([func(v) for v in self.tolist()], self.name)

    def astype(self, dtype: Any) -> "Series":
        """Cast to *dtype* (``float``, ``int``, ``str``, ``bool`` or numpy dtype)."""
        kind = self._values.dtype.kind
        if dtype in (str, "str", "string"):
            if kind in "ib":
                return Series._from_array(
                    self._values.astype(str).astype(object), self.name, _kernels.PLAIN_STR
                )
            return Series(
                [None if _is_missing_scalar(v) else str(v) for v in self.tolist()], self.name
            )
        if dtype in (float, "float", "float64"):
            if kind in "ifb":
                return Series._from_array(
                    _kernels.match_coerce_float(self._values.astype(np.float64)), self.name
                )
            return Series(
                [np.nan if _is_missing_scalar(v) else float(v) for v in self.tolist()], self.name
            )
        if dtype in (int, "int", "int64"):
            if kind == "f":
                if np.isnan(self._values).any():
                    raise ValueError("cannot convert float NaN to integer")
                if np.isinf(self._values).any():
                    raise OverflowError("cannot convert float infinity to integer")
                if not (np.abs(self._values) < 2.0**63).all():
                    # Out of int64 range: the loop raises the exact error.
                    return Series([int(v) for v in self.tolist()], self.name)
                return Series._from_array(self._values.astype(np.int64), self.name)
            if kind in "ib":
                return Series._from_array(self._values.astype(np.int64), self.name)
            return Series([int(v) for v in self.tolist()], self.name)
        if dtype in (bool, "bool"):
            if kind in "ifb":
                return Series._from_array(self._values.astype(bool), self.name)
            return Series([bool(v) for v in self.tolist()], self.name)
        return Series._from_array(self._values.astype(dtype), self.name)

    def clip(self, lower: float | None = None, upper: float | None = None) -> "Series":
        """Bound values to ``[lower, upper]``; missing values pass through."""
        out = self._numeric()
        if lower is None and upper is None:
            return Series._from_array(out.copy(), self.name)
        if lower is not None:  # np.maximum/np.minimum pass NaN cells through
            out = np.maximum(out, lower)
        if upper is not None:
            out = np.minimum(out, upper)
        return Series._from_array(out, self.name)

    def round(self, decimals: int = 0) -> "Series":
        return Series._from_array(np.round(self._numeric(), decimals), self.name)

    def abs(self) -> "Series":
        return Series._from_array(np.abs(self._numeric()), self.name)

    def replace(self, mapping: Mapping[Any, Any]) -> "Series":
        """Replace exact values per *mapping*; unmapped values pass through."""
        return Series(
            [mapping.get(v, v) if not _is_missing_scalar(v) else None for v in self.tolist()],
            self.name,
        )

    def shift(self, periods: int = 1) -> "Series":
        """Shift values by *periods* positions, filling vacated slots with NaN."""
        values = self.tolist()
        if periods >= 0:
            shifted = [None] * min(periods, len(values)) + values[: max(len(values) - periods, 0)]
        else:
            shifted = values[-periods:] + [None] * min(-periods, len(values))
        return Series(shifted, self.name)

    def where(self, cond: "Series | np.ndarray", other: Any = None) -> "Series":
        """Keep values where *cond* holds, replace the rest with *other*."""
        mask = cond.to_numpy() if isinstance(cond, Series) else np.asarray(cond)
        kind = self._values.dtype.kind
        if kind in "if" and mask.dtype == bool and len(mask) == len(self._values):
            if kind == "i" and mask.all():
                # Nothing is replaced: the loop coerces the surviving ints
                # back to int64 regardless of what `other` would have been.
                if other is None or isinstance(other, (int, float, np.number)):
                    return self.copy()
            if other is None:
                out = np.where(mask, self._values.astype(np.float64), np.nan)
                return Series._from_array(_kernels.match_coerce_float(out), self.name)
            if isinstance(other, (int, np.integer)) and not isinstance(other, (bool, np.bool_)):
                if kind == "i":
                    return Series._from_array(
                        np.where(mask, self._values, np.int64(other)), self.name
                    )
                if mask.any():  # else no float survives: the loop coerces to int64
                    out = np.where(mask, self._values, float(other))
                    return Series._from_array(_kernels.match_coerce_float(out), self.name)
            if isinstance(other, (float, np.floating)):
                out = np.where(mask, self._values.astype(np.float64), float(other))
                return Series._from_array(_kernels.match_coerce_float(out), self.name)
        out = [v if m else other for v, m in zip(self.tolist(), mask)]
        return Series(out, self.name)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _numeric(self) -> np.ndarray:
        """Return the values as ``float64`` (object arrays convert, missing→NaN).

        Float64 input returns the live buffer (no copy) — treat the result
        as read-only; every in-place consumer copies first.
        """
        if self._values.dtype.kind in "ifb":
            return self._values.astype(np.float64, copy=False)
        try:
            # Object arrays cast in one C pass: float() per element with
            # None → NaN, identical to the loop below for convertible data.
            return self._values.astype(np.float64)
        except (TypeError, ValueError):
            pass
        out = np.empty(len(self._values), dtype=np.float64)
        for i, v in enumerate(self._values):
            if _is_missing_scalar(v):
                out[i] = np.nan
            else:
                out[i] = float(v)
        return out

    def _numeric_nonmissing(self) -> np.ndarray:
        data = self._numeric()
        return data[~np.isnan(data)]

    def sum(self) -> float:
        data = self._numeric_nonmissing()
        return float(data.sum()) if len(data) else 0.0

    def mean(self) -> float:
        data = self._numeric_nonmissing()
        return float(data.mean()) if len(data) else float("nan")

    def median(self) -> float:
        data = self._numeric_nonmissing()
        return float(np.median(data)) if len(data) else float("nan")

    def std(self, ddof: int = 1) -> float:
        data = self._numeric_nonmissing()
        if len(data) <= ddof:
            return float("nan")
        return float(data.std(ddof=ddof))

    def var(self, ddof: int = 1) -> float:
        data = self._numeric_nonmissing()
        if len(data) <= ddof:
            return float("nan")
        return float(data.var(ddof=ddof))

    def min(self) -> Any:
        if self._values.dtype.kind in "ifb":
            data = self._numeric_nonmissing()
            return float(data.min()) if len(data) else float("nan")
        present = [v for v in self.tolist() if not _is_missing_scalar(v)]
        return min(present) if present else None

    def max(self) -> Any:
        if self._values.dtype.kind in "ifb":
            data = self._numeric_nonmissing()
            return float(data.max()) if len(data) else float("nan")
        present = [v for v in self.tolist() if not _is_missing_scalar(v)]
        return max(present) if present else None

    def quantile(self, q: float) -> float:
        data = self._numeric_nonmissing()
        return float(np.quantile(data, q)) if len(data) else float("nan")

    def count(self) -> int:
        """Number of non-missing entries."""
        return int((~_isna_array(self._values)).sum())

    def _counts_first_seen(self) -> tuple[list, np.ndarray]:
        """``(uniques, counts)`` over non-missing values in first-seen order."""
        codes, uniques = self._factorized()
        present = codes[codes >= 0]
        counts = np.bincount(present, minlength=len(uniques)) if len(uniques) else np.zeros(0, np.int64)
        return uniques, counts

    def nunique(self, dropna: bool = True) -> int:
        if dropna:
            _, counts = self._counts_first_seen()
            return len(counts)
        # len(set(self.tolist())): the number of groups in the grouping.
        return len(self.grouping()[1])

    def unique(self) -> list:
        """Distinct non-missing values in first-seen order."""
        uniques, _ = self._counts_first_seen()
        return list(uniques)  # the encoding's list is shared

    def mode(self) -> Any:
        """Most frequent non-missing value (ties break on first-seen order)."""
        uniques, counts = self._counts_first_seen()
        if not uniques:
            return None
        return uniques[int(np.argmax(counts))]

    def value_counts(self, normalize: bool = False) -> dict:
        """Frequency table of non-missing values, most frequent first."""
        uniques, counts = self._counts_first_seen()
        # Stable sort on -count keeps first-seen order among ties, exactly
        # like sorting the insertion-ordered dict.
        order = np.argsort(-counts, kind="stable")
        if normalize:
            total = float(counts.sum())
            return {uniques[i]: int(counts[i]) / total for i in order}
        return {uniques[i]: int(counts[i]) for i in order}

    def idxmax(self) -> int:
        data = self._numeric()
        return int(np.nanargmax(data))

    def idxmin(self) -> int:
        data = self._numeric()
        return int(np.nanargmin(data))

    def any(self) -> bool:
        return bool(np.asarray(self._values, dtype=bool).any())

    def all(self) -> bool:
        return bool(np.asarray(self._values, dtype=bool).all())

    def cumsum(self) -> "Series":
        return Series._from_array(np.nancumsum(self._numeric()), self.name)

    def rank(self) -> "Series":
        """Average-method ranks of the values (1-based), NaN stays NaN."""
        from scipy import stats

        data = self._numeric()
        ranks = np.full(len(data), np.nan)
        present = ~np.isnan(data)
        if present.any():
            ranks[present] = stats.rankdata(data[present], method="average")
        return Series._from_array(ranks, self.name)

    def corr(self, other: "Series") -> float:
        """Pearson correlation with *other* over jointly non-missing rows."""
        a, b = self._numeric(), other._numeric()
        mask = ~(np.isnan(a) | np.isnan(b))
        if mask.sum() < 2:
            return float("nan")
        a, b = a[mask], b[mask]
        if a.std() == 0 or b.std() == 0:
            return float("nan")
        return float(np.corrcoef(a, b)[0, 1])

    def sort_values(self, ascending: bool = True) -> "Series":
        order = np.argsort(self._numeric() if self.dtype.kind in "ifb" else self._values)
        if not ascending:
            order = order[::-1]
        return Series._from_array(self._values[order], self.name)

    # ------------------------------------------------------------------
    # Arithmetic and comparisons
    # ------------------------------------------------------------------
    def _binary_numeric(self, other: Any, op: Callable) -> "Series":
        left = self._numeric()
        if isinstance(other, Series):
            right = other._numeric()
            if len(left) != len(right):
                raise ValueError(
                    f"Series length mismatch: {len(left)} vs {len(right)}"
                )
        else:
            right = float(other)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = op(left, right)
        return Series._from_array(np.asarray(out, dtype=np.float64), self.name)

    def __add__(self, other: Any) -> "Series":
        if self.dtype == object or (isinstance(other, Series) and other.dtype == object):
            right = other.tolist() if isinstance(other, Series) else [other] * len(self)
            return Series([a + b for a, b in zip(self.tolist(), right)], self.name)
        return self._binary_numeric(other, np.add)

    def __radd__(self, other: Any) -> "Series":
        if self.dtype == object:
            return Series([other + a for a in self.tolist()], self.name)
        return self._binary_numeric(other, np.add)

    def __sub__(self, other: Any) -> "Series":
        return self._binary_numeric(other, np.subtract)

    def __rsub__(self, other: Any) -> "Series":
        return self._binary_numeric(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other: Any) -> "Series":
        return self._binary_numeric(other, np.multiply)

    def __rmul__(self, other: Any) -> "Series":
        return self._binary_numeric(other, np.multiply)

    def __truediv__(self, other: Any) -> "Series":
        return self._binary_numeric(other, np.divide)

    def __rtruediv__(self, other: Any) -> "Series":
        return self._binary_numeric(other, lambda a, b: np.divide(b, a))

    def __floordiv__(self, other: Any) -> "Series":
        return self._binary_numeric(other, np.floor_divide)

    def __mod__(self, other: Any) -> "Series":
        return self._binary_numeric(other, np.mod)

    def __pow__(self, other: Any) -> "Series":
        return self._binary_numeric(other, np.power)

    def __neg__(self) -> "Series":
        return Series._from_array(-self._numeric(), self.name)

    def _compare(self, other: Any, op: Callable) -> "Series":
        if self.dtype == object and not isinstance(other, (int, float, np.number)):
            right = other.tolist() if isinstance(other, Series) else [other] * len(self)
            out = np.array(
                [
                    False
                    if (_is_missing_scalar(a) or _is_missing_scalar(b))
                    else bool(op(a, b))
                    for a, b in zip(self.tolist(), right)
                ],
                dtype=bool,
            )
            return Series._from_array(out, self.name)
        left = self._numeric()
        right = other._numeric() if isinstance(other, Series) else float(other)
        with np.errstate(invalid="ignore"):
            out = op(left, right)
        return Series._from_array(np.asarray(out, dtype=bool), self.name)

    def __eq__(self, other: Any) -> "Series":  # type: ignore[override]
        if self.dtype == object or isinstance(other, str):
            right = other.tolist() if isinstance(other, Series) else [other] * len(self)
            out = np.array([a == b for a, b in zip(self.tolist(), right)], dtype=bool)
            return Series._from_array(out, self.name)
        return self._compare(other, np.equal)

    def __ne__(self, other: Any) -> "Series":  # type: ignore[override]
        eq = self.__eq__(other)
        return Series._from_array(~eq.to_numpy(), self.name)

    def __lt__(self, other: Any) -> "Series":
        return self._compare(other, np.less)

    def __le__(self, other: Any) -> "Series":
        return self._compare(other, np.less_equal)

    def __gt__(self, other: Any) -> "Series":
        return self._compare(other, np.greater)

    def __ge__(self, other: Any) -> "Series":
        return self._compare(other, np.greater_equal)

    def __and__(self, other: Any) -> "Series":
        right = other.to_numpy() if isinstance(other, Series) else np.asarray(other)
        return Series._from_array(
            np.asarray(self._values, dtype=bool) & np.asarray(right, dtype=bool), self.name
        )

    def __or__(self, other: Any) -> "Series":
        right = other.to_numpy() if isinstance(other, Series) else np.asarray(other)
        return Series._from_array(
            np.asarray(self._values, dtype=bool) | np.asarray(right, dtype=bool), self.name
        )

    def __invert__(self) -> "Series":
        return Series._from_array(~np.asarray(self._values, dtype=bool), self.name)

    def __hash__(self) -> int:  # Series are mutable; identity hash like pandas
        return id(self)

    def isin(self, values: Iterable[Any]) -> "Series":
        """Boolean mask of membership in *values*."""
        lookup = set(values)
        if self._values.dtype.kind in "if" and all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, (bool, np.bool_))
            and not _is_missing_scalar(v)
            and abs(v) < 2.0**53  # exact as float64, so == semantics match
            for v in lookup
        ):
            data = self._values.astype(np.float64)
            if len(data) == 0 or bool((np.abs(data[~np.isnan(data)]) < 2.0**53).all()):
                table = np.array(sorted(float(v) for v in lookup), dtype=np.float64)
                out = np.isin(data, table)
                return Series._from_array(out, self.name)
        out = np.array(
            [not _is_missing_scalar(v) and v in lookup for v in self.tolist()], dtype=bool
        )
        return Series._from_array(out, self.name)

    def between(self, left: float, right: float, inclusive: bool = True) -> "Series":
        """Boolean mask of values within ``[left, right]``."""
        data = self._numeric()
        with np.errstate(invalid="ignore"):
            if inclusive:
                out = (data >= left) & (data <= right)
            else:
                out = (data > left) & (data < right)
        return Series._from_array(out, self.name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def str(self) -> "StringAccessor":
        """Vectorised string methods (``s.str.lower()``, ``s.str.split()``…)."""
        return StringAccessor(self)

    @property
    def dt(self) -> "DatetimeAccessor":
        """Datetime component access for ISO-format strings or date objects."""
        return DatetimeAccessor(self)


class StringAccessor:
    """Namespace of vectorised string operations, mirroring ``pandas.Series.str``."""

    def __init__(self, series: Series) -> None:
        self._series = series

    def _map(self, func: Callable[[str], Any]) -> Series:
        return Series(
            [None if _is_missing_scalar(v) else func(str(v)) for v in self._series.tolist()],
            self._series.name,
        )

    def lower(self) -> Series:
        return self._map(str.lower)

    def upper(self) -> Series:
        return self._map(str.upper)

    def strip(self) -> Series:
        return self._map(str.strip)

    def len(self) -> Series:
        return self._map(len)

    def title(self) -> Series:
        return self._map(str.title)

    def contains(self, pattern: str, case: bool = True) -> Series:
        if case:
            return self._map(lambda s: pattern in s).fillna(False)
        return self._map(lambda s: pattern.lower() in s.lower()).fillna(False)

    def startswith(self, prefix: str) -> Series:
        return self._map(lambda s: s.startswith(prefix)).fillna(False)

    def endswith(self, suffix: str) -> Series:
        return self._map(lambda s: s.endswith(suffix)).fillna(False)

    def replace(self, old: str, new: str) -> Series:
        return self._map(lambda s: s.replace(old, new))

    def split(self, sep: str, expand: bool = False):
        """Split on *sep*; ``expand=True`` returns a DataFrame of parts."""
        parts = self._map(lambda s: s.split(sep))
        if not expand:
            return parts
        from repro.dataframe.frame import DataFrame

        width = max((len(p) for p in parts.tolist() if p is not None), default=0)
        columns = {}
        for i in range(width):
            columns[i] = [
                (p[i] if p is not None and i < len(p) else None) for p in parts.tolist()
            ]
        return DataFrame(columns)

    def get(self, index: int) -> Series:
        """Element *index* of each value (for list-valued or string Series)."""
        def pick(value):
            if _is_missing_scalar(value):
                return None
            try:
                return value[index]
            except (IndexError, KeyError):
                return None

        return Series([pick(v) for v in self._series.tolist()], self._series.name)

    def slice(self, start: int | None = None, stop: int | None = None) -> Series:
        return self._map(lambda s: s[start:stop])

    def zfill(self, width: int) -> Series:
        return self._map(lambda s: s.zfill(width))

    def cat(self, other: Series, sep: str = "") -> Series:
        """Concatenate element-wise with *other* using *sep*."""
        return Series(
            [
                None if (_is_missing_scalar(a) or _is_missing_scalar(b)) else f"{a}{sep}{b}"
                for a, b in zip(self._series.tolist(), other.tolist())
            ],
            self._series.name,
        )


def _parse_datetime(value: Any) -> _dt.datetime | None:
    """Best-effort parse of *value* into a datetime (ISO strings, date objects)."""
    if _is_missing_scalar(value):
        return None
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day)
    text = str(value).strip()
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y", "%d-%m-%Y"):
        try:
            return _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"cannot parse datetime from {value!r}")


class DatetimeAccessor:
    """Namespace of datetime component extractors, mirroring ``Series.dt``."""

    def __init__(self, series: Series) -> None:
        self._series = series

    def _component(self, func: Callable[[_dt.datetime], Any]) -> Series:
        out = []
        for v in self._series.tolist():
            parsed = _parse_datetime(v)
            out.append(None if parsed is None else func(parsed))
        return Series(out, self._series.name)

    @property
    def year(self) -> Series:
        return self._component(lambda d: d.year)

    @property
    def month(self) -> Series:
        return self._component(lambda d: d.month)

    @property
    def day(self) -> Series:
        return self._component(lambda d: d.day)

    @property
    def dayofweek(self) -> Series:
        return self._component(lambda d: d.weekday())

    @property
    def quarter(self) -> Series:
        return self._component(lambda d: (d.month - 1) // 3 + 1)

    @property
    def dayofyear(self) -> Series:
        return self._component(lambda d: d.timetuple().tm_yday)
