"""Column dictionaries: the string columns a served plan reads, kept warm.

A compiled plan replays the same string columns batch after batch, and
served columns repeat their values (a few cities, a few thousand
segments and dates).  :class:`ColumnDictionaries` keeps, per column
name, the distinct values seen so far, a ``{value: id}`` index, and
per-entry results of the ops that read the column
(:meth:`Dictionary.derive`), so an op computes its result once per
distinct value over the plan's lifetime and gathers it by code.

:func:`encoded` resolves a column once per Series (the result is kept on
the Series and cleared by its ``__setitem__``), however many features
read it.  Whether a column is all plain ``str`` (``type(v) is str`` for
every cell; ``None``, NaN and ``np.str_`` do not qualify) is read off
its :meth:`Series.cell_types` summary.  List coercion, the CSV decoder
and shard views fill it for free, so a batch whose columns already know
their cell types pays no type pass; any other batch pays one, over the
cell list its lookup then reuses.  Then:

* an all-plain-``str`` column costs one C-level lookup of all its cells
  (``operator.itemgetter(*cells)(index)``); a batch that brings values
  not seen yet takes one ``index.get`` pass instead, and the values it
  misses are appended in first-seen order;
* a batch whose first :data:`PROBE_CELLS` cells mostly miss is encoded
  whole (:meth:`Series.encoding`), its new values appended, and its codes
  translated to ids, so a stream of new values pays for one encode, not
  a lookup pass as well;
* any other column, and any batch once its column dictionary holds
  :data:`MAX_ENTRIES` values and the batch brings more, is encoded
  through :meth:`Series.encoding` into a throwaway dictionary — the
  path every column takes without a plan.

Ids never change once given and every per-entry result is a function of
one value, so a batch's output never depends on what was served before.
"""

from __future__ import annotations

import threading
from itertools import repeat

import numpy as np

from repro.dataframe.kernels import PLAIN_STR, gather_ids
from repro.dataframe.series import Series

__all__ = ["ColumnDictionaries", "Dictionary", "encoded", "strings"]

#: Most values one column dictionary holds.
MAX_ENTRIES = 1 << 15

#: Leading cells probed before a batch's lookup pass: when more than a
#: quarter of them miss, the batch is encoded whole instead.
PROBE_CELLS = 64


class Dictionary:
    """One published state of a column dictionary.

    ``values`` are the distinct cells in id order and ``index`` maps each
    to its id; ``index`` is ``None`` for a throwaway dictionary of a
    column that is not all plain ``str``.  ``memo`` holds per-entry
    results (:meth:`derive`) and ``inherited`` those of the state this
    one grew from, which cover a prefix of ``values``.  A published state
    only ever changes by memo fills, each a single dict store of data
    computed from ``values`` alone.
    """

    __slots__ = ("values", "index", "memo", "inherited")

    def __init__(self, values: list, index: dict | None, inherited: dict | None = None):
        self.values = values
        self.index = index
        self.memo: dict = {}
        self.inherited = inherited or {}

    def derive(self, key, token, compute) -> tuple[np.ndarray, ...]:
        """Per-entry results of *compute*, a function of each value alone.

        ``compute(values)`` returns a tuple of arrays parallel to
        *values*.  The result is kept under *key* while *token* (compared
        by identity) stays the same, and a grown state computes only its
        new entries.
        """
        hit = self.memo.get(key)
        if hit is not None and hit[0] is token:
            return hit[1]
        done = self.inherited.get(key)
        if done is not None and done[0] is token:
            fresh = compute(self.values[len(done[1][0]) :])
            result = tuple(map(np.concatenate, zip(done[1], fresh)))
        else:
            result = compute(self.values)
        self.memo[key] = (token, result)
        return result

    def grown(self, new_values: list) -> "Dictionary":
        n = len(self.values)
        index = dict(self.index)
        index.update(zip(new_values, range(n, n + len(new_values))))
        return Dictionary(self.values + new_values, index, {**self.inherited, **self.memo})


_EMPTY = Dictionary([], {})


class ColumnDictionaries:
    """Per-column :class:`Dictionary` states, grown as batches are served.

    Growth publishes a new state by replacement under a lock, so
    concurrent batches each read one consistent state; codes looked up
    against an older state stay valid in a newer one.  Runtime state
    only: pickles and copies start empty.
    """

    def __init__(self) -> None:
        self._columns: dict[str, Dictionary] = {}
        self._lock = threading.Lock()

    def __reduce__(self):
        return (ColumnDictionaries, ())

    def get(self, name: str) -> Dictionary:
        return self._columns.get(name, _EMPTY)

    def grow(self, name: str, values: list) -> Dictionary | None:
        """A state holding all the distinct *values*, or ``None`` when
        they do not fit (the dictionary is then filled to the cap)."""
        with self._lock:
            current = self._columns.get(name, _EMPTY)
            room = MAX_ENTRIES - len(current.values)
            if room <= 0:
                return None
            new = [v for v in values if v not in current.index]
            if not new:
                return current
            grown = current.grown(new[:room])
            self._columns[name] = grown
            return grown if len(new) <= room else None


def strings(
    dictionaries: ColumnDictionaries | None, name: str, series: Series
) -> tuple[np.ndarray, Dictionary] | None:
    """``(codes, dictionary)`` of an all-plain-``str`` column, else ``None``."""
    resolved = encoded(dictionaries, name, series)
    return resolved if resolved is not None and resolved[1].index is not None else None


def encoded(
    dictionaries: ColumnDictionaries | None, name: str, series: Series
) -> tuple[np.ndarray, Dictionary] | None:
    """``(codes, dictionary)`` of any column (codes ``-1`` for missing
    cells), ``None`` when a cell is unhashable.

    Resolved against *dictionaries*' state for column *name* (``None``:
    the throwaway path) once per Series and kept on it, so every op of a
    batch — and every later batch serving the same Series — reuses it.
    The entry is keyed on the name too: a copy-on-write alias of the
    Series (which keeps the entry) may be served as another column.
    """
    values = series.values
    cached = series._dictionary_cache
    if (
        cached is not None
        and cached[0] is dictionaries
        and cached[1] is values
        and cached[2] == name
    ):
        return cached[3]
    resolved = _resolve(dictionaries, name, series)
    series._dictionary_cache = (dictionaries, values, name, resolved)
    return resolved


def _resolve(dictionaries: ColumnDictionaries | None, name: str, series: Series):
    values = series.values
    if dictionaries is None or values.dtype != object or not len(values):
        return _throwaway(series)
    cells, types = series._typed_cells()
    if not types <= PLAIN_STR:
        return _throwaway(series)
    current = dictionaries.get(name)
    head = values[:PROBE_CELLS].tolist()
    if 4 * sum(v not in current.index for v in head) > len(head):
        return _seeded(dictionaries, name, series)
    if cells is None:
        cells = values.tolist()
    codes = _lookup(current.index, cells)
    miss = np.flatnonzero(codes < 0)
    if not len(miss):
        return codes, current
    missed = [cells[i] for i in miss.tolist()]
    grown = dictionaries.grow(name, list(dict.fromkeys(missed)))
    if grown is None:
        return _throwaway(series)
    codes[miss] = _lookup(grown.index, missed)
    return codes, grown


def _seeded(dictionaries: ColumnDictionaries, name: str, series: Series):
    """A mostly-new batch: encode it whole, append its new values and
    translate its codes to ids."""
    encoding = series.encoding()
    if encoding is not None and encoding[2] is not None:
        codes, uniques, _index = encoding
        grown = dictionaries.grow(name, uniques)
        if grown is not None:
            return _lookup(grown.index, uniques)[codes], grown
    return _throwaway(series)


def _throwaway(series: Series):
    encoding = series.encoding()
    if encoding is None:
        return None
    codes, uniques, index = encoding
    return codes, Dictionary(uniques, index)


def _lookup(index: dict, cells: list) -> np.ndarray:
    """Each cell's id in *index*, ``-1`` when absent: one C-level
    gather (:func:`~repro.dataframe.kernels.gather_ids`), or an
    ``index.get`` pass once a cell misses."""
    try:
        return gather_ids(index, cells)
    except KeyError:
        return np.fromiter(map(index.get, cells, repeat(-1)), np.int64, len(cells))
