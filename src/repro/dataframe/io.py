"""CSV input/output and the row-shard substrate for out-of-core execution.

Both directions are columnar: :func:`to_csv` formats each column once
and hands the columns to the C ``csv`` writer in one ``writerows`` call,
and the CSV decoder reads rows in bounded blocks, transposes each block
and parses it column by column.

Besides the one-shot :func:`read_csv`/:func:`to_csv` pair, this module
provides the streaming primitives the sharded fit/serve paths build on:

* :class:`Shard` — a bounded, contiguous row window of a larger table;
* :func:`iter_frame_shards` / :func:`read_csv_shards` — shard streams over
  an in-memory frame (zero-copy views) or a CSV file (bounded buffers);
* :func:`scan_csv_kinds` — a cheap schema pass naming each column's
  :func:`~repro.dataframe.kernels.coercion_kind`, so every CSV shard
  decodes through the ``Series(list)`` rule pinned to the whole-file
  dtypes (cell values bit-identical to ``read_csv``);
* :func:`concat_shards` — re-joins per-shard results under Series
  list-coercion semantics, the package-wide dtype authority, so a
  shard-wise pipeline lands on exactly the frame the in-memory path
  would have produced;
* :func:`reservoir_sample` — a seeded bounded row sample whose output is
  a pure function of ``(seed, row stream)``, never of shard boundaries.
"""

from __future__ import annotations

import csv
import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.dataframe.frame import DataFrame
from repro.dataframe.kernels import coerce_listlike, coercion_kind
from repro.dataframe.series import Series

__all__ = [
    "Shard",
    "concat_shards",
    "is_number_cell",
    "iter_frame_shards",
    "read_csv",
    "read_csv_shards",
    "reservoir_sample",
    "scan_csv_kinds",
    "to_csv",
]


#: Strict numeric grammar for CSV cells.  Deliberately narrower than
#: Python's ``int()``/``float()``: no underscore separators (``"1_000"``
#: is data, not a number), no NaN/inf spellings (``"nan"`` must stay the
#: string ``"nan"`` — parsing it to a non-finite float made it serialize
#: back as an *empty* cell, silent data loss), and no surrounding
#: whitespace (``" 3 "`` is a padded string, not the number 3).
_INT_CELL = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_CELL = re.compile(
    r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?\Z"
)
#: Every cell the strict grammar accepts starts with one of these, so a
#: cell starting with anything else skips both regexes.
_NUMBER_LEADS = "+-.0123456789"
#: Most rows the CSV decoder holds in one block before transposing it;
#: bounds the row lists of a whole-file read (``chunk_rows=sys.maxsize``).
_DECODE_BLOCK_ROWS = 4096


def is_number_cell(text: str) -> bool:
    """Whether *text* reads as a number under the strict cell grammar
    (every integer cell is also a float cell)."""
    return _FLOAT_CELL.match(text) is not None


def _parse_cell(text: str):
    """Interpret a CSV cell: empty → missing, else bool, int, float, or string.

    Numeric parsing follows the strict grammar above; ``"True"`` and
    ``"False"`` (exactly — the spelling :func:`to_csv` writes) parse as
    booleans so boolean columns survive a CSV round trip.  Everything
    else is kept verbatim as a string.
    """
    if text == "":
        return None
    if text[0] in _NUMBER_LEADS:
        if _INT_CELL.match(text):
            return int(text)
        if _FLOAT_CELL.match(text):
            return float(text)
        return text
    if text == "True":
        return True
    if text == "False":
        return False
    return text


def _read_header(reader, path: str | Path) -> list[str] | None:
    """The header row of *reader* (``None`` for an empty file).

    Every CSV reader here keys columns by header name, so a repeated
    name would silently drop all but one of its columns; it is refused
    with a ``ValueError`` naming each duplicate instead.
    """
    try:
        header = next(reader)
    except StopIteration:
        return None
    duplicates = [name for name, n in Counter(header).items() if n > 1]
    if duplicates:
        names = ", ".join(repr(name) for name in duplicates)
        raise ValueError(f"{path}: duplicate column name(s) in CSV header: {names}")
    return header


def read_csv(path: str | Path) -> DataFrame:
    """Read a headered CSV file into a :class:`DataFrame` with inferred dtypes.

    The one-shard case of :func:`read_csv_shards`, so there is one
    decoder.  An empty file gives ``DataFrame()``; a header-only file a
    zero-row frame with its columns.
    """
    for shard in read_csv_shards(path, sys.maxsize):
        return shard.frame
    with open(path, newline="") as handle:  # no data rows
        header = _read_header(csv.reader(handle), path) or []
    return DataFrame({name: [] for name in header})


def to_csv(
    frame: DataFrame,
    path: str | Path,
    *,
    append: bool = False,
    header: bool | None = None,
) -> None:
    """Write *frame* to a headered CSV file (missing values become empty cells).

    Columnar: each column is formatted once into a list of plain Python
    cells (:func:`_csv_cells`) and the C writer joins and quotes the rows
    in one ``writerows`` call, so its quoting rules alone define the bytes.

    ``append=True`` adds rows to an existing file; *header* defaults to
    ``not append`` so a shard stream writes the header exactly once
    (first shard ``append=False``, the rest ``append=True``).
    """
    write_header = (not append) if header is None else header
    columns = [_csv_cells(frame[name]) for name in frame.columns]
    with open(path, "a" if append else "w", newline="") as handle:
        writer = csv.writer(handle)
        if write_header:
            writer.writerow(frame.columns)
        writer.writerows(zip(*columns))


def _csv_cells(series: Series) -> list:
    """One column's cells for the CSV writer: ``None`` and NaN become ``""``.

    Numpy scalars in object columns are unboxed (``Series.tolist``) so
    each cell writes as its Python value: the writer formats a boxed
    ``np.float32(0.1)`` with ``str`` as ``0.1``, its value as
    ``0.10000000149011612``.
    """
    values = series.values
    kind = values.dtype.kind
    if kind in "iub":  # never missing
        return values.tolist()
    if kind == "f":
        cells = values.tolist()
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = ""
        return cells
    return ["" if value is None or value != value else value for value in series.tolist()]


# ----------------------------------------------------------------------
# Row shards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """A bounded, contiguous row window of a larger logical table.

    ``frame`` may share storage with the source table (the frame-shard
    iterator yields zero-copy views) — treat it as read-only.
    """

    frame: DataFrame
    index: int  # shard ordinal in the stream, 0-based
    start: int  # global row offset of the shard's first row

    def __len__(self) -> int:
        return len(self.frame)


def _as_frame(piece: "Shard | DataFrame") -> DataFrame:
    return piece.frame if isinstance(piece, Shard) else piece


def iter_frame_shards(frame: DataFrame, chunk_rows: int) -> Iterator[Shard]:
    """Yield *frame* as contiguous :class:`Shard` views of ≤ *chunk_rows* rows.

    Shards are numpy slice views — zero array copies — so iterating costs
    one dict per shard.  An empty frame yields nothing.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    n = len(frame)
    names = frame.columns
    arrays = [frame[c].values for c in names]
    for index, start in enumerate(range(0, n, chunk_rows)):
        stop = min(start + chunk_rows, n)
        piece = DataFrame()
        for name, values in zip(names, arrays):
            piece._columns[name] = Series._from_array(values[start:stop], name)
        yield Shard(piece, index, start)


# ----------------------------------------------------------------------
# Streaming CSV: schema scan + bounded shard reader
# ----------------------------------------------------------------------
def scan_csv_kinds(path: str | Path) -> dict[str, str]:
    """One streaming pass over a CSV → per-column coercion kind.

    Each kind is the :func:`~repro.dataframe.kernels.coercion_kind` of the
    column's :func:`_parse_cell` values — the rule Series list coercion
    decides by — so feeding the result to :func:`read_csv_shards` pins
    every shard to the whole-file dtypes.  The pass stays fused (one
    ``_parse_cell`` per cell, one flag update) instead of classifying
    column lists.  The parser's strict grammar guarantees cells are never
    NaN, so a parsed cell is exactly one of None/bool/int/float/str.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
        if header is None:
            return {}
        n = len(header)
        forced = [False] * n  # a string cell forces the object path
        missing = [False] * n
        present = [False] * n
        floaty = [False] * n
        nonbool = [False] * n
        for row in reader:
            for i in range(n):
                if forced[i]:
                    continue
                cell = _parse_cell(row[i]) if i < len(row) else None
                if cell is None:
                    missing[i] = True
                elif isinstance(cell, bool):
                    present[i] = True
                elif isinstance(cell, int):
                    present[i] = True
                    nonbool[i] = True
                elif isinstance(cell, float):
                    present[i] = True
                    floaty[i] = True
                    nonbool[i] = True
                else:
                    forced[i] = True
    return {
        name: coercion_kind(forced[i], present[i], not nonbool[i], floaty[i], missing[i])
        for i, name in enumerate(header)
    }


def read_csv_shards(
    path: str | Path,
    chunk_rows: int,
    schema: dict[str, str] | None = None,
) -> Iterator[Shard]:
    """Stream a headered CSV as :class:`Shard`\\ s of ≤ *chunk_rows* rows.

    Rows are decoded in blocks of at most ``_DECODE_BLOCK_ROWS`` that
    never cross a shard boundary: each block is transposed and parsed
    column by column into the shard's buffers.  A short row's missing
    cells read as missing, extra cells are ignored, and a blank line is
    an all-missing row.

    With *schema* (from :func:`scan_csv_kinds`) every shard coerces to
    the whole-file dtypes, so each shard is bit-identical to the matching
    row slice of ``read_csv(path)`` regardless of where the boundaries
    fall.  Without a schema each shard infers dtypes independently —
    cheaper (no scan pass), but downstream consumers must tolerate dtype
    drift between shards (:func:`concat_shards` re-coerces).
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
        if not header:
            return
        width = len(header)
        buffers: list[list] = [[] for _ in header]
        filled = index = start = 0
        while rows := list(islice(reader, min(chunk_rows - filled, _DECODE_BLOCK_ROWS))):
            if any(len(row) != width for row in rows):
                rows = [(row + [""] * (width - len(row)))[:width] for row in rows]
            for buffer, cells in zip(buffers, zip(*rows)):
                buffer.extend(map(_parse_cell, cells))
            filled += len(rows)
            if filled == chunk_rows:
                yield Shard(_csv_shard_frame(header, buffers, schema), index, start)
                start += filled
                index += 1
                filled = 0
                buffers = [[] for _ in header]
        if filled:
            yield Shard(_csv_shard_frame(header, buffers, schema), index, start)


def _csv_shard_frame(
    header: list[str], buffers: list[list], schema: dict[str, str] | None
) -> DataFrame:
    out = DataFrame()
    for name, cells in zip(header, buffers):
        kind = None if schema is None else schema.get(name, "object")
        out._columns[name] = Series._from_array(coerce_listlike(cells, kind), name)
    return out


# ----------------------------------------------------------------------
# Concat with list-coercion semantics
# ----------------------------------------------------------------------
def concat_shards(parts: Iterable["Shard | DataFrame"]) -> DataFrame:
    """Concatenate per-shard frames row-wise into one frame.

    When every piece agrees on a column's dtype the arrays concatenate
    directly (this is exact: if every shard of a column is e.g. int64,
    the in-memory column could only have been int64).  Mixed dtypes —
    an all-NaN shard that degraded to object ``None`` rejoining a float
    column, an int shard meeting a missing value — rebuild through
    Series list coercion, the same rule the in-memory element paths
    follow, so the result is bit-identical to the unsharded computation.
    """
    frames = [_as_frame(p) for p in parts]
    if not frames:
        return DataFrame()
    columns = frames[0].columns
    for frame in frames[1:]:
        if frame.columns != columns:
            raise ValueError(
                f"shard column mismatch: {frame.columns} != {columns}"
            )
    out = DataFrame()
    for name in columns:
        arrays = [frame[name].values for frame in frames]
        if len({a.dtype for a in arrays}) == 1:
            out._columns[name] = Series._from_array(np.concatenate(arrays), name)
        else:
            merged: list = []
            for frame in frames:
                merged.extend(frame[name].tolist())
            out._columns[name] = Series(merged, name)
    out._check_lengths()
    return out


# ----------------------------------------------------------------------
# Seeded reservoir sampling (chunk-invariant)
# ----------------------------------------------------------------------
_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finalizer over uint64 (wrap-around arithmetic)."""
    with np.errstate(over="ignore"):
        z = x + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def reservoir_sample(
    shards: Iterable["Shard | DataFrame"], k: int, seed: int = 0
) -> tuple[DataFrame, int]:
    """Uniform bounded row sample over a shard stream (Algorithm R).

    The replacement draw for global row *i* is a pure hash of
    ``(seed, i)`` — never a stateful RNG — so the selected rows depend
    only on the logical row stream: any chunking of the same table, or
    the table materialised whole, yields the bit-identical sample.
    Sampled rows come back in original row order and columns re-coerce
    through Series list coercion (the dtypes a direct row-subset of the
    source would have).  Returns ``(sample_frame, total_rows_seen)``.
    """
    if k < 1:
        raise ValueError(f"reservoir size must be >= 1, got {k}")
    seed_base = _splitmix64(np.array([seed], dtype=_U64))[0]
    columns: list[str] | None = None
    slot_rows: list[tuple] = []
    slot_orig: list[int] = []
    total = 0
    for piece in shards:
        frame = _as_frame(piece)
        n = len(frame)
        if columns is None:
            columns = frame.columns
        elif frame.columns != columns:
            raise ValueError(
                f"shard column mismatch: {frame.columns} != {columns}"
            )
        if n == 0:
            continue
        arrays = [frame[c].values for c in columns]
        start, end = total, total + n
        if start < k:  # fill phase: rows 0..k-1 enter unconditionally
            take = min(k, end) - start
            taken = [a[:take].tolist() for a in arrays]
            for offset, row in enumerate(zip(*taken)):
                slot_rows.append(row)
                slot_orig.append(start + offset)
        tail_lo = max(start, k)
        if tail_lo < end:
            idx = np.arange(tail_lo, end, dtype=np.int64)
            hashes = _splitmix64(idx.astype(_U64) ^ seed_base)
            with np.errstate(over="ignore"):
                draws = (hashes % (idx + 1).astype(_U64)).astype(np.int64)
            hit = draws < k
            if hit.any():
                positions = idx[hit] - start
                slots = draws[hit]
                picked = [a[positions].tolist() for a in arrays]
                for slot, orig, row in zip(slots, idx[hit], zip(*picked)):
                    slot_rows[slot] = row
                    slot_orig[slot] = int(orig)
        total = end
    if columns is None:
        return DataFrame(), 0
    order = sorted(range(len(slot_rows)), key=slot_orig.__getitem__)
    data = {
        name: [slot_rows[i][j] for i in order] for j, name in enumerate(columns)
    }
    return DataFrame(data), total
