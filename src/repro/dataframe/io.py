"""CSV input/output and the row-shard substrate for out-of-core execution.

The codec is text-native: every stage handles a whole column block of
at most ``_BLOCK_ROWS`` rows in C-level calls, never one Python call
per cell.

* **Classify** (:func:`_block_flags`).  Tuple counts settle an
  all-empty or bool-or-empty block.  Otherwise the block's text cells
  are joined with ``"\\n"`` and regexes run over the joined string:
  every line is int-or-empty, every line is number-or-empty, or no
  non-empty line is a number, ``True`` or ``False`` (a verbatim string
  block, :func:`_verbatim`).  The verbatim test is a prescreen and a
  search.  The prescreen looks for a line that starts with a sign, a
  dot or a digit, or is a bool spelling; where it finds none, as on
  most text blocks, no line can be typed and the block is verbatim.
  Otherwise the search for a typed line runs from the first line the
  prescreen found.  Its digit runs never give a digit back (a lookahead
  captures the run and a back reference consumes it), so a line such
  as ``2021-03-05`` fails after one read of each run, not after trying
  every shorter run: every test is linear in the block's text.  The
  int and number tests only run once a newline count has shown that no
  cell holds ``"\\n"`` itself, so that a line is exactly one cell; a
  cell holding one can only make the verbatim test see a typed line
  where there is none, which costs the fallback but never a wrong
  answer.  A block none of them settles (mixed, or cells holding
  newlines) falls back to :func:`_parse_cell` per cell, so the strict
  grammar below stays the one definition of a cell.  The flags feed
  :func:`~repro.dataframe.kernels.coercion_kind` unchanged, for the
  schema scan and for schema-less shards alike; it is the rule Series
  list coercion follows too, down to an int outside int64 making an int
  column ``object`` (its cells stay exact Python ints).  An int text of
  more than ``_INT_MAX_DIGITS`` digits is a string cell, whatever the
  interpreter's ``int_max_str_digits`` (:func:`_parse_int`).
* **Decode** (:func:`_decode_block`).  Each block decodes by its
  column's kind: ints through ``int``, floats through ``float(text)``
  with empty cells as NaN (so a float column reads an int text past a
  float's range as ``±inf``), a verbatim string block straight into an
  object array (its column then knows its cell types, ``str`` and
  ``None`` for an empty cell: see ``Series.cell_types``), anything else
  through :func:`_parse_cell` and Series list coercion.
* **Pin** (:func:`_decode_pinned`).  A column whose kind a caller's
  schema pins (a fitted plan's input kinds) decodes every block to that
  kind, and admits a block exactly when the kind's floor and the block's
  flags still name the kind.  An int or float block is tested by one
  character-class match over its joined text and the decode's own
  ``int``/``float`` call, which within that class accept exactly the
  strict grammar; the classifier runs only for a block that fails it.
  A cell the kind does not admit raises :class:`CsvKindError` naming
  the file's first such row.  A column the schema does not name is kept
  as its text, without parsing.  A pinned int or float column also keeps
  each block's joined text (the string the test matched, about a byte
  per character, not a ``str`` per cell), and a pinned object column the
  cells of each block that are not all strings, on the decoded Series
  (``Series._csv_text``), so every pinned cell is written as it was read.
* **Write** (:func:`to_csv`).  A column block that carries its read
  text is written from it: a number block's joined text split at its
  line breaks, with no ``repr`` round trip (``1e999`` stays ``1e999``,
  ``1.50`` stays ``1.50``).  A column whose known cell types are plain
  ``str`` (or ``str`` and ``None``) is written from its cells with no
  per-cell type test, and so is an object block that one C-level
  ``frozenset(map(type, cells))`` shows to hold only such cells.  Each
  other numeric or bool column block is formatted without a sort where
  the block shows one is not needed (an int block through a table of
  its value range, a float block of distinct values cell by cell), else
  once per distinct value (:func:`_csv_cells`).  Rows are joined here,
  one row block at a time, under the excel dialect's QUOTE_MINIMAL
  rule: a cell holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted with
  its quotes doubled (four substring tests, over the block's joined
  text and then, only if one hits, per cell: :func:`_quoted`), and a
  row of one empty field is written ``""``.

Files are UTF-8 whatever the locale: writes encode UTF-8 without a
byte-order mark, and reads decode UTF-8 and drop one leading BOM
(:data:`_READ_ENCODING`), so a spreadsheet's UTF-8 export keeps its
first column name.

Besides the one-shot :func:`read_csv`/:func:`to_csv` pair, this module
provides the streaming primitives the sharded fit/serve paths build on:

* :class:`Shard` — a bounded, contiguous row window of a larger table;
* :func:`iter_frame_shards` / :func:`read_csv_shards` — shard streams over
  an in-memory frame (zero-copy views) or a CSV file (bounded buffers);
* :func:`scan_csv_kinds` — a schema pass naming each column's
  :func:`~repro.dataframe.kernels.coercion_kind`, so every CSV shard
  decodes to the whole-file dtypes (cell values bit-identical to
  ``read_csv``) when no fitted plan pins them;
* :func:`concat_shards` — re-joins per-shard results under Series
  list-coercion semantics, the package-wide dtype authority, so a
  shard-wise pipeline lands on exactly the frame the in-memory path
  would have produced;
* :func:`reservoir_sample` — a seeded bounded row sample whose output is
  a pure function of ``(seed, row stream)``, never of shard boundaries.
"""

from __future__ import annotations

import csv
import enum
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.dataframe.frame import DataFrame
from repro.dataframe.kernels import (
    _INT64_MAX,
    _INT64_MIN,
    PLAIN_STR,
    STR_OR_NONE,
    coerce_typed,
    coercion_kind,
)
from repro.dataframe.series import Series

__all__ = [
    "CsvKindError",
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
_INT = r"[+-]?[0-9]+"
_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_INT_CELL = re.compile(_INT + r"\Z")
_FLOAT_CELL = re.compile(_NUMBER + r"\Z")
#: Every cell the strict grammar accepts starts with one of these, so a
#: cell starting with anything else skips both regexes.
_NUMBER_LEADS = "+-.0123456789"


def _digits(group: int, quantifier: str = "+") -> str:
    """A digit run that never gives a digit back: the lookahead captures
    the longest run and the back reference consumes exactly it, the
    atomic group Python 3.10's ``re`` has no syntax for."""
    return rf"(?=([0-9]{quantifier}))\{group}"


#: The block classifiers, over a block's cells joined with ``"\n"``:
#: every line int-or-empty, every line number-or-empty, and (searched in
#: the joined text with a ``"\n"`` added at each end) some line that may
#: be typed, by its first character or as a bool spelling
#: (:data:`_TYPED_LEAD`), and some line a number or bool spelling
#: (:data:`_TYPED_LINE`).  A line has one parse, and only ``"\n"`` or the
#: end may follow it, so a failed match backtracks through each line
#: once: linear in the block's text.  The typed-line search's digit runs
#: never give a digit back, so each line it tries (every line of a date
#: block) fails after one read of its runs.
_INT_LINES = re.compile(rf"(?:{_INT})?(?:\n(?:{_INT})?)*\Z")
_NUMBER_LINES = re.compile(rf"(?:{_NUMBER})?(?:\n(?:{_NUMBER})?)*\Z")
_TYPED_LEAD = re.compile(r"\n(?:[-+.0-9]|True\n|False\n)")
_TYPED_LINE = re.compile(
    rf"\n(?:[+-]?(?:{_digits(1)}(?:\.{_digits(2, '*')}|)|\.{_digits(3)})"
    rf"(?:[eE][+-]?{_digits(4)}|)\n|True\n|False\n)"
)
#: Longest int text that always fits int64 (18 digits, or a sign and 17).
_INT64_SAFE_LEN = 18
#: Most digits an int cell holds: Python's default ``int`` string limit
#: (``sys.int_info.default_max_str_digits``), fixed here so that the
#: interpreter's own setting never changes a read.  A longer digit run
#: is a string cell.
_INT_MAX_DIGITS = 4300
#: Digits ``int`` converts under every ``int_max_str_digits`` setting
#: (``sys.int_info.str_digits_check_threshold``).
_INT_SAFE_DIGITS = 640
#: Most rows one codec block holds: the CSV decoder's row lists before
#: each transpose, and the rows :func:`to_csv` joins per write.
_BLOCK_ROWS = 4096
#: Every CSV read decodes UTF-8 and drops one leading byte-order mark.
_READ_ENCODING = "utf-8-sig"


def is_number_cell(text: str) -> bool:
    """Whether *text* reads as a number under the strict cell grammar
    (every integer cell is also a float cell)."""
    return _FLOAT_CELL.match(text) is not None


def _parse_cell(text: str):
    """Interpret a CSV cell: empty → missing, else bool, int, float, or string.

    Numeric parsing follows the strict grammar above; ``"True"`` and
    ``"False"`` (exactly — the spelling :func:`to_csv` writes) parse as
    booleans so boolean columns survive a CSV round trip.  Everything
    else, an int of more than ``_INT_MAX_DIGITS`` digits included, is
    kept verbatim as a string.  The block codec calls this only for
    blocks its regexes cannot settle.
    """
    if text == "":
        return None
    if text[0] in _NUMBER_LEADS:
        if _INT_CELL.match(text):
            return _parse_int(text)
        if _FLOAT_CELL.match(text):
            return float(text)
        return text
    if text == "True":
        return True
    if text == "False":
        return False
    return text


def _parse_int(text: str) -> int | str:
    """An int-grammar cell as an ``int``, or *text* itself when it has
    more than ``_INT_MAX_DIGITS`` digits.

    ``int`` only ever sees at most ``_INT_SAFE_DIGITS`` digits at a time,
    so the result does not depend on ``sys.set_int_max_str_digits``.
    """
    if len(text) <= _INT_SAFE_DIGITS:
        return int(text)
    digits = text.lstrip("+-")
    if len(digits) > _INT_MAX_DIGITS:
        return text
    value = 0
    for start in range(0, len(digits), _INT_SAFE_DIGITS):
        piece = digits[start : start + _INT_SAFE_DIGITS]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text[0] == "-" else value


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
    # No data rows: the header alone.
    with open(path, newline="", encoding=_READ_ENCODING) as handle:
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

    Bytes are the excel dialect's, as ``csv.writer`` would write them
    (the header still goes through it): ``\\r\\n`` line ends and
    QUOTE_MINIMAL quoting.  The one difference is a float ±inf: written
    ``1e400``/``-1e400``, which read back as ±inf, where ``csv.writer``
    writes ``inf``, which the strict cell grammar reads as a string.
    The rows are formatted and joined here, one block of
    ``_BLOCK_ROWS`` rows at a time (:func:`_block_cells`), so a write
    never holds more than one block's text.  A column that still
    carries the text a pinned decode read it from writes that text.

    ``append=True`` adds rows to an existing file; *header* defaults to
    ``not append`` so a shard stream writes the header exactly once
    (first shard ``append=False``, the rest ``append=True``).
    """
    write_header = (not append) if header is None else header
    columns = [frame[name] for name in frame.columns]
    mode = "a" if append else "w"
    with open(path, mode, newline="", encoding="utf-8") as handle:
        if write_header:
            csv.writer(handle).writerow(frame.columns)
        for block, start in enumerate(range(0, len(frame), _BLOCK_ROWS)):
            cells = [_block_cells(series, block, start) for series in columns]
            if len(cells) == 1:  # a lone empty field must not read as a blank line
                rows = [cell or '""' for cell in cells[0]]
            else:
                rows = map(",".join, zip(*cells))
            handle.write("\r\n".join(rows) + "\r\n")


def _block_cells(series: Series, block: int, start: int) -> list[str]:
    """The CSV cells of block *block* (rows from *start*) of a column.

    A block with its read text (``Series._csv_text``) is written from
    it: a joined number block split at its line breaks, an object
    block's cell texts quoted.  A column whose known cell types are
    plain ``str``, or ``str`` and ``None``, is written from its cells
    with no per-cell type test; any other block goes to :func:`_csv_cells`.
    """
    text = series._csv_text()
    read = None if text is None else text[block]
    if type(read) is str:
        return read.split("\n")
    if read is not None:
        return _quoted(list(read))
    cells = series.values[start : start + _BLOCK_ROWS]
    types = series._known_types()
    if types is not None and types <= STR_OR_NONE:
        return _str_cells(cells.tolist(), types)
    return _csv_cells(cells)


#: A non-finite float's cell, by its ``repr``: NaN is missing, and ±inf
#: is written in a spelling the strict grammar reads back as ±inf (the
#: grammar has no ``inf`` word: ``"inf"`` reads as a string).
_NONFINITE_TEXT = {"nan": "", "inf": "1e400", "-inf": "-1e400"}

#: Leading cells of a float block that, all distinct, mark it as not
#: worth formatting per distinct value.
_DISTINCT_PROBE = 64


def _csv_cells(values: np.ndarray) -> list[str]:
    """One column block's cells as CSV text: missing is ``""``.

    Numeric and bool cells are written as the C writer formats them
    (``repr`` for floats, ``str`` else), but for ±inf, written ``1e400``
    and ``-1e400`` so that they read back as floats.  An int block whose
    values span fewer ints than it has cells is formatted through a
    table of every int in its range, gathered by offset; a float block
    whose first :data:`_DISTINCT_PROBE` cells are distinct bit patterns
    is formatted cell by cell, NaN blanked.  Any other numeric or bool
    block is formatted once per distinct value — floats per distinct bit
    pattern, so ``-0.0`` and ``0.0`` stay apart.  Each cell's text is a
    function of its value alone, so the three give equal bytes.  An
    object block is typed first, by one C-level pass
    (``frozenset(map(type, cells))``): a block of only ``str`` cells, or
    ``str`` and ``None`` ones, is written as a column whose known cell
    types say so is (:func:`_str_cells`), with no per-cell type test;
    any other block goes cell by cell, through :func:`_cell_text` for
    each cell that is neither.
    """
    kind = values.dtype.kind
    if kind in "iu" and len(values) and int(values.max()) - int(values.min()) < len(values):
        low = values.min()
        texts = list(map(str, range(int(low), int(values.max()) + 1)))
        # int64 offsets: exact for any int dtype, as each is < len(values).
        codes = np.subtract(values, low, dtype=np.int64)
    elif kind in "iub":  # never missing
        uniques, codes = np.unique(values, return_inverse=True)
        texts = list(map(str, uniques.tolist()))
    elif kind == "f":
        bits = values.view(f"i{values.itemsize}")
        head = bits[:_DISTINCT_PROBE]
        if len(np.unique(head)) == len(head):  # no sort, and no gather
            floats, codes = values, None
        else:
            uniques, codes = np.unique(bits, return_inverse=True)
            floats = uniques.view(values.dtype)
        texts = list(map(repr, floats.tolist()))
        for i in np.flatnonzero(~np.isfinite(floats)).tolist():
            texts[i] = _NONFINITE_TEXT[texts[i]]
        if codes is None:
            return texts
    else:
        cells = values.tolist()
        types = frozenset(map(type, cells))
        if types <= STR_OR_NONE:
            return _str_cells(cells, types)
        # str and None, the common cells, skip the call
        return _quoted([
            v if type(v) is str else "" if v is None else _cell_text(v) for v in cells
        ])
    return np.array(texts, dtype=object)[codes].tolist()


def _cell_text(value) -> str:
    """One non-``str`` cell as the C writer would write it: ``None`` and
    NaN as ``""``, a numpy scalar as its Python value (the writer formats
    a boxed ``np.float32(0.1)`` with ``str`` as ``0.1``, its value as
    ``0.10000000149011612``), except a float ±inf, written ``1e400`` and
    ``-1e400`` as in a float column."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or value != value:
        return ""
    text = str(value)
    return _NONFINITE_TEXT.get(text, text) if type(value) is float else text


def _quoted(cells: list[str]) -> list[str]:
    """*cells* under QUOTE_MINIMAL: a cell holding a delimiter, quote or
    line break is wrapped in quotes, its own quotes doubled.

    Four substring tests over the block's joined text pass a block that
    needs no quoting as it is; otherwise the same four tests run per
    cell."""
    text = "".join(cells)
    if "," not in text and '"' not in text and "\n" not in text and "\r" not in text:
        return cells
    return [
        '"' + cell.replace('"', '""') + '"'
        if "," in cell or '"' in cell or "\n" in cell or "\r" in cell
        else cell
        for cell in cells
    ]


def _str_cells(cells: list, types: frozenset) -> list[str]:
    """A block of ``str`` cells, or ``str`` and ``None`` ones as its
    *types* say, as CSV text: ``None`` is ``""``."""
    if types <= PLAIN_STR:
        return _quoted(cells)
    return _quoted(["" if cell is None else cell for cell in cells])


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
    arrays = [frame[c]._shared_values() for c in names]  # views: read-only
    types = [frame[c]._subset_types() for c in names]
    for index, start in enumerate(range(0, n, chunk_rows)):
        stop = min(start + chunk_rows, n)
        piece = DataFrame()
        for name, values, known in zip(names, arrays, types):
            piece._columns[name] = Series._from_array(values[start:stop], name, known)
        yield Shard(piece, index, start)


# ----------------------------------------------------------------------
# Streaming CSV: block classifier, schema scan, bounded shard reader
# ----------------------------------------------------------------------
class _Seen(enum.Flag):
    """What a column's cells held, accumulated block by block."""

    NONE = 0
    OBJECT = enum.auto()  # a cell that is not empty, a bool or a number
    PRESENT = enum.auto()  # a non-empty cell
    NUMBER = enum.auto()  # an int or float cell
    FLOAT = enum.auto()  # a float cell
    MISSING = enum.auto()  # an empty cell
    WIDE = enum.auto()  # an int cell outside int64


def _block_flags(cells: tuple[str, ...]) -> _Seen:
    """Classify one column block of text cells (see the module docstring)."""
    n = len(cells)
    n_missing = cells.count("")
    seen = _Seen.MISSING if n_missing else _Seen.NONE
    if n_missing == n:
        return seen
    seen |= _Seen.PRESENT
    if n_missing + cells.count("True") + cells.count("False") == n:
        return seen
    joined = "\n".join(cells)
    if joined.count("\n") == n - 1:  # no cell holds a newline: a line is a cell
        if _INT_LINES.match(joined):
            return seen | _int_flags(cells)
        # A number line longer than an int cell may be an int-grammar
        # string, which only the per-cell path below tells apart.
        if _NUMBER_LINES.match(joined) and max(map(len, cells)) <= _INT_MAX_DIGITS:
            return seen | _Seen.NUMBER | _Seen.FLOAT
    if _verbatim(joined):
        return seen | _Seen.OBJECT
    number = floaty = wide = False  # a mixed block: plain flags per cell
    for cell in map(_parse_cell, cells):
        if cell is None or cell is True or cell is False:
            continue
        if type(cell) is str:
            return seen | _Seen.OBJECT
        number = True
        if type(cell) is float:
            floaty = True
        elif not _INT64_MIN <= cell <= _INT64_MAX:
            wide = True
    if number:
        seen |= _Seen.NUMBER
    if floaty:
        seen |= _Seen.FLOAT
    if wide:
        seen |= _Seen.WIDE
    return seen


def _int_flags(cells: tuple[str, ...]) -> _Seen:
    """Flags of a block whose every line is int-or-empty: only a cell
    too long for int64 is parsed, and one past ``_INT_MAX_DIGITS``
    digits is a string (:func:`_parse_int`)."""
    flags = _Seen.NUMBER
    if max(map(len, cells)) <= _INT64_SAFE_LEN:
        return flags
    for value in map(_parse_int, [text for text in cells if len(text) > _INT64_SAFE_LEN]):
        if type(value) is str:
            return _Seen.OBJECT
        if not _INT64_MIN <= value <= _INT64_MAX:
            flags |= _Seen.WIDE
    return flags


def _verbatim(joined: str) -> bool:
    """Whether no cell of a block, its cells *joined* with ``"\\n"``, is
    a number, ``True`` or ``False``: every present cell is a string kept
    verbatim (a cell holding ``"\\n"`` can only make a typed line appear,
    never hide one).

    When no line starts with a sign, a dot or a digit, and none is a
    bool spelling (:data:`_TYPED_LEAD`), no line can be typed; only
    otherwise does :data:`_TYPED_LINE` search, from the first such line.
    """
    text = "\n%s\n" % joined
    lead = _TYPED_LEAD.search(text)
    return lead is None or _TYPED_LINE.search(text, lead.start()) is None


def _see(seen: _Seen, cells: tuple[str, ...]) -> _Seen:
    """*seen* updated with one more block (a string already decides)."""
    return seen if _Seen.OBJECT in seen else seen | _block_flags(cells)


def _kind(seen: _Seen) -> str:
    """The :func:`~repro.dataframe.kernels.coercion_kind` of a column."""
    return coercion_kind(
        _Seen.OBJECT in seen,
        _Seen.PRESENT in seen,
        _Seen.NUMBER not in seen,
        _Seen.FLOAT in seen,
        _Seen.MISSING in seen,
        _Seen.WIDE in seen,
    )


#: Cells of a numeric column that ``int``/``float`` do not read directly.
_NUMBER_WORDS = {"": "nan", "True": "1", "False": "0"}
_BOOL_CELLS = {"": None, "True": True, "False": False}


def _decode_block(cells: tuple[str, ...], kind: str) -> tuple[np.ndarray, frozenset | None]:
    """One column block of text cells as an array of coercion *kind*,
    with its cell types when they are known (see ``Series.cell_types``).

    Equal to ``coerce_typed([_parse_cell(c) for c in cells], kind)``
    for every block the classifier gives *kind*.  A float column reads
    each cell through ``float(text)``, so an int text too long for a
    float reads as ``±inf``, as ``"1e400"`` does.  The kind ``"text"``
    keeps every cell as its text, an empty cell as ``None``.
    """
    if kind == "int":
        return _decode_numbers(cells, int, np.int64), None
    if kind == "float":
        values = _decode_numbers(cells, float, np.float64)
        for i in np.flatnonzero((values == 0) & np.signbit(values)).tolist():
            if _INT_CELL.match(cells[i]):  # "-0" is the int 0
                values[i] = 0.0
        return values, None
    if kind == "bool":
        return np.fromiter(map("True".__eq__, cells), bool, len(cells)), None
    if kind == "bool_missing":
        return np.array(list(map(_BOOL_CELLS.__getitem__, cells)), dtype=object), None
    if kind == "text" or _verbatim("\n".join(cells)):
        values = np.array(cells, dtype=object)
        if "" not in cells:
            return values, PLAIN_STR
        values[values == ""] = None
        return values, STR_OR_NONE
    return coerce_typed(list(map(_parse_cell, cells)), kind)


def _decode_numbers(cells: tuple[str, ...], parse, dtype) -> np.ndarray:
    """*cells* through *parse* (``int`` or ``float``) into *dtype*; empty
    and bool cells are respelled, and ints go through :func:`_parse_int`,
    only when a block holds a cell the plain call refuses."""
    try:
        return np.fromiter(map(parse, cells), dtype, len(cells))
    except ValueError:  # an empty or bool cell, or an int past int's limit
        texts = map(_NUMBER_WORDS.get, cells, cells)
        parse = _parse_int if parse is int else parse
        return np.fromiter(map(parse, texts), dtype, len(cells))


#: The fewest flags of each coercion kind (its floor): a column pinned to
#: a kind admits a block exactly when the floor and the block's flags
#: together still name that kind.
_FLOOR = {
    "int": _Seen.PRESENT | _Seen.NUMBER,
    "float": _Seen.PRESENT | _Seen.NUMBER | _Seen.FLOAT,
    "bool": _Seen.PRESENT,
    "bool_missing": _Seen.PRESENT | _Seen.MISSING,
    "empty": _Seen.NONE,
    "object": _Seen.OBJECT,
}
#: The characters a pinned int or float block's joined text may hold for
#: the decode's own ``int``/``float`` call to be its test: within them,
#: the call accepts exactly the strict grammar (neither strips whitespace
#: nor reads ``_``, ``nan`` or ``inf`` here).
_NUMBER_CHARS = {
    "int": re.compile(r"[0-9+\-\n]*\Z"),
    "float": re.compile(r"[0-9+\-.eE\n]*\Z"),
}


class CsvKindError(ValueError):
    """A CSV cell that its column's pinned kind does not admit: a blank
    or ``1.5`` in an int column, text in a float column …  Names the
    column, the kind and the 1-based data row (the header is row 0)."""

    def __init__(self, path, column: str, kind: str, row: int, cell: str) -> None:
        super().__init__(
            f"{path}: column {column!r} is pinned {kind}, but data row {row} holds {cell!r}"
        )
        self.column, self.kind, self.row, self.cell = column, kind, row, cell


def _decode_pinned(
    cells: tuple[str, ...], kind: str
) -> tuple[np.ndarray, frozenset | None, str | tuple[str, ...] | None] | None:
    """One block of a column pinned to *kind* (a coercion kind, or
    ``"text"``), decoded as :func:`_decode_block` does, with the block's
    text (see ``Series._csv_text``); ``None`` when a cell breaks the kind.

    An int or float block whose text holds only :data:`_NUMBER_CHARS`,
    one cell per line, is tested by decoding it: the ``int``/``float``
    parse accepts it exactly when the strict grammar does.  A block that
    fails that test, or of another kind, is classified
    (:func:`_block_flags`) and admitted when the kind's floor and its
    flags name the kind; an object column admits every block.

    The text of an int or float block is the joined string the test
    matched (an admitted number block has no cell holding a line break);
    an object block whose cells are not all strings keeps its cells; any
    other block's values are its text, and it keeps none.
    """
    chars = _NUMBER_CHARS.get(kind)
    text = None
    if chars is not None:
        text = "\n".join(cells)
        # A cell past _INT_MAX_DIGITS is a string, however float reads it.
        if (
            chars.match(text)
            and text.count("\n") == len(cells) - 1
            and (kind == "int" or max(map(len, cells)) <= _INT_MAX_DIGITS)
        ):
            try:
                return (*_decode_block(cells, kind), text)
            except (ValueError, OverflowError):  # a blank int, "1.2.3", past int64
                pass
    if kind in ("text", "object") or _kind(_FLOOR[kind] | _block_flags(cells)) == kind:
        values, types = _decode_block(cells, kind)
        if kind == "object" and not (types is not None and types <= STR_OR_NONE):
            text = cells
        return values, types, text
    return None


def _first_break(cells: tuple[str, ...], kind: str) -> int:
    """The offset of the first cell of a block that breaks its pinned
    *kind* (each kind's floor is broken by a single cell's flags)."""
    floor = _FLOOR[kind]
    return next(
        (i for i, cell in enumerate(cells) if _kind(floor | _block_flags((cell,))) != kind), 0
    )


def _column_blocks(rows: list[list[str]], width: int) -> list[tuple[str, ...]]:
    """A block of rows transposed to one tuple of cells per column: a
    short row's missing cells read as ``""``, extra cells are dropped."""
    if any(map(width.__ne__, map(len, rows))):
        rows = [(row + [""] * (width - len(row)))[:width] for row in rows]
    return list(zip(*rows))


def scan_csv_kinds(path: str | Path) -> dict[str, str]:
    """One streaming pass over a CSV → per-column coercion kind.

    Each kind is the :func:`~repro.dataframe.kernels.coercion_kind` the
    column's cells decode to, so feeding the result to
    :func:`read_csv_shards` pins every shard to the whole-file dtypes.
    Blocks are classified whole (:func:`_block_flags`); a column stops
    being classified once a string cell has made it ``object``.
    """
    with open(path, newline="", encoding=_READ_ENCODING) as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
        if header is None:
            return {}
        seen = [_Seen.NONE] * len(header)
        while rows := list(islice(reader, _BLOCK_ROWS)):
            seen = list(map(_see, seen, _column_blocks(rows, len(header))))
    return {name: _kind(flags) for name, flags in zip(header, seen)}


def read_csv_shards(
    path: str | Path,
    chunk_rows: int,
    schema: dict[str, str | None] | None = None,
    *,
    keep_text: bool = True,
) -> Iterator[Shard]:
    """Stream a headered CSV as :class:`Shard`\\ s of ≤ *chunk_rows* rows.

    Rows are read in blocks of at most ``_BLOCK_ROWS`` that never cross
    a shard boundary; each block is transposed and kept as raw text
    until the shard is complete, then every column decodes block by
    block by its kind.  A short row's missing cells read as missing,
    extra cells are ignored, and a blank line is an all-missing row.

    Without a schema each shard classifies its own blocks, so
    downstream consumers must tolerate dtype drift between shards
    (:func:`concat_shards` re-coerces).  A *schema* pins each column it
    names to a coercion kind, and every shard decodes to it wherever the
    boundaries fall; a cell the kind does not admit raises
    :class:`CsvKindError` naming the file's first such cell (the lowest
    row, then the leftmost column), whatever the chunking.  A column the
    schema maps to ``None`` classifies its own blocks per shard, and a
    column it does not name is kept as text (``"text"``: a present cell
    is its ``str``, an empty one ``None``).  The kinds of
    :func:`scan_csv_kinds` admit every cell, so with them each shard is
    bit-identical to the matching row slice of ``read_csv(path)``.

    A pinned int or float column keeps each block's text, and a pinned
    object column the text of each block whose cells are not all strings
    (``Series._csv_text``), so :func:`to_csv` writes every pinned cell as
    it was read: ``1e400`` stays ``1e400`` and ``1e999`` stays
    ``1e999``, where their value writes ``1e400``.  ``keep_text=False``
    keeps none, and a column then writes as its values do.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    with open(path, newline="", encoding=_READ_ENCODING) as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
        if not header:
            return
        blocks: list[list[tuple[str, ...]]] = []
        filled = index = start = 0
        while rows := list(islice(reader, min(chunk_rows - filled, _BLOCK_ROWS))):
            blocks.append(_column_blocks(rows, len(header)))
            filled += len(rows)
            if filled == chunk_rows:
                frame = _csv_shard_frame(path, header, blocks, schema, start, keep_text)
                yield Shard(frame, index, start)
                start += filled
                index += 1
                filled = 0
                blocks = []
        if filled:
            frame = _csv_shard_frame(path, header, blocks, schema, start, keep_text)
            yield Shard(frame, index, start)


def _csv_shard_frame(
    path: str | Path,
    header: list[str],
    blocks: list[list[tuple[str, ...]]],
    schema: dict[str, str | None] | None,
    start: int,
    keep_text: bool,
) -> DataFrame:
    """One shard's columns, decoded block by block (see
    :func:`read_csv_shards`); *start* is the shard's first data row."""
    out = DataFrame()
    breaks = []  # (row, column index, cell) of each column's first break
    for i, name in enumerate(header):
        column = [block[i] for block in blocks]
        kind = None if schema is None else schema.get(name, "text")
        if kind is None:
            kind = _kind(reduce(_see, column, _Seen.NONE))
            decoded = [(*_decode_block(cells, kind), None) for cells in column]
        else:
            decoded = []
            for cells in column:
                block = _decode_pinned(cells, kind)
                if block is None:
                    offset = start + sum(map(len, column[: len(decoded)]))
                    at = _first_break(cells, kind)
                    breaks.append((offset + at, i, cells[at]))
                    break
                decoded.append(block)
            if breaks:  # the shard fails: later columns are decoded for their breaks
                continue
        arrays, types, texts = zip(*decoded)
        values = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        known = None if None in types else frozenset().union(*types)
        if not keep_text or texts.count(None) == len(texts):
            texts = None
        out._columns[name] = Series._from_array(values, name, known, texts)
    if breaks:
        row, i, cell = min(breaks)
        raise CsvKindError(path, header[i], schema[header[i]], row + 1, cell)
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
