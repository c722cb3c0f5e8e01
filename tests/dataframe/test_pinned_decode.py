"""Decoding a CSV against pinned column kinds (``read_csv_shards(schema=...)``).

A column pinned to a coercion kind admits a cell exactly when the kind
would still be the column's kind with that cell in it; a cell it does
not admit raises :class:`~repro.dataframe.io.CsvKindError` naming the
file's first such cell (lowest row, then leftmost column), whatever the
chunking.  The admission rule is re-stated here per cell, on the value
the model of the strict cell grammar reads from each cell's text
(``test_csv_roundtrip_property.model_cell``), independently of the
block classifier.  A column the schema does not
name is kept as its CSV text.
"""

import csv
import functools
import itertools
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_csv_roundtrip_property import hostile_table, model_cell

from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe import io
from repro.dataframe.io import CsvKindError, concat_shards, read_csv_shards, scan_csv_kinds, to_csv
from repro.dataframe.kernels import PLAIN_STR, STR_OR_NONE
from repro.serve import frames_identical

KINDS = ("int", "float", "bool", "bool_missing", "empty", "object")
CHUNKS = (1, 2, 7, 2000, sys.maxsize)
_INT64 = (-(2**63), 2**63 - 1)


def admits(kind: str, value) -> bool:
    """Whether a column of *kind* keeps its kind with a cell reading
    *value* in it (``None`` is an empty cell)."""
    if kind == "object":
        return True
    if kind == "empty":
        return value is None
    if isinstance(value, bool):
        return kind in ("int", "float", "bool", "bool_missing")
    if kind == "bool_missing":
        return value is None
    if kind == "int":
        return type(value) is int and _INT64[0] <= value <= _INT64[1]
    if kind == "float":
        return value is None or type(value) in (int, float)
    return False  # bool


def first_break(path, schema: dict):
    """(row, column) of the first cell of the CSV at *path* that a pinned
    column does not admit, rows 1-based and the leftmost column first on
    a tie, or ``None``.  Each cell's text is read by the model grammar."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    breaks = [
        (row, position, name)
        for position, name in enumerate(header)
        if name in schema
        for row, cells in enumerate(rows, start=1)
        if not admits(schema[name], model_cell(cells[position]))
    ]
    return min(breaks)[::2] if breaks else None


def read_pinned(path, chunk_rows, schema):
    """``(frame, None)`` or ``(None, (row, column))`` of the break."""
    try:
        return concat_shards(read_csv_shards(path, chunk_rows, schema)), None
    except CsvKindError as exc:
        return None, (exc.row, exc.column)


def _write(tmp_path, text: str):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return path


# ----------------------------------------------------------------------
# The property: one answer for every chunking, the model's
# ----------------------------------------------------------------------
@st.composite
def pinned_tables(draw):
    columns = draw(hostile_table())
    pins = {name: draw(st.sampled_from((*KINDS, "scanned"))) for name in columns}
    return columns, pins


@settings(max_examples=120, deadline=None)
@given(pinned_tables())
def test_every_chunking_decodes_or_breaks_alike(tmp_path_factory, table):
    columns, pins = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    to_csv(DataFrame({k: Series(v) for k, v in columns.items()}), path)
    scanned = scan_csv_kinds(path)
    schema = {name: scanned[name] if pin == "scanned" else pin for name, pin in pins.items()}
    expected_break = first_break(path, schema)
    results = [read_pinned(path, chunk, schema) for chunk in CHUNKS]
    if expected_break is not None:
        assert [broke for _, broke in results] == [expected_break] * len(CHUNKS)
        return
    frames = [frame for frame, _ in results]
    for frame in frames[1:]:
        identical, detail = frames_identical(frame, frames[0])
        assert identical, detail
    whole = read_csv(path)
    for name in columns:
        if scanned[name] == schema[name]:
            identical, detail = frames_identical(
                frames[0].column_view([name]), whole.column_view([name])
            )
            assert identical, (name, schema[name], detail)


def test_scanned_kinds_admit_every_block():
    """Each kind's floor joined with any subset of a column's flags
    names the column's kind, so a scanned schema never breaks."""
    seen = io._Seen
    flags = [seen.OBJECT, seen.PRESENT, seen.NUMBER, seen.FLOAT, seen.MISSING, seen.WIDE]
    subsets = [
        functools.reduce(operator.or_, chosen, seen.NONE)
        for r in range(len(flags) + 1)
        for chosen in itertools.combinations(flags, r)
    ]
    for column in subsets:
        kind = io._kind(column)
        for part in (s for s in subsets if s & column == s):
            assert io._kind(io._FLOOR[kind] | part) == kind, (column, part)


# ----------------------------------------------------------------------
# Break cases
# ----------------------------------------------------------------------
BREAKS = [
    ("int", "1", ""),
    ("int", "1", "1.5"),
    ("int", "1", "1_000"),
    ("int", "1", "99999999999999999999"),
    ("float", "1.5", "nan"),
    ("float", "1.5", "inf"),
    ("bool", "True", ""),
    ("bool", "True", "1"),
    ("bool_missing", "False", "0"),
    ("empty", "", "x"),
]


@pytest.mark.parametrize("kind, good, bad", BREAKS)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_a_cell_that_breaks_its_kind_names_column_and_row(tmp_path, kind, good, bad, chunk):
    path = _write(tmp_path, "c,d\n" + "".join(f"{good},z\n" for _ in range(4)) + f"{bad},z\n")
    with pytest.raises(CsvKindError) as excinfo:
        list(read_csv_shards(path, chunk, {"c": kind}))
    error = excinfo.value
    assert (error.column, error.kind, error.row, error.cell) == ("c", kind, 5, bad)
    assert f"column 'c' is pinned {kind}, but data row 5 holds {bad!r}" in str(error)


def test_a_break_past_the_first_block_names_its_row(tmp_path):
    rows = ["7"] * 9000
    rows[8500] = "7.5"
    path = _write(tmp_path, "c\n" + "\n".join(rows) + "\n")
    for chunk in (1000, 4096, sys.maxsize):
        with pytest.raises(CsvKindError, match="data row 8501 holds '7.5'"):
            list(read_csv_shards(path, chunk, {"c": "int"}))


@pytest.mark.parametrize("chunk", CHUNKS)
def test_the_lowest_row_wins_then_the_leftmost_column(tmp_path, chunk):
    path = _write(tmp_path, "a,b,c\n1,1,1\n1,1,x\n1,x,1\nx,1,1\n")
    schema = {"a": "int", "b": "int", "c": "int"}
    assert read_pinned(path, chunk, schema)[1] == (2, "c")
    path = _write(tmp_path, "a,b,c\n1,1,1\n1,x,x\n")
    assert read_pinned(path, chunk, schema)[1] == (2, "b")


# ----------------------------------------------------------------------
# What a pinned decode reads
# ----------------------------------------------------------------------
def test_unnamed_columns_keep_their_csv_text(tmp_path):
    path = _write(tmp_path, "x,Target,extra\n1,0,a\n2,1.50,\n3,007,\"q,r\"\n4,,True\n")
    for chunk in CHUNKS:
        frame = concat_shards(read_csv_shards(path, chunk, {"x": "int"}))
        assert frame["Target"].tolist() == ["0", "1.50", "007", None]
        assert frame["extra"].tolist() == ["a", None, "q,r", "True"]
        assert frame["Target"].values.dtype == object
        assert frame["x"].values.dtype == np.int64
    assert frame["Target"].cell_types() <= STR_OR_NONE
    out = tmp_path / "out.csv"
    to_csv(frame, out)
    with open(path, newline="") as a, open(out, newline="") as b:
        assert [row[1:] for row in csv.reader(a)] == [row[1:] for row in csv.reader(b)]


def test_a_column_pinned_to_none_reads_its_own_kind(tmp_path):
    path = _write(tmp_path, "x,y\n1,2\n2,2.5\n")
    shards = list(read_csv_shards(path, 1, {"x": "int", "y": None}))
    assert [s.frame["y"].values.dtype for s in shards] == [np.int64, np.float64]


def test_a_plain_text_block_knows_its_cell_types(tmp_path):
    path = _write(tmp_path, "t\na\nb\n")
    frame = concat_shards(read_csv_shards(path, 2, {}))
    assert frame["t"].cell_types() <= PLAIN_STR


def test_clean_number_blocks_skip_the_classifier(tmp_path, monkeypatch):
    """An int or float block is tested by its own decode, never by the
    per-block classifier or a per-cell pass."""
    rows = [f"{i},{i * 0.25},{'' if i % 7 == 0 else -i}" for i in range(5000)]
    path = _write(tmp_path, "i,f,g\n" + "\n".join(rows) + "\n")
    calls = []
    classify = io._block_flags
    monkeypatch.setattr(
        io, "_block_flags", lambda cells: calls.append(len(cells)) or classify(cells)
    )
    schema = {"i": "int", "f": "float", "g": "float"}
    frame = concat_shards(read_csv_shards(path, 2000, schema))
    assert calls == []
    monkeypatch.undo()
    identical, detail = frames_identical(frame, read_csv(path))
    assert identical, detail
