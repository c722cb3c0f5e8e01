"""Hypothesis property: the CSV round-trip contract over hostile cells.

``to_csv`` → ``read_csv``/``read_csv_shards`` is pinned against an
*independent* model of the cell contract (the strict parse grammar is
re-implemented here on purpose — loosening it in ``io.py`` without
updating this pin is a test failure, not a silent drift):

* booleans round-trip as booleans (``True``/``False`` spellings);
* ints and floats round-trip exactly (``repr`` round-trip; ±inf is
  written ``1e400``/``-1e400``, which the grammar reads back as ±inf);
* ``None``/NaN write as empty cells and read back as missing;
* strings survive verbatim **unless** they spell a strict numeric
  literal or a bool literal — ``"007"``-style numeric-looking strings
  coerce to numbers (the documented lossiness) — while NaN/inf
  spellings, underscore separators, and whitespace-padded numbers all
  stay strings (the PR-10 bugfixes);
* dtype fidelity: the frame read back coerces exactly like an in-memory
  frame built from the modelled cells, whatever the chunking, and every
  schema-pinned shard matches the whole-file dtypes.

The block writer is also pinned byte for byte against a row-at-a-time
oracle writer kept in this file, and the block decoder cell for cell
against the per-cell decoder it replaced (``oracle_read_csv_shards``).
"""

import csv
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe.io import (
    _parse_cell,
    concat_shards,
    iter_frame_shards,
    read_csv_shards,
    scan_csv_kinds,
    to_csv,
)
from repro.dataframe.kernels import coerce_listlike, coercion_kind
from repro.serve import frames_identical

# ----------------------------------------------------------------------
# The contract model (independent re-statement of the strict grammar)
# ----------------------------------------------------------------------
_MODEL_INT = re.compile(r"[+-]?[0-9]+\Z")
_MODEL_FLOAT = re.compile(
    r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?\Z"
)
INF = float("inf")


def model_cell(value):
    """What one written cell must read back as, per the contract."""
    if value is None or (isinstance(value, float) and value != value):
        return None  # missing writes as an empty cell
    if isinstance(value, bool):
        return value  # "True"/"False" spellings round-trip
    if isinstance(value, (int, float)):
        return value  # repr round-trip is exact; ±inf writes as ±1e400
    text = str(value)
    if text == "":
        return None  # empty string is indistinguishable from missing
    if _MODEL_INT.match(text):
        return int(text)  # documented lossiness: "007" -> 7
    if _MODEL_FLOAT.match(text):
        return float(text)
    if text == "True":
        return True
    if text == "False":
        return False
    return text  # everything else survives verbatim — incl. "nan", " 3 ", "1_000"


def expected_frame(columns: dict) -> DataFrame:
    return DataFrame(
        {name: Series([model_cell(v) for v in cells]) for name, cells in columns.items()}
    )


# ----------------------------------------------------------------------
# Hostile cell strategies
# ----------------------------------------------------------------------
HOSTILE_STRINGS = [
    "nan", "NaN", "NAN", "inf", "-inf", "Infinity", "-Infinity",  # NaN/inf spellings
    "1_000", "1_0.5", "1e1_0",  # underscore separators
    " 3 ", "3 ", " 3", "\t7", "2.5 ",  # whitespace padding
    "007", "+7", "-0", "1e3", "5.", ".5", "2.5e-3",  # numeric-looking (coerce)
    "True", "False", "true", "FALSE",  # bool spellings (exact two coerce)
    "", "x", "0x10", "1.2.3", "--5", "+", ".", "e5", "a,b", 'q"uote',
]

cell = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(HOSTILE_STRINGS),
    st.text(
        alphabet="abcXYZ019 _.,+-eE\"'",
        max_size=8,
    ),
)


@st.composite
def hostile_table(draw):
    n_rows = draw(st.integers(1, 30))
    n_cols = draw(st.integers(1, 4))
    return {
        f"c{i}": draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        for i in range(n_cols)
    }


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(hostile_table())
def test_roundtrip_matches_the_model(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    to_csv(DataFrame({k: Series(v) for k, v in columns.items()}), path)
    identical, detail = frames_identical(read_csv(path), expected_frame(columns))
    assert identical, detail


@settings(max_examples=60, deadline=None)
@given(hostile_table(), st.integers(1, 31))
def test_schema_pinned_shards_match_whole_file(tmp_path_factory, columns, chunk):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    to_csv(DataFrame({k: Series(v) for k, v in columns.items()}), path)
    whole = read_csv(path)
    schema = scan_csv_kinds(path)
    shards = list(read_csv_shards(path, chunk, schema=schema))
    # every shard is bit-identical to the matching row slice, dtype included
    offset = 0
    for shard in shards:
        expect = whole.iloc[offset : offset + len(shard)]
        identical, detail = frames_identical(shard.frame, expect)
        assert identical, (chunk, detail)
        offset += len(shard)
    identical, detail = frames_identical(concat_shards(shards), whole)
    assert identical, detail


@settings(max_examples=40, deadline=None)
@given(hostile_table(), st.integers(1, 17))
def test_chunked_append_writes_identical_bytes(tmp_path_factory, columns, chunk):
    base = tmp_path_factory.mktemp("csv")
    frame = DataFrame({k: Series(v) for k, v in columns.items()})
    whole_path, inc_path = base / "whole.csv", base / "inc.csv"
    to_csv(frame, whole_path)
    for i, shard in enumerate(iter_frame_shards(frame, chunk)):
        to_csv(shard.frame, inc_path, append=i > 0)
    assert inc_path.read_bytes() == whole_path.read_bytes()


def test_infinite_float_values_round_trip_as_floats(tmp_path):
    """The strict grammar has no ``inf`` word, so ±inf is written
    ``1e400``/``-1e400``, which read back as ±inf: a float column stays
    float, and an object column keeps its float cells."""
    path = tmp_path / "t.csv"
    frame = DataFrame(
        {"f": Series([INF, -INF, 1.0]), "o": object_series([INF, "x", -INF])}
    )
    to_csv(frame, path)
    assert path.read_text().splitlines() == ["f,o", "1e400,1e400", "-1e400,x", "1.0,-1e400"]
    back = read_csv(path)
    assert back["f"].values.dtype == np.float64
    assert back["f"].tolist() == [INF, -INF, 1.0]
    assert back["o"].tolist() == [INF, "x", -INF]


def test_read_then_write_keeps_an_overflowing_float_column_float(tmp_path):
    """``read_csv`` → ``to_csv`` → ``read_csv`` of a float column holding
    ``1e400`` (read as inf) reads the same floats back, not ``"inf"``."""
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("f,g\n1e400,1\n-1e999,2\n2.5,3\n")
    read = read_csv(first)
    to_csv(read, second)
    back = read_csv(second)
    assert back["f"].values.dtype == np.float64
    assert back["f"].tolist() == read["f"].tolist() == [INF, -INF, 2.5]
    identical, detail = frames_identical(back, read)
    assert identical, detail


# ----------------------------------------------------------------------
# Writer bytes: the columnar ``to_csv`` against a row-at-a-time oracle
# ----------------------------------------------------------------------
def oracle_to_csv(frame: DataFrame, path, *, append: bool = False) -> None:
    """One ``writerow`` per row: numpy scalars unboxed with ``.item()``,
    ``None`` and NaN written as empty cells, header unless appending."""
    names = frame.columns
    columns = [
        [v.item() if isinstance(v, np.generic) else v for v in frame[name].values]
        for name in names
    ]
    with open(path, "a" if append else "w", newline="") as handle:
        writer = csv.writer(handle)
        if not append:
            writer.writerow(names)
        for row in zip(*columns):
            writer.writerow([oracle_cell(v) for v in row])


def oracle_cell(value):
    """``None`` and NaN as empty cells; ±inf in the grammar's spelling."""
    if value is None or value != value:
        return ""
    if isinstance(value, float) and value in (INF, -INF):
        return "1e400" if value > 0 else "-1e400"
    return value


def assert_writer_matches_oracle(base, frame: DataFrame) -> None:
    got, want = base / "got.csv", base / "want.csv"
    to_csv(frame, got)
    oracle_to_csv(frame, want)
    assert got.read_bytes() == want.read_bytes()
    to_csv(frame, got, append=True)
    oracle_to_csv(frame, want, append=True)
    assert got.read_bytes() == want.read_bytes()


def object_series(values: list) -> Series:
    """An object column holding *values* exactly as given (numpy scalars
    stay boxed, ``None`` and NaN both kept)."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return Series._from_array(array)


@settings(max_examples=80, deadline=None)
@given(hostile_table())
def test_writer_bytes_match_the_row_oracle(tmp_path_factory, columns):
    frame = DataFrame({k: Series(v) for k, v in columns.items()})
    assert_writer_matches_oracle(tmp_path_factory.mktemp("csv"), frame)


@pytest.mark.parametrize(
    "columns",
    [
        {"b": Series([True, False, True])},
        {"f": Series([-0.0, float("inf"), float("-inf"), 1e300, 5e-324, float("nan")])},
        {"s": Series(["nan", "x"]), "o": object_series([None, float("nan")])},
        {"o": object_series([np.float64(2.5), np.float32(0.1), np.int64(7), np.bool_(True), np.float64("nan")])},
        {"s": Series(["a,b", 'q"uote', "line\nbreak", "cr\rlf"])},
        {"one": object_series(["", None, "x"])},
        {"one": Series([1.5, float("nan")])},
        {"a": Series._from_array(np.empty(0)), "b": object_series([])},
    ],
    ids=[
        "bools", "float-edges", "nan-string-none-vs-nan", "numpy-scalars-in-object",
        "comma-quote-newline", "one-column-empty-cell", "one-column-nan", "zero-rows",
    ],
)
def test_writer_bytes_pinned_cases(tmp_path, columns):
    assert_writer_matches_oracle(tmp_path, DataFrame(columns))


def test_boxed_numpy_scalars_write_as_their_python_values(tmp_path):
    """Object-column numpy scalars are unboxed before writing: the writer
    would format a boxed ``np.float32(0.1)`` with ``str`` as ``0.1``."""
    path = tmp_path / "t.csv"
    cells = [np.float64(2.5), np.float32(0.1), np.int64(7), np.bool_(False)]
    to_csv(DataFrame({"o": object_series(cells)}), path)
    assert path.read_text() == "o\n2.5\n0.10000000149011612\n7\nFalse\n"


def test_one_column_empty_cell_is_quoted(tmp_path):
    """The C writer's quoting defines the bytes: a one-column row holding
    an empty cell is written as ``""`` so it is not read as a blank line."""
    path = tmp_path / "t.csv"
    to_csv(DataFrame({"a": Series([1.0, None])}), path)
    assert path.read_bytes() == b'a\r\n1.0\r\n""\r\n'


@pytest.mark.parametrize("n_rows", [4095, 4096, 4097])
def test_writer_bytes_across_write_blocks(tmp_path, n_rows):
    i = np.arange(n_rows)
    x = (i * 0.37) - 500.0
    x[i % 11 == 0] = np.nan
    frame = DataFrame({
        "i": Series(i * 7 - 300),
        "x": Series(x),
        "b": Series(i % 3 == 0),
        "s": Series([f"s{v % 13}" if v % 5 else None for v in range(n_rows)]),
        "q": Series(["a,b" if v == n_rows - 1 else "plain" for v in range(n_rows)]),
    })
    assert_writer_matches_oracle(tmp_path, frame)


def _nan(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize(
    "columns",
    [
        {"z": Series([0.0, -0.0, 0.0, -0.0, 1.0])},
        {"n": Series._from_array(np.array(
            [_nan(0x7FF8000000000001), 1.5, _nan(0xFFF8000000000000),
             _nan(0x7FF0000000000001), float("nan")]
        ))},
        {"b": Series([True, False, False]), "c": Series([False, False, False])},
        {"one": Series(np.where(np.arange(8200) % 4096 < 2, np.nan, 1.25))},
        {"o": Series(["x"] * 5000 + ['q"uote', "line\nbreak", "cr\rlf"] + ["y"] * 10)},
    ],
    ids=[
        "signed-zeros", "nan-payloads", "bool-columns",
        "one-column-missing-across-blocks", "first-quote-in-a-later-block",
    ],
)
def test_writer_bytes_block_cases(tmp_path, columns):
    assert_writer_matches_oracle(tmp_path, DataFrame(columns))


# ----------------------------------------------------------------------
# Decoder: the block codec against the per-cell decoder it replaced
# ----------------------------------------------------------------------
def oracle_scan_csv_kinds(path) -> dict[str, str]:
    """The fused per-cell scan: one ``_parse_cell`` and one flag update
    per cell until a string forces the column to object."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return {}
        n = len(header)
        forced, missing, present, floaty, nonbool, wide = ([False] * n for _ in range(6))
        for row in reader:
            for i in range(n):
                if forced[i]:
                    continue
                cell = _parse_cell(row[i]) if i < len(row) else None
                if cell is None:
                    missing[i] = True
                elif isinstance(cell, bool):
                    present[i] = True
                elif isinstance(cell, (int, float)):
                    present[i] = nonbool[i] = True
                    floaty[i] = floaty[i] or isinstance(cell, float)
                    if isinstance(cell, int) and not -(2**63) <= cell < 2**63:
                        wide[i] = True
                else:
                    forced[i] = True
    return {
        name: coercion_kind(forced[i], present[i], not nonbool[i], floaty[i], missing[i], wide[i])
        for i, name in enumerate(header)
    }


def oracle_read_csv_shards(path, chunk_rows: int, schema=None):
    """``_parse_cell`` per cell, then ``coerce_listlike`` per shard column
    (pinned to *schema*'s kind when given)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            return
        width = len(header)

        def frame(buffers):
            return DataFrame({
                name: Series._from_array(
                    coerce_listlike(cells, None if schema is None else schema[name]), name
                )
                for name, cells in zip(header, buffers)
            })

        buffers = [[] for _ in header]
        for n_read, row in enumerate(reader, start=1):
            row = (row + [""] * (width - len(row)))[:width]
            for buffer, text in zip(buffers, row):
                buffer.append(_parse_cell(text))
            if n_read % chunk_rows == 0:
                yield frame(buffers)
                buffers = [[] for _ in header]
        if buffers[0]:
            yield frame(buffers)


def assert_bit_identical(got: DataFrame, want: DataFrame) -> None:
    """Same columns, dtypes, float bits, and cell types and values."""
    assert got.columns == want.columns
    for name in got.columns:
        a, b = got[name].values, want[name].values
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        if a.dtype.kind == "f":
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        elif a.dtype == object:
            assert [type(v) for v in a] == [type(v) for v in b], name
            assert [repr(v) for v in a] == [repr(v) for v in b], name
        else:
            assert np.array_equal(a, b), name


RAW_CELLS = [
    "", "0", "12", "-3", "+7", "007", "-0", "-00", "9007199254740993",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "1" + "0" * 308, "-" + "9" * 309,
    "1.5", "-0.0", "+.5", "5.", ".5", "1e3", "2.5E-3", "1e400",
    "1_000", "nan", "inf", "-inf", " 3 ", "3 ", "\t7",
    "True", "False", "true", "x", "e5", ".", "+", "--5",
    "a,b", 'q"uote', "line\nbreak", "cr\rlf", "5\n6", "\n", "\r", "7\r",
]

raw_cell = st.one_of(
    st.sampled_from(RAW_CELLS),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(alphabet="ab019 _.,+-eE\"\n\r", max_size=6),
)

#: Rows of uniform cells for a column kind, laid before the drawn rows so
#: a column can be settled by a whole block and upset by a later one.
FILLERS = {
    "int": lambda i: str(i % 97 - 40),
    "float": lambda i: f"{i % 89}.25" if i % 9 else "",
    "bool": lambda i: "True" if i % 3 else "False",
    "str": lambda i: f"s{i % 7}" if i % 5 else "",
    "empty": lambda i: "",
}

CHUNKINGS = [1, 2, 7, 4095, 4096, 4097, sys.maxsize]


@st.composite
def raw_csv_rows(draw):
    """A header and data rows: hostile cells, ragged rows, blank lines."""
    n_cols = draw(st.integers(1, 4))
    drawn = draw(st.lists(
        st.one_of(
            st.lists(raw_cell, min_size=n_cols, max_size=n_cols),
            st.lists(raw_cell, min_size=0, max_size=n_cols + 2),  # ragged or blank
        ),
        min_size=1,
        max_size=20,
    ))
    n_filler = draw(st.sampled_from([0, 0, 4090, 4096]))
    kinds = draw(st.lists(st.sampled_from(sorted(FILLERS)), min_size=n_cols, max_size=n_cols))
    filler = [[FILLERS[kind](i) for kind in kinds] for i in range(n_filler)]
    return [f"c{i}" for i in range(n_cols)], filler + drawn


def assert_decoder_matches_oracle(path, chunk: int, pinned: bool) -> None:
    kinds = scan_csv_kinds(path)
    assert kinds == oracle_scan_csv_kinds(path)
    schema = kinds if pinned else None
    got = list(read_csv_shards(path, chunk, schema))
    want = list(oracle_read_csv_shards(path, chunk, schema))
    assert len(got) == len(want)
    for shard, expect in zip(got, want):
        assert_bit_identical(shard.frame, expect)
    assert_bit_identical(read_csv(path), next(oracle_read_csv_shards(path, sys.maxsize)))


def write_raw_csv(path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@settings(max_examples=60, deadline=None)
@given(raw_csv_rows(), st.sampled_from(CHUNKINGS), st.booleans())
def test_block_decoder_matches_the_per_cell_oracle(tmp_path_factory, table, chunk, pinned):
    header, rows = table
    if len(rows) > 1000 and chunk < 7:
        chunk = 7  # thousands of one-row shards add time, not coverage
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_raw_csv(path, header, rows)
    assert_decoder_matches_oracle(path, chunk, pinned)


@pytest.mark.parametrize(
    "column",
    [
        ["1", "5\n6", "2"],
        ["1.5", "2\n.5", ""],
        ["3", "\n", "4"],
        ["7\r", "8"],
        ["True", "True\nFalse", ""],
        ["x\n5", "y", ""],
        ["-0", "1.5", "-0.0", "-00", ""],
        ["-0", "0", "+0"],
        ["True", "2", "False"],
        ["True", "2.5", ""],
        ["True", "", "x"],
        ["", "", ""],
    ],
    ids=[
        "newline-in-ints", "newline-in-floats", "lone-newline-in-ints", "cr-after-int",
        "newline-in-bools", "newline-before-number", "negative-zero-ints-in-floats",
        "signed-zero-ints", "bools-in-ints", "bools-in-floats", "bools-and-strings",
        "all-empty",
    ],
)
@pytest.mark.parametrize("pinned", [False, True], ids=["inferred", "schema"])
def test_block_decoder_pinned_cases(tmp_path, column, pinned):
    """Each case alone, and after 4095 int rows so that it straddles a
    block boundary."""
    for n_filler, chunk in ((0, 2), (0, sys.maxsize), (4095, 4095), (4095, sys.maxsize)):
        path = tmp_path / f"t{n_filler}.csv"
        write_raw_csv(path, ["a"], [[str(i)] for i in range(n_filler)] + [[c] for c in column])
        assert_decoder_matches_oracle(path, chunk, pinned)
