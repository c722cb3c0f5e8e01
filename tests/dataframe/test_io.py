"""Unit tests for :mod:`repro.dataframe.io`."""

import csv
import sys

import numpy as np
import pytest

from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe.io import (
    _parse_cell,
    concat_shards,
    read_csv_shards,
    scan_csv_kinds,
    to_csv,
)
from repro.serve import frames_identical


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        df = DataFrame({"name": ["a", "b"], "x": [1, 2], "y": [1.5, None]})
        path = tmp_path / "data.csv"
        to_csv(df, path)
        back = read_csv(path)
        assert back.columns == ["name", "x", "y"]
        assert back["x"].tolist() == [1, 2]
        assert back["y"].isna().tolist() == [False, True]

    def test_type_inference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2.5,hello\n2,3.5,world\n")
        df = read_csv(path)
        assert df["a"].tolist() == [1, 2]
        assert df["b"].tolist() == [2.5, 3.5]
        assert df["c"].tolist() == ["hello", "world"]

    def test_short_rows_padded(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n")
        df = read_csv(path)
        assert df["b"].isna().tolist() == [True]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        assert read_csv(path).empty
        assert read_csv(path).columns == []
        assert list(read_csv_shards(path, 4)) == []

    def test_header_only_file_is_a_zero_row_frame(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        df = read_csv(path)
        assert df.columns == ["a", "b"]
        assert len(df) == 0
        assert list(read_csv_shards(path, 4)) == []


@pytest.mark.parametrize(
    "reader",
    [read_csv, scan_csv_kinds, lambda path: list(read_csv_shards(path, 1))],
    ids=["read_csv", "scan_csv_kinds", "read_csv_shards"],
)
def test_duplicate_header_names_are_refused_by_name(tmp_path, reader):
    """Columns are keyed by header name, so a repeated name must fail
    loudly instead of dropping all but one of its columns."""
    path = tmp_path / "dup.csv"
    path.write_text("a,a,b,c,b\n1,2,3,4,5\n6,7,8,9,10\n")
    with pytest.raises(ValueError, match="duplicate column name.*'a', 'b'"):
        reader(path)


class TestStrictCellGrammar:
    """Regression suite for the ``_parse_cell`` grammar tightening.

    Python's ``int()``/``float()`` accept spellings CSV must not: digit
    underscores, NaN/inf words, and surrounding whitespace all used to
    coerce silently, corrupting string columns (``"1_000"`` became the
    int 1000; the literal string ``"nan"`` became missing).  The strict
    grammar only accepts plain decimal literals.
    """

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("+7", 7),
            ("-0", 0),
            ("007", 7),  # documented lossiness: leading zeros coerce
            ("2.5", 2.5),
            ("5.", 5.0),
            (".5", 0.5),
            ("1e3", 1000.0),
            ("-2.5E-3", -0.0025),
            ("True", True),
            ("False", False),
            ("", None),
        ],
    )
    def test_strict_grammar_accepts(self, text, expected):
        got = _parse_cell(text)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "text",
        [
            "1_000", "1_0.5", "1e1_0",  # underscore separators
            "nan", "NaN", "NAN", "inf", "-inf", "Inf", "Infinity", "-Infinity",
            " 3", "3 ", " 3 ", "\t7", "2.5 ", " 2.5",  # padded whitespace
            "true", "FALSE", "TRUE",  # only the exact repr spellings are bools
            "0x10", "1j", "--5", "++1", "+", "-", ".", "e5", "1.2.3",
        ],
    )
    def test_strict_grammar_keeps_strings(self, text):
        assert _parse_cell(text) == text

    def test_rejected_spellings_stay_strings_through_read_csv(self, tmp_path):
        """End to end: a column of once-coercing spellings reads back as
        the verbatim strings, as an object column."""
        path = tmp_path / "t.csv"
        path.write_text('s\nnan\n1_000\n" 3 "\nInfinity\n')
        back = read_csv(path)
        assert back["s"].values.dtype == object
        assert back["s"].tolist() == ["nan", "1_000", " 3 ", "Infinity"]

    def test_scan_kinds_agrees_with_parser(self, tmp_path):
        """``scan_csv_kinds`` must classify with the same grammar the
        parser uses — a NaN-spelling column is object, not float."""
        path = tmp_path / "t.csv"
        path.write_text("a,b\nnan,1\n1_000,2.5\n")
        kinds = scan_csv_kinds(path)
        assert kinds["a"] == "object"
        assert kinds["b"] == "float"


class TestBoolRoundtrip:
    """Regression suite for the bool serialization bugfix: ``to_csv``
    writes ``True``/``False`` and ``read_csv`` restores real bools."""

    def test_pure_bool_column(self, tmp_path):
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"flag": Series([True, False, True])}), path)
        assert path.read_text() == "flag\nTrue\nFalse\nTrue\n"
        back = read_csv(path)
        assert back["flag"].values.dtype == np.dtype(bool)
        assert back["flag"].tolist() == [True, False, True]

    def test_bool_with_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"flag": Series([True, None, False])}), path)
        back = read_csv(path)
        assert back["flag"].values.dtype == object
        assert back["flag"].tolist() == [True, None, False]

    def test_bool_mixed_with_numbers_coerces_like_memory(self, tmp_path):
        """A column mixing bools and ints round-trips to the same dtype
        the in-memory constructor picks (int, bools as 0/1)."""
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"m": Series([True, 2, False])}), path)
        back = read_csv(path)
        want = Series([True, 2, False]).values
        assert back["m"].values.dtype == want.dtype
        assert np.array_equal(back["m"].values, want)

    def test_scan_kinds_bool_and_bool_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("p,q\nTrue,True\nFalse,\n")
        kinds = scan_csv_kinds(path)
        assert kinds["p"] == "bool"
        assert kinds["q"] == "bool_missing"

    def test_numeric_looking_string_lossiness_pinned(self, tmp_path):
        """The documented round-trip edge: a *string* that spells a
        strict numeric literal cannot be told apart from the number once
        written, so it reads back as the number."""
        path = tmp_path / "t.csv"
        to_csv(DataFrame({"s": Series(["007", "x"])}), path)
        back = read_csv(path)
        assert back["s"].tolist() == [7, "x"]


class TestDecodeBlockBoundaries:
    """The decoder reads rows in bounded blocks that never cross a shard
    boundary; shards must not depend on where those blocks fall."""

    CHUNKS = [1, 7, 4095, 4096, 4097, 10_000, sys.maxsize]
    N_ROWS = 10_000

    @pytest.fixture(scope="class")
    def big_csv(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        n = self.N_ROWS
        x = rng.normal(size=n)
        x[rng.random(n) < 0.1] = np.nan
        frame = DataFrame({
            "i": Series(rng.integers(-1000, 1000, size=n)),
            "x": Series(x),
            "s": Series([f"s{v}" if v % 5 else None for v in range(n)]),
            "b": Series(rng.random(n) < 0.5),
        })
        path = tmp_path_factory.mktemp("csv") / "big.csv"
        to_csv(frame, path)
        return path

    @pytest.fixture(scope="class")
    def ragged_csv(self, tmp_path_factory):
        """Ragged rows (short, long, blank) on both sides of the first block."""
        lines = ["a,b,c"]
        for i in range(self.N_ROWS):
            if i % 997 == 3:
                lines.append(f"{i}")  # short row
            elif i % 1009 == 5:
                lines.append(f"{i},x,1.5,extra,cells")  # long row
            elif i % 1013 == 7:
                lines.append("")  # blank line
            else:
                lines.append(f"{i},y{i % 3},{i / 4}")
        path = tmp_path_factory.mktemp("csv") / "ragged.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    @pytest.mark.parametrize("pinned", [False, True], ids=["inferred", "schema"])
    def test_shards_concat_to_read_csv(self, big_csv, chunk_rows, pinned):
        schema = scan_csv_kinds(big_csv) if pinned else None
        shards = list(read_csv_shards(big_csv, chunk_rows, schema))
        expect_start = 0
        for index, shard in enumerate(shards):
            assert (shard.index, shard.start) == (index, expect_start)
            assert 1 <= len(shard) <= chunk_rows
            expect_start += len(shard)
        assert expect_start == self.N_ROWS
        identical, detail = frames_identical(concat_shards(shards), read_csv(big_csv))
        assert identical, detail

    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_ragged_rows_decode_the_same_at_every_chunking(self, ragged_csv, chunk_rows):
        whole = read_csv(ragged_csv)
        assert len(whole) == self.N_ROWS
        missing = {name: whole[name].isna().tolist() for name in whole.columns}
        assert [missing[name][3] for name in "abc"] == [False, True, True]  # short
        assert [whole[name].tolist()[5] for name in "abc"] == [5, "x", 1.5]  # long
        assert [missing[name][7] for name in "abc"] == [True, True, True]  # blank
        schema = scan_csv_kinds(ragged_csv)
        shards = list(read_csv_shards(ragged_csv, chunk_rows, schema))
        identical, detail = frames_identical(concat_shards(shards), whole)
        assert identical, detail

    def test_malformed_row_past_the_first_block_raises(self, tmp_path):
        """A cell over ``csv.field_size_limit`` is a ``csv.Error``; one in
        row 5000 surfaces on every chunking, after the shards before it."""
        path = tmp_path / "bad.csv"
        rows = ["a,b"] + [f"{i},{i}" for i in range(5000)]
        rows.append("1," + "y" * (csv.field_size_limit() + 1))
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(csv.Error, match="field limit"):
            list(read_csv_shards(path, sys.maxsize))
        shards = read_csv_shards(path, 4096)
        assert len(next(shards)) == 4096
        with pytest.raises(csv.Error, match="field limit"):
            next(shards)
