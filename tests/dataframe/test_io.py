"""Unit tests for :mod:`repro.dataframe.io`."""

import numpy as np
import pytest

from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe.io import _parse_cell, read_csv_shards, scan_csv_kinds, to_csv


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
