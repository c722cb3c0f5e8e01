"""Unit tests for :mod:`repro.dataframe.io`."""

import csv
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.dataframe.io as io
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


class TestNumericOverflow:
    """Number texts past what a dtype holds: an int column with a cell
    outside int64 stays object (exact Python ints), and a float column
    reads every cell through ``float(text)``, so a too-long int text
    reads as ``inf`` just as ``"1e400"`` does."""

    def test_int_past_int64_keeps_the_column_object(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n99999999999999999999,3\n-9223372036854775809,4\n")
        back = read_csv(path)
        assert back["a"].values.dtype == object
        assert back["a"].tolist() == [1, 99999999999999999999, -9223372036854775809]
        assert back["b"].values.dtype == np.int64
        assert scan_csv_kinds(path) == {"a": "object", "b": "int"}

    def test_int64_bounds_stay_int(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "a\n9223372036854775807\n-9223372036854775808\n00000009223372036854775807\n"
        )
        back = read_csv(path)
        assert back["a"].values.dtype == np.int64
        assert back["a"].tolist() == [2**63 - 1, -(2**63), 2**63 - 1]

    @pytest.mark.parametrize("chunk_rows", [1, 7, 4095, 4096, 4097, sys.maxsize])
    def test_wide_int_past_the_first_block_agrees_at_every_chunking(self, tmp_path, chunk_rows):
        """The scan sees the late wide cell, so every schema-pinned shard
        is object, and the shards re-join to the whole-file read."""
        path = tmp_path / "t.csv"
        cells = [str(i) for i in range(5000)]
        cells[4500] = str(10**30)
        path.write_text("a\n" + "\n".join(cells) + "\n")
        whole = read_csv(path)
        assert whole["a"].values.dtype == object
        assert whole["a"].tolist()[4500] == 10**30
        schema = scan_csv_kinds(path)
        assert schema == {"a": "object"}
        shards = list(read_csv_shards(path, chunk_rows, schema))
        assert all(shard.frame["a"].values.dtype == object for shard in shards)
        identical, detail = frames_identical(concat_shards(shards), whole)
        assert identical, detail

    @pytest.mark.parametrize("tail", ["", "\n2.5"], ids=["ints", "then-a-float"])
    def test_schema_less_shards_rejoin_to_the_whole_read(self, tmp_path, tail):
        """Unpinned, the shard holding the wide cell is object and the
        others int64 (or float64); concat re-coerces through Series list
        coercion, which applies the same int64 rule as the CSV codec."""
        path = tmp_path / "t.csv"
        cells = [str(i) for i in range(5000)]
        cells[4500] = str(10**30)
        path.write_text("a\n" + "\n".join(cells) + tail + "\n")
        whole = read_csv(path)
        shards = list(read_csv_shards(path, 4096))
        assert [shard.frame["a"].values.dtype for shard in shards] == [
            np.int64, whole["a"].values.dtype if tail else object
        ]
        identical, detail = frames_identical(concat_shards(shards), whole)
        assert identical, detail
        identical, detail = frames_identical(
            DataFrame({"a": Series(whole["a"].tolist(), "a")}), whole
        )
        assert identical, detail

    def test_wide_int_with_a_float_or_missing_cell_is_a_float_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f,m\n99999999999999999999,99999999999999999999\n1.5,\n")
        back = read_csv(path)
        assert scan_csv_kinds(path) == {"f": "float", "m": "float"}
        assert back["f"].tolist() == [1e20, 1.5]
        assert back["m"].values[0] == 1e20 and np.isnan(back["m"].values[1])

    def test_overflowing_number_texts_in_a_float_column_read_as_inf(self, tmp_path):
        """A 309-digit int text overflows a float like ``"1e400"``: both
        read as ``±inf``, while 308 nines still read as a finite float."""
        nines = "9" * 309
        path = tmp_path / "t.csv"
        path.write_text(f"f\n1.5\n{nines}\n-{nines}\n1e400\n-1e400\n{nines[1:]}\n")
        back = read_csv(path)
        assert scan_csv_kinds(path) == {"f": "float"}
        assert back["f"].values.dtype == np.float64
        inf = float("inf")
        assert back["f"].tolist() == [1.5, inf, -inf, inf, -inf, float(nines[1:])]
        shards = list(read_csv_shards(path, 2, scan_csv_kinds(path)))
        identical, detail = frames_identical(concat_shards(shards), back)
        assert identical, detail

    def test_negative_zero_int_text_in_a_float_column_is_positive_zero(self, tmp_path):
        """``"-0"`` is the int 0, so it reads as ``0.0`` in a float column;
        ``"-0.0"`` is the float ``-0.0``."""
        path = tmp_path / "t.csv"
        path.write_text("f\n-0\n-0.0\n-00\n1.5\n")
        values = read_csv(path)["f"].values
        assert np.signbit(values).tolist() == [False, True, False, False]


class TestOverlongIntCell:
    """An int text of more than 4300 digits (Python's default ``int``
    string limit) is a string cell: reading it never raises, and never
    depends on the interpreter's ``int_max_str_digits``."""

    BIG = "1" * 5000

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"a\n{self.BIG}\n2\n")
        return path

    def test_reads_as_its_verbatim_string(self, path):
        back = read_csv(path)
        assert back["a"].values.dtype == object
        assert back["a"].tolist() == [self.BIG, 2]
        assert scan_csv_kinds(path) == {"a": "object"}

    @pytest.mark.parametrize("chunk_rows", [1, 2, sys.maxsize])
    @pytest.mark.parametrize("pinned", [True, False], ids=["scan", "schema-less"])
    def test_every_csv_path_agrees(self, path, chunk_rows, pinned):
        whole = read_csv(path)
        schema = scan_csv_kinds(path) if pinned else None
        shards = list(read_csv_shards(path, chunk_rows, schema))
        identical, detail = frames_identical(concat_shards(shards), whole)
        assert identical, detail

    def test_to_csv_keeps_the_text(self, path, tmp_path):
        out = tmp_path / "out.csv"
        to_csv(read_csv(path), out)
        assert out.read_text().split() == ["a", self.BIG, "2"]
        assert read_csv(out)["a"].tolist() == [self.BIG, 2]

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_the_limit_counts_digits_not_the_sign(self, tmp_path, sign):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n{sign}{'7' * 4300},{sign}{'7' * 4301}\n")
        back = read_csv(path)
        assert back["a"].tolist() == [int(f"{sign}{'7' * 4300}")]
        assert back["b"].tolist() == [f"{sign}{'7' * 4301}"]

    def test_every_block_path_reads_it_as_a_string(self, tmp_path):
        """Int lines, number lines and the per-cell fallback alike; a
        long float text is still a float."""
        path = tmp_path / "t.csv"
        long_float = "1" * 5000 + ".5"
        path.write_text(
            f"i,n,m,g\n{self.BIG},1.5,True,{long_float}\n3,{self.BIG},{self.BIG},2\n"
        )
        back = read_csv(path)
        assert back["i"].tolist() == [self.BIG, 3]
        assert back["n"].tolist() == [1.5, self.BIG]
        assert back["m"].tolist() == [True, self.BIG]
        assert back["g"].values.dtype == np.float64
        assert back["g"].tolist() == [float("inf"), 2.0]
        assert scan_csv_kinds(path) == {"i": "object", "n": "object", "m": "object", "g": "float"}

    def test_a_float_column_pinned_by_schema_refuses_it(self, tmp_path):
        """Being a string cell, it breaks a pinned float kind, while an
        int text of at most 4300 digits past a float's range reads as
        ``±inf`` there, as ``read_csv`` reads it."""
        wide = "1" * 400
        path = tmp_path / "t.csv"
        path.write_text(f"f\n1.5\n{wide}\n-{wide}\n")
        big = tmp_path / "big.csv"
        big.write_text(f"f\n1.5\n{wide}\n{self.BIG}\n")
        for chunk_rows in (1, 2, sys.maxsize):
            values = concat_shards(read_csv_shards(path, chunk_rows, {"f": "float"}))["f"]
            assert values.values.dtype == np.float64
            assert values.tolist() == [1.5, float("inf"), float("-inf")]
            with pytest.raises(io.CsvKindError, match="'f' is pinned float, but data row 3"):
                list(read_csv_shards(big, chunk_rows, {"f": "float"}))

    @pytest.fixture
    def mixed_path(self, tmp_path):
        """An over-long int, a 1000-digit int (object: past int64) and a
        701-character int64 with leading zeros, each in an int column."""
        path = tmp_path / "t.csv"
        path.write_text(f"a,b,c\n{self.BIG},{'9' * 1000},{'0' * 700}5\n2,3,4\n")
        return path

    def test_int_is_never_called_on_it(self, mixed_path, monkeypatch):
        def checked_int(text, *args):
            assert len(text.lstrip("+-")) <= 4300, len(text)
            return int(text, *args)

        monkeypatch.setattr(io, "int", checked_int, raising=False)
        back = read_csv(mixed_path)
        assert back["a"].tolist() == [self.BIG, 2]
        schema = scan_csv_kinds(mixed_path)
        for chunk_rows in (1, 2):
            for pinned in (schema, None):
                shards = read_csv_shards(mixed_path, chunk_rows, pinned)
                identical, detail = frames_identical(concat_shards(shards), back)
                assert identical, detail

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
    )
    @pytest.mark.parametrize("limit", [640, 0])
    def test_the_int_digit_limit_setting_changes_nothing(self, mixed_path, limit):
        """Read under the lowest limit and under none: the same frames
        as under the default, and the setting is left as it was."""
        default = sys.get_int_max_str_digits()
        expect = read_csv(mixed_path)
        assert expect["b"].tolist() == [int("9" * 1000), 3]
        assert expect["c"].values.dtype == np.int64
        sys.set_int_max_str_digits(limit)
        try:
            schema = scan_csv_kinds(mixed_path)
            reads = [read_csv(mixed_path)] + [
                concat_shards(read_csv_shards(mixed_path, chunk_rows, pinned))
                for chunk_rows in (1, 2)
                for pinned in (schema, None)
            ]
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(default)
        for back in reads:
            identical, detail = frames_identical(back, expect)
            assert identical, detail


def test_codec_regexes_compile_on_every_supported_python(capsys):
    """Possessive quantifiers and atomic groups compile only from Python
    3.11; the codec's regexes must parse on the oldest supported one."""
    for regex in (io._INT_CELL, io._FLOAT_CELL, io._INT_LINES, io._NUMBER_LINES,
                  io._TYPED_LEAD, io._TYPED_LINE):
        re.compile(regex.pattern, regex.flags | re.DEBUG)
    dump = capsys.readouterr().out
    assert "POSSESSIVE" not in dump and "ATOMIC" not in dump


def test_serving_table_decodes_without_per_cell_parsing(tmp_path, monkeypatch):
    """The served demo table is all int, float and verbatim string
    blocks: scanning and decoding it never calls ``_parse_cell``."""
    from repro.eval.serving import make_serving_frame

    frame = make_serving_frame(10_000, seed=1000, n_groups=500)
    path = tmp_path / "in.csv"
    to_csv(frame, path)
    calls = []

    def counting(text):
        calls.append(text)
        return _parse_cell(text)

    monkeypatch.setattr(io, "_parse_cell", counting)
    schema = scan_csv_kinds(path)
    shards = list(read_csv_shards(path, 2000, schema))
    whole = read_csv(path)
    assert calls == []
    assert len(whole) == len(frame)
    identical, detail = frames_identical(concat_shards(shards), whole)
    assert identical, detail


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


class TestTextEncoding:
    """CSV files are UTF-8 whatever the locale, and a leading byte-order
    mark is not part of the first column name."""

    CELLS = ["Zürich", "😀", "naïve, \"quoted\"", "日本語", "plain"]

    @staticmethod
    def frame() -> DataFrame:
        cells = TestTextEncoding.CELLS
        return DataFrame({"città": cells, "n": list(range(len(cells)))})

    def test_four_entry_points_pass_an_encoding(self, tmp_path):
        """``EncodingWarning`` is raised for any ``open`` that leans on the
        locale; the child turns it into an error on all four entry points
        and checks the round trip of non-ASCII cells."""
        script = textwrap.dedent(
            """
            import sys
            from repro.dataframe import DataFrame
            from repro.dataframe.io import (
                concat_shards, read_csv, read_csv_shards, scan_csv_kinds, to_csv,
            )
            from repro.serve import frames_identical

            cells = %r
            frame = DataFrame({"città": cells, "n": list(range(len(cells)))})
            path = sys.argv[1]
            to_csv(frame, path)
            to_csv(frame, path, append=True)
            expected = DataFrame({"città": cells * 2, "n": list(range(len(cells))) * 2})
            assert frames_identical(read_csv(path), expected)[0]
            schema = scan_csv_kinds(path)
            assert schema == {"città": "object", "n": "int"}, schema
            shards = list(read_csv_shards(path, 3, schema))
            assert frames_identical(concat_shards(shards), expected)[0]
            print("ok")
            """
            % (self.CELLS,)
        )
        path = tmp_path / "utf8.csv"
        done = subprocess.run(
            [
                sys.executable, "-X", "warn_default_encoding",
                "-W", "error::EncodingWarning", "-c", script, str(path),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[2])},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
        text = path.read_bytes().decode("utf-8")
        assert not text.startswith("\ufeff")
        assert text.count("Zürich") == 2 and text.count("😀") == 2

    def test_written_bytes_are_utf8(self, tmp_path):
        path = tmp_path / "out.csv"
        to_csv(self.frame(), path)
        lines = ["città,n"] + [
            f'"{c.replace(chr(34), chr(34) * 2)}",{i}' if "," in c else f"{c},{i}"
            for i, c in enumerate(self.CELLS)
        ]
        assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode("utf-8")

    @pytest.mark.parametrize(
        "reader",
        [
            read_csv,
            lambda path: concat_shards(read_csv_shards(path, 2)),
            lambda path: concat_shards(read_csv_shards(path, 2, scan_csv_kinds(path))),
        ],
        ids=["read_csv", "read_csv_shards", "scanned_shards"],
    )
    def test_one_leading_bom_is_dropped(self, tmp_path, reader):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        to_csv(self.frame(), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        identical, detail = frames_identical(reader(marked), reader(plain))
        assert identical, detail
        assert scan_csv_kinds(marked) == scan_csv_kinds(plain)

    def test_only_one_bom_is_dropped(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa,b\r\n1,2\r\n")
        assert read_csv(path).columns == ["\ufeffa", "b"]
        assert list(scan_csv_kinds(path)) == ["\ufeffa", "b"]

    def test_bom_on_a_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\r\n")
        df = read_csv(path)
        assert df.columns == ["a", "b"] and len(df) == 0
