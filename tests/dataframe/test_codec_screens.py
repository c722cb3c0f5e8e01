"""The CSV codec's per-block screens against the definitions they stand for.

* ``_verbatim`` (a prescreen, then a typed-line search whose digit runs
  never give a digit back) decides exactly as the plain backtracking
  regex it replaced, kept here as :data:`REFERENCE_TYPED_LINE`, and as
  :func:`_parse_cell` on every line of the block.
* ``_quoted`` (substring tests) quotes exactly the cells ``csv.writer``
  quotes under QUOTE_MINIMAL, with the same bytes.
* The object fallback of ``_csv_cells`` (a block typed by one
  ``frozenset(map(type, cells))``) writes what ``csv.writer`` writes.
"""

import csv
import io as _io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_csv_roundtrip_property import HOSTILE_STRINGS

from repro.dataframe.io import _csv_cells, _parse_cell, _quoted, _verbatim

#: The typed-line regex before the screens were split: searched in the
#: block's lines with a ``"\n"`` added at each end, a match is a line
#: that is a number or bool spelling.
_REFERENCE_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
REFERENCE_TYPED_LINE = re.compile(rf"\n(?:{_REFERENCE_NUMBER}|True|False)\n")

EDGE_CELLS = [
    "2021-03-05", "2021-03-05T10:00", "20210305", "1999-12-31 ", "-", "+", ".", "e",
    "+.5", "-.5", ".5", "5.", "-0", "+0.0e+0", "1e5", "1E-5", "1e", "1e+", "1.5e3x",
    "True", "False", "True ", "TrueFalse", "Tesla", "Tes", "T", "F", "Fal",
    "12\n", "\n12", "a\nTrue", "True\nb", "x\n-3.5\ny", "\n", "\n\n", "12\n34",
]

text_cell = st.one_of(
    st.sampled_from(HOSTILE_STRINGS),
    st.sampled_from(EDGE_CELLS),
    st.from_regex(r"[+-]?[0-9]{1,6}(?:[-./:][0-9]{1,4}){0,3}", fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{0,4}\.?[0-9]{0,4}(?:[eE][+-]?[0-9]{0,3})?[a-z]?", fullmatch=True),
    st.text(alphabet="0123456789+-.eETrueFalsTesla \n,\"", max_size=10),
)


def typed(text: str) -> bool:
    cell = _parse_cell(text)
    return cell is not None and type(cell) is not str


@settings(max_examples=400, deadline=None)
@given(st.lists(text_cell, min_size=1, max_size=40))
def test_verbatim_decides_as_the_reference_regex_and_the_cell_parse(cells):
    joined = "\n".join(cells)
    got = _verbatim(joined)
    assert got == (REFERENCE_TYPED_LINE.search("\n" + joined + "\n") is None)
    # The decision is a line's: a line is a cell unless a cell holds "\n",
    # and such a cell can only make a typed line appear, never hide one.
    assert got == (not any(map(typed, joined.split("\n"))))
    if got:
        assert not any(map(typed, cells))
    if not any("\n" in cell for cell in cells):
        assert got == (not any(map(typed, cells)))


def test_verbatim_date_block():
    """A block of ISO dates starts every line with a digit: the full
    search runs on every line, and finds no typed one."""
    dates = [f"20{y:02d}-{m:02d}-{d:02d}" for y in range(30) for m in range(1, 13) for d in (1, 28)]
    assert _verbatim("\n".join(dates))
    assert not _verbatim("\n".join([*dates, "2021"]))
    assert not _verbatim("\n".join(["2021", *dates]))


def writer_row(cells: list) -> str:
    """*cells* and a plain sentinel as one ``csv.writer`` row (the
    sentinel keeps a lone empty field from being written ``""``)."""
    buffer = _io.StringIO()
    csv.writer(buffer).writerow([*cells, "end"])
    return buffer.getvalue()


def block_row(cells: list[str]) -> str:
    return ",".join([*cells, "end"]) + "\r\n"


QUOTE_CHARS = [",", '"', "\r", "\n"]
plain = st.text(alphabet="ab 12.-_", max_size=6)


@st.composite
def quoting_cell(draw):
    """A cell holding one of the characters QUOTE_MINIMAL quotes, or none."""
    if draw(st.booleans()):
        return draw(plain)
    return draw(plain) + draw(st.sampled_from(QUOTE_CHARS)) + draw(plain)


@settings(max_examples=300, deadline=None)
@given(st.lists(quoting_cell(), max_size=30))
def test_quoted_matches_csv_writer(cells):
    got = _quoted(list(cells))
    assert block_row(got) == writer_row(cells)


@pytest.mark.parametrize("char", QUOTE_CHARS)
def test_quoted_quotes_each_quoting_character(char):
    cells = ["plain", f"a{char}b", ""]
    assert block_row(_quoted(cells)) == writer_row(cells)
    assert _quoted(cells)[1] != cells[1]


def test_quoted_passes_a_clean_block_as_is():
    cells = ["a", "b c", "", "1.5"]
    assert _quoted(cells) is cells


def written_value(value):
    """One object cell as the writer is handed it: ``None`` and NaN
    empty, ±inf in the strict grammar's spelling, numpy scalars unboxed."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or value != value:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "1e400" if value > 0 else "-1e400"
    return value


object_cell = st.one_of(
    st.none(),
    quoting_cell(),
    st.sampled_from(HOSTILE_STRINGS),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from([np.float64(2.5), np.int64(7), np.bool_(True), np.float32(0.1)]),
)


def object_block(cells: list) -> np.ndarray:
    values = np.empty(len(cells), dtype=object)
    values[:] = cells
    return values


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(object_cell, max_size=30),
        st.lists(st.one_of(st.none(), quoting_cell()), max_size=30),
        st.lists(quoting_cell(), max_size=30),
    )
)
def test_object_fallback_matches_csv_writer(cells):
    got = _csv_cells(object_block(cells))
    assert block_row(got) == writer_row([written_value(v) for v in cells])
