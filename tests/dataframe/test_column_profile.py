"""``column_profile`` against its loop oracle, on every path it takes.

Numeric columns are profiled from one capped uniques probe, and a
low-cardinality plain-``str`` column from its cached ``Series.encoding``.
Each case below must equal :func:`reference_column_profile` field by
field, with uniques compared by type and repr (``0.0`` vs ``-0.0``,
``1`` vs ``True``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Series
from repro.dataframe.kernels import _PROBE_ROWS, column_profile
from repro.dataframe.reference import reference_column_profile

CAPS = st.sampled_from([0, 1, 2, 15])

I64 = np.iinfo(np.int64)


def _keys(values):
    return None if values is None else [(type(v), repr(v)) for v in values]


def assert_matches_reference(values: np.ndarray, cap: int, encoding=None) -> None:
    got = column_profile(values, cap, encoding)
    want = reference_column_profile(values, cap)
    assert got == want
    assert _keys(got.uniques) == _keys(want.uniques)


def _long(head: list, tail: list, dtype) -> np.ndarray:
    """*head* repeated past the probe rows, then *tail*: the tail's values
    are the ones a probe of the leading rows cannot see."""
    if not head:
        return np.array(tail, dtype=dtype)
    body = (head * (_PROBE_ROWS // len(head) + 1))[: _PROBE_ROWS + len(head)]
    values = np.empty(len(body) + len(tail), dtype=dtype)
    values[:] = body + tail
    return values


# ----------------------------------------------------------------------
# Numeric columns: the verdicts come from the capped uniques
# ----------------------------------------------------------------------
float_cells = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, 1.0, -1.0, math.inf, -math.inf, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
int_cells = st.one_of(
    st.sampled_from([0, 1, -1, I64.min, I64.max, I64.min + 1, I64.max - 1]),
    st.integers(-3, 20),
)


@st.composite
def numeric_columns(draw):
    kind = draw(st.sampled_from(["float", "int", "bool"]))
    cells = {"float": float_cells, "int": int_cells, "bool": st.booleans()}[kind]
    dtype = {"float": np.float64, "int": np.int64, "bool": bool}[kind]
    head = draw(st.lists(cells, max_size=20))
    if draw(st.booleans()):
        return np.array(head, dtype=dtype)
    return _long(head, draw(st.lists(cells, max_size=20)), dtype)


@given(numeric_columns(), CAPS)
@settings(max_examples=400, deadline=None)
def test_numeric_profile_matches_reference(values, cap):
    assert_matches_reference(values, cap)


@pytest.mark.parametrize("cap", [0, 1, 2, 15])
@pytest.mark.parametrize(
    "values",
    [
        np.array([], dtype=np.float64),
        np.array([], dtype=np.int64),
        np.array([], dtype=bool),
        np.array([math.nan, math.nan]),
        np.array([-0.0, 0.0, -0.0]),
        np.array([0.0, -0.0, 1.0]),
        np.array([math.inf, -math.inf]),
        np.array([math.inf, math.inf, math.nan]),
        np.array([I64.min, I64.max], dtype=np.int64),
        np.array([I64.max] * 3, dtype=np.int64),
        np.array([True, False, True]),
        np.array([True, True]),
        np.array([0, 1, 2], dtype=np.uint8),
    ],
    ids=repr,
)
def test_numeric_edge_cases_match_reference(values, cap):
    assert_matches_reference(values, cap)


# ----------------------------------------------------------------------
# Object columns: the encoding path and the set scan
# ----------------------------------------------------------------------
def _profile_via_encoding(values: np.ndarray, cap: int) -> tuple[bool, Series]:
    """Profile *values* with their Series' encoding on offer; return
    whether the profile read it, and the Series."""
    series = Series._from_array(values)
    read = []

    def encoding():
        read.append(True)
        return series.encoding()

    assert_matches_reference(values, cap, encoding)
    return bool(read), series


WORDS = ["a", "b", "", "nan", "NaN", "a\x00", "é", "0", "1"]


@given(
    st.lists(st.sampled_from(WORDS), max_size=30),
    st.lists(st.sampled_from(WORDS + ["late", "later"]), max_size=30),
    CAPS,
)
@settings(max_examples=300, deadline=None)
def test_plain_str_profile_matches_reference(head, tail, cap):
    values = _long(head, tail, object)
    read, series = _profile_via_encoding(values, cap)
    probed = values[:_PROBE_ROWS].tolist()
    assert read == (len(set(probed)) <= cap)
    if read:  # the profile left the encoding cached for the ops
        assert series._encoding_cache is not None


def test_str_column_above_the_cap_in_the_probe_is_never_encoded():
    values = np.array([f"t{i}" for i in range(3 * _PROBE_ROWS)], dtype=object)
    read, series = _profile_via_encoding(values, 15)
    assert not read and series._encoding_cache is None


@pytest.mark.parametrize("cap", [0, 1, 2, 15])
def test_value_first_seen_after_the_probe(cap):
    head = ["x", "y"] if cap >= 2 else ["x"]
    for tail in (["late"], [f"late{i}" for i in range(20)]):
        read, _ = _profile_via_encoding(_long(head, tail, object), cap)
        assert read == (len(head) <= cap)


@pytest.mark.parametrize("where", ["head", "tail"])
@pytest.mark.parametrize(
    "odd", [np.str_("a"), np.str_("z"), None, math.nan, 1, True], ids=repr
)
def test_non_plain_cells_are_profiled_by_the_set_scan(where, odd):
    """``np.str_``, ``None``, NaN and non-str cells never take the encoding
    path: the column's cell types rule it out before the encoding is
    read, in the probe rows or after them."""
    head, tail = ["a", "b"], ["b"]
    if where == "head":
        head = head + [odd]
    else:
        tail = tail + [odd]
    values = _long(head, tail, object)
    read, series = _profile_via_encoding(values, 15)
    assert not read and series._encoding_cache is None


@pytest.mark.parametrize("cap", [0, 1, 2, 15])
@pytest.mark.parametrize(
    "cells",
    [[], [None], [None, None], ["a"], [None, "a"], ["a", None, "a"], [None, 1],
     [True, None], [0, None, 1], ["a", "a"]],
    ids=repr,
)
def test_short_plain_columns_count_none_as_one_set_member(cells, cap):
    values = np.empty(len(cells), dtype=object)
    values[:] = cells
    _profile_via_encoding(values, cap)
