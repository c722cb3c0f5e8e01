"""``get_dummies`` and ``Series.clip`` against the loops they replaced.

``get_dummies`` builds every indicator column in one comparison pass, and
``clip`` bounds with ``np.maximum``/``np.minimum`` alone.  Both must be
bit-identical to the per-category loop and to the ``isnan``/``where``
re-mask: values, dtypes, NaN payloads and signs, column names and order.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, get_dummies


# ----------------------------------------------------------------------
# get_dummies
# ----------------------------------------------------------------------
def loop_dummies(series: Series, prefix=None, drop_first=False) -> DataFrame:
    """The per-category loop: one compare-and-cast pass per column."""
    name = prefix if prefix is not None else (series.name or "col")
    codes, categories = series._factorized()
    out: dict[str, Series] = {}
    for j, cat in enumerate(categories):
        if j < (1 if drop_first else 0):
            continue
        column = f"{name}_{cat}"
        out[column] = Series._from_array((codes == j).astype(np.int64), column)
    return DataFrame(out)


def assert_frames_bit_identical(got: DataFrame, want: DataFrame) -> None:
    assert got.columns == want.columns
    for name in want.columns:
        a, b = got[name].values, want[name].values
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got[name].name == want[name].name


dummy_cells = st.one_of(
    st.none(),
    st.sampled_from(["a", "b", "c", "", "nan"]),
    st.integers(0, 3),
)


@given(
    st.lists(dummy_cells, max_size=40),
    st.sampled_from([None, "p"]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_get_dummies_matches_the_loop(cells, prefix, drop_first):
    series = Series(cells, name="col")
    got = get_dummies(series, prefix=prefix, drop_first=drop_first)
    assert_frames_bit_identical(got, loop_dummies(series, prefix, drop_first))


@pytest.mark.parametrize("drop_first", [False, True])
@pytest.mark.parametrize(
    "cells",
    [[], [None, None], ["a"], ["a", "a", None], ["a", "b"], list("abcdefghijklmnop") * 3,
     [1.5, None, 2.5, 1.5], [True, False, None]],
    ids=repr,
)
def test_get_dummies_category_counts(cells, drop_first):
    series = Series(cells, name="s")
    got = get_dummies(series, drop_first=drop_first)
    assert_frames_bit_identical(got, loop_dummies(series, drop_first=drop_first))
    assert all(got[name].dtype == np.int64 for name in got.columns)


def test_get_dummies_dataframe_form_matches_the_loop():
    frame = DataFrame(
        {"x": [1.0, 2.0, 3.0, 4.0], "c": ["a", "b", None, "a"], "d": ["u", "v", "v", "u"]}
    )
    for drop_first in (False, True):
        got = get_dummies(frame, columns=["c", "d"], drop_first=drop_first)
        want = frame.drop(columns=["c", "d"])
        for col in ("c", "d"):
            dummies = loop_dummies(frame[col], prefix=col, drop_first=drop_first)
            for name in dummies.columns:
                want[name] = dummies[name]
        assert_frames_bit_identical(got, want)


def test_a_write_into_one_dummy_column_leaves_its_siblings():
    dummies = get_dummies(Series(["a", "b", "c", "a"], name="k"))
    before = {name: dummies[name].values.copy() for name in dummies.columns}
    column = dummies["k_a"]
    column[1] = 7
    assert column.tolist() == [1, 7, 0, 1]
    for name in ("k_b", "k_c"):
        assert dummies[name].values.tobytes() == before[name].tobytes()


# ----------------------------------------------------------------------
# Series.clip
# ----------------------------------------------------------------------
def where_clip(series: Series, lower=None, upper=None) -> np.ndarray:
    """The re-masked form: copy, then bound only the non-NaN cells."""
    out = series._numeric().copy()
    if lower is not None:
        out = np.where(np.isnan(out), out, np.maximum(out, lower))
    if upper is not None:
        out = np.where(np.isnan(out), out, np.minimum(out, upper))
    return out


def _nan(payload: int, negative: bool = False) -> float:
    bits = (0xFFF8 if negative else 0x7FF8) << 48 | payload
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


ODD_NANS = [math.nan, -math.nan, _nan(1), _nan(0xDEADBEEF, negative=True)]

clip_floats = st.one_of(
    st.sampled_from(ODD_NANS + [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0]),
    st.floats(allow_nan=False, width=64),
)
bounds = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1, -1.5, 2.5]))


def assert_clip_bit_identical(series: Series, lower, upper) -> None:
    got = series.clip(lower, upper)
    want = where_clip(series, lower, upper)
    assert got.dtype == want.dtype == np.float64
    assert got.values.tobytes() == want.tobytes()
    assert got.name == series.name
    assert not np.shares_memory(got.values, series.values)


@given(st.lists(clip_floats, max_size=40), bounds, bounds)
@settings(max_examples=400, deadline=None)
def test_clip_matches_the_where_form(cells, lower, upper):
    assert_clip_bit_identical(Series._from_array(np.array(cells), "f"), lower, upper)


@pytest.mark.parametrize(
    "values",
    [
        np.array(ODD_NANS + [-0.0, 0.0, 3.0, -3.0]),
        np.array([-5, 0, 5, 10], dtype=np.int64),
        np.array([True, False]),
        np.array([1.5, None, -2, 7], dtype=object),
        np.array([], dtype=np.float64),
    ],
    ids=["floats", "ints", "bools", "objects", "empty"],
)
@pytest.mark.parametrize("lower,upper", [(0, None), (None, 2), (-1, 2), (None, None)])
def test_clip_input_kinds(values, lower, upper):
    assert_clip_bit_identical(Series._from_array(values, "v"), lower, upper)


def test_clip_never_aliases_a_writeable_input():
    values = np.array([1.0, math.nan, -2.0])
    series = Series._from_array(values, "v")
    for lower, upper in ((None, None), (0.0, None), (None, 0.0)):
        out = series.clip(lower, upper)
        out[0] = 99.0
        assert values[0] == 1.0 and series.values[0] == 1.0
