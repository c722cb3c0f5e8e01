"""The CSV writer's numeric cell formatting against ``csv.writer``.

``_csv_cells`` formats an int block through a table of its value range,
a float block of distinct leading values cell by cell, and any other
numeric or bool block once per distinct value.  Whatever the path, each
cell must read exactly as the C writer writes its Python value, a NaN
as an empty cell and ±inf as ``1e400``/``-1e400`` (the strict grammar's
spelling of ±inf).
"""

import csv
import io as _io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe.io import _DISTINCT_PROBE, _csv_cells

INT64 = (-(2**63), 2**63 - 1)
SPECIAL_FLOATS = [
    -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1
]


def written(value) -> str:
    """One cell as ``csv.writer`` writes it."""
    buffer = _io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value])
    return buffer.getvalue()[:-1]


_NONFINITE = {math.inf: "1e400", -math.inf: "-1e400"}


def reference(values: np.ndarray) -> list[str]:
    return [
        "" if isinstance(v, float) and v != v
        else _NONFINITE[v] if isinstance(v, float) and v in _NONFINITE
        else written(v)
        for v in values.tolist()
    ]


def check(values: np.ndarray) -> None:
    assert _csv_cells(values) == reference(values)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(*INT64), max_size=200),
        st.lists(st.integers(-3, 3), max_size=200),
        st.lists(st.sampled_from([*INT64, INT64[0] + 1, INT64[1] - 1]), max_size=200),
    )
)
def test_int64_blocks(cells):
    check(np.array(cells, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 2**64 - 1), max_size=200),
        st.lists(st.integers(2**64 - 5, 2**64 - 1), max_size=200),
        st.lists(st.integers(0, 2), max_size=200),
    )
)
def test_uint64_blocks(cells):
    check(np.array(cells, dtype=np.uint64))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([np.int8, np.uint8, np.int16, np.int32]))
def test_narrow_int_blocks(data, dtype):
    """Offsets into the value table must not wrap in the block's dtype."""
    info = np.iinfo(dtype)
    cells = data.draw(st.lists(st.integers(int(info.min), int(info.max)), max_size=600))
    check(np.array(cells, dtype=dtype))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), max_size=100))
def test_bool_blocks(cells):
    check(np.array(cells, dtype=bool))


float_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL_FLOATS),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(float_cells, max_size=3 * _DISTINCT_PROBE),
        st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=3 * _DISTINCT_PROBE),
        st.lists(float_cells, min_size=_DISTINCT_PROBE, max_size=3 * _DISTINCT_PROBE, unique=True),
    ),
    st.integers(0, 3),
)
def test_float64_blocks(cells, repeats):
    """Repeated and all-distinct blocks, and blocks distinct only in
    their leading cells (the tail repeats them)."""
    values = np.array(cells, dtype=np.float64)
    check(values)
    check(np.concatenate([values] + [values[:7]] * repeats))


def test_each_path_on_fixed_blocks():
    n = 4 * _DISTINCT_PROBE
    distinct = np.linspace(-1.0, 1.0, n)
    distinct[::9] = np.nan
    distinct[5] = -0.0
    check(distinct)  # cell by cell
    check(np.tile(np.array(SPECIAL_FLOATS), n))  # per distinct value
    check(np.arange(n, dtype=np.int64) % 2)  # value table
    check(np.array([INT64[0], INT64[1]] * n, dtype=np.int64))  # per distinct value
    check(np.array([INT64[0]] * 3 + [INT64[0] + 2], dtype=np.int64))  # table at the int64 floor
    check(np.array([2**64 - 1, 2**64 - 2] * n, dtype=np.uint64))
    check(np.array([-128, 127] * 200, dtype=np.int8))
    check(np.array([-128, 100] * 200, dtype=np.int8))
    check(np.array([], dtype=np.int64))
    check(np.array([], dtype=np.float64))
