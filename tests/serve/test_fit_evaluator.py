"""The fit evaluator equals freezing then evaluating on the same frame.

:func:`repro.dataframe.expr.fit_feature` is how fit realizes every
feature; a top-level ``fit_group_table`` takes a same-frame route that
broadcasts the freeze's per-group results instead of probing the frozen
table.  Whatever the op and the frame, its ``(frozen, outputs)`` must be
exactly ``freeze_expr`` followed by ``evaluate_feature`` — the same frozen
tree, bit-identical outputs, or the same exception.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame
from repro.dataframe.expr import evaluate_feature, fit_feature, freeze_expr
from repro.dataframe.groupby import _SEGMENTED_NAMES
from repro.dataframe.series import Series
from repro.serve import series_identical

NAN = math.nan

#: Object key cells: dict keying makes 1, 1.0 and True one group, and
#: None one group (an object column stores a NaN cell as None).  Float
#: keys bring the NaN groups, each its own, which get no table row.
KEY_CELLS = ["a", "b", "c", None, NAN, 1, 1.0, True, 2]
TEXT_CELLS = ["a,b", "c", " a , b ,c", "", None, NAN, "x,y,z,w"]

rows = st.integers(min_value=0, max_value=12)


def _column(draw, kind, n):
    if kind == "int":
        return draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    if kind == "float":
        return draw(
            st.lists(
                st.one_of(st.floats(-10, 10, allow_nan=False), st.just(NAN)),
                min_size=n,
                max_size=n,
            )
        )
    if kind == "all_missing":
        return [draw(st.sampled_from([None, NAN]))] * n
    if kind == "object_numeric":
        return draw(
            st.lists(st.sampled_from([1, 2.5, None, NAN, 3]), min_size=n, max_size=n)
        )
    if kind == "object_text":
        return draw(st.lists(st.sampled_from(TEXT_CELLS), min_size=n, max_size=n))
    if kind == "key":
        return draw(st.lists(st.sampled_from(KEY_CELLS), min_size=n, max_size=n))
    if kind == "one_group":
        return ["g"] * n
    if kind == "float_key":
        return draw(st.lists(st.sampled_from([0.0, 1.5, NAN, -0.0]), min_size=n, max_size=n))
    raise AssertionError(kind)


AGG_KINDS = ["int", "float", "all_missing", "object_numeric", "object_text"]
KEY_KINDS = ["key", "one_group", "float_key", "int"]


@st.composite
def columns(draw):
    """Column name → cell list, every kind at one row count."""
    n = draw(rows)
    data = {f"v_{kind}": _column(draw, kind, n) for kind in AGG_KINDS}
    data.update({f"k_{kind}": _column(draw, kind, n) for kind in KEY_KINDS})
    return data


def _frame(data: dict) -> DataFrame:
    """A fresh frame: no grouping or encoding cached from another run."""
    return DataFrame({name: Series(list(cells)) for name, cells in data.items()})


def _outcome(run):
    try:
        return "ok", run()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", (type(exc), str(exc))


def _assert_same(template: dict, data: dict) -> None:
    def reference():
        frame = _frame(data)
        frozen = freeze_expr(template, frame)
        return frozen, evaluate_feature(frozen, frame)

    got = _outcome(lambda: fit_feature(template, _frame(data)))
    want = _outcome(reference)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    (frozen, out), (want_frozen, want_out) = got[1], want[1]
    assert json.dumps(frozen) == json.dumps(want_frozen)
    if isinstance(want_out, Series):
        assert isinstance(out, Series)
        assert series_identical(out, want_out), (list(out), list(want_out))
        return
    assert list(out) == list(want_out)
    for name in want_out:
        assert series_identical(out[name], want_out[name]), name


@settings(max_examples=60, deadline=None)
@given(
    columns(),
    st.lists(st.sampled_from(KEY_KINDS), min_size=1, max_size=2, unique=True),
    st.sampled_from(AGG_KINDS),
    st.sampled_from(sorted(_SEGMENTED_NAMES)),
)
def test_group_table_route_matches_lookup(data, key_kinds, agg_kind, agg):
    template = {
        "op": "fit_group_table",
        "keys": [f"k_{kind}" for kind in key_kinds],
        "agg_col": f"v_{agg_kind}",
        "agg": agg,
    }
    _assert_same(template, data)


@settings(max_examples=40, deadline=None)
@given(
    columns(),
    st.sampled_from(["fit_mean", "fit_std", "fit_min", "fit_max"]),
    st.sampled_from(AGG_KINDS),
)
def test_statistic(data, op, kind):
    column = f"v_{kind}"
    template = {
        "op": "sub",
        "left": {"op": "col", "name": column},
        "right": {"op": op, "column": column},
    }
    _assert_same(template, data)


@settings(max_examples=40, deadline=None)
@given(
    columns(),
    st.sampled_from(AGG_KINDS),
    st.integers(1, 5),
    st.booleans(),
)
def test_qcut(data, kind, q, labelled):
    template = {
        "op": "fit_qcut",
        "column": f"v_{kind}",
        "q": q,
        "labels": [f"q{i}" for i in range(q)] if labelled else None,
    }
    _assert_same(template, data)


@settings(max_examples=40, deadline=None)
@given(columns(), st.sampled_from(KEY_KINDS + AGG_KINDS))
def test_categories(data, kind):
    column = f"k_{kind}" if kind in KEY_KINDS else f"v_{kind}"
    _assert_same({"op": "fit_categories", "column": column, "prefix": "p"}, data)


@settings(max_examples=40, deadline=None)
@given(columns(), st.sampled_from(["v_object_text", "v_all_missing", "k_key"]))
def test_split_outputs(data, column):
    template = {
        "op": "fit_split_outputs",
        "column": column,
        "sep": ",",
        "rename": {"0": "first"},
    }
    _assert_same(template, data)


def test_nan_keyed_rows_take_the_fill():
    data = {"k": [1.0, NAN, 1.0, 2.0, NAN], "v": [1, 2, 3, 4, 5]}
    template = {"op": "fit_group_table", "keys": ["k"], "agg_col": "v", "agg": "size"}
    frozen, out = fit_feature(template, _frame(data))
    assert frozen["table"] == [[1.0, 2], [2.0, 1]]
    assert frozen["value_kind"] == "int64"
    # The fill slot is present, so the int table goes out through list
    # coercion, as the lookup sends it.
    assert series_identical(out, Series([2, None, 2, 1, None]))
    _assert_same(template, data)


def test_empty_frame_cannot_freeze_a_group_table():
    data = {"k": [], "v": []}
    template = {"op": "fit_group_table", "keys": ["k"], "agg_col": "v", "agg": "mean"}
    assert _outcome(lambda: fit_feature(template, _frame(data)))[0] == "raised"
    _assert_same(template, data)


def test_float_key_zero_signs_share_a_group():
    data = {"k": [0.0, -0.0, 1.0], "v": np.array([1.0, 2.0, 4.0]).tolist()}
    template = {"op": "fit_group_table", "keys": ["k"], "agg_col": "v", "agg": "mean"}
    _, out = fit_feature(template, _frame(data))
    assert out.tolist() == [1.5, 1.5, 4.0]
    _assert_same(template, data)
