"""Unit tests for the serving expression IR evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, dictionary
from repro.dataframe.dictionary import ColumnDictionaries
from repro.dataframe.expr import (
    ExprError,
    evaluate_feature,
    expr_columns,
    freeze_expr,
    is_frozen,
    validate_expr,
)
from repro.dataframe.series import Series
from repro.serve.compiler import series_identical


def col(name):
    return {"op": "col", "name": name}


def const(value):
    return {"op": "const", "value": value}


@pytest.fixture
def frame():
    return DataFrame(
        {
            "a": Series([1, 2, 3, 4]),
            "b": Series([2.0, 0.0, np.nan, 4.0]),
            "s": Series(["x", "y", "x", "z"]),
        }
    )


class TestArithmetic:
    def test_add_matches_series(self, frame):
        out = evaluate_feature({"op": "add", "left": col("a"), "right": col("b")}, frame)
        assert series_identical(out, frame["a"] + frame["b"])

    def test_div_by_where_nonzero_masks_zero_denominator(self, frame):
        node = {
            "op": "div",
            "left": col("a"),
            "right": {"op": "where_nonzero", "arg": col("b")},
        }
        out = evaluate_feature(node, frame)
        expected = frame["a"] / frame["b"].where(frame["b"] != 0)
        assert series_identical(out, expected)

    def test_pow_const(self, frame):
        out = evaluate_feature({"op": "pow", "left": col("a"), "right": const(2)}, frame)
        assert series_identical(out, frame["a"] ** 2)

    def test_ufunc_log_matches_apply(self, frame):
        node = {
            "op": "ufunc",
            "fn": "log",
            "arg": {
                "op": "add",
                "left": {"op": "clip", "arg": col("b"), "lower": 0, "upper": None},
                "right": const(1.0),
            },
        }
        out = evaluate_feature(node, frame)
        expected = (frame["b"].clip(lower=0) + 1.0).apply(np.log)
        assert series_identical(out, expected)

    def test_isna_int(self, frame):
        out = evaluate_feature({"op": "isna_int", "column": "b"}, frame)
        assert out.tolist() == [0, 0, 1, 0]
        assert out.dtype.kind == "i"


class TestCutAndMaps:
    def test_cut_assigns_bins_and_out_of_range(self):
        frame = DataFrame({"v": Series([1.0, 5.0, 50.0, np.nan])})
        node = {
            "op": "cut",
            "column": "v",
            "edges": [0.0, 10.0, 20.0],
            "labels": [0, 1],
            "right": True,
        }
        out = evaluate_feature(node, frame)
        assert out.tolist()[:2] == [0, 0]
        assert np.isnan(out.values[2])  # out of range -> missing
        assert np.isnan(out.values[3])  # missing stays missing

    def test_dict_map_unmapped_is_missing_then_fillna(self, frame):
        node = {
            "op": "fillna",
            "value": -1.0,
            "arg": {
                "op": "dict_map",
                "column": "s",
                "keys": ["x", "y"],
                "values": [10.0, 20.0],
            },
        }
        out = evaluate_feature(node, frame)
        assert out.tolist() == [10.0, 20.0, 10.0, -1.0]

    def test_qcut_collapsed_dtypes(self):
        all_present = DataFrame({"v": Series([1.0, 1.0])})
        out = evaluate_feature({"op": "qcut_collapsed", "column": "v"}, all_present)
        assert out.dtype.kind == "i" and out.tolist() == [0, 0]
        mixed = DataFrame({"v": Series([1.0, np.nan])})
        out = evaluate_feature({"op": "qcut_collapsed", "column": "v"}, mixed)
        assert out.dtype.kind == "f"
        assert out.values[0] == 0.0 and np.isnan(out.values[1])
        none_frame = DataFrame({"v": Series([np.nan, np.nan])})
        out = evaluate_feature({"op": "qcut_collapsed", "column": "v"}, none_frame)
        assert out.dtype == object and out.tolist() == [None, None]


class TestStringKernels:
    def test_str_len_fast_matches_loop(self):
        frame = DataFrame({"t": Series(["", "ab", "hello world"])})
        out = evaluate_feature({"op": "str_len", "column": "t"}, frame)
        assert series_identical(out, frame["t"].str.len())

    def test_str_len_non_ascii_and_missing(self):
        frame = DataFrame({"t": Series(["héllo", None, "ab"])})
        out = evaluate_feature({"op": "str_len", "column": "t"}, frame)
        assert series_identical(out, frame["t"].str.len())

    def test_split_parts_fast_matches_loop_semantics(self):
        values = ["a,b", "only", "x , y", "a,b,c", "trail,"]
        frame = DataFrame({"p": Series(values)})
        node = {
            "op": "split_parts",
            "column": "p",
            "sep": ",",
            "outputs": ["p0", "p1"],
        }
        out = evaluate_feature(node, frame)
        assert out["p0"].tolist() == ["a", "only", "x", "a", "trail"]
        assert out["p1"].tolist() == ["b", None, "y", "b", ""]

    def test_split_parts_missing_values_use_loop_path(self):
        frame = DataFrame({"p": Series(["a,b", None, "c"])})
        node = {
            "op": "split_parts",
            "column": "p",
            "sep": ",",
            "outputs": ["p0", "p1"],
        }
        out = evaluate_feature(node, frame)
        assert out["p0"].tolist() == ["a", None, "c"]
        assert out["p1"].tolist() == ["b", None, None]


class TestDateSplit:
    def test_fast_path_matches_accessor(self):
        dates = ["2015-01-01", "2020-02-29", "1999-12-31", "2024-07-04"]
        frame = DataFrame({"d": Series(dates)})
        node = {
            "op": "date_split",
            "column": "d",
            "outputs": [["month", "d_month"], ["dayofweek", "d_dow"]],
        }
        out = evaluate_feature(node, frame)
        assert series_identical(out["d_month"], frame["d"].dt.month.rename("d_month"))
        assert series_identical(
            out["d_dow"], frame["d"].dt.dayofweek.rename("d_dow")
        )

    def test_non_iso_strings_use_accessor_path(self):
        frame = DataFrame({"d": Series(["01/02/2015", "03/04/2016"])})
        node = {
            "op": "date_split",
            "column": "d",
            "outputs": [["month", "d_month"]],
        }
        out = evaluate_feature(node, frame)
        assert series_identical(out["d_month"], frame["d"].dt.month.rename("d_month"))

    def test_iso_date_fields_judge_each_element_alone(self):
        """Validity and parts of each string do not depend on its
        neighbours, and valid parts agree with ``datetime``."""
        import datetime

        from repro.dataframe.kernels import iso_date_fields

        strings = [
            "2015-01-01", "2020-02-29", "2019-02-29", "2020-13-01", "2020-01-0\x00",
            "2020-01-0é", "0001-01-01", "9999-12-31", "2020-1-01", "abcd-ef-gh", "",
        ]
        valid, *parts = iso_date_fields(strings)
        for i, text in enumerate(strings):
            alone_valid, *alone = iso_date_fields([text])
            assert alone_valid[0] == valid[i]
            assert [p[0] for p in alone] == [p[i] for p in parts]
            try:
                day = datetime.date.fromisoformat(text)
            except ValueError:
                day = None
            assert valid[i] == (day is not None and len(text) == 10), text
            if day is not None:
                expected = [day.year, day.month, day.day, day.weekday()]
                assert [int(p[i]) for p in parts] == expected
        assert [len(a) for a in iso_date_fields([])] == [0] * 5


class TestDummies:
    def test_unseen_category_gets_all_zeros(self):
        frame = DataFrame({"s": Series(["x", "new", "y"])})
        node = {
            "op": "dummies",
            "column": "s",
            "categories": ["x", "y"],
            "names": ["s_x", "s_y"],
        }
        out = evaluate_feature(node, frame)
        assert out["s_x"].tolist() == [1, 0, 0]
        assert out["s_y"].tolist() == [0, 0, 1]

    @given(
        cells=st.lists(
            st.sampled_from(["x", "y", "z", None, math.nan, np.str_("x"), 1, True]), max_size=30
        ),
        categories=st.lists(st.sampled_from(["x", "y", "w", "z", 1]), unique=True, max_size=4),
        held=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_block_pass_matches_the_per_category_loop(self, cells, categories, held):
        """Unseen categories and missing cells read 0, as each category's
        own ``(codes == j)`` pass gave them."""
        series = Series._from_array(np.fromiter(cells, object, len(cells)), "s")
        dictionaries = ColumnDictionaries() if held else None
        names = [f"s_{i}" for i in range(len(categories))]
        node = {"op": "dummies", "column": "s", "categories": categories, "names": names}
        out = evaluate_feature(node, DataFrame({"s": series}), dictionaries)
        encoded = dictionary.encoded(dictionaries, "s", series)
        if encoded is None:
            codes, uniques = series._factorized()
            position = {u: j for j, u in enumerate(uniques)}
        else:
            codes, state = encoded
            position = state.index
            if position is None:
                position = {u: j for j, u in enumerate(state.values)}
        assert list(out) == names
        for category, name in zip(categories, names):
            want = (codes == position.get(category, -2)).astype(np.int64)
            assert out[name].dtype == want.dtype
            assert out[name].values.tobytes() == want.tobytes()


class TestGroupLookup:
    def test_single_key_broadcast(self):
        frame = DataFrame(
            {"g": Series(["a", "b", "a", "c"]), "v": Series([1.0, 2.0, 3.0, 4.0])}
        )
        node = {
            "op": "group_lookup",
            "keys": ["g"],
            "agg_col": "v",
            "agg": "mean",
            "table": [["a", 2.0], ["b", 2.0]],
            "fill": None,
            "value_kind": "float64",
        }
        out = evaluate_feature(node, frame)
        assert out.tolist()[:3] == [2.0, 2.0, 2.0]
        assert np.isnan(out.values[3])  # unseen group -> fill (None -> NaN)

    def test_multi_key_matches_groupby_transform(self):
        frame = DataFrame(
            {
                "g": Series(["a", "a", "b", "b"]),
                "h": Series(["p", "q", "p", "p"]),
                "v": Series([1.0, 2.0, 3.0, 5.0]),
            }
        )
        fitted = frame.groupby(["g", "h"])["v"].transform("max")
        table = [
            ["a", "p", 1.0],
            ["a", "q", 2.0],
            ["b", "p", 5.0],
        ]
        node = {
            "op": "group_lookup",
            "keys": ["g", "h"],
            "agg_col": "v",
            "agg": "max",
            "table": table,
            "fill": None,
            "value_kind": "float64",
        }
        out = evaluate_feature(node, frame)
        assert series_identical(out, fitted)

    def test_missing_keys_use_hash_path(self):
        frame = DataFrame(
            {"g": Series(["a", None, "a"]), "v": Series([1.0, 2.0, 3.0])}
        )
        node = {
            "op": "group_lookup",
            "keys": ["g"],
            "agg_col": "v",
            "agg": "mean",
            "table": [["a", 2.0]],
            "fill": None,
            "value_kind": "float64",
        }
        out = evaluate_feature(node, frame)
        assert out.values[0] == 2.0 and out.values[2] == 2.0


class TestValidation:
    def test_fit_nodes_rejected(self):
        with pytest.raises(ExprError):
            validate_expr({"op": "fit_mean", "column": "a"})
        assert not is_frozen({"op": "fit_mean", "column": "a"})

    def test_unknown_op_rejected(self):
        with pytest.raises(ExprError):
            validate_expr({"op": "nope"})

    def test_expr_columns_collects_references(self):
        node = {
            "op": "add",
            "left": col("a"),
            "right": {
                "op": "group_lookup",
                "keys": ["g", "h"],
                "agg_col": "v",
                "agg": "mean",
                "table": [],
                "fill": None,
                "value_kind": "float64",
            },
        }
        assert set(expr_columns(node)) == {"a", "g", "h", "v"}

    def test_freeze_resolves_fit_mean(self, frame):
        node = {
            "op": "sub",
            "left": col("a"),
            "right": {"op": "fit_mean", "column": "a"},
        }
        frozen = freeze_expr(node, frame)
        validate_expr(frozen)
        assert frozen["right"]["op"] == "const"
        assert frozen["right"]["value"] == frame["a"].mean()
