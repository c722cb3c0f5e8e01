"""Unit tests for :mod:`repro.dataframe.series`."""

import math

import numpy as np
import pytest

from repro.dataframe import Series


class TestConstruction:
    def test_int_list_becomes_int64(self):
        s = Series([1, 2, 3])
        assert s.dtype == np.int64
        assert s.tolist() == [1, 2, 3]

    def test_float_list_becomes_float64(self):
        s = Series([1.5, 2.0])
        assert s.dtype == np.float64

    def test_missing_promotes_ints_to_float(self):
        s = Series([1, None, 3])
        assert s.dtype == np.float64
        assert math.isnan(s[1])

    def test_strings_become_object(self):
        s = Series(["a", "b"])
        assert s.dtype == object

    def test_mixed_becomes_object(self):
        s = Series(["a", 1])
        assert s.dtype == object

    def test_bool_list_becomes_bool(self):
        s = Series([True, False])
        assert s.dtype == bool

    def test_nan_string_mix_keeps_none(self):
        s = Series(["a", None])
        assert s.tolist() == ["a", None]

    def test_int_past_int64_keeps_exact_ints_in_object(self):
        s = Series([1, 2**63, -(2**63) - 1])
        assert s.dtype == object
        assert s.tolist() == [1, 2**63, -(2**63) - 1]
        assert Series([2**63 - 1, -(2**63)]).dtype == np.int64

    def test_int_past_int64_with_a_float_or_missing_is_float(self):
        assert Series([2**63, 1.5]).tolist() == [float(2**63), 1.5]
        s = Series([2**63, None])
        assert s.dtype == np.float64
        assert s[0] == float(2**63) and math.isnan(s[1])

    def test_int_past_a_floats_range_reads_as_inf(self):
        """As ``float(text)`` reads the int's text (``"1e400"`` → inf)."""
        s = Series([10**400, -(10**400), 1.5, None])
        assert s.dtype == np.float64
        assert s.tolist()[:3] == [math.inf, -math.inf, 1.5]

    @pytest.mark.parametrize(
        "mapping", [{"a": 2**70, "b": 1}, {"a": 2**70, "b": 1, "c": 2}, {"a": 10**400, "b": 0.5}]
    )
    def test_dict_map_to_wide_ints_matches_the_expanded_list(self, mapping):
        s = Series(["a", "b", "c", "a"])
        got = s.map(mapping)
        want = Series([mapping.get(v) for v in s.tolist()])
        assert got.dtype == want.dtype
        assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))

    def test_from_numpy_copies(self):
        arr = np.array([1.0, 2.0])
        s = Series(arr)
        arr[0] = 99.0
        assert s[0] == 1.0

    def test_from_series_copies(self):
        a = Series([1, 2], name="a")
        b = Series(a, name="b")
        b[0] = 5
        assert a[0] == 1
        assert b.name == "b"

    def test_2d_array_rejected(self):
        with pytest.raises(ValueError):
            Series(np.zeros((2, 2)))

    def test_full(self):
        s = Series.full(4, 7, name="sevens")
        assert s.tolist() == [7, 7, 7, 7]
        assert s.name == "sevens"


class TestIndexing:
    def test_scalar_get_unboxes_numpy(self):
        s = Series([1, 2, 3])
        assert isinstance(s[0], int)

    def test_boolean_mask(self):
        s = Series([1, 2, 3, 4])
        out = s[s > 2]
        assert out.tolist() == [3, 4]

    def test_mask_by_other_series(self):
        s = Series([10, 20, 30])
        mask = Series([True, False, True])
        assert s[mask].tolist() == [10, 30]

    def test_slice(self):
        s = Series([1, 2, 3, 4])
        assert s[1:3].tolist() == [2, 3]

    def test_fancy_index(self):
        s = Series([1, 2, 3, 4])
        assert s[[3, 0]].tolist() == [4, 1]

    def test_setitem_scalar(self):
        s = Series([1, 2, 3])
        s[1] = 9
        assert s.tolist() == [1, 9, 3]

    def test_setitem_float_into_int_promotes(self):
        s = Series([1, 2, 3])
        s[0] = 1.5
        assert s.dtype == np.float64
        assert s[0] == 1.5

    def test_setitem_none_into_int_promotes(self):
        s = Series([1, 2, 3])
        s[0] = None
        assert math.isnan(s[0])


class TestMissing:
    def test_isna_floats(self):
        s = Series([1.0, float("nan"), 3.0])
        assert s.isna().tolist() == [False, True, False]

    def test_isna_objects(self):
        s = Series(["a", None, "c"])
        assert s.isna().tolist() == [False, True, False]

    def test_dropna(self):
        s = Series([1.0, None, 3.0])
        assert s.dropna().tolist() == [1.0, 3.0]

    def test_fillna_numeric(self):
        s = Series([1.0, None])
        assert s.fillna(0).tolist() == [1.0, 0.0]

    def test_fillna_object(self):
        s = Series(["a", None])
        assert s.fillna("missing").tolist() == ["a", "missing"]

    def test_fillna_no_missing_is_copy(self):
        s = Series([1, 2])
        out = s.fillna(0)
        out[0] = 7
        assert s[0] == 1

    def test_count_excludes_missing(self):
        assert Series([1.0, None, 3.0]).count() == 2


class TestTransforms:
    def test_map_callable_skips_missing(self):
        s = Series([1.0, None, 3.0])
        out = s.map(lambda v: v * 2)
        assert out[0] == 2.0
        assert out.isna().tolist() == [False, True, False]

    def test_map_dict_unmapped_becomes_missing(self):
        s = Series(["a", "b"])
        out = s.map({"a": 1})
        assert out[0] == 1
        assert out.isna().tolist() == [False, True]

    def test_apply_sees_missing(self):
        s = Series([1.0, None])
        out = s.apply(lambda v: v is None or v != v)
        assert out.tolist() == [False, True]

    def test_astype_str(self):
        assert Series([1, 2]).astype(str).tolist() == ["1", "2"]

    def test_astype_float(self):
        assert Series(["1.5", "2"]).astype(float).tolist() == [1.5, 2.0]

    def test_clip(self):
        s = Series([1, 5, 10])
        assert s.clip(2, 8).tolist() == [2.0, 5.0, 8.0]

    def test_clip_keeps_nan(self):
        s = Series([1.0, None])
        assert s.clip(0, 10).isna().tolist() == [False, True]

    def test_replace(self):
        s = Series(["x", "y"])
        assert s.replace({"x": "z"}).tolist() == ["z", "y"]

    def test_shift_positive(self):
        s = Series([1, 2, 3])
        out = s.shift(1)
        assert out.isna()[0]
        assert out.tolist()[1:] == [1, 2]

    def test_shift_negative(self):
        s = Series([1, 2, 3])
        out = s.shift(-1)
        assert out.tolist()[:2] == [2, 3]

    def test_where(self):
        s = Series([1, 2, 3])
        out = s.where(s > 1, other=0)
        assert out.tolist() == [0, 2, 3]

    def test_round(self):
        assert Series([1.26]).round(1).tolist() == [1.3]

    def test_abs(self):
        assert Series([-2, 3]).abs().tolist() == [2.0, 3.0]

    def test_rank_average_ties(self):
        s = Series([10, 20, 20, 30])
        assert s.rank().tolist() == [1.0, 2.5, 2.5, 4.0]


class TestReductions:
    def test_mean_ignores_missing(self):
        assert Series([1.0, None, 3.0]).mean() == 2.0

    def test_median(self):
        assert Series([3, 1, 2]).median() == 2.0

    def test_std_sample(self):
        assert Series([1, 2, 3]).std() == pytest.approx(1.0)

    def test_min_max_numeric(self):
        s = Series([3, 1, 2])
        assert (s.min(), s.max()) == (1.0, 3.0)

    def test_min_max_strings(self):
        s = Series(["b", "a", None])
        assert (s.min(), s.max()) == ("a", "b")

    def test_sum_empty_is_zero(self):
        assert Series([]).sum() == 0.0

    def test_mean_empty_is_nan(self):
        assert math.isnan(Series([]).mean())

    def test_quantile(self):
        assert Series([0, 10]).quantile(0.5) == 5.0

    def test_unique_order_preserved(self):
        assert Series(["b", "a", "b", None]).unique() == ["b", "a"]

    def test_nunique(self):
        assert Series(["b", "a", "b", None]).nunique() == 2
        assert Series(["b", "a", "b", None]).nunique(dropna=False) == 3

    def test_mode(self):
        assert Series(["a", "b", "b"]).mode() == "b"

    def test_value_counts(self):
        vc = Series(["a", "b", "b"]).value_counts()
        assert vc == {"b": 2, "a": 1}

    def test_value_counts_normalized(self):
        vc = Series(["a", "b", "b", "b"]).value_counts(normalize=True)
        assert vc["b"] == pytest.approx(0.75)

    def test_idxmax_skips_nan(self):
        assert Series([1.0, None, 5.0, 2.0]).idxmax() == 2

    def test_corr_perfect(self):
        a = Series([1, 2, 3])
        assert a.corr(a * 2) == pytest.approx(1.0)

    def test_corr_constant_is_nan(self):
        assert math.isnan(Series([1, 1, 1]).corr(Series([1, 2, 3])))

    def test_cumsum(self):
        assert Series([1, 2, 3]).cumsum().tolist() == [1.0, 3.0, 6.0]

    def test_sort_values(self):
        assert Series([3, 1, 2]).sort_values().tolist() == [1, 2, 3]
        assert Series([3, 1, 2]).sort_values(ascending=False).tolist() == [3, 2, 1]


class TestArithmetic:
    def test_add_series(self):
        out = Series([1, 2]) + Series([10, 20])
        assert out.tolist() == [11.0, 22.0]

    def test_add_scalar(self):
        assert (Series([1, 2]) + 1).tolist() == [2.0, 3.0]

    def test_radd(self):
        assert (1 + Series([1, 2])).tolist() == [2.0, 3.0]

    def test_string_concat(self):
        out = Series(["a", "b"]) + "_x"
        assert out.tolist() == ["a_x", "b_x"]

    def test_sub_rsub(self):
        assert (Series([5]) - 2).tolist() == [3.0]
        assert (10 - Series([4])).tolist() == [6.0]

    def test_div_by_zero_gives_inf(self):
        out = Series([1.0]) / Series([0.0])
        assert math.isinf(out[0])

    def test_zero_div_zero_gives_nan(self):
        out = Series([0.0]) / Series([0.0])
        assert math.isnan(out[0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Series([1, 2]) + Series([1])

    def test_pow(self):
        assert (Series([2]) ** 3).tolist() == [8.0]

    def test_neg(self):
        assert (-Series([1, -2])).tolist() == [-1.0, 2.0]

    def test_mod(self):
        assert (Series([5]) % 3).tolist() == [2.0]

    def test_floordiv(self):
        assert (Series([7]) // 2).tolist() == [3.0]

    def test_nan_propagates_through_add(self):
        out = Series([1.0, None]) + 1
        assert out.isna().tolist() == [False, True]


class TestComparisons:
    def test_numeric_comparisons(self):
        s = Series([1, 2, 3])
        assert (s > 2).tolist() == [False, False, True]
        assert (s <= 2).tolist() == [True, True, False]

    def test_eq_string(self):
        s = Series(["a", "b"])
        assert (s == "a").tolist() == [True, False]

    def test_ne(self):
        s = Series(["a", "b"])
        assert (s != "a").tolist() == [False, True]

    def test_nan_compares_false(self):
        s = Series([1.0, None])
        assert (s > 0).tolist() == [True, False]

    def test_and_or_invert(self):
        a, b = Series([True, False]), Series([True, True])
        assert (a & b).tolist() == [True, False]
        assert (a | b).tolist() == [True, True]
        assert (~a).tolist() == [False, True]

    def test_isin(self):
        s = Series(["a", "b", None])
        assert s.isin(["a"]).tolist() == [True, False, False]

    def test_between(self):
        s = Series([1, 5, 10])
        assert s.between(2, 9).tolist() == [False, True, False]
        assert s.between(1, 10).tolist() == [True, True, True]


class TestStringAccessor:
    def test_lower_upper(self):
        s = Series(["Ab", None])
        assert s.str.lower().tolist() == ["ab", None]
        assert s.str.upper().tolist() == ["AB", None]

    def test_contains(self):
        s = Series(["Honda Civic", "Ford"])
        assert s.str.contains("Civic").tolist() == [True, False]

    def test_contains_case_insensitive(self):
        s = Series(["Honda"])
        assert s.str.contains("honda", case=False).tolist() == [True]

    def test_split_plain(self):
        s = Series(["a,b", "c"])
        assert s.str.split(",").tolist() == [["a", "b"], ["c"]]

    def test_split_expand(self):
        s = Series(["a,b", "c"])
        df = s.str.split(",", expand=True)
        assert df.shape == (2, 2)
        assert df["1"].tolist() == ["b", None]

    def test_get(self):
        s = Series(["abc"])
        assert s.str.get(1).tolist() == ["b"]

    def test_startswith_none_safe(self):
        s = Series(["ab", None])
        assert s.str.startswith("a").tolist() == [True, False]

    def test_len(self):
        assert Series(["abc", ""]).str.len().tolist() == [3, 0]

    def test_replace(self):
        assert Series(["a-b"]).str.replace("-", "_").tolist() == ["a_b"]

    def test_cat(self):
        out = Series(["a", "b"]).str.cat(Series(["x", "y"]), sep="-")
        assert out.tolist() == ["a-x", "b-y"]

    def test_slice(self):
        assert Series(["hello"]).str.slice(0, 2).tolist() == ["he"]


class TestDatetimeAccessor:
    def test_components_from_iso(self):
        s = Series(["2024-01-15", "2023-12-31"])
        assert s.dt.year.tolist() == [2024, 2023]
        assert s.dt.month.tolist() == [1, 12]
        assert s.dt.day.tolist() == [15, 31]

    def test_dayofweek(self):
        # 2024-01-15 is a Monday.
        assert Series(["2024-01-15"]).dt.dayofweek.tolist() == [0]

    def test_quarter(self):
        assert Series(["2024-05-01"]).dt.quarter.tolist() == [2]

    def test_none_passes_through(self):
        out = Series(["2024-01-15", None]).dt.year
        assert out[0] == 2024
        assert out.isna().tolist() == [False, True]

    def test_unparseable_raises(self):
        with pytest.raises(ValueError):
            Series(["not a date"]).dt.year

    def test_slash_format(self):
        assert Series(["2024/03/09"]).dt.month.tolist() == [3]


@pytest.mark.parametrize(
    "values",
    [
        np.array([True, False]),
        np.array([-3, 0, 2**62], dtype=np.int64),
        np.array([1, -128], dtype=np.int8),
        np.array([0, 2**64 - 1], dtype=np.uint64),
        np.array([-0.0, np.nan, np.inf, 5e-324]),
        np.array([1.5, np.nan], dtype=np.float32),
        np.array([1 + 2j, complex(np.nan, 0)]),
        np.array(["2020-01-02T03:04:05", "NaT"], dtype="datetime64[s]"),
        np.array(["2020-01-02", "NaT"], dtype="datetime64[ns]"),
        np.array([5, "NaT"], dtype="timedelta64[ms]"),
        np.array(["ab", ""], dtype="U2"),
        np.array([b"ab", b""], dtype="S2"),
    ],
    ids=lambda values: values.dtype.str,
)
def test_tolist_unboxes_like_item_for_every_native_kind(values):
    """``tolist`` on a non-object array returns ``ndarray.tolist()``,
    which must equal the per-element ``.item()`` list in value and type."""
    got = Series._from_array(values).tolist()
    want = [v.item() for v in values]
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [repr(v) for v in got] == [repr(v) for v in want]


def test_tolist_unboxes_numpy_scalars_in_object_arrays():
    values = np.empty(3, dtype=object)
    values[:] = [np.float64(2.5), np.int64(7), "x"]
    got = Series._from_array(values).tolist()
    assert [type(v) for v in got] == [float, int, str]
