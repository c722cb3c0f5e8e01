"""The cached dictionary encoding and every consumer that reads it.

``Series.encoding()`` backs factorize, ``map``, ``get_dummies``, the
object-column grouping, and the serve-side string ops and group lookups.
Each consumer is checked on hostile cells against the retained loop
semantics (``repro.dataframe.reference`` and the per-row fallbacks the
fast paths replaced), through the one ``frames_identical`` predicate.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series
from repro.dataframe import reshape
from repro.dataframe.expr import evaluate_feature, refreeze_group_table
from repro.dataframe.kernels import is_missing_scalar
from repro.dataframe.reference import (
    _reference_groups,
    assert_series_equivalent,
    reference_factorize,
    reference_get_dummies,
    reference_groupby_transform,
    reference_map,
)
from repro.serve import FeaturePlan, FeatureServer, compile_plan, frames_identical


def obj(values, name="c") -> Series:
    """An object column holding *values* exactly as given (no coercion)."""
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return Series._from_array(arr, name)


def assert_same(a, b):
    """Bitwise identity of two Series or two ``{name: Series}`` mappings."""
    if isinstance(a, Series):
        a, b = {"x": a}, {"x": b}
    identical, detail = frames_identical(DataFrame(dict(a)), DataFrame(dict(b)))
    assert identical, detail


HOSTILE = {
    "nul": ["a", "a\x00", "a", "a\x00\x00", "b", "a\x00"],
    "non_ascii": ["Zürich", "😀", "Zürich", "", "abc", "😀"],
    "empty_and_words": ["", "nan", "None", "", "nan", "None"],
    "np_str": [np.str_("a"), "a", np.str_("b"), "b", "a", np.str_("a")],
    "str_then_np_str": ["a", np.str_("a"), "b", np.str_("b"), "a", "c"],
    "str_none": ["a", None, "b", "a", None, "c"],
    "str_nan": ["a", float("nan"), "b", "a", np.nan, "c"],
    "mixed": [1, "1", 1.0, True, "a", 2],
    "all_same": ["z"] * 6,
}

DATES = ["2020-01-01", "2020-02-29", "2020-01-01", "1999-12-31", "2024-07-04"]
SPLITS = ["a,b", " x , y ", "", "only", "a,b,c", "ä,😀"]


@pytest.fixture(params=sorted(HOSTILE))
def hostile(request) -> Series:
    return obj(HOSTILE[request.param])


def hostile_frame(series: Series) -> DataFrame:
    n = len(series)
    return DataFrame(
        {
            "c": series,
            "v": Series([float(i) * 1.5 for i in range(n)]),
            "k": Series([i % 2 for i in range(n)]),
        }
    )


# ----------------------------------------------------------------------
# The encoding itself
# ----------------------------------------------------------------------
class TestEncoding:
    def test_exact_str_columns_carry_an_index(self):
        codes, uniques, index = obj(["b", "a", "b", "a\x00", ""]).encoding()
        assert codes.tolist() == [0, 1, 0, 2, 3]
        assert uniques == ["b", "a", "a\x00", ""]
        assert index == {"b": 0, "a": 1, "a\x00": 2, "": 3}

    @pytest.mark.parametrize(
        "values",
        [
            [np.str_("a"), "a"],
            ["a", None],
            ["a", float("nan")],
            ["a", 1],
        ],
    )
    def test_other_object_columns_have_no_index(self, values):
        encoded = obj(values).encoding()
        assert encoded is not None and encoded[2] is None

    def test_codes_and_uniques_match_the_reference(self, hostile):
        codes, uniques, _ = hostile.encoding()
        ref_codes, ref_uniques = reference_factorize(hostile)
        assert codes.tolist() == ref_codes.tolist()
        assert [(type(u), u) for u in uniques] == [(type(u), u) for u in ref_uniques]

    @pytest.mark.parametrize(
        "series",
        [
            Series([3, 1, 3, 2]),
            Series([0.0, -0.0, np.nan, 1.5]),
            Series([True, False, True]),
        ],
    )
    def test_typed_columns_match_the_reference(self, series):
        codes, uniques, index = series.encoding()
        ref_codes, ref_uniques = reference_factorize(series)
        assert index is None
        assert codes.tolist() == ref_codes.tolist() and uniques == ref_uniques

    def test_empty_object_column(self):
        codes, uniques, index = obj([]).encoding()
        assert codes.dtype == np.int64 and len(codes) == 0
        assert uniques == [] and index == {}

    def test_cached_and_read_only(self):
        series = obj(["x", "y", "x"])
        first = series.encoding()
        assert series.encoding() is first
        assert not first[0].flags.writeable

    def test_public_factorize_returns_a_private_copy(self):
        series = obj(["x", "y", "x"])
        codes, uniques = reshape.factorize(series)
        codes[0] = 7
        uniques.append("z")
        assert series.encoding()[0].tolist() == [0, 1, 0]
        assert series.encoding()[1] == ["x", "y"]
        assert series.unique() == ["x", "y"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(alphabet=["a", "b", "\x00", "é", "😀", " "], max_size=3),
            max_size=40,
        )
    )
    def test_random_string_columns_match_the_reference(self, values):
        series = obj(values)
        codes, uniques, index = series.encoding()
        ref_codes, ref_uniques = reference_factorize(series)
        assert codes.tolist() == ref_codes.tolist()
        assert uniques == ref_uniques
        assert index == {u: i for i, u in enumerate(ref_uniques)}


# ----------------------------------------------------------------------
# Fit-side consumers
# ----------------------------------------------------------------------
MAPPER = {"a": 10, "a\x00": 11, "1": 12, 1: 13, "nan": 15, "": 17, "Zürich": 18}


class TestFitConsumers:
    def test_map(self, hostile):
        assert_same(hostile.map(MAPPER), reference_map(hostile, MAPPER))

    def test_factorize(self, hostile):
        codes, uniques = reshape.factorize(hostile)
        ref_codes, ref_uniques = reference_factorize(hostile)
        assert codes.tolist() == ref_codes.tolist() and uniques == ref_uniques

    def test_get_dummies(self, hostile):
        identical, detail = frames_identical(
            reshape.get_dummies(hostile, prefix="c"),
            reference_get_dummies(hostile, prefix="c"),
        )
        assert identical, detail

    def test_groupby_transform(self, hostile):
        frame = hostile_frame(hostile)
        for keys in (["c"], ["c", "k"]):
            got = frame.groupby(keys)["v"].transform("mean")
            ref = reference_groupby_transform(frame, keys, "v", "mean")
            assert_series_equivalent(got, ref, f"transform{keys}")

    def test_plain_str_columns_group_by_codes(self):
        series = obj(["a", "a\x00", "a", "b"])
        order, starts, inverse = series.grouping()
        codes = series.encoding()[0]
        # Groups are the encoding's classes: equal codes, equal segment.
        assert len(starts) == 3
        assert all(
            (inverse == inverse[i]).tolist() == (codes == codes[i]).tolist()
            for i in range(len(codes))
        )

    @pytest.mark.parametrize("name", ["np_str", "str_none", "str_nan", "mixed"])
    def test_other_object_columns_keep_the_hash_path(self, name):
        """Columns that are not all plain ``str`` group by dict keying:
        the segments are the reference's groups (``None`` one group, a
        NaN object by identity, ``1 == 1.0 == True``)."""
        series = obj(HOSTILE[name])
        order, starts, _ = series.grouping()
        segments = sorted(np.split(order, starts[1:]), key=lambda rows: rows[0])
        groups = _reference_groups(DataFrame({"c": series}), ["c"])
        assert [rows.tolist() for rows in segments] == list(groups.values())


# ----------------------------------------------------------------------
# Serve-side expression ops
# ----------------------------------------------------------------------
def split_reference(series: Series, sep: str, names: list) -> dict:
    columns = [[] for _ in names]
    for value in series.tolist():
        pieces = None if is_missing_scalar(value) else str(value).split(sep)
        for i, lst in enumerate(columns):
            ok = pieces is not None and i < len(pieces)
            lst.append(pieces[i].strip() if ok else None)
    return {name: Series(lst, name) for name, lst in zip(names, columns)}


class TestExprOps:
    def test_dummies(self, hostile):
        frame = hostile_frame(hostile)
        _, categories = reference_factorize(hostile)
        names = [f"c_{cat}" for cat in categories]
        node = {"op": "dummies", "column": "c", "categories": categories, "names": names}
        ref = reference_get_dummies(hostile, prefix="c")
        assert_same(evaluate_feature(node, frame), {n: ref[n] for n in names})

    def test_dict_map(self, hostile):
        node = {
            "op": "dict_map",
            "column": "c",
            "keys": list(MAPPER),
            "values": list(MAPPER.values()),
        }
        got = evaluate_feature(node, hostile_frame(hostile))
        assert_same(got, reference_map(hostile, MAPPER))

    def test_str_len(self, hostile):
        got = evaluate_feature({"op": "str_len", "column": "c"}, hostile_frame(hostile))
        assert_same(got, hostile.str.len())

    @pytest.mark.parametrize("values", [SPLITS, HOSTILE["nul"], HOSTILE["str_none"]])
    def test_split_parts(self, values):
        series = obj(values)
        names = ["p0", "p1", "2"]
        node = {"op": "split_parts", "column": "c", "sep": ",", "outputs": names}
        got = evaluate_feature(node, DataFrame({"c": series}))
        assert_same(got, split_reference(series, ",", names))

    @pytest.mark.parametrize(
        "values",
        [
            DATES,
            DATES[:2] + ["2020-01-0\x00"],  # NUL: the accessor path decides
            DATES[:2] + ["2020-01-0é"],
            DATES[:2] + [None],
        ],
    )
    def test_date_split(self, values):
        series = obj(values)
        parts = ["year", "month", "day", "dayofweek"]
        node = {
            "op": "date_split",
            "column": "c",
            "outputs": [[part, f"d_{part}"] for part in parts],
        }
        frame = DataFrame({"c": series})
        try:
            ref = {f"d_{p}": getattr(series.dt, p).rename(f"d_{p}") for p in parts}
        except ValueError as exc:
            with pytest.raises(type(exc)):
                evaluate_feature(node, frame)
            return
        assert_same(evaluate_feature(node, frame), ref)


# ----------------------------------------------------------------------
# group_lookup against the per-row dict lookup it replaces
# ----------------------------------------------------------------------
def lookup_reference(node: dict, frame: DataFrame) -> Series:
    single = len(node["keys"]) == 1
    table: dict = {}
    for row in node["table"]:
        table[row[0] if single else tuple(row[:-1])] = row[-1]
    rows = zip(*(frame[k].tolist() for k in node["keys"]))
    fill = node.get("fill")
    return Series([table.get(t[0] if single else t, fill) for t in rows])


def lookup(keys, table, value_kind="float64", fill=None) -> dict:
    return {
        "op": "group_lookup",
        "keys": keys,
        "agg": "mean",
        "table": table,
        "value_kind": value_kind,
        "fill": fill,
    }


#: Table keys of every kind against string batches: ``1``/``1.0``/``True``
#: never equal a string, ``"a\x00"`` never equals ``"a"``, ``None`` finds
#: a ``None`` cell and never a NaN one.
MIXED_KEYS = ["a", "a\x00", 1, 1.0, True, "1", "nan", "", "Zürich", "b", None]


class TestGroupLookup:
    def test_single_key_hostile_batches(self, hostile):
        frame = hostile_frame(hostile)
        for kind, value in (("float64", 0.5), ("int64", 3), ("object", "v")):
            table = [[k, value if i % 3 else None] for i, k in enumerate(MIXED_KEYS)]
            node = lookup(["c"], table, kind)
            assert_same(evaluate_feature(node, frame), lookup_reference(node, frame))

    def test_multi_key_hostile_batches(self, hostile):
        frame = hostile_frame(hostile)
        table = [[k, i % 2, float(i)] for i, k in enumerate(MIXED_KEYS)]
        swapped = [[k2, k1, v] for k1, k2, v in table]
        for keys, rows in ((["c", "k"], table), (["k", "c"], swapped)):
            node = lookup(keys, rows)
            assert_same(evaluate_feature(node, frame), lookup_reference(node, frame))

    def test_int64_with_every_group_seen_stays_int64(self):
        frame = DataFrame({"c": obj(["x", "y", "x", "z"])})
        node = lookup(["c"], [["x", 1], ["y", 2], ["z", 3], ["w", None]], "int64")
        out = evaluate_feature(node, frame)
        assert out.dtype == np.int64 and out.tolist() == [1, 2, 1, 3]

    def test_int64_with_an_unseen_group(self):
        frame = DataFrame({"c": obj(["x", "y", "q"])})
        node = lookup(["c"], [["x", 1], ["y", 2]], "int64")
        out = evaluate_feature(node, frame)
        assert_same(out, lookup_reference(node, frame))
        assert out.dtype != np.int64

    def test_multi_key_with_one_key_unseen(self):
        frame = DataFrame({"a": obj(["x", "y", "x"]), "b": Series([1, 2, 9])})
        node = lookup(["a", "b"], [["x", 1, 1.5], ["y", 2, 2.5], ["y", 1, 3.5]])
        out = evaluate_feature(node, frame)
        assert_same(out, lookup_reference(node, frame))
        assert out.values[:2].tolist() == [1.5, 2.5] and np.isnan(out.values[2])

    def test_unseen_groups_take_the_fill(self):
        frame = DataFrame({"c": obj(["x", "q", "x"]), "k": Series([1, 2, 1])})
        for keys, table in ((["c"], [["x", 2.5]]), (["c", "k"], [["x", 1, 2.5]])):
            node = lookup(keys, table, fill=-1.0)
            assert evaluate_feature(node, frame).tolist() == [2.5, -1.0, 2.5]

    def test_float_keys_with_nan_take_the_hash_path(self):
        frame = DataFrame({"c": Series([1.0, np.nan, 2.0, -0.0])})
        node = lookup(["c"], [[1.0, 10.0], [2.0, 20.0], [0.0, 30.0]])
        out = evaluate_feature(node, frame)
        assert_same(out, lookup_reference(node, frame))
        assert np.isnan(out.values[1]) and out.values[3] == 30.0

    def test_repeated_table_keys_keep_the_last_value(self):
        frame = DataFrame({"c": Series([1, 2, 1])})
        node = lookup(["c"], [[1, 1.0], [True, 2.0], [2, 3.0], [2.0, 4.0]])
        assert evaluate_feature(node, frame).tolist() == [2.0, 4.0, 2.0]

    def test_wide_key_space_probes_by_search(self):
        n = 300
        frame = DataFrame({"a": Series(list(range(n))), "b": Series(list(range(n)))})
        node = lookup(["a", "b"], [[i, i, float(i)] for i in range(0, n, 2)])
        assert_same(evaluate_feature(node, frame), lookup_reference(node, frame))

    def test_key_space_past_int64_keeps_serving(self):
        """4 keys × 50k distinct values each: the key space overflows
        int64, and pairwise re-densified ids still probe exactly."""
        n = 50_000
        rng = np.random.default_rng(0)
        cols = [rng.permutation(n) for _ in range(4)]
        table = [[*map(int, keys), float(i)] for i, keys in enumerate(zip(*cols))]
        last = cols[3].copy()
        last[::3] = np.roll(last[::3], 1)  # unseen combinations take the fill
        frame = DataFrame(
            {"a": Series(cols[0]), "b": Series(cols[1]), "c": Series(cols[2]), "d": Series(last)}
        )
        node = lookup(["a", "b", "c", "d"], table, fill=-1.0)
        assert_same(evaluate_feature(node, frame), lookup_reference(node, frame))

    def test_empty_batch(self):
        frame = DataFrame({"c": obj([])})
        out = evaluate_feature(lookup(["c"], [["x", 1.0]]), frame)
        assert len(out) == 0


# ----------------------------------------------------------------------
# Cache invalidation
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def test_setitem_gives_a_fresh_encoding(self):
        series = obj(["x", "y", "x", "z"])
        before = series.encoding()
        series[0] = "w"
        after = series.encoding()
        assert after is not before
        assert after[1] == ["w", "y", "x", "z"]
        _, _, inverse = series.grouping()
        assert len(set(inverse.tolist())) == 4

    def test_swapped_buffer_never_serves_a_stale_encoding(self):
        series = obj(["x", "y", "x"])
        series.encoding()
        series.grouping()
        series._values = obj(["p", "p", "q"]).values
        assert series.encoding()[1] == ["p", "q"]
        assert len(series.grouping()[1]) == 2

    def test_refreshed_group_table_is_not_served_from_the_compiled_cache(self):
        frame = DataFrame({"c": obj(["x", "y", "x"])})
        node = lookup(["c"], [["x", 1.0], ["y", 2.0]])
        assert evaluate_feature(node, frame).tolist() == [1.0, 2.0, 1.0]
        refreeze_group_table(node, ["x", "y"], np.array([5.0, 6.0]))
        assert evaluate_feature(node, frame).tolist() == [5.0, 6.0, 5.0]

    def test_refreezing_replaces_the_compiled_entry(self):
        from repro.dataframe import expr

        frame = DataFrame({"c": obj(["x", "y"])})
        node = lookup(["c"], [["x", 1.0]])
        evaluate_feature(node, frame)
        entries = len(expr._COMPILED_TABLES)
        for value in range(5):
            refreeze_group_table(node, ["x"], np.array([float(value)]))
            assert evaluate_feature(node, frame).values[0] == value
        assert len(expr._COMPILED_TABLES) == entries

    def test_plan_refresh_uses_the_refrozen_tables(self):
        from repro.dataframe.io import iter_frame_shards
        from repro.eval.serving import build_demo_result

        result, frame = build_demo_result(400, seed=0)
        plan = FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json())
        before = plan.apply(frame)  # compiles and caches every group table
        serve = frame.copy()
        serve["Income"] = Series._from_array(np.full(len(frame), 7.0), "Income")
        assert plan.refresh_group_tables(iter_frame_shards(serve, 97)) > 0
        after = plan.apply(serve)
        reloaded = FeaturePlan.from_json(plan.to_json()).apply(serve)
        identical, detail = frames_identical(after, reloaded)
        assert identical, detail
        assert not frames_identical(after, before)[0]

    def test_threads_share_one_frame(self):
        from repro.eval.serving import build_demo_result

        result, frame = build_demo_result(2000, seed=1)
        server = FeatureServer(plan=compile_plan(result, frame, "Target"))
        # New Series objects: every thread races to encode each column.
        shared = DataFrame(
            {c: Series._from_array(frame[c].values, c) for c in frame.columns}
        )
        outputs: list = [None] * 8
        barrier = threading.Barrier(8, timeout=60)

        def call(i):
            barrier.wait()
            outputs[i] = server.transform(shared)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in outputs:
            identical, detail = frames_identical(out, result.frame)
            assert identical, detail


# ----------------------------------------------------------------------
# Unhashable cells
# ----------------------------------------------------------------------
class TestUnhashableCells:
    def test_encoding_is_none_and_callers_keep_their_fallback(self):
        series = obj([[1], [2], [1]])
        assert series.encoding() is None
        with pytest.raises(TypeError):
            series.grouping()
        with pytest.raises(TypeError):
            DataFrame({"c": series, "v": Series([1.0, 2.0, 3.0])}).groupby("c")
        codes, uniques = reshape.factorize(series)
        assert codes.tolist() == [0, 1, 0] and uniques == [[1], [2]]
        with pytest.raises(TypeError):
            series.map({"a": 1})

    def test_hashable_container_of_an_unhashable_cell(self):
        assert obj([(1, [2]), (1, [2])]).encoding() is None
