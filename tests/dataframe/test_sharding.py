"""The out-of-core substrate: shard iterators, concat, the seeded
reservoir, CSV shard streams, and streaming grouped aggregation.

The load-bearing invariants:

* ``concat_shards(iter_frame_shards(df, k)) == df`` bit-identically for
  every ``k`` — sharding is a pure re-chunking, never a coercion.
* ``reservoir_sample`` depends only on the row stream and seed, never on
  shard boundaries (the draw for global row *i* is a pure hash).
* ``read_csv_shards`` with a ``scan_csv_kinds`` schema yields shards
  bit-identical to row slices of ``read_csv``.
* ``StreamingGroupAgg`` is invariant to shard boundaries for every op,
  bit-exact against the one-shot kernels for everything except
  ``sum``/``mean`` (sequential fold vs pairwise: round-off only).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe.groupby import StreamingGroupAgg
from repro.dataframe.io import (
    Shard,
    concat_shards,
    iter_frame_shards,
    read_csv_shards,
    reservoir_sample,
    scan_csv_kinds,
    to_csv,
)
from repro.serve import frames_identical


def mixed_frame(n=100, seed=0):
    rng = np.random.default_rng(seed)
    income = rng.normal(100.0, 30.0, n)
    income[rng.random(n) < 0.2] = np.nan
    return DataFrame(
        {
            "k": Series([f"g{i}" for i in rng.integers(0, 7, n)]),
            "i": Series(rng.integers(-50, 50, n).tolist()),
            "f": Series(income),
            "o": Series(
                [None if x < 0.15 else f"v{int(x * 10)}" for x in rng.random(n)]
            ),
        }
    )


class TestFrameShards:
    @pytest.mark.parametrize("chunk", [1, 7, 33, 100, 1000])
    def test_roundtrip_bit_identical(self, chunk):
        df = mixed_frame(100)
        shards = list(iter_frame_shards(df, chunk))
        assert sum(len(s) for s in shards) == len(df)
        assert [s.index for s in shards] == list(range(len(shards)))
        assert shards[0].start == 0
        assert frames_identical(concat_shards(shards), df)[0]

    def test_shards_are_views_with_offsets(self):
        df = mixed_frame(50)
        shards = list(iter_frame_shards(df, 20))
        assert [s.start for s in shards] == [0, 20, 40]
        assert [len(s) for s in shards] == [20, 20, 10]
        # slice views share the parent buffer (no copy per shard)
        assert shards[1].frame["i"].values.base is not None

    def test_empty_frame_yields_nothing(self):
        assert list(iter_frame_shards(DataFrame({"a": Series([])}), 10)) == []

    def test_invalid_chunk_rows(self):
        with pytest.raises(ValueError):
            list(iter_frame_shards(mixed_frame(10), 0))

    def test_concat_accepts_plain_frames(self):
        df = mixed_frame(30)
        parts = [s.frame for s in iter_frame_shards(df, 11)]
        assert frames_identical(concat_shards(parts), df)[0]

    def test_concat_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            concat_shards(
                [DataFrame({"a": Series([1])}), DataFrame({"b": Series([1])})]
            )

    def test_concat_empty_input_is_empty_frame(self):
        assert len(concat_shards([])) == 0

    def test_concat_mixed_dtype_rebuilds_via_coercion(self):
        # int shard + float shard: the in-memory build of the same rows
        # coerces to float64, and so must the concat.
        a = DataFrame({"x": Series([1, 2])})
        b = DataFrame({"x": Series([1.5, np.nan])})
        merged = concat_shards([a, b])
        whole = DataFrame({"x": Series([1, 2, 1.5, None])})
        assert merged["x"].dtype == whole["x"].dtype
        assert np.array_equal(merged["x"].values, whole["x"].values, equal_nan=True)


class TestReservoirSample:
    def test_chunk_invariance(self):
        df = mixed_frame(500, seed=3)
        base, total = reservoir_sample(iter_frame_shards(df, 10**6), 64, seed=5)
        assert total == 500
        for chunk in (1, 9, 64, 499):
            sample, n = reservoir_sample(iter_frame_shards(df, chunk), 64, seed=5)
            assert n == 500
            assert frames_identical(sample, base)[0]

    def test_seed_changes_sample(self):
        df = mixed_frame(500, seed=3)
        a, _ = reservoir_sample(iter_frame_shards(df, 100), 64, seed=0)
        b, _ = reservoir_sample(iter_frame_shards(df, 100), 64, seed=1)
        assert not frames_identical(a, b)[0]

    def test_k_at_least_n_returns_whole_stream_in_order(self):
        df = mixed_frame(40)
        sample, total = reservoir_sample(iter_frame_shards(df, 7), 40, seed=9)
        assert total == 40
        assert frames_identical(sample, df)[0]

    def test_rows_kept_in_original_order(self):
        df = DataFrame({"x": Series(list(range(200)))})
        sample, _ = reservoir_sample(iter_frame_shards(df, 17), 50, seed=2)
        values = sample["x"].tolist()
        assert values == sorted(values)
        assert len(set(values)) == 50

    def test_sample_is_unbiased_enough(self):
        # Not a statistical test — just that the hash draw isn't
        # degenerate (e.g. always keeping the first k rows).
        df = DataFrame({"x": Series(list(range(1000)))})
        sample, _ = reservoir_sample(iter_frame_shards(df, 100), 100, seed=0)
        assert max(sample["x"].tolist()) > 500


class TestCsvShards:
    def test_schema_scan_matches_read_csv_slices(self, tmp_path):
        df = mixed_frame(120, seed=1)
        path = tmp_path / "t.csv"
        to_csv(df, path)
        whole = read_csv(path)
        schema = scan_csv_kinds(path)
        for chunk in (1, 37, 5000):
            shards = list(read_csv_shards(path, chunk, schema=schema))
            merged = concat_shards(shards)
            assert frames_identical(merged, whole)[0]
            # each shard individually matches the corresponding row slice
            offset = 0
            for shard in shards:
                expect = whole.iloc[offset : offset + len(shard)]
                assert frames_identical(shard.frame, expect)[0]
                offset += len(shard)

    def test_schemaless_shards_concat_to_read_csv(self, tmp_path):
        df = mixed_frame(60, seed=2)
        path = tmp_path / "t.csv"
        to_csv(df, path)
        merged = concat_shards(list(read_csv_shards(path, 13)))
        assert frames_identical(merged, read_csv(path))[0]

    def test_append_mode_writes_incrementally(self, tmp_path):
        df = mixed_frame(45, seed=4)
        whole_path = tmp_path / "whole.csv"
        inc_path = tmp_path / "inc.csv"
        to_csv(df, whole_path)
        for i, shard in enumerate(iter_frame_shards(df, 10)):
            to_csv(shard.frame, inc_path, append=i > 0)
        assert inc_path.read_bytes() == whole_path.read_bytes()


AGG_OPS = ("sum", "mean", "min", "max", "count", "size", "first", "last")


def streaming_result(frame, chunk, keys, agg_col, op):
    agg = StreamingGroupAgg(keys, agg_col, op)
    for shard in iter_frame_shards(frame, chunk):
        agg.update(shard.frame)
    return agg.result()


class TestStreamingGroupAgg:
    @pytest.mark.parametrize("op", AGG_OPS)
    @pytest.mark.parametrize("chunk", [1, 7, 100, 999])
    def test_chunk_invariance_every_op(self, op, chunk):
        frame = mixed_frame(200, seed=6)
        col = None if op == "size" else "f"
        base_labels, base_values = streaming_result(frame, 10**6, ["k"], col, op)
        labels, values = streaming_result(frame, chunk, ["k"], col, op)
        assert labels == base_labels
        assert values.dtype == base_values.dtype
        assert np.array_equal(
            values, base_values, equal_nan=values.dtype.kind == "f"
        )

    @pytest.mark.parametrize("op", ["min", "max", "count", "first", "last"])
    def test_non_sum_ops_bit_exact_vs_groupby(self, op):
        frame = mixed_frame(150, seed=7)
        labels, values = streaming_result(frame, 11, ["k"], "f", op)
        grouped = frame.groupby("k")["f"].agg(op)
        key_col, val_col = grouped.columns
        expect = dict(zip(grouped[key_col].tolist(), grouped[val_col].values))
        assert set(labels) == set(expect)
        for label, value in zip(labels, values):
            want = expect[label]
            if isinstance(want, float) and np.isnan(want):
                assert np.isnan(value)
            else:
                assert value == want

    def test_size_matches_python_counts(self):
        from collections import Counter

        frame = mixed_frame(150, seed=7)
        labels, values = streaming_result(frame, 11, ["k"], None, "size")
        assert dict(zip(labels, values)) == Counter(frame["k"].tolist())

    def test_sum_mean_close_to_one_shot(self):
        frame = mixed_frame(300, seed=8)
        for op in ("sum", "mean"):
            labels, values = streaming_result(frame, 23, ["k"], "f", op)
            grouped = frame.groupby("k")["f"].agg(op)
            key_col, val_col = grouped.columns
            expect = dict(zip(grouped[key_col].tolist(), grouped[val_col].values))
            for label, value in zip(labels, values):
                want = expect[label]
                if np.isnan(want):
                    assert np.isnan(value)
                else:
                    assert np.isclose(value, want, rtol=1e-12, atol=0.0)

    def test_labels_in_global_first_seen_order(self):
        frame = DataFrame(
            {"k": Series(["b", "a", "c", "a", "d"]), "v": Series([1.0] * 5)}
        )
        labels, _ = streaming_result(frame, 2, ["k"], "v", "sum")
        assert labels == ["b", "a", "c", "d"]

    def test_multi_key(self):
        frame = DataFrame(
            {
                "k1": Series(["a", "a", "b", "b"]),
                "k2": Series(["x", "y", "x", "x"]),
                "v": Series([1.0, 2.0, 3.0, 4.0]),
            }
        )
        labels, values = streaming_result(frame, 3, ["k1", "k2"], "v", "sum")
        assert labels == [("a", "x"), ("a", "y"), ("b", "x")]
        assert values.tolist() == [1.0, 2.0, 7.0]

    def test_all_nan_group_stays_nan_for_min_max_mean(self):
        frame = DataFrame(
            {
                "k": Series(["a", "a", "b"]),
                "v": Series([np.nan, np.nan, 1.0]),
            }
        )
        for op in ("min", "max", "mean"):
            labels, values = streaming_result(frame, 1, ["k"], "v", op)
            out = dict(zip(labels, values))
            assert np.isnan(out["a"])
            assert out["b"] == 1.0

    @pytest.mark.parametrize(
        "keys",
        [
            ["a", None, "b", None, "a", None, "c"],
            [1, "1", 1.0, True, "a", 2, "1"],
            [1.0, np.nan, 2.0, np.nan, 1.0, np.nan, 2.0],
            ["a", np.nan, "b", np.nan, "a", float("nan"), "b"],
        ],
        ids=["none", "mixed", "float_nan", "object_nan"],
    )
    @pytest.mark.parametrize("chunk", [1, 2, 7, 10**6])
    def test_missing_keys_match_the_one_shot_grouping(self, keys, chunk):
        frame = DataFrame(
            {"k": Series(keys), "v": Series([float(i) for i in range(len(keys))])}
        )
        for op in AGG_OPS:
            labels, values = streaming_result(
                frame, chunk, ["k"], None if op == "size" else "v", op
            )
            grouped = (
                frame.groupby("k").size() if op == "size" else frame.groupby("k")["v"].agg(op)
            )
            key_col, val_col = grouped.columns
            assert list(map(repr, labels)) == list(map(repr, grouped[key_col].tolist()))
            assert values.tolist() == grouped[val_col].tolist()

    def test_unknown_agg_raises(self):
        with pytest.raises(ValueError, match="segmented form"):
            StreamingGroupAgg(["k"], "v", "median")

    def test_size_needs_no_agg_col(self):
        frame = DataFrame({"k": Series(["a", "b", "a"])})
        labels, values = streaming_result(frame, 2, ["k"], None, "size")
        assert dict(zip(labels, values)) == {"a": 2, "b": 1}

    def test_non_numeric_agg_col_raises_for_numeric_ops(self):
        frame = DataFrame({"k": Series(["a"]), "v": Series(["text"])})
        agg = StreamingGroupAgg(["k"], "v", "sum")
        with pytest.raises(ValueError):
            agg.update(frame)

    def test_first_last_preserve_object_dtype(self):
        frame = DataFrame(
            {"k": Series(["a", "a", "b"]), "v": Series(["x", "y", None])}
        )
        labels, firsts = streaming_result(frame, 1, ["k"], "v", "first")
        _, lasts = streaming_result(frame, 1, ["k"], "v", "last")
        assert dict(zip(labels, firsts)) == {"a": "x", "b": None}
        assert dict(zip(labels, lasts)) == {"a": "y", "b": None}


# ----------------------------------------------------------------------
# Property suite: shard-boundary invariance under hypothesis
# ----------------------------------------------------------------------
group_keys = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=60
)
agg_values = st.lists(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.just(float("nan")),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(group_keys, agg_values, st.integers(1, 61), st.sampled_from(AGG_OPS))
def test_streaming_agg_chunk_invariant(keys, values, chunk, op):
    n = min(len(keys), len(values))
    frame = DataFrame({"k": Series(keys[:n]), "v": Series(values[:n])})
    col = None if op == "size" else "v"
    base_labels, base_values = streaming_result(frame, n + 1, ["k"], col, op)
    labels, got = streaming_result(frame, chunk, ["k"], col, op)
    assert labels == base_labels
    assert got.dtype == base_values.dtype
    assert np.array_equal(got, base_values, equal_nan=got.dtype.kind == "f")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-100, 100),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.just(float("nan")),
            st.sampled_from(["x", "y", ""]),
            st.none(),
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(1, 51),
)
def test_shard_roundtrip_any_column(values, chunk):
    frame = DataFrame({"c": Series(values)})
    merged = concat_shards(list(iter_frame_shards(frame, chunk)))
    assert merged["c"].dtype == frame["c"].dtype
    assert np.array_equal(
        merged["c"].values, frame["c"].values, equal_nan=frame["c"].dtype.kind == "f"
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 120))
def test_reservoir_chunk_invariant(seed, k, chunk):
    df = DataFrame({"x": Series(list(range(120)))})
    base, total = reservoir_sample(iter_frame_shards(df, 121), k, seed=seed)
    sample, n = reservoir_sample(iter_frame_shards(df, chunk), k, seed=seed)
    assert (total, n) == (120, 120)
    assert sample["x"].tolist() == base["x"].tolist()
    assert len(sample) == min(k, 120)
