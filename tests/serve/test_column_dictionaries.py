"""Plan-held column dictionaries (:mod:`repro.dataframe.dictionary`).

A served plan keeps one dictionary per string column and gathers
per-entry op results by code.  The contract under test: a batch's output
never depends on what the plan served before (each output equals a fresh
plan applying that batch alone), growth is bounded and thread-safe, each
column is looked up once per batch, and each per-entry derivation runs
once per distinct value.
"""

import copy
import pickle
import random
import sys
import threading
from collections import Counter
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series
from repro.dataframe import dictionary, expr, kernels
from repro.dataframe.io import iter_frame_shards
from repro.eval.serving import (
    ALL_DATASETS,
    build_demo_result,
    fit_and_export,
    make_serving_frame,
)
from repro.serve import FeaturePlan, FeatureServer, compile_plan, frames_identical
from repro.serve.plan import FeatureSpec


def obj(values, name) -> Series:
    """An object column holding *values* exactly as given (no coercion)."""
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return Series._from_array(arr, name)


@lru_cache(maxsize=None)
def demo_case() -> tuple[str, DataFrame]:
    result, frame = build_demo_result(300, seed=0)
    plan = compile_plan(result, frame, "Target")
    return plan.to_json(), make_serving_frame(400, seed=1000, n_groups=40)


@lru_cache(maxsize=None)
def dataset_case(dataset: str) -> tuple[str, DataFrame]:
    bundle, result = fit_and_export(dataset, n_rows=200, seed=0)
    return result.plan.to_json(), bundle["frame"]


#: Cells no fitted column holds: ``np.str_`` (equal to, and hashing like,
#: a plain ``str``), NULs, invalid and non-ASCII dates, missing values.
HOSTILE_CELLS = [
    None,
    float("nan"),
    "",
    "a\x00",
    "\x00",
    "Zürich",
    "😀",
    "2020-02-30",
    "2020-13-01",
    "2020-01-0\x00",
    "2020-01-0é",
    "20200101xx",
    "x , y",
    "unseen,pair,three",
]

#: How a batch rewrites one string column.
MODES = (
    "keep",
    "hostile",
    "np_str",
    "str_then_np_str",
    "tail_np_str",
    "tail_unseen_np_str",
    "tail_none",
    "none",
    "unseen",
    "some_unseen",
    "nul",
)


def rewrite(values: list, mode: str, rng: random.Random, tag: int) -> list:
    n = len(values)
    if mode == "hostile":
        pool = HOSTILE_CELLS + values
        return [rng.choice(pool) for _ in range(n)]
    if mode == "np_str":
        return [np.str_(v) if isinstance(v, str) else v for v in values]
    if mode == "str_then_np_str":
        return [np.str_(v) if i % 2 and isinstance(v, str) else v for i, v in enumerate(values)]
    if mode == "tail_np_str":
        return values[:-1] + [np.str_(str(values[-1]))]
    if mode == "tail_unseen_np_str":
        return values[:-1] + [np.str_(f"unseen-np-{tag}")]
    if mode == "tail_none":
        return values[:-1] + [None]
    if mode == "none":
        return [None] * n
    if mode == "unseen":
        return [f"unseen-{tag}-{i % 7}" for i in range(n)]
    if mode == "some_unseen":
        return [f"new-{tag}" if i % 9 == 4 else v for i, v in enumerate(values)]
    if mode == "nul":
        return [f"{v}\x00" if i % 5 == 0 else v for i, v in enumerate(values)]
    return values


def batch_builder(frame: DataFrame, start: int, length: int, modes: list, seed: int):
    """A function building fresh Series for one hostile batch each call."""
    rng = random.Random(seed)
    rows = slice(start, start + length)
    columns: dict[str, list] = {}
    string_columns = [c for c in frame.columns if frame[c].dtype == object]
    for i, name in enumerate(frame.columns):
        values = frame[name].values[rows].tolist()
        if name in string_columns:
            values = rewrite(values, modes[i % len(modes)], rng, seed)
        columns[name] = values

    def build() -> DataFrame:
        out = DataFrame()
        for name, values in columns.items():
            if frame[name].dtype == object:
                out[name] = obj(values, name)
            else:
                out[name] = Series._from_array(np.array(values, frame[name].dtype), name)
        return out

    return build


def sizes(plan: FeaturePlan) -> dict[str, int]:
    return {name: len(state.values) for name, state in plan._dictionaries._columns.items()}


def statuses(report) -> list:
    return [(r.feature, r.status, r.error, r.reason) for r in report.reports]


def assert_consistent(plan: FeaturePlan) -> None:
    """Every column dictionary holds distinct plain ``str`` values with
    exact ids."""
    for name, size in sizes(plan).items():
        state = plan._dictionaries.get(name)
        assert {type(v) for v in state.values} <= {str}, name
        assert len(set(state.values)) == size
        assert state.index == {v: i for i, v in enumerate(state.values)}


def assert_history_free(plan_json: str, frame: DataFrame, batches: list) -> None:
    """Serve *batches* in order through one plan and one server; every
    output must equal a fresh plan's output for that batch alone."""
    plan = FeaturePlan.from_json(plan_json)
    server = FeatureServer(plan=FeaturePlan.from_json(plan_json), failure_policy="degrade")
    for start, length, modes, seed in batches:
        start = start % max(len(frame) - 1, 1)
        build = batch_builder(frame, start, length, modes, seed)
        fresh, fresh_report = FeaturePlan.from_json(plan_json).apply_with_report(
            build(), failure_policy="degrade"
        )
        served, served_report = plan.apply_with_report(build(), failure_policy="degrade")
        via_server, server_report = server.transform_with_report(build())
        for out, report in (
            (served, served_report),
            (via_server, server_report.apply_report),
        ):
            identical, detail = frames_identical(out, fresh)
            assert identical, f"modes={modes} start={start} length={length}: {detail}"
            assert statuses(report) == statuses(fresh_report)
        assert_consistent(plan)


batch_sequences = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.one_of(st.integers(1, 20), st.integers(dictionary.PROBE_CELLS, 150)),
        st.lists(st.sampled_from(MODES), min_size=1, max_size=4),
        st.integers(0, 2**16),
    ),
    min_size=2,
    max_size=6,
)


class TestHistoryFree:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batches=batch_sequences, small_cap=st.booleans())
    def test_demo_plan(self, batches, small_cap):
        plan_json, frame = demo_case()
        cap = 6 if small_cap else dictionary.MAX_ENTRIES
        with mock.patch.object(dictionary, "MAX_ENTRIES", cap):
            assert_history_free(plan_json, frame, batches)

    @pytest.mark.parametrize("dataset", ALL_DATASETS)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(batches=batch_sequences)
    def test_fitted_plans(self, dataset, batches):
        plan_json, frame = dataset_case(dataset)
        assert_history_free(plan_json, frame, batches)

    @pytest.mark.parametrize(
        "late", [None, float("nan"), np.str_("Paris"), np.str_("never-seen"), 7, b"x"]
    )
    def test_a_non_str_cell_past_the_probe_takes_the_encoding_path(self, late):
        plan_json, frame = demo_case()
        plan = FeaturePlan.from_json(plan_json)
        plan.apply(frame)  # warm dictionaries: the next batch probes clean
        head = next(iter_frame_shards(frame, dictionary.PROBE_CELLS + 30)).frame
        batch = head.column_view(head.columns)
        for name in ("City", "Notes", "Pair", "SignupDate", "Segment"):
            batch[name] = obj(head[name].tolist()[:-1] + [late], name)
        fresh = FeaturePlan.from_json(plan_json).apply_with_report(
            batch, failure_policy="degrade"
        )
        served = plan.apply_with_report(batch, failure_policy="degrade")
        identical, detail = frames_identical(served[0], fresh[0])
        assert identical, detail
        assert statuses(served[1]) == statuses(fresh[1])
        assert_consistent(plan)

    def test_a_full_dictionary_keeps_serving_new_values(self):
        plan_json, frame = demo_case()
        batches = [(0, 60, ["unseen"], seed) for seed in range(6)] + [(0, 60, ["keep"], 0)]
        with mock.patch.object(dictionary, "MAX_ENTRIES", 10):
            assert_history_free(plan_json, frame, batches)


# ----------------------------------------------------------------------
# Concurrency, bounds and counters
# ----------------------------------------------------------------------
def demo_batches(n_batches: int, rows: int, seed: int) -> list[DataFrame]:
    """Serving batches in which every fifth segment is new."""
    table = make_serving_frame(n_batches * rows, seed=seed, n_groups=400)
    out = []
    for shard in iter_frame_shards(table, rows):
        batch = shard.frame.column_view(shard.frame.columns)
        segments = batch["Segment"].tolist()
        segments[::5] = [f"new-{shard.index}-{i}" for i in range(len(segments[::5]))]
        batch["Segment"] = Series(segments, "Segment")
        out.append(batch)
    return out


def fresh_copy(frame: DataFrame) -> DataFrame:
    """The same cells in new Series objects: nothing cached."""
    return DataFrame({c: Series._from_array(frame[c].values, c) for c in frame.columns})


@pytest.mark.parametrize("round_", range(3))
def test_threads_serving_shuffled_batches_match_a_serial_run(monkeypatch, round_):
    plan_json, _frame = demo_case()
    batches = demo_batches(32, 300, seed=5 + round_)
    serial = FeatureServer(plan=FeaturePlan.from_json(plan_json))
    expected = [serial.transform(fresh_copy(batch)) for batch in batches]

    plan = FeaturePlan.from_json(plan_json)
    server = FeatureServer(plan=plan)
    # Every state a batch used, per column: growth must never fork them.
    used: dict[str, list] = {}
    real = dictionary._resolve

    def recording(dictionaries, name, series):
        resolved = real(dictionaries, name, series)
        if resolved is not None and resolved[1].index is not None:
            used.setdefault(name, []).append(resolved[1].values)
        return resolved

    monkeypatch.setattr(dictionary, "_resolve", recording)
    # Each worker sends its own copies, as independent callers would.
    requests = [[fresh_copy(batch) for batch in batches] for _ in range(8)]
    results: list[list] = [[] for _ in range(8)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(8, timeout=60)

    def call(worker: int) -> None:
        order = list(range(len(batches)))
        random.Random(worker).shuffle(order)
        try:
            barrier.wait()
            for i in order:
                results[worker].append((i, server.transform(requests[worker][i])))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    for worker in results:
        assert len(worker) == len(batches)
        for i, out in worker:
            identical, detail = frames_identical(out, expected[i])
            assert identical, f"batch {i}: {detail}"
    assert_consistent(plan)
    # One append-only chain: each state a batch used is a prefix of the
    # final one, so no id ever changed (a lost update would fork it).
    for name, states in used.items():
        final = plan._dictionaries.get(name).values
        for values in states:
            assert final[: len(values)] == values, name


def str_len_plan() -> FeaturePlan:
    spec = FeatureSpec(
        "t_len", "", "", ["t"], ["t_len"], "compiled", expr={"op": "str_len", "column": "t"}
    )
    return FeaturePlan(["t"], [("t", "object")], "y", [spec])


def test_dictionary_cap_holds_on_an_all_distinct_stream():
    plan = str_len_plan()
    cap = dictionary.MAX_ENTRIES
    rows = cap // 3 + 1
    for b in range(6):
        cells = [f"row-{b}-{i}-" + "x" * (i % 11) for i in range(rows)]
        out = plan.apply(DataFrame({"t": Series(cells)}))
        assert out["t_len"].tolist() == [len(c) for c in cells]
        assert sizes(plan)["t"] <= cap
    assert sizes(plan)["t"] == cap
    state = plan._dictionaries.get("t")
    assert len(state.values) == len(state.index) == cap


def count_resolves(monkeypatch) -> Counter:
    """Count column resolutions (type pass + lookup pass) per column."""
    lookups: Counter = Counter()
    real = dictionary._resolve

    def counting(dictionaries, name, series):
        lookups[name] += 1
        return real(dictionaries, name, series)

    monkeypatch.setattr(dictionary, "_resolve", counting)
    return lookups


def test_each_derivation_runs_once_per_distinct_value(monkeypatch):
    plan_json, _frame = demo_case()
    table = make_serving_frame(20_000, seed=3, n_groups=2000)
    processed: Counter = Counter()
    derivations = [
        (expr, "_str_lengths"),
        (kernels, "iso_date_fields"),
        (expr, "_split_fields"),
        (expr, "_mapped"),
        (expr, "_table_ids"),
    ]
    for module, fn in derivations:
        real = getattr(module, fn)

        def counting(values, *args, _real=real, _fn=fn):
            processed[_fn] += len(values)
            return _real(values, *args)

        monkeypatch.setattr(module, fn, counting)
    lookups = count_resolves(monkeypatch)

    server = FeatureServer(plan=FeaturePlan.from_json(plan_json))
    n_batches = 0
    for shard in iter_frame_shards(table, 200):
        server.transform(fresh_copy(shard.frame))
        n_batches += 1
    assert n_batches == 100

    distinct = {c: len(set(table[c].tolist())) for c in table.columns}
    assert processed == {
        "_str_lengths": distinct["Notes"],
        "iso_date_fields": distinct["SignupDate"],
        "_split_fields": distinct["Pair"],
        "_mapped": distinct["City"],
        # Segment keys two group tables, City one.
        "_table_ids": 2 * distinct["Segment"] + distinct["City"],
    }
    string_columns = {"City", "Segment", "SignupDate", "Notes", "Pair"}
    assert lookups == {name: n_batches for name in string_columns}


@pytest.mark.parametrize(
    "column, bad, slow_path",
    [
        ("SignupDate", "2020-02-30", "_date_split_by_accessor"),
        ("Pair", "Ford,\x00T", "_split_parts_by_row"),
    ],
)
def test_an_invalid_entry_costs_only_the_batches_holding_it(
    monkeypatch, column, bad, slow_path
):
    """A value the vectorized path cannot take sends its own batch down
    the per-row path; later batches without it are gathered again."""
    plan_json, frame = demo_case()
    calls: list[int] = []
    real = getattr(expr, slow_path)

    def counting(series, *args):
        calls.append(len(series))
        return real(series, *args)

    monkeypatch.setattr(expr, slow_path, counting)
    plan = FeaturePlan.from_json(plan_json)

    def batch(cells: list) -> DataFrame:
        """Fresh Series each call: nothing cached from an earlier batch."""
        out = fresh_copy(frame)
        out[column] = obj(cells, column)
        return out

    clean = frame[column].tolist()
    plan.apply(batch(clean), failure_policy="degrade")
    plan.apply(batch(clean[:-1] + [bad]), failure_policy="degrade")
    assert bad in plan._dictionaries.get(column).index
    plan.apply(batch(clean), failure_policy="degrade")
    assert calls == [len(frame)]


def test_refreezing_a_table_invalidates_its_key_ids():
    table = [["x", 1.0], ["y", 2.0], ["w", 3.0]]
    node = {
        "op": "group_lookup", "keys": ["c"], "agg": "mean", "agg_col": "v",
        "table": table, "value_kind": "float64", "fill": None,
    }
    spec = FeatureSpec("c_mean", "", "", ["c"], ["c_mean"], "compiled", expr=node)
    plan = FeaturePlan(["c"], [("c", "object")], "y", [spec])
    batch = DataFrame({"c": Series(["x", "y", "z", "x"])})
    assert plan.apply(batch)["c_mean"].tolist()[:2] == [1.0, 2.0]
    expr.refreeze_group_table(
        plan.features[0].expr, ["z", "y", "q"], np.array([5.0, 6.0, 7.0])
    )
    out = plan.apply(batch)
    fresh = FeaturePlan.from_json(plan.to_json()).apply(batch)
    identical, detail = frames_identical(out, fresh)
    assert identical, detail
    assert out["c_mean"].tolist()[1:3] == [6.0, 5.0]


def test_dict_map_keeps_container_values_whole():
    node = {"op": "dict_map", "column": "c", "keys": ["a", "b"], "values": [[1, 2], [3, 4]]}
    spec = FeatureSpec("c_map", "", "", ["c"], ["c_map"], "compiled", expr=node)
    plan = FeaturePlan(["c"], [("c", "object")], "y", [spec])
    for cells in (["a", "b", "a"], ["b", "z"]):
        out = plan.apply(DataFrame({"c": Series(cells)}))["c_map"]
        assert out.tolist() == [{"a": [1, 2], "b": [3, 4]}.get(c) for c in cells]


class TestSeriesCache:
    """A column's codes are kept on its Series: re-serving a frame skips
    the lookup, and mutating the Series in place drops them."""

    def test_reserving_a_frame_resolves_each_column_once(self, monkeypatch):
        plan_json, frame = demo_case()
        plan = FeaturePlan.from_json(plan_json)
        lookups = count_resolves(monkeypatch)
        first = plan.apply(frame)
        again = plan.apply(frame)
        identical, detail = frames_identical(again, first)
        assert identical, detail
        assert set(lookups.values()) == {1}

    def test_setitem_between_serves_is_seen(self):
        plan_json, frame = demo_case()
        plan = FeaturePlan.from_json(plan_json)
        batch = frame.column_view(frame.columns)
        for name in ("City", "Notes", "Pair", "SignupDate", "Segment"):
            batch[name] = obj(frame[name].tolist(), name)
        plan.apply(batch)
        batch["City"][3] = "never-seen"
        batch["Notes"][0] = None
        batch["SignupDate"][5] = "2021-06-30"
        batch["Pair"][7] = np.str_("Ford,T")
        identical, detail = frames_identical(
            plan.apply(batch), FeaturePlan.from_json(plan_json).apply(batch)
        )
        assert identical, detail


class TestRuntimeStateOnly:
    def test_serving_leaves_json_equality_and_fingerprint_alone(self):
        plan_json, frame = demo_case()
        plan = FeaturePlan.from_json(plan_json)
        before = FeaturePlan.from_json(plan_json)
        plan.apply(frame)
        assert sizes(plan)
        assert plan.to_json() == plan_json
        assert plan == before
        assert plan.fingerprint == before.fingerprint
        assert "dictionaries" not in repr(plan)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_start_with_empty_dictionaries(self, clone):
        plan_json, frame = demo_case()
        plan = FeaturePlan.from_json(plan_json)
        expected = plan.apply(frame)
        twin = clone(plan)
        assert sizes(twin) == {}
        identical, detail = frames_identical(twin.apply(frame), expected)
        assert identical, detail

    def test_evaluate_feature_without_a_plan_uses_a_throwaway_dictionary(self):
        frame = DataFrame({"t": Series(["ab", "c", "ab"])})
        node = {"op": "str_len", "column": "t"}
        assert expr.evaluate_feature(node, frame).tolist() == [2, 1, 2]
        dictionaries = dictionary.ColumnDictionaries()
        out = expr.evaluate_feature(node, frame, dictionaries)
        assert out.tolist() == [2, 1, 2]
        assert dictionaries.get("t").values == ["ab", "c"]
