"""Each column buffer runs at most one full-column type pass.

A list-built column learns its cell types from list coercion's own type
pass (``kernels.coerce_typed``); any other column finds them with one
``kernels.cell_types`` pass the first time a reader asks, and every
later reader (the profile, the encoding, the served column dictionaries)
reads the kept summary.  Served string columns cut from a list-built
table by ``iter_frame_shards`` inherit their summary and pay no pass.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import SmartFeat
from repro.dataframe import Series, kernels
from repro.dataframe.io import iter_frame_shards
from repro.datasets.synth import make_synthetic_bundle
from repro.eval.serving import build_demo_result, make_serving_frame
from repro.fm import SimulatedFM
from repro.serve import FeaturePlan, FeatureServer, compile_plan, frames_identical


@pytest.fixture
def type_passes(monkeypatch) -> Counter:
    """Type passes per buffer: list coercion builds a buffer with one, and
    every ``cell_types`` call on an object buffer is one more."""
    passes: Counter = Counter()
    keep: list = []  # live buffers keep their ids unique
    coerce, cell_types = kernels.coerce_typed, kernels.cell_types

    def coercing(values, kind=None):
        array, types = coerce(values, kind)
        keep.append(array)
        passes[id(array)] += 1
        return array, types

    def scanning(values, items=None):
        if values.dtype == object:
            keep.append(values)
            passes[id(values)] += 1
        return cell_types(values, items)

    monkeypatch.setattr(kernels, "coerce_typed", coercing)
    monkeypatch.setattr(kernels, "cell_types", scanning)
    return passes


@pytest.mark.parametrize("built", ["array", "list"])
@pytest.mark.parametrize("rows", [2000, 20000])
def test_a_fit_passes_over_each_buffer_at_most_once(type_passes, rows, built):
    bundle = make_synthetic_bundle(rows, seed=0)
    frame = bundle["frame"]  # its string columns come from object arrays
    strings = [name for name in frame.columns if frame[name].dtype == object]
    assert strings == ["City", "Segment"]
    if built == "list":
        frame = frame.copy()
        for name in strings:
            frame[name] = Series(frame[name].tolist(), name)
    type_passes.clear()
    result = SmartFeat(SimulatedFM(seed=0)).fit_transform(
        frame, bundle["target"], descriptions=bundle["descriptions"], title=bundle["title"]
    )
    assert result.new_features
    assert type_passes and max(type_passes.values()) == 1
    passed = [name for name in strings if id(frame[name].values) in type_passes]
    assert passed == (strings if built == "array" else [])


def test_a_served_stream_passes_over_no_input_string_column(type_passes):
    result, fit_frame = build_demo_result(300, seed=0)
    plan_json = compile_plan(result, fit_frame, "Target").to_json()
    table = make_serving_frame(3000, seed=1000, n_groups=40)
    server = FeatureServer(plan=FeaturePlan.from_json(plan_json))
    type_passes.clear()
    shards = list(iter_frame_shards(table, 500))  # alive: their buffer ids stay unique
    outputs = [server.transform(shard.frame) for shard in shards]
    inputs = {id(shard.frame[c].values) for shard in shards for c in table.columns}
    assert not inputs & set(type_passes)
    assert max(type_passes.values(), default=0) <= 1
    fresh = FeaturePlan.from_json(plan_json)
    for shard, served in zip(shards, outputs):
        identical, detail = frames_identical(served, fresh.apply(_unknown_types(shard.frame)))
        assert identical, detail


def _unknown_types(frame):
    """*frame*'s cells in Series that know nothing of their types."""
    out = frame.column_view([])
    for name in frame.columns:
        out[name] = Series._from_array(frame[name].values.copy(), name)
    return out


# ----------------------------------------------------------------------
# Cells that are not plain str keep the exact-type rule
# ----------------------------------------------------------------------
STRING_COLUMNS = ("City", "Segment", "SignupDate", "Notes", "Pair")


def _demo():
    result, fit_frame = build_demo_result(300, seed=0)
    plan_json = compile_plan(result, fit_frame, "Target").to_json()
    return plan_json, make_serving_frame(400, seed=1000, n_groups=40)


def _object_column(values: list, name: str) -> Series:
    """An object column holding *values* exactly as given (no coercion)."""
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return Series._from_array(arr, name)


def test_a_batch_of_np_str_cells_serves_like_an_untyped_one():
    plan_json, frame = _demo()
    warm = FeaturePlan.from_json(plan_json)
    warm.apply(frame)
    batch, untyped = frame.column_view(frame.columns), frame.column_view(frame.columns)
    for name in STRING_COLUMNS:
        cells = [np.str_(v) for v in frame[name].tolist()]
        batch[name] = Series(cells, name)  # list coercion: {np.str_}
        untyped[name] = _object_column(cells, name)
        assert batch[name].cell_types() == {np.str_}
    want = FeaturePlan.from_json(plan_json).apply(untyped)
    for plan in (warm, FeaturePlan.from_json(plan_json)):
        identical, detail = frames_identical(plan.apply(batch), want)
        assert identical, detail


def test_a_np_str_written_into_a_plain_str_column_is_seen():
    plan_json, frame = _demo()
    plan = FeaturePlan.from_json(plan_json)
    batch = frame.column_view(frame.columns)
    for name in STRING_COLUMNS:
        batch[name] = Series(frame[name].tolist(), name)
    plan.apply(batch)  # warm dictionaries and the batch's cached codes
    untyped = frame.column_view(frame.columns)
    for name in STRING_COLUMNS:
        cells = frame[name].tolist()
        cells[3] = np.str_(cells[0])  # a value the column serves, as np.str_
        batch[name][3] = cells[3]
        assert batch[name].cell_types() == {str, np.str_}
        untyped[name] = _object_column(cells, name)
    want = FeaturePlan.from_json(plan_json).apply(untyped)
    identical, detail = frames_identical(plan.apply(batch), want)
    assert identical, detail
