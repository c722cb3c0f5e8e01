"""Compiled ops are total on input of the plan's kinds.

A seeded slice of ``benchmarks/bench_resilience.py``'s ``op_fuzz`` gate:
kind-valid edge batches (:func:`~repro.eval.chaos.kind_valid_frame`)
through the plans of the 9 eval datasets at seeds 0 and 1, the demo
plan, and a hand-built plan for each serve op none of them uses.  No
feature may raise.  The one op that used to, ``date_split``, now serves
a cell that does not parse as missing parts, while fit and ``Series.dt``
still raise on it.
"""

import numpy as np
import pytest

from repro.dataframe import DataFrame, Series
from repro.dataframe.expr import OPS, _walk, evaluate_feature, fit_feature
from repro.eval.chaos import kind_valid_frame
from repro.eval.serving import ALL_DATASETS, build_demo_result, fit_and_export
from repro.serve import FeaturePlan, FeatureSpec, compile_plan, series_identical

#: A node for each serve op that no fitted plan uses, over one float column.
HAND_BUILT = {"qcut_collapsed": {"op": "qcut_collapsed", "column": "x"}}


def _one_op_plan(node: dict) -> FeaturePlan:
    spec = FeatureSpec(node["op"], "unary", "", ["x"], [node["op"]], "compiled", expr=node)
    return FeaturePlan(["x"], [("x", "float")], "y", [spec])


@pytest.fixture(scope="module")
def demo():
    result, frame = build_demo_result(300, seed=0)
    return FeaturePlan.from_json(compile_plan(result, frame, "Target").to_json()), frame


#: Every fuzzed plan by name: the eval datasets' plans, the demo plan,
#: and one hand-built plan per serve op none of them uses.
PLAN_NAMES = (
    [f"{dataset}/seed{seed}" for seed in (0, 1) for dataset in ALL_DATASETS]
    + ["demo"]
    + [f"hand_built/{op}" for op in HAND_BUILT]
)


@pytest.fixture(scope="module")
def plans(demo):
    fitted = {
        f"{dataset}/seed{seed}": fit_and_export(dataset, 300, seed)[1].plan
        for seed in (0, 1)
        for dataset in ALL_DATASETS
    }
    fitted["demo"] = demo[0]
    fitted.update((f"hand_built/{op}", _one_op_plan(node)) for op, node in HAND_BUILT.items())
    assert list(fitted) == PLAN_NAMES
    return fitted


def test_every_serve_op_is_fuzzed(plans):
    used = {
        node["op"]
        for plan in plans.values()
        for spec in plan.features
        if spec.status == "compiled"
        for node in _walk(spec.expr)
    }
    assert used == {op for op, spec in OPS.items() if spec.kernel is not None}


@pytest.mark.parametrize("name", PLAN_NAMES)
def test_no_feature_raises_on_kind_valid_batches(plans, name):
    plan = plans[name]
    index = PLAN_NAMES.index(name)
    escapes = []
    for batch in range(2):
        frame = kind_valid_frame(plan, 1500, seed=1000 * index + batch)
        assert plan.schema_problems(frame) == []
        out, report = plan.apply_with_report(frame, failure_policy="degrade")
        assert len(out) == len(frame)
        escapes += [(r.feature, r.error, r.reason) for r in report.failures()]
    assert escapes == []


def test_kind_valid_frame_is_seeded(demo):
    plan, _frame = demo
    a, b = (kind_valid_frame(plan, 200, seed=4) for _ in range(2))
    assert repr(a.to_dict()) == repr(b.to_dict())
    assert repr(a.to_dict()) != repr(kind_valid_frame(plan, 200, seed=5).to_dict())


class TestUnparseableDates:
    BAD = ("cat2", "N/A", "2021-13-45", "", "12")

    @pytest.fixture
    def batch(self, demo):
        """The demo rows with an unparseable date in every fourth row."""
        _plan, frame = demo
        dates = frame["SignupDate"].tolist()
        bad_rows = list(range(0, len(dates), 4))
        for i in bad_rows:
            dates[i] = self.BAD[i % len(self.BAD)]
        batch = frame.column_view(frame.columns)
        batch["SignupDate"] = Series(dates, "SignupDate")
        return batch, bad_rows

    def test_serve_gives_missing_parts_for_those_rows_only(self, demo, batch):
        plan, frame = demo
        batch, bad_rows = batch
        clean = plan.apply(frame)
        out = plan.apply(batch)
        spec = next(s for s in plan.features if s.expr["op"] == "date_split")
        for name in spec.output_columns:
            got, want = out[name].values, clean[name].values.astype(float)
            assert np.isnan(got[bad_rows]).all(), name
            keep = np.setdiff1d(np.arange(len(got)), bad_rows)
            assert np.array_equal(got[keep], want[keep]), name
        for name in clean.columns:
            if name not in spec.output_columns:
                assert series_identical(clean[name], out[name]), name

    def test_fit_still_rejects_them(self, batch):
        batch, _bad_rows = batch
        template = {"op": "date_split", "column": "SignupDate", "outputs": [["month", "m"]]}
        with pytest.raises(ValueError, match="cannot parse datetime"):
            fit_feature(template, batch)
        with pytest.raises(ValueError, match="cannot parse datetime"):
            evaluate_feature(template, batch)
        with pytest.raises(ValueError, match="cannot parse datetime"):
            batch["SignupDate"].dt.month

    def test_an_all_unparseable_batch_serves(self, demo):
        plan, frame = demo
        batch = frame.head(5).column_view(frame.columns)
        batch["SignupDate"] = Series(["cat2"] * 5, "SignupDate")
        out, report = plan.apply_with_report(batch, failure_policy="strict")
        assert report.ok
        assert out["SignupDate_month"].isna().all()
