"""Serve-path resilience: isolation, plan cache, health.

Faults are injected by patching ``repro.serve.plan.evaluate_feature``
(the ``fail_feature`` fixture), the name the replay loop evaluates every
feature through; ``test_chaos.py`` drives every fault mode and a seeded
storm of them.
"""

import numpy as np
import pytest

from repro.core.sandbox import TransformError
from repro.dataframe import DataFrame, Series
from repro.dataframe.expr import ExprError
from repro.eval.serving import build_demo_result
from repro.serve import (
    FeaturePlan,
    FeatureServer,
    FeatureSpec,
    PlanError,
    PlanRegistry,
    compile_plan,
    series_identical,
)


@pytest.fixture(scope="module")
def plan_result_frame():
    result, frame = build_demo_result(80, seed=0)
    return compile_plan(result, frame, "Target"), result, frame


class TestDegradeIsolation:
    @pytest.mark.parametrize("position", [0, 6, -1])
    def test_one_raising_feature_costs_only_its_columns(
        self, plan_result_frame, fail_feature, position
    ):
        """The degrade contract: the raising feature's columns NaN-fill,
        every other column is bit-identical to a fault-free run, and
        strict re-raises the original error."""
        plan, _result, frame = plan_result_frame
        clean = plan.apply(frame)
        victim = [s for s in plan.features if s.status != "omitted"][position]
        fail_feature(victim)
        out, report = plan.apply_with_report(frame, failure_policy="degrade")
        failed = report.failures()
        assert [(r.feature, r.error) for r in failed] == [(victim.name, "TransformError")]
        assert out.columns == clean.columns
        for name in clean.columns:
            if name in victim.output_columns:
                assert np.isnan(out[name].values).all(), name
            else:
                assert series_identical(clean[name], out[name]), name
        with pytest.raises(TransformError, match="injected"):
            plan.apply_with_report(frame, failure_policy="strict")

    def test_wrong_row_count_is_rejected_by_the_install_check(
        self, plan_result_frame, fail_feature
    ):
        plan, _result, frame = plan_result_frame
        clean = plan.apply(frame)
        victim = next(s for s in plan.features if s.status != "omitted")
        fail_feature(victim, mode="bad_output")
        out, report = plan.apply_with_report(frame, failure_policy="degrade")
        assert [(r.feature, r.error) for r in report.failures()] == [(victim.name, "PlanError")]
        for name in clean.columns:
            if name not in victim.output_columns:
                assert series_identical(clean[name], out[name]), name
        with pytest.raises(PlanError, match="rows"):
            plan.apply(frame)

    def test_schema_drift_degrades_only_dependent_features(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        dropped = plan.input_schema[0][0]
        drifted = frame.column_view([c for c in frame.columns if c != dropped])
        out, report = plan.apply_with_report(drifted, failure_policy="degrade")
        failed = {r.feature for r in report.reports if r.status == "failed"}
        dependent = {
            s.name
            for s in plan.features
            if s.status != "omitted" and dropped in s.input_columns
        }
        assert dependent <= failed
        for r in report.reports:
            if r.status == "failed":
                assert r.reason  # every failure is explained
        healthy = [
            s
            for s in plan.features
            if s.status != "omitted" and s.name not in failed
        ]
        clean = plan.apply(frame)
        for spec in healthy:
            for name in spec.output_columns:
                assert series_identical(clean[name], out[name]), name

    def test_unknown_policy_rejected(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        with pytest.raises(PlanError, match="failure_policy"):
            plan.apply_with_report(frame, failure_policy="yolo")


class TestServerPlanCache:
    def test_explicit_version_cached_without_reread(self, tmp_path, plan_result_frame):
        plan, _result, frame = plan_result_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        server = FeatureServer(registry=registry, name="demo", version=1)
        first = server.plan_for()
        assert server.plan_for() is first

    def test_latest_resolution_invalidates_on_save(self, tmp_path, plan_result_frame):
        plan, _result, frame = plan_result_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        server = FeatureServer(registry=registry, name="demo")
        first = server.plan_for()
        assert server.plan_for() is first  # cached while nothing changed
        marked = type(plan).from_dict(plan.to_dict())
        marked.metadata["marker"] = "v2"
        registry.save(marked, "demo")
        second = server.plan_for()
        assert second.metadata.get("marker") == "v2"  # latest re-resolved

    def test_pin_change_invalidates(self, tmp_path, plan_result_frame):
        plan, _result, frame = plan_result_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        registry.save(plan, "demo")
        server = FeatureServer(registry=registry, name="demo")
        server.plan_for()
        token_before = registry.state_token("demo")
        registry.pin("demo", 1)
        assert registry.state_token("demo") != token_before
        pinned = server.plan_for()
        assert pinned.fingerprint == plan.fingerprint

    def test_state_token_stable_when_idle(self, tmp_path, plan_result_frame):
        plan, _result, _frame = plan_result_frame
        registry = PlanRegistry(str(tmp_path))
        registry.save(plan, "demo")
        assert registry.state_token("demo") == registry.state_token("demo")


class TestHealthSurface:
    def test_health_ok_when_everything_serves(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        server = FeatureServer(plan=plan, failure_policy="degrade")
        server.transform(frame)
        health = server.health()
        assert health["status"] == "ok"
        assert health["failing_features"] == []
        assert health["batches"] == 1

    def test_health_degraded_reports_failing_features(
        self, plan_result_frame, fail_feature
    ):
        plan, _result, frame = plan_result_frame
        victim = next(s for s in plan.features if s.status != "omitted")
        fail_feature(victim)
        server = FeatureServer(plan=plan, failure_policy="degrade")
        server.transform(frame)
        health = server.health()
        assert health["status"] == "degraded"
        assert health["failing_features"] == [victim.name]
        assert server.stats()["features"][victim.name] == {"ok": 0, "failed": 1}

    def test_stats_accumulate_per_feature_counts(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        server = FeatureServer(plan=plan, failure_policy="degrade")
        server.transform(frame)
        server.transform(frame)
        stats = server.stats()
        assert stats["batches"] == 2
        served = [s for s in plan.features if s.status != "omitted"]
        for spec in served:
            assert stats["features"][spec.name]["ok"] == 2

    def test_strict_server_counts_batches_too(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        server = FeatureServer(plan=plan)
        server.transform(frame)
        assert server.stats()["batches"] == 1
        assert server.health()["status"] == "ok"

    def test_strict_server_counts_per_feature_outcomes(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        server = FeatureServer(plan=plan)
        server.transform(frame)
        features = server.stats()["features"]
        for spec in plan.features:
            if spec.status != "omitted":
                assert features[spec.name] == {"ok": 1, "failed": 0}


def _target_reading_plan() -> FeaturePlan:
    """One compiled feature over the target ``y``, which the serve-time
    schema does not require and the serve frame below lacks."""
    return FeaturePlan(
        input_columns=["x", "y"],
        input_schema=[("x", "numeric")],
        target="y",
        features=[
            FeatureSpec(
                name="y_twice",
                family="unary",
                description="",
                input_columns=["y"],
                output_columns=["y_twice"],
                status="compiled",
                expr={
                    "op": "mul",
                    "left": {"op": "col", "name": "y"},
                    "right": {"op": "const", "value": 2},
                },
            )
        ],
    )


@pytest.mark.parametrize("entry", ["apply", "apply_with_report", "apply_stream"])
def test_strict_raises_on_missing_input(entry):
    """Strict never NaN-fills: a feature whose input is absent at serve
    time fails the batch, on every entry point."""
    plan = _target_reading_plan()
    frame = DataFrame({"x": Series([1.0, 2.0, 3.0], "x")})
    with pytest.raises(ExprError, match="'y'"):
        if entry == "apply_stream":
            list(plan.apply_stream([frame], failure_policy="strict"))
        else:
            getattr(plan, entry)(frame, failure_policy="strict")
