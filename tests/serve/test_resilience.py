"""Serve-path resilience: isolation, breakers, plan cache, health."""

import numpy as np
import pytest

from repro.core.sandbox import TransformError
from repro.dataframe import DataFrame, Series
from repro.dataframe.expr import ExprError
from repro.eval.serving import build_demo_result
from repro.serve import (
    BreakerBoard,
    CircuitBreaker,
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


def _raise_for(names):
    """A chaos evaluator that fails the named features, runs the rest."""

    def evaluator(spec, frame, default):
        if spec.name in names:
            raise TransformError(f"injected failure for {spec.name!r}")
        return default()

    return evaluator


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_calls=2)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_cooldown_refusals_then_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=2)
        breaker.allow()
        breaker.record_failure()
        assert [breaker.allow() for _ in range(2)] == [False, False]
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=1)
        breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=1)
        breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # cooldown restarted

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_calls=1)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two consecutive

    def test_thread_safety_under_concurrent_counting(self):
        import threading

        breaker = CircuitBreaker(failure_threshold=10_000, cooldown_calls=1)

        def hammer():
            for _ in range(1000):
                breaker.allow()
                breaker.record_failure()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker.snapshot()["consecutive_failures"] == 8000

    def test_board_creates_and_snapshots(self):
        board = BreakerBoard(failure_threshold=2, cooldown_calls=3)
        assert board.get("f").state == "closed"
        assert board.get("f") is board.get("f")
        assert board.snapshot() == {
            "f": {"state": "closed", "consecutive_failures": 0, "cooldown_left": 0}
        }


class TestDegradeIsolation:
    def test_failing_feature_nan_fills_its_columns_only(self, plan_result_frame):
        plan, result, frame = plan_result_frame
        victim = next(s for s in plan.features if s.status != "omitted")
        out, report = plan.apply_with_report(
            frame, failure_policy="degrade", evaluator=_raise_for({victim.name})
        )
        failed = [r for r in report.reports if r.status == "failed"]
        assert [r.feature for r in failed] == [victim.name]
        assert failed[0].error == "TransformError"
        for name in victim.output_columns:
            assert np.isnan(out[name].values).all()

    def test_healthy_features_bit_identical_to_fault_free_run(
        self, plan_result_frame
    ):
        plan, result, frame = plan_result_frame
        victim = next(s for s in plan.features if s.status != "omitted")
        clean = plan.apply(frame)
        out, _report = plan.apply_with_report(
            frame, failure_policy="degrade", evaluator=_raise_for({victim.name})
        )
        for name in clean.columns:
            if name in victim.output_columns:
                continue
            assert series_identical(clean[name], out[name]), name

    def test_strict_policy_reraises_original_error(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        victim = next(s for s in plan.features if s.status != "omitted")
        with pytest.raises(TransformError, match="injected"):
            plan.apply_with_report(
                frame, failure_policy="strict", evaluator=_raise_for({victim.name})
            )

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

    def test_breaker_skips_after_repeated_failures(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        victim = next(s for s in plan.features if s.status != "omitted")
        board = BreakerBoard(failure_threshold=2, cooldown_calls=10)
        evaluator = _raise_for({victim.name})
        statuses = []
        for _ in range(4):
            _out, report = plan.apply_with_report(
                frame,
                failure_policy="degrade",
                breakers=board,
                evaluator=evaluator,
            )
            statuses.append(
                next(r.status for r in report.reports if r.feature == victim.name)
            )
        assert statuses == ["failed", "failed", "skipped", "skipped"]
        assert board.get(victim.name).state == "open"


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

    def test_health_degraded_reports_failing_features(self, plan_result_frame):
        plan, _result, frame = plan_result_frame
        victim = next(s for s in plan.features if s.status != "omitted")
        server = FeatureServer(plan=plan, failure_policy="degrade")
        out, report = plan.apply_with_report(
            frame, failure_policy="degrade", evaluator=_raise_for({victim.name})
        )
        # route the report through the server's stats board as transform would
        server.stats_board.record(
            rows_in=len(frame), rows_served=len(out), apply_report=report
        )
        health = server.health()
        assert health["status"] == "degraded"
        assert victim.name in health["failing_features"]

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
                assert features[spec.name] == {"ok": 1, "failed": 0, "skipped": 0}


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


@pytest.mark.parametrize(
    "make_extras",
    [dict, lambda: {"breakers": BreakerBoard()}],
    ids=["no-extras", "breakers"],
)
@pytest.mark.parametrize("entry", ["apply", "apply_with_report", "apply_stream"])
def test_strict_raises_on_missing_input_whatever_the_extras(entry, make_extras):
    """Strict never NaN-fills: a feature whose input is absent at serve
    time fails the batch with or without breakers, on every entry point."""
    # A fresh board per case: a shared one would open after three cases.
    extras = make_extras()
    plan = _target_reading_plan()
    frame = DataFrame({"x": Series([1.0, 2.0, 3.0], "x")})
    with pytest.raises(ExprError, match="'y'"):
        if entry == "apply_stream":
            list(plan.apply_stream([frame], failure_policy="strict", **extras))
        else:
            getattr(plan, entry)(frame, failure_policy="strict", **extras)
