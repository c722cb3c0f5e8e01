"""Deterministic chaos gate over the serve-path resilience layer.

Seeded fault schedules drive every failure mode the resilience layer
claims to contain — a raising evaluation, bad output, hostile rows,
schema drift — and assert the blast-radius
contract: under ``degrade`` every healthy feature's output is
bit-identical to a fault-free run, breakers trip and recover exactly on
schedule, and ``strict`` still fails loudly.
"""

import numpy as np
import pytest

from repro.core.sandbox import TransformError
from repro.eval.chaos import CHAOS_MODES, ChaosSchedule, FaultInjector, hostile_rows
from repro.eval.serving import build_demo_result
from repro.serve import BreakerBoard, FeatureServer, compile_plan, series_identical


@pytest.fixture(scope="module")
def plan_and_frame():
    result, frame = build_demo_result(80, seed=0)
    return compile_plan(result, frame, "Target"), frame


def _served(plan):
    return [s for s in plan.features if s.status != "omitted"]


class TestChaosSchedule:
    def test_same_seed_same_schedule(self):
        a = ChaosSchedule.seeded(["f", "g"], rate=0.5, n_calls=20, seed=7)
        b = ChaosSchedule.seeded(["f", "g"], rate=0.5, n_calls=20, seed=7)
        assert a._schedules == b._schedules

    def test_different_seed_different_schedule(self):
        a = ChaosSchedule.seeded(["f"], rate=0.5, n_calls=50, seed=1)
        b = ChaosSchedule.seeded(["f"], rate=0.5, n_calls=50, seed=2)
        assert a._schedules != b._schedules

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosSchedule({"f": {0: "meteor"}})

    @pytest.mark.parametrize("mode", ["hang", "mutate"])
    def test_retired_modes_rejected(self, mode):
        # Schedules written when features could hang or mutate their
        # input fail loudly rather than injecting nothing.
        assert mode not in CHAOS_MODES
        with pytest.raises(ValueError, match=f"unknown chaos mode '{mode}'"):
            ChaosSchedule({"f": {0: mode}})
        with pytest.raises(ValueError, match=f"unknown chaos mode '{mode}'"):
            ChaosSchedule.seeded(["f"], modes=(mode,), rate=1.0, n_calls=1)

    def test_calls_advance_and_reset(self):
        schedule = ChaosSchedule({"f": {1: "raise"}})
        assert schedule.fault_for("f") is None
        assert schedule.fault_for("f") == "raise"
        schedule.reset()
        assert schedule.fault_for("f") is None


class TestEveryFailureMode:
    """Each chaos mode lands as an isolated, reported failure."""

    @pytest.mark.parametrize("mode", CHAOS_MODES)
    def test_mode_is_contained_and_reported(self, plan_and_frame, mode):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        injector = FaultInjector(ChaosSchedule({victim.name: {0: mode}}))
        out, report = plan.apply_with_report(
            frame, failure_policy="degrade", evaluator=injector
        )
        entry = next(r for r in report.reports if r.feature == victim.name)
        assert entry.status == "failed"
        assert entry.error in {"TransformError", "PlanError"}
        for name in victim.output_columns:
            assert np.isnan(out[name].values).all()
        assert injector.injected == [(victim.name, mode)]

    @pytest.mark.parametrize("mode", CHAOS_MODES)
    def test_healthy_features_bit_identical_under_each_mode(
        self, plan_and_frame, mode
    ):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        injector = FaultInjector(ChaosSchedule({victim.name: {0: mode}}))
        clean = plan.apply(frame)
        out, _report = plan.apply_with_report(
            frame, failure_policy="degrade", evaluator=injector
        )
        for name in clean.columns:
            if name in victim.output_columns:
                continue
            assert series_identical(clean[name], out[name]), name

    def test_input_frame_survives_every_mode(self, plan_and_frame):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        before = {name: frame[name].values.copy() for name in frame.columns}
        for mode in CHAOS_MODES:
            injector = FaultInjector(ChaosSchedule({victim.name: {0: mode}}))
            plan.apply_with_report(
                frame, failure_policy="degrade", evaluator=injector
            )
        assert frame.columns == list(before)
        for name, values in before.items():
            got = frame[name].values
            if values.dtype.kind == "f":
                assert np.array_equal(values, got, equal_nan=True), name
            else:
                assert list(values) == list(got), name


class TestStrictFailsLoudly:
    @pytest.mark.parametrize("mode", ["raise", "bad_output"])
    def test_strict_raises_on_injected_fault(self, plan_and_frame, mode):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        injector = FaultInjector(ChaosSchedule({victim.name: {0: mode}}))
        with pytest.raises(Exception) as excinfo:
            plan.apply_with_report(
                frame, failure_policy="strict", evaluator=injector
            )
        # typed: the injected error or the install check's verdict, never
        # a bare KeyError/IndexError/ValueError from a kernel
        assert type(excinfo.value).__name__ in {"TransformError", "PlanError"}


class TestBreakerSchedule:
    def test_trip_and_recover_on_exact_schedule(self, plan_and_frame):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        # fail calls 0-2 (trips at threshold 3), healthy afterwards
        injector = FaultInjector(
            ChaosSchedule({victim.name: {0: "raise", 1: "raise", 2: "raise"}})
        )
        board = BreakerBoard(failure_threshold=3, cooldown_calls=2)
        timeline = []
        for _ in range(8):
            _out, report = plan.apply_with_report(
                frame, failure_policy="degrade", breakers=board, evaluator=injector
            )
            entry = next(r for r in report.reports if r.feature == victim.name)
            timeline.append((entry.status, board.get(victim.name).state))
        assert timeline == [
            ("failed", "closed"),  # 1st failure
            ("failed", "closed"),  # 2nd failure
            ("failed", "open"),  # 3rd consecutive -> trips
            ("skipped", "open"),  # cooldown refusal 1
            ("skipped", "open"),  # cooldown refusal 2
            ("ok", "closed"),  # half-open probe succeeds -> closes
            ("ok", "closed"),
            ("ok", "closed"),
        ]

    def test_probe_failure_reopens_on_schedule(self, plan_and_frame):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        # calls 0-1 fail (trip at threshold 2); call 2 is the probe after
        # one refusal — it fails too, re-opening the breaker
        injector = FaultInjector(
            ChaosSchedule({victim.name: {0: "raise", 1: "raise", 2: "raise"}})
        )
        board = BreakerBoard(failure_threshold=2, cooldown_calls=1)
        timeline = []
        for _ in range(6):
            _out, report = plan.apply_with_report(
                frame, failure_policy="degrade", breakers=board, evaluator=injector
            )
            entry = next(r for r in report.reports if r.feature == victim.name)
            timeline.append(entry.status)
        assert timeline == [
            "failed",  # trip builds
            "failed",  # trips (threshold 2)
            "skipped",  # cooldown refusal
            "failed",  # probe runs injected call 2 -> fails -> reopen
            "skipped",  # cooldown refusal again
            "ok",  # next probe is healthy -> closes
        ]


class TestSeededSoak:
    def test_seeded_storm_never_breaks_healthy_outputs(self, plan_and_frame):
        plan, frame = plan_and_frame
        names = [s.name for s in _served(plan)]
        schedule = ChaosSchedule.seeded(
            names, modes=("raise", "bad_output"), rate=0.3, n_calls=6, seed=11
        )
        injector = FaultInjector(schedule)
        board = BreakerBoard(failure_threshold=2, cooldown_calls=2)
        clean = plan.apply(frame)
        for _ in range(6):
            out, report = plan.apply_with_report(
                frame, failure_policy="degrade", breakers=board, evaluator=injector
            )
            assert out.columns == clean.columns
            for entry in report.reports:
                if entry.status != "ok":
                    continue
                spec = next(s for s in plan.features if s.name == entry.feature)
                for name in spec.output_columns:
                    assert series_identical(clean[name], out[name]), name
        assert injector.injected  # the storm actually injected faults

    def test_soak_is_reproducible(self, plan_and_frame):
        plan, frame = plan_and_frame
        names = [s.name for s in _served(plan)]

        def run():
            injector = FaultInjector(
                ChaosSchedule.seeded(names, rate=0.4, n_calls=4, seed=3)
            )
            outcomes = []
            for _ in range(4):
                _out, report = plan.apply_with_report(
                    frame, failure_policy="degrade", evaluator=injector
                )
                outcomes.append(tuple(r.status for r in report.reports))
            return outcomes

        assert run() == run()


class TestHostileRowsEndToEnd:
    def test_hostile_batch_through_degrade_server(self, plan_and_frame):
        plan, _frame = plan_and_frame
        server = FeatureServer(plan=plan, failure_policy="degrade")
        rows = hostile_rows(plan.input_schema, n_rows=48, hostility=0.3, seed=5)
        out, report = server.transform_with_report(rows)
        assert len(out) + report.quarantine.quarantined_rows == len(rows)
        assert report.quarantine.quarantined_rows > 0  # the batch was hostile
        for _idx, reason in report.quarantine.quarantined:
            assert reason  # every quarantine is explained
        health = server.health()
        assert health["rows_quarantined"] == report.quarantine.quarantined_rows

    def test_hostile_generator_is_deterministic(self, plan_and_frame):
        plan, _frame = plan_and_frame
        a = hostile_rows(plan.input_schema, n_rows=16, seed=9)
        b = hostile_rows(plan.input_schema, n_rows=16, seed=9)
        assert repr(a) == repr(b)
