"""Deterministic fault injection over the serve path's per-feature isolation.

Compiled ops are total on input of the plan's kinds, so faults here are
injected by patching ``repro.serve.plan.evaluate_feature`` (the
``fail_feature`` fixture), the one name the replay loop evaluates each
feature through.  Each fault mode — a raising evaluation, bad output —
and a seeded storm of both must keep the blast-radius contract: under
``degrade`` every healthy feature's output is bit-identical to a
fault-free run and the caller's frame is untouched, and ``strict``
fails loudly and typed.  Seeded hostile row batches must quarantine
with reasons and leave the server healthy.
"""

import numpy as np
import pytest

from repro.eval.chaos import hostile_rows
from repro.eval.serving import build_demo_result
from repro.serve import FeatureServer, compile_plan, series_identical

#: The modes ``fail_feature`` injects.
FAULT_MODES = ("raise", "bad_output")


@pytest.fixture(scope="module")
def plan_and_frame():
    result, frame = build_demo_result(80, seed=0)
    return compile_plan(result, frame, "Target"), frame


def _served(plan):
    return [s for s in plan.features if s.status != "omitted"]


class Storm:
    """A seeded fault schedule: each served feature gets one fault mode
    and fails on the call indices a seeded draw at *rate* picks."""

    def __init__(self, plan, *, rate, n_calls, seed, modes=FAULT_MODES):
        rng = np.random.default_rng(seed)
        self.specs = _served(plan)
        self.modes = {}
        self.faults = {}
        for spec in self.specs:
            self.modes[spec.name] = modes[int(rng.integers(len(modes)))]
            self.faults[spec.name] = {
                int(i) for i in np.flatnonzero(rng.random(n_calls) < rate)
            }
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(self.faults, 0)
        self.injected = []

    def inject(self, fail_feature):
        for spec in self.specs:
            fail_feature(
                spec,
                lambda _frame, name=spec.name: self._fires(name),
                mode=self.modes[spec.name],
            )

    def _fires(self, name):
        call = self.calls[name]
        self.calls[name] += 1
        if call in self.faults[name]:
            self.injected.append((name, self.modes[name]))
            return True
        return False


class TestEveryFailureMode:
    """Each fault mode lands as an isolated, reported failure."""

    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_mode_is_contained_and_reported(self, plan_and_frame, fail_feature, mode):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        fail_feature(victim, mode=mode)
        out, report = plan.apply_with_report(frame, failure_policy="degrade")
        entry = next(r for r in report.reports if r.feature == victim.name)
        assert entry.status == "failed"
        assert entry.error == {"raise": "TransformError", "bad_output": "PlanError"}[mode]
        assert [r.feature for r in report.failures()] == [victim.name]
        for name in victim.output_columns:
            assert np.isnan(out[name].values).all()

    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_healthy_features_bit_identical_under_each_mode(
        self, plan_and_frame, fail_feature, mode
    ):
        plan, frame = plan_and_frame
        clean = plan.apply(frame)
        victim = _served(plan)[0]
        fail_feature(victim, mode=mode)
        out, _report = plan.apply_with_report(frame, failure_policy="degrade")
        assert out.columns == clean.columns
        for name in clean.columns:
            if name in victim.output_columns:
                continue
            assert series_identical(clean[name], out[name]), name

    def test_input_frame_survives_every_mode(self, plan_and_frame, fail_feature):
        plan, frame = plan_and_frame
        victim = _served(plan)[0]
        before = {name: frame[name].values.copy() for name in frame.columns}
        for mode in FAULT_MODES:
            fail_feature(victim, mode=mode)
            _out, report = plan.apply_with_report(frame, failure_policy="degrade")
            assert [r.feature for r in report.failures()] == [victim.name]
        assert frame.columns == list(before)
        for name, values in before.items():
            got = frame[name].values
            if values.dtype.kind == "f":
                assert np.array_equal(values, got, equal_nan=True), name
            else:
                assert list(values) == list(got), name


class TestStrictFailsLoudly:
    @pytest.mark.parametrize("mode", ["raise", "bad_output"])
    def test_strict_raises_on_injected_fault(self, plan_and_frame, fail_feature, mode):
        plan, frame = plan_and_frame
        fail_feature(_served(plan)[0], mode=mode)
        with pytest.raises(Exception) as excinfo:
            plan.apply_with_report(frame, failure_policy="strict")
        # typed: the injected error or the install check's verdict, never
        # a bare KeyError/IndexError/ValueError from a kernel
        assert type(excinfo.value).__name__ in {"TransformError", "PlanError"}


class TestSeededSoak:
    def test_seeded_storm_never_breaks_healthy_outputs(
        self, plan_and_frame, fail_feature
    ):
        plan, frame = plan_and_frame
        clean = plan.apply(frame)
        storm = Storm(plan, rate=0.3, n_calls=6, seed=11)
        storm.inject(fail_feature)
        for _ in range(6):
            out, report = plan.apply_with_report(frame, failure_policy="degrade")
            assert out.columns == clean.columns
            for entry in report.reports:
                if entry.status != "ok":
                    continue
                spec = next(s for s in plan.features if s.name == entry.feature)
                for name in spec.output_columns:
                    assert series_identical(clean[name], out[name]), name
        assert storm.injected  # the storm actually injected faults
        assert {mode for _name, mode in storm.injected} == set(FAULT_MODES)

    def test_soak_is_reproducible(self, plan_and_frame, fail_feature):
        plan, frame = plan_and_frame
        storm = Storm(plan, rate=0.4, n_calls=4, seed=3)
        twin = Storm(plan, rate=0.4, n_calls=4, seed=3)
        assert (storm.modes, storm.faults) == (twin.modes, twin.faults)
        storm.inject(fail_feature)

        def run():
            storm.reset()
            outcomes = []
            for _ in range(4):
                _out, report = plan.apply_with_report(frame, failure_policy="degrade")
                outcomes.append(tuple(r.status for r in report.reports))
            return outcomes, list(storm.injected)

        first = run()
        assert first[1]  # the schedule injected something
        assert first == run()


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
        # Every survivor is of the plan's kinds, and the ops are total on those.
        assert health["status"] == "ok", health

    def test_hostile_generator_is_deterministic(self, plan_and_frame):
        plan, _frame = plan_and_frame
        a = hostile_rows(plan.input_schema, n_rows=16, seed=9)
        b = hostile_rows(plan.input_schema, n_rows=16, seed=9)
        assert repr(a) == repr(b)
