"""Tests for the error-correction loop and deferred row-plan completion."""

import pytest

from repro.core import FunctionGenerator, complete_row_plan
from repro.core.sandbox import TransformError
from repro.core.types import FeatureCandidate, OperatorFamily
from repro.core.function_generator import RealizedFeature
from repro.core.pipeline import SmartFeat
from repro.fm import ScriptedFM, SimulatedFM


GOOD_CODE = "```python\ndef transform(df):\n    return df['Age'] * 2\n```"
BROKEN_CODE = "```python\ndef transform(df):\n    return df['does_not_exist']\n```"
PROSE = "I'd suggest normalising the Age column, perhaps?"


def _candidate():
    return FeatureCandidate(
        name="double_age",
        columns=["Age"],
        description="squared: doubled age (test)",
        family=OperatorFamily.UNARY,
    )


class TestRepairLoop:
    def test_broken_then_fixed(self, insurance_agenda, insurance_frame):
        fm = ScriptedFM([BROKEN_CODE, GOOD_CODE])
        generator = FunctionGenerator(fm, repair_retries=1)
        realized = generator.realize(_candidate(), insurance_agenda, insurance_frame)
        assert isinstance(realized, RealizedFeature)
        assert realized.feature.fm_calls == 2
        assert fm.ledger.n_calls == 2

    def test_repair_prompt_carries_error_and_code(self, insurance_agenda, insurance_frame):
        fm = ScriptedFM([BROKEN_CODE, GOOD_CODE])
        fm.ledger.keep_history = True
        FunctionGenerator(fm, repair_retries=1).realize(
            _candidate(), insurance_agenda, insurance_frame
        )
        repair_prompt = fm.ledger.history[1][0]
        assert "Generate a corrected" in repair_prompt
        assert "does_not_exist" in repair_prompt
        assert "Error:" in repair_prompt

    def test_prose_then_fixed(self, insurance_agenda, insurance_frame):
        fm = ScriptedFM([PROSE, GOOD_CODE])
        generator = FunctionGenerator(fm, repair_retries=1)
        realized = generator.realize(_candidate(), insurance_agenda, insurance_frame)
        assert isinstance(realized, RealizedFeature)

    def test_retries_exhausted_raises_last_error(self, insurance_agenda, insurance_frame):
        fm = ScriptedFM([BROKEN_CODE, BROKEN_CODE])
        generator = FunctionGenerator(fm, repair_retries=1)
        with pytest.raises(TransformError):
            generator.realize(_candidate(), insurance_agenda, insurance_frame)

    def test_zero_retries_fails_immediately(self, insurance_agenda, insurance_frame):
        fm = ScriptedFM([BROKEN_CODE])
        generator = FunctionGenerator(fm, repair_retries=0)
        with pytest.raises(TransformError):
            generator.realize(_candidate(), insurance_agenda, insurance_frame)
        assert fm.ledger.n_calls == 1

    def test_simulated_fm_answers_repair_prompts(self, insurance_agenda, insurance_frame):
        # With heavy error injection, retries recover some generations.
        fm = SimulatedFM(seed=0, error_rate=0.45)
        with_retries = SmartFeat(fm=fm, downstream_model="rf", repair_retries=2)
        result = with_retries.fit_transform(
            insurance_frame, target="Safe",
        )
        no_retry_fm = SimulatedFM(seed=0, error_rate=0.45)
        without_retries = SmartFeat(fm=no_retry_fm, downstream_model="rf", repair_retries=0)
        baseline = without_retries.fit_transform(insurance_frame, target="Safe")
        assert len(result.new_features) >= len(baseline.new_features)


class TestRowPlanCompletion:
    @pytest.fixture
    def pending(self, insurance_frame, insurance_descriptions):
        tool = SmartFeat(
            fm=SimulatedFM(seed=0),
            downstream_model="rf",
            row_level_policy="never",
            row_limit=0,
        )
        # Force the density extractor down the row-level path by stripping
        # the City values from the agenda (high cardinality to the FM).
        frame = insurance_frame.copy()
        frame["City"] = [f"City{i % 40}" for i in range(len(frame))]
        result = tool.fit_transform(frame, target="Safe", descriptions=insurance_descriptions)
        return result

    def test_plan_created_for_large_table(self, pending):
        assert pending.row_plans, "expected a deferred row-level plan"
        plan = pending.row_plans[0]
        assert plan.estimated_calls == len(pending.frame)
        assert plan.estimated_cost_usd > 0

    def test_complete_row_plan_installs_column(self, pending):
        plan = pending.row_plans[0]
        fm = SimulatedFM(seed=3)
        complete_row_plan(pending, plan, fm)
        assert plan.name in pending.frame.columns
        assert plan.name in pending.new_features
        assert plan not in pending.row_plans
        assert fm.ledger.n_calls == len(pending.frame)

    def test_unknown_plan_raises(self, pending):
        from repro.core.types import RowCompletionPlan

        bogus = RowCompletionPlan(
            name="x", description="", preview=[], n_rows=1,
            estimated_calls=1, estimated_cost_usd=0.0, estimated_latency_s=0.0,
        )
        with pytest.raises(ValueError):
            complete_row_plan(pending, bogus, SimulatedFM(seed=0))

    def test_plan_records_relevant_columns(self, pending):
        plan = pending.row_plans[0]
        assert plan.relevant_columns  # selector metadata, not preview inference
        assert set(plan.relevant_columns) <= set(pending.frame.columns)

    def test_completion_uses_plan_metadata_columns(self, pending):
        plan = pending.row_plans[0]
        fm = SimulatedFM(seed=3)
        fm.ledger.keep_history = True
        complete_row_plan(pending, plan, fm)
        prompt = fm.ledger.history[0][0]
        for column in plan.relevant_columns:
            assert column in prompt
        irrelevant = set(pending.frame.columns) - set(plan.relevant_columns) - {plan.name}
        for column in irrelevant:
            assert f"{column}:" not in prompt
        assert pending.new_features[plan.name].input_columns == list(plan.relevant_columns)

    def test_legacy_plan_falls_back_to_preview_columns(self, pending):
        plan = pending.row_plans[0]
        plan.relevant_columns = []  # a plan recorded before the metadata existed
        assert plan.preview
        fm = SimulatedFM(seed=3)
        complete_row_plan(pending, plan, fm)
        assert plan.name in pending.frame.columns
        preview_columns = [
            c for c in pending.frame.columns if c in plan.preview[0][0]
        ]
        assert pending.new_features[plan.name].input_columns == preview_columns

    def test_explicit_override_wins(self, pending):
        plan = pending.row_plans[0]
        fm = SimulatedFM(seed=3)
        fm.ledger.keep_history = True
        complete_row_plan(pending, plan, fm, relevant_columns=["City"])
        assert pending.new_features[plan.name].input_columns == ["City"]

    def test_executor_batches_the_rows(self, pending):
        from repro.fm import FMExecutor

        plan = pending.row_plans[0]
        fm = SimulatedFM(seed=3)
        executor = FMExecutor(8)
        complete_row_plan(pending, plan, fm, executor=executor)
        assert fm.ledger.n_calls == len(pending.frame)
        stats = executor.stats
        assert stats.critical_path_s < stats.summed_latency_s


class TestRowLevelPolicy:
    def test_never_defers_without_a_row_limit(self, insurance_frame, insurance_descriptions):
        """``row_level_policy="never"`` alone defers every row-level feature
        to a plan, even on a table small enough for ``"auto"`` to complete."""
        frame = insurance_frame.copy()
        frame["City"] = [f"City{i % 40}" for i in range(len(frame))]
        tool = SmartFeat(fm=SimulatedFM(seed=0), downstream_model="rf", row_level_policy="never")
        result = tool.fit_transform(frame, target="Safe", descriptions=insurance_descriptions)
        assert result.row_plans
        assert "City_median_income" not in result.new_features
        assert "City_population_density" not in result.new_features


class TestParseScalar:
    def test_numeric(self):
        from repro.core.parsing import parse_scalar

        assert parse_scalar(" 12.5 ") == 12.5
        assert parse_scalar('"3"') == 3.0

    def test_text_passthrough(self):
        from repro.core.parsing import parse_scalar

        assert parse_scalar("downtown") == "downtown"

    def test_unknown_and_empty_are_missing(self):
        from repro.core.parsing import parse_scalar

        assert parse_scalar("unknown") is None
        assert parse_scalar("UNKNOWN") is None
        assert parse_scalar("   ") is None

    def test_number_parses_to_float(self):
        from repro.core.parsing import parse_scalar

        assert parse_scalar("7") == 7.0
