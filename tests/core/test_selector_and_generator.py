"""Unit tests for the operator selector and the function generator."""

import pytest

from repro.core import FunctionGenerator, OperatorSelector
from repro.core.types import FeatureCandidate, OperatorFamily, RowCompletionPlan, SourceSuggestion
from repro.core.function_generator import RealizedFeature
from repro.dataframe import DataFrame
from repro.fm import FMParseError, ScriptedFM, SimulatedFM


def _unary(selector, agenda, attr):
    """One attribute's unary candidates through the batch call."""
    return selector.unary_candidates_batch(agenda, [attr])[0].unwrap()


def _sample(selector, family, agenda):
    """One sampling draw for *family* (a candidate or None; errors raise)."""
    return selector.sample_batch(family, agenda, 1)[0].unwrap()


class TestUnarySelection:
    def test_keeps_only_certain_and_high(self, insurance_agenda):
        fm = ScriptedFM(
            [
                "bucketization[age_insurance] (certain): bands\n"
                "normalization[zscore] (medium): rescale\n"
                "squared (low): squared"
            ]
        )
        selector = OperatorSelector(fm)
        candidates = _unary(selector, insurance_agenda, "Age")
        assert [c.name for c in candidates] == ["bucketization_Age"]

    def test_name_follows_paper_scheme(self, insurance_agenda):
        fm = ScriptedFM(["log_transform (high): squash"])
        candidates = _unary(OperatorSelector(fm), insurance_agenda, "Age")
        assert candidates[0].name == "log_transform_Age"
        assert candidates[0].columns == ["Age"]
        assert candidates[0].family == OperatorFamily.UNARY
        assert candidates[0].description.startswith("log_transform:")

    def test_unknown_attribute_raises(self, insurance_agenda):
        with pytest.raises(KeyError):
            _unary(OperatorSelector(ScriptedFM(["x"])), insurance_agenda, "nope")

    def test_empty_response_gives_no_candidates(self, insurance_agenda):
        fm = ScriptedFM(["none (certain): nothing applies"])
        assert _unary(OperatorSelector(fm), insurance_agenda, "Age") == []


class TestBinarySelection:
    def test_valid_payload(self, insurance_agenda):
        fm = ScriptedFM(
            ['{"operator": "-", "columns": ["Age", "Age of car"], "name": "diff", "description": "binary[-]: diff"}']
        )
        candidate = _sample(OperatorSelector(fm), OperatorFamily.BINARY, insurance_agenda)
        assert candidate.name == "diff"
        assert candidate.params["operator"] == "-"

    def test_missing_column_raises_parse_error(self, insurance_agenda):
        fm = ScriptedFM(['{"operator": "-", "columns": ["Age", "Bogus"], "name": "d", "description": "x"}'])
        with pytest.raises(FMParseError):
            _sample(OperatorSelector(fm), OperatorFamily.BINARY, insurance_agenda)

    def test_bad_operator_returns_none(self, insurance_agenda):
        fm = ScriptedFM(['{"operator": "^", "columns": ["Age", "Age of car"]}'])
        assert _sample(OperatorSelector(fm), OperatorFamily.BINARY, insurance_agenda) is None

    def test_description_tag_enforced(self, insurance_agenda):
        fm = ScriptedFM(
            ['{"operator": "*", "columns": ["Age", "Age of car"], "name": "p", "description": "a product"}']
        )
        candidate = _sample(OperatorSelector(fm), OperatorFamily.BINARY, insurance_agenda)
        assert candidate.description.startswith("binary[*]:")


class TestHighOrderSelection:
    def test_valid_payload_builds_paper_name(self, insurance_agenda):
        fm = ScriptedFM(
            ['{"groupby_col": ["Make Model"], "agg_col": "Claim in last 6 months", "function": "mean"}']
        )
        candidate = _sample(OperatorSelector(fm), OperatorFamily.HIGH_ORDER, insurance_agenda)
        assert candidate.name == "GroupBy_Make Model_mean_Claim in last 6 months"
        assert candidate.params["function"] == "mean"
        assert "df.groupby" in candidate.description

    def test_string_groupby_col_accepted(self, insurance_agenda):
        fm = ScriptedFM(['{"groupby_col": "City", "agg_col": "Age", "function": "max"}'])
        candidate = _sample(OperatorSelector(fm), OperatorFamily.HIGH_ORDER, insurance_agenda)
        assert candidate.params["groupby_col"] == ["City"]

    def test_invalid_function_returns_none(self, insurance_agenda):
        fm = ScriptedFM(['{"groupby_col": ["City"], "agg_col": "Age", "function": "median-ish"}'])
        assert _sample(OperatorSelector(fm), OperatorFamily.HIGH_ORDER, insurance_agenda) is None

    def test_unknown_column_raises(self, insurance_agenda):
        fm = ScriptedFM(['{"groupby_col": ["Bogus"], "agg_col": "Age", "function": "mean"}'])
        with pytest.raises(FMParseError):
            _sample(OperatorSelector(fm), OperatorFamily.HIGH_ORDER, insurance_agenda)


class TestExtractorSelection:
    def test_valid_payload(self, insurance_agenda):
        fm = ScriptedFM(
            ['{"name": "City_density", "columns": ["City"], "description": "knowledge_map[city_population_density]: d", "kind": "function"}']
        )
        candidate = _sample(OperatorSelector(fm), OperatorFamily.EXTRACTOR, insurance_agenda)
        assert candidate.kind == "function"

    def test_bad_kind_returns_none(self, insurance_agenda):
        fm = ScriptedFM(['{"name": "x", "columns": [], "description": "d", "kind": "teleport"}'])
        assert _sample(OperatorSelector(fm), OperatorFamily.EXTRACTOR, insurance_agenda) is None


class TestFunctionGenerator:
    def test_high_order_needs_no_fm_call(self, insurance_agenda, insurance_frame):
        fm = SimulatedFM(seed=0)
        generator = FunctionGenerator(fm)
        candidate = FeatureCandidate(
            name="GroupBy_City_mean_Age",
            columns=["City", "Age"],
            description="groupby[mean]: mean Age per City",
            family=OperatorFamily.HIGH_ORDER,
            params={"groupby_col": ["City"], "agg_col": "Age", "function": "mean"},
        )
        realized = generator.realize(candidate, insurance_agenda, insurance_frame)
        assert isinstance(realized, RealizedFeature)
        assert fm.ledger.n_calls == 0
        assert realized.feature.fm_calls == 0

    def test_function_path_single_call(self, insurance_agenda, insurance_frame):
        fm = SimulatedFM(seed=0)
        generator = FunctionGenerator(fm)
        candidate = FeatureCandidate(
            name="bucketization_Age",
            columns=["Age"],
            description="bucketization[age_insurance]: age bands",
            family=OperatorFamily.UNARY,
        )
        realized = generator.realize(candidate, insurance_agenda, insurance_frame)
        assert isinstance(realized, RealizedFeature)
        assert fm.ledger.n_calls == 1
        assert realized.values["bucketization_Age"].nunique() > 1

    def test_row_level_small_table_completes(self, insurance_agenda, insurance_frame):
        small = insurance_frame.head(10)
        generator = FunctionGenerator(SimulatedFM(seed=0), row_limit=50)
        candidate = FeatureCandidate(
            name="City_population_density",
            columns=["City"],
            description="approximate density",
            family=OperatorFamily.EXTRACTOR,
            kind="row_level",
        )
        realized = generator.realize(candidate, insurance_agenda, small)
        assert isinstance(realized, RealizedFeature)
        assert realized.feature.fm_calls == 10
        assert realized.values["City_population_density"][0] == 18630.0

    def test_row_level_large_table_returns_plan(self, insurance_agenda, insurance_frame):
        generator = FunctionGenerator(SimulatedFM(seed=0), row_limit=10, preview_rows=3)
        candidate = FeatureCandidate(
            name="City_population_density",
            columns=["City"],
            description="approximate density",
            family=OperatorFamily.EXTRACTOR,
            kind="row_level",
        )
        plan = generator.realize(candidate, insurance_agenda, insurance_frame)
        assert isinstance(plan, RowCompletionPlan)
        assert plan.n_rows == len(insurance_frame)
        assert len(plan.preview) == 3
        assert plan.estimated_cost_usd > 0
        assert plan.estimated_calls == len(insurance_frame)

    def test_source_suggestion(self, insurance_agenda, insurance_frame):
        generator = FunctionGenerator(SimulatedFM(seed=0))
        candidate = FeatureCandidate(
            name="historical_weather",
            columns=[],
            description="source[weather_history]: weather near each trap",
            family=OperatorFamily.EXTRACTOR,
            kind="source",
        )
        suggestion = generator.realize(candidate, insurance_agenda, insurance_frame)
        assert isinstance(suggestion, SourceSuggestion)
        assert suggestion.sources
