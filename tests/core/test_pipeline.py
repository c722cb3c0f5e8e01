"""Integration tests for the SmartFeat pipeline (incl. the motivating example)."""

import pytest

from repro.core import SmartFeat
from repro.core.types import OperatorFamily
from repro.dataframe import DataFrame
from repro.fm import ScriptedFM, SimulatedFM


def run_tool(frame, descriptions, **kwargs):
    tool = SmartFeat(
        fm=SimulatedFM(seed=0, model="gpt-4"),
        function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
        downstream_model=kwargs.pop("downstream_model", "decision_tree"),
        **kwargs,
    )
    return tool.fit_transform(
        frame,
        target="Safe",
        descriptions=descriptions,
        title="Car insurance policyholders (insurance claims)",
        target_description="1 = safe, unlikely to file a claim in the next 6 months",
    )


class TestMotivatingExample:
    """The paper's F1-F4 walk-through (Example 1.1 and Figure 2)."""

    @pytest.fixture(scope="class")
    def result(self):
        from tests.core.conftest import INSURANCE_DESCRIPTIONS, make_insurance_frame

        return run_tool(make_insurance_frame(), dict(INSURANCE_DESCRIPTIONS))

    def test_f1_bucketized_age(self, result):
        assert "bucketization_Age" in result.frame.columns

    def test_f1_bucket_uses_age_21_threshold(self, result):
        feature = result.new_features["bucketization_Age"]
        assert "21" in feature.source_code

    def test_f3_claim_probability_per_car_model(self, result):
        assert any(
            name.startswith("GroupBy_Make Model_mean_Claim")
            for name in result.new_features
        )

    def test_f4_city_population_density(self, result):
        assert "City_population_density" in result.frame.columns
        density = result.frame["City_population_density"]
        sf_rows = result.frame["City"] == "SF" if "City" in result.frame.columns else None
        assert density.nunique() == 3  # SF / LA / SEA

    def test_target_column_preserved(self, result):
        assert "Safe" in result.frame.columns

    def test_every_family_contributed(self, result):
        families = {f.family for f in result.new_features.values()}
        assert OperatorFamily.UNARY in families
        assert OperatorFamily.HIGH_ORDER in families
        assert OperatorFamily.EXTRACTOR in families

    def test_provenance_has_source_code(self, result):
        for feature in result.new_features.values():
            if feature.source_code != "<row-level FM completion>":
                assert "def transform" in feature.source_code

    def test_fm_usage_accounted(self, result):
        assert result.fm_usage["operator_selector"]["n_calls"] > 0
        assert result.fm_usage["function_generator"]["cost_usd"] >= 0

    def test_original_frame_untouched(self, insurance_frame, insurance_descriptions):
        before = insurance_frame.columns[:]
        run_tool(insurance_frame, insurance_descriptions)
        assert insurance_frame.columns == before


class TestConfiguration:
    def test_family_ablation_unary_only(self, insurance_frame, insurance_descriptions):
        result = run_tool(
            insurance_frame,
            insurance_descriptions,
            operator_families=(OperatorFamily.UNARY,),
        )
        families = {f.family for f in result.new_features.values()}
        assert families <= {OperatorFamily.UNARY}

    def test_family_ablation_binary_only(self, insurance_frame, insurance_descriptions):
        result = run_tool(
            insurance_frame,
            insurance_descriptions,
            operator_families=(OperatorFamily.BINARY,),
        )
        families = {f.family for f in result.new_features.values()}
        assert families <= {OperatorFamily.BINARY}

    def test_sampling_budget_bounds_features(self, insurance_frame, insurance_descriptions):
        narrow = run_tool(
            insurance_frame,
            insurance_descriptions,
            sampling_budget=1,
            operator_families=(OperatorFamily.HIGH_ORDER,),
        )
        assert len(narrow.new_features) <= 1

    def test_drop_heuristic_disabled_keeps_originals(
        self, insurance_frame, insurance_descriptions
    ):
        result = run_tool(insurance_frame, insurance_descriptions, drop_heuristic=False)
        assert result.dropped == []
        for column in ("Sex", "City", "Make Model"):
            assert column in result.frame.columns

    def test_invalid_row_policy_raises(self):
        with pytest.raises(ValueError):
            SmartFeat(fm=SimulatedFM(seed=0), row_level_policy="sometimes")

    def test_names_only_yields_fewer_features(
        self, insurance_frame, insurance_descriptions
    ):
        """The paper's description ablation: opaque context, weaker output."""
        renamed = insurance_frame.rename(
            columns={
                "Age": "A1",
                "Age of car": "A2",
                "Make Model": "M1",
                "Claim in last 6 months": "C1",
                "City": "X1",
                "Sex": "S1",
            }
        )
        with_desc = run_tool(insurance_frame, insurance_descriptions)
        names_only = SmartFeat(
            fm=SimulatedFM(seed=0), downstream_model="decision_tree"
        ).fit_transform(renamed, target="Safe")
        assert len(names_only.new_features) < len(with_desc.new_features)


class TestErrorHandling:
    def test_error_prone_fm_still_completes(self, insurance_frame, insurance_descriptions):
        tool = SmartFeat(
            fm=SimulatedFM(seed=0, error_rate=0.5),
            function_fm=SimulatedFM(seed=1, error_rate=0.5),
            downstream_model="decision_tree",
        )
        result = tool.fit_transform(
            insurance_frame, target="Safe", descriptions=insurance_descriptions
        )
        # Degraded but not crashed; errors recorded.
        assert sum(result.errors.values()) > 0

    def test_fully_broken_fm_yields_empty_result(self, insurance_frame):
        fm = ScriptedFM(lambda prompt: "I'm sorry, I can't help with that.")
        tool = SmartFeat(fm=fm, downstream_model="decision_tree")
        result = tool.fit_transform(insurance_frame, target="Safe")
        assert result.new_features == {}
        assert "Safe" in result.frame.columns

    def test_error_threshold_stops_sampling_early(self, insurance_frame):
        fm = ScriptedFM(lambda prompt: "garbage that parses to nothing")
        tool = SmartFeat(
            fm=fm,
            sampling_budget=10,
            error_threshold=2,
            operator_families=(OperatorFamily.BINARY,),
            downstream_model="decision_tree",
        )
        result = tool.fit_transform(insurance_frame, target="Safe")
        assert result.errors["binary"] == 2
        assert fm.ledger.n_calls == 2  # stopped at the threshold, not the budget


class TestResultFrameIsIndependent:
    """``result.frame`` shares the input's column buffers copy-on-write;
    writes through either frame must never reach the other."""

    @pytest.fixture
    def fitted(self):
        from tests.core.conftest import INSURANCE_DESCRIPTIONS, make_insurance_frame

        frame = make_insurance_frame()
        result = run_tool(frame, dict(INSURANCE_DESCRIPTIONS))
        return frame, make_insurance_frame().to_dict(), result

    def test_writes_into_result_columns_leave_the_input_unchanged(self, fitted):
        frame, before, result = fitted
        assert result.new_features
        for name in result.frame.columns:
            column = result.frame[name]
            column[0] = "written" if column.dtype == object else -1
        assert frame.to_dict() == before

    def test_shared_buffers_refuse_raw_writes(self, fitted):
        frame, before, result = fitted
        for name in frame.columns:
            with pytest.raises(ValueError):
                result.frame[name].values[0] = result.frame[name].values[1]
        assert frame.to_dict() == before

    def test_writes_into_the_input_leave_the_result_unchanged(self, fitted):
        frame, before, result = fitted
        fitted_values = result.frame.to_dict()
        for name in frame.columns:
            frame[name][0] = None
        assert result.frame.to_dict() == fitted_values


class TestColumnProfileFitIdentity:
    """A fit classifies columns through ``column_profile``; swapping in the
    loop oracle built from the expressions it replaced must change nothing."""

    @staticmethod
    def _fit(monkeypatch, profile):
        from repro.core import agenda as agenda_module
        from repro.core import validation
        from repro.core.agenda import DataAgenda
        from repro.datasets.synth import make_synthetic_bundle

        with monkeypatch.context() as patch:
            patch.setattr(validation, "column_profile", profile)
            patch.setattr(agenda_module, "column_profile", profile)
            texts: list[str] = []  # every agenda rendering a prompt embedded
            describe = DataAgenda.describe

            def recording_describe(self):
                texts.append(describe(self))
                return texts[-1]

            patch.setattr(DataAgenda, "describe", recording_describe)
            bundle = make_synthetic_bundle(2000, seed=3)
            fm = SimulatedFM(seed=0, model="gpt-4")
            function_fm = SimulatedFM(seed=1, model="gpt-3.5-turbo")
            result = SmartFeat(fm, function_fm=function_fm).fit_transform(
                bundle["frame"],
                bundle["target"],
                descriptions=bundle["descriptions"],
                title=bundle["title"],
            )
        frame = [
            (name, str(result.frame[name].dtype), repr(result.frame[name].values.tolist()))
            for name in result.frame.columns
        ]
        ledgers = [
            (c.ledger.n_calls, c.ledger.prompt_tokens, c.ledger.completion_tokens)
            for c in (fm, function_fm)
        ]
        return {
            "features": {n: f.output_columns for n, f in result.new_features.items()},
            "rejections": result.rejections,
            "dropped": result.dropped,
            "agenda": texts,
            "ledgers": ledgers,
            "frame": frame,
        }

    def test_fit_matches_the_oracle_classification(self, monkeypatch):
        from repro.dataframe.kernels import column_profile
        from repro.dataframe.reference import reference_column_profile

        encoded: list[list] = []  # the columns the agenda profiled from an encoding

        def fast(values, cap, encoding=None, types=None):
            if encoding is None:
                return column_profile(values, cap, types=types)

            def spy():
                encoded.append(values[:3].tolist())
                return encoding()

            return column_profile(values, cap, spy, types)

        def oracle(values, cap, encoding=None, types=None):
            return reference_column_profile(values, cap)

        fast_fit = self._fit(monkeypatch, fast)
        oracle_fit = self._fit(monkeypatch, oracle)
        assert fast_fit == oracle_fit
        assert fast_fit["features"] and fast_fit["agenda"]
        assert "single-valued" in fast_fit["rejections"].values()
        # City and Segment, the bundle's plain-str columns, took the encoding path.
        assert len(encoded) == 2 and all(isinstance(v, str) for v in sum(encoded, []))


class TestOneColumnClassifier:
    """Original and generated columns share one agenda classifier."""

    def test_generated_bool_with_missing_matches_an_original(self):
        from repro.core.agenda import DataAgenda
        from repro.core.function_generator import RealizedFeature
        from repro.core.pipeline import ORIGINALS_TAG, SmartFeatResult, StageContext
        from repro.core.types import FeatureCandidate, GeneratedFeature
        from repro.dataframe import Series

        cells = [True, False, None, True, False, True, False, True, False, True]
        base = {"x": [float(i) for i in range(10)], "Target": [0, 1] * 5}
        original = DataAgenda.from_dataframe(
            DataFrame({**base, "flag": cells}), target="Target"
        ).entries["flag"]

        frame = DataFrame(base)
        tool = SmartFeat(ScriptedFM(lambda prompt: ""))
        ctx = StageContext(
            working=frame.copy(),
            agenda=DataAgenda.from_dataframe(frame, target="Target"),
            result=SmartFeatResult(frame=frame),
            original_features=["x"],
            target="Target",
            column_tags={c: ORIGINALS_TAG for c in frame.columns},
        )
        candidate = FeatureCandidate(
            name="flag", columns=["x"], description="a flag", family=OperatorFamily.UNARY
        )
        realized = RealizedFeature(
            GeneratedFeature(
                name="flag",
                family=OperatorFamily.UNARY,
                input_columns=["x"],
                description="a flag",
                output_columns=["flag"],
                source_code="",
                fm_calls=0,
            ),
            {"flag": Series(cells)},
        )
        node = tool.build_stage_graph(ctx)["unary"]
        assert tool._install(candidate, realized, ctx, node)
        generated = ctx.agenda.entries["flag"]
        assert (generated.kind, generated.values) == (original.kind, original.values)
        assert original.kind == "categorical"
        assert original.values == ("True", "False")
