"""Unit tests for the feature-quality screens."""

import numpy as np

from repro.core import ValidationConfig, validate_output
from repro.dataframe import DataFrame, Series


def list_column(name: str) -> Series:
    cells = np.empty(3, dtype=object)
    cells[:] = [[1, 2], [3], [1, 2]]
    return Series._from_array(cells, name)


class TestSeriesScreens:
    def test_good_feature_accepted(self):
        report = validate_output(Series([1, 2, 3], "f"), 3)
        assert report.ok
        assert "f" in report.accepted

    def test_highly_null_rejected(self):
        report = validate_output(Series([1.0, None, None], "f"), 3)
        assert not report.ok
        assert "highly null" in report.rejected["f"]

    def test_null_threshold_configurable(self):
        series = Series([1.0, None, 2.0, 3.0], "f")  # 25% missing
        strict = validate_output(series, 4, ValidationConfig(max_null_fraction=0.1))
        lenient = validate_output(series, 4, ValidationConfig(max_null_fraction=0.5))
        assert not strict.ok
        assert lenient.ok

    def test_single_valued_rejected(self):
        report = validate_output(Series([7, 7, 7], "f"), 3)
        assert report.rejected["f"] == "single-valued"

    def test_constant_allowed_when_configured(self):
        report = validate_output(
            Series([7, 7, 7], "f"), 3, ValidationConfig(reject_constant=False)
        )
        assert report.ok

    def test_length_mismatch_rejected(self):
        report = validate_output(Series([1, 2], "f"), 3)
        assert "length" in report.rejected["f"]

    def test_unnamed_series_uses_hint(self):
        report = validate_output(Series([1, 2]), 2, name_hint="myfeat")
        assert "myfeat" in report.accepted

    def test_unhashable_values_rejected_with_a_reason(self):
        series = list_column("f")
        report = validate_output(series, 3)
        assert report.rejected == {"f": "unhashable values"}
        assert series.encoding() is None


class TestInstallRejectsUnhashableOutput:
    def test_fit_records_the_rejection_instead_of_raising(self):
        from repro.core import SmartFeat
        from repro.core.agenda import DataAgenda
        from repro.core.function_generator import RealizedFeature
        from repro.core.pipeline import ORIGINALS_TAG, SmartFeatResult, StageContext
        from repro.core.types import FeatureCandidate, GeneratedFeature, OperatorFamily
        from repro.fm import ScriptedFM

        frame = DataFrame({"x": [1.0, 2.0, 3.0], "Target": [0, 1, 0]})
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
            name="pairs", columns=["x"], description="pairs", family=OperatorFamily.UNARY
        )
        realized = RealizedFeature(
            GeneratedFeature(
                name="pairs",
                family=OperatorFamily.UNARY,
                input_columns=["x"],
                description="pairs",
                output_columns=["pairs"],
                source_code="",
                fm_calls=0,
            ),
            {"pairs": list_column("pairs")},
        )
        node = tool.build_stage_graph(ctx)["unary"]
        assert not tool._install(candidate, realized, ctx, node)
        assert ctx.result.rejections["pairs"] == "unhashable values"
        assert "pairs" not in ctx.working.columns


class TestFrameScreens:
    def test_wide_dummy_expansion_rejected_whole(self):
        frame = DataFrame({f"c{i}": [0, 1] for i in range(20)})
        report = validate_output(frame, 2, ValidationConfig(max_dummy_columns=15))
        assert not report.ok
        assert all("high-cardinality" in r for r in report.rejected.values())

    def test_partial_acceptance(self):
        frame = DataFrame({"good": [1, 2], "constant": [5, 5]})
        report = validate_output(frame, 2)
        assert "good" in report.accepted
        assert "constant" in report.rejected

    def test_empty_dataframe(self):
        report = validate_output(DataFrame({"f": []}), 0)
        assert not report.ok
