"""Failure-injection tests: hostile or broken FM output must not crash
the pipeline, leak into results, or escape the sandbox."""

import json

import pytest

from repro.core import SmartFeat
from repro.core.types import OperatorFamily
from repro.dataframe import DataFrame
from repro.fm import ScriptedFM, SimulatedFM


@pytest.fixture
def frame():
    return DataFrame(
        {
            "Age": [20, 30, 40, 50] * 25,
            "Income": [10.0, 20.0, 30.0, 40.0] * 25,
            "y": [0, 1, 0, 1] * 25,
        }
    )


def scripted_tool(selector_responses, function_responses, **kwargs):
    return SmartFeat(
        fm=ScriptedFM(selector_responses),
        function_fm=ScriptedFM(function_responses),
        downstream_model="rf",
        operator_families=(OperatorFamily.BINARY,),
        sampling_budget=1,
        repair_retries=0,
        **kwargs,
    )


BINARY_JSON = json.dumps(
    {
        "operator": "-",
        "columns": ["Age", "Income"],
        "name": "gap",
        "description": "binary[-]: gap",
    }
)


class TestHostileCode:
    @pytest.mark.parametrize(
        "payload",
        [
            "```python\ndef transform(df):\n    import os\n    return df['Age']\n```",
            "```python\ndef transform(df):\n    open('/etc/passwd')\n    return df['Age']\n```",
            "```python\ndef transform(df):\n    __import__('subprocess')\n    return df['Age']\n```",
        ],
    )
    def test_forbidden_code_rejected_and_recorded(self, frame, payload):
        tool = scripted_tool([BINARY_JSON], [payload])
        result = tool.fit_transform(frame, target="y")
        assert result.new_features == {}
        assert "gap" in result.rejections
        assert "generation failed" in result.rejections["gap"]

    def test_infinite_loop_free_code_path(self, frame):
        # Code that *returns* quickly but with the wrong type.
        tool = scripted_tool([BINARY_JSON], ["```python\ndef transform(df):\n    return 42\n```"])
        result = tool.fit_transform(frame, target="y")
        assert result.new_features == {}


class TestMalformedOutput:
    def test_wrong_length_series_rejected(self, frame):
        code = "```python\ndef transform(df):\n    return df['Age'].head(3)\n```"
        tool = scripted_tool([BINARY_JSON], [code])
        result = tool.fit_transform(frame, target="y")
        assert result.new_features == {}
        # A row-dropping call is outside the compilable subset, so fit
        # rejects it before it runs (validation's own length check is
        # pinned in test_validation.py).
        assert result.rejections["gap"].startswith(
            "generation failed: not compilable: unsupported call .head()"
        )

    def test_json_with_wrong_types_counts_as_error(self, frame):
        bad = json.dumps({"operator": ["-"], "columns": "Age"})
        tool = scripted_tool([bad], [])
        result = tool.fit_transform(frame, target="y")
        assert result.errors["binary"] >= 1

    def test_truncated_json_counts_as_error(self, frame):
        tool = scripted_tool(['{"operator": "-", "columns": ["Age"'], [])
        result = tool.fit_transform(frame, target="y")
        assert result.errors["binary"] >= 1


class TestDegradedFm:
    @pytest.mark.parametrize("error_rate", [0.25, 0.75])
    def test_pipeline_survives_any_error_rate(self, frame, error_rate):
        tool = SmartFeat(
            fm=SimulatedFM(seed=1, error_rate=error_rate),
            downstream_model="rf",
            repair_retries=1,
        )
        result = tool.fit_transform(frame, target="y")
        assert "y" in result.frame.columns
        # Every accepted output column is real and full-length.
        for feature in result.new_features.values():
            for column in feature.output_columns:
                assert len(result.frame[column]) == len(frame)

    def test_results_deterministic_under_error_injection(self, frame):
        def run():
            tool = SmartFeat(
                fm=SimulatedFM(seed=5, error_rate=0.5), downstream_model="rf"
            )
            return sorted(tool.fit_transform(frame, target="y").new_features)

        assert run() == run()


class TestDateSplitPath:
    def test_date_column_produces_calendar_features(self):
        frame = DataFrame(
            {
                "signup_date": ["2024-01-15", "2023-06-02", "2024-03-09", "2022-12-31"] * 30,
                "amount": [10.0, 20.0, 30.0, 40.0] * 30,
                "y": [0, 1, 0, 1] * 30,
            }
        )
        tool = SmartFeat(
            fm=SimulatedFM(seed=0),
            downstream_model="rf",
            operator_families=(OperatorFamily.UNARY,),
        )
        result = tool.fit_transform(
            frame,
            target="y",
            descriptions={"signup_date": "Date the customer signed up", "amount": "Order amount"},
        )
        assert "date_split_signup_date" in result.new_features
        outputs = result.new_features["date_split_signup_date"].output_columns
        assert any("month" in c for c in outputs)
        assert any("dayofweek" in c for c in outputs)
