"""Hostile row-dict batches: typed errors or quarantine, never a traceback.

Every batch here is something a real caller could POST at a feature
server.  The contract under test: ``FeatureServer.transform`` either
serves the batch, raises a typed :class:`PlanError` subclass with an
actionable message, or (under ``degrade``) quarantines the offending
rows with reasons — it never leaks an internal ``KeyError``/``TypeError``
traceback from deep inside a kernel.
"""

import numpy as np
import pytest

from repro.eval.serving import build_demo_result
from repro.serve.resilience import MAX_STRING_CHARS
from repro.serve import (
    BatchValidationError,
    FeatureServer,
    PlanError,
    coarse_kind,
    compile_plan,
    validate_rows,
)


@pytest.fixture(scope="module")
def plan_and_frame():
    result, frame = build_demo_result(80, seed=0)
    return compile_plan(result, frame, "Target"), frame


def _good_row(frame, i=0):
    return {c: frame[c].values[i] for c in frame.columns}


@pytest.fixture
def strict_server(plan_and_frame):
    plan, _frame = plan_and_frame
    return FeatureServer(plan=plan)


@pytest.fixture
def degrade_server(plan_and_frame):
    plan, _frame = plan_and_frame
    return FeatureServer(plan=plan, failure_policy="degrade")


class TestEmptyAndMalformedBatches:
    def test_empty_batch_raises_typed_error(self, strict_server):
        with pytest.raises(BatchValidationError, match="empty batch"):
            strict_server.transform([])

    def test_empty_batch_raises_under_degrade_too(self, degrade_server):
        with pytest.raises(BatchValidationError, match="empty batch"):
            degrade_server.transform([])

    def test_non_mapping_rows_quarantined(self, plan_and_frame, degrade_server):
        _plan, frame = plan_and_frame
        rows = [_good_row(frame, 0), "garbage", 42, _good_row(frame, 1)]
        out, report = degrade_server.transform_with_report(rows)
        assert len(out) == 2
        reasons = dict(report.quarantine.quarantined)
        assert "not a mapping" in reasons[1]
        assert "not a mapping" in reasons[2]

    def test_all_rows_hostile_raises_not_empty_frame(self, degrade_server):
        with pytest.raises(BatchValidationError, match="no rows survived"):
            degrade_server.transform(["junk", None, 3.14])


class TestInconsistentKeySets:
    def test_missing_keys_patched_under_degrade(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        complete = _good_row(frame, 0)
        partial = dict(complete)
        numeric_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "numeric")
        del partial[numeric_col]
        out, report = degrade_server.transform_with_report([complete, partial])
        assert len(out) == 2  # both rows served
        assert report.quarantine.patched_cells == 1
        assert np.isnan(out[numeric_col].values[1])

    def test_missing_keys_fail_loudly_under_strict(self, plan_and_frame, strict_server):
        plan, frame = plan_and_frame
        partial = _good_row(frame, 0)
        del partial[plan.input_schema[0][0]]
        with pytest.raises(BatchValidationError):
            strict_server.transform([partial])


class TestHostileValues:
    def test_none_in_numeric_column_becomes_nan(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        row = _good_row(frame, 0)
        numeric_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "numeric")
        row[numeric_col] = None
        out, _report = degrade_server.transform_with_report([row])
        assert np.isnan(out[numeric_col].values[0])

    def test_nested_values_quarantine_the_row(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        good = _good_row(frame, 0)
        bad = dict(good)
        bad[plan.input_schema[0][0]] = {"nested": "dict"}
        out, report = degrade_server.transform_with_report([good, bad])
        assert len(out) == 1
        assert report.quarantine.quarantined_rows == 1
        assert "nested" in report.quarantine.quarantined[0][1]

    def test_inf_is_patched_to_nan_not_served(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        row = _good_row(frame, 0)
        numeric_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "numeric")
        row[numeric_col] = float("inf")
        out, report = degrade_server.transform_with_report([row])
        assert np.isnan(out[numeric_col].values[0])
        assert report.quarantine.patched_cells == 1

    def test_wrong_dtype_string_in_numeric_quarantines(
        self, plan_and_frame, degrade_server
    ):
        plan, frame = plan_and_frame
        row = _good_row(frame, 0)
        numeric_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "numeric")
        row[numeric_col] = "definitely-not-a-number"
        with pytest.raises(BatchValidationError, match="no rows survived"):
            degrade_server.transform([row])

    @pytest.mark.parametrize("text", ["1_000", "nan", " 3 ", "inf"])
    def test_string_outside_the_csv_number_grammar_quarantines(
        self, plan_and_frame, degrade_server, text
    ):
        """A numeric-column string follows the CSV reader's cell grammar:
        what a CSV cell keeps as a string is not patched into a number."""
        plan, frame = plan_and_frame
        good = _good_row(frame, 0)
        bad = dict(good)
        numeric_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "numeric")
        bad[numeric_col] = text
        out, report = degrade_server.transform_with_report([good, bad])
        assert len(out) == 1
        assert report.quarantine.quarantined == [
            (1, f"column {numeric_col!r}: non-numeric string {text!r} in numeric column")
        ]

    @pytest.mark.parametrize("text, value", [("12.5", 12.5), ("1e3", 1000.0)])
    def test_numeric_string_is_patched(self, plan_and_frame, degrade_server, text, value):
        plan, frame = plan_and_frame
        row = _good_row(frame, 0)
        numeric_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "numeric")
        row[numeric_col] = text
        out, report = degrade_server.transform_with_report([row])
        assert out[numeric_col].values[0] == value
        assert report.quarantine.patches == [(0, numeric_col, "numeric string coerced")]

    def test_non_utf8_string_quarantines(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        good = _good_row(frame, 0)
        bad = dict(good)
        object_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "object")
        bad[object_col] = "lone surrogate: \ud800"
        out, report = degrade_server.transform_with_report([good, bad])
        assert len(out) == 1
        assert "UTF-8" in report.quarantine.quarantined[0][1]

    def test_oversized_string_quarantines(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        good = _good_row(frame, 0)
        object_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "object")
        longest = dict(good)
        longest[object_col] = "x" * MAX_STRING_CHARS
        bad = dict(good)
        bad[object_col] = "x" * (MAX_STRING_CHARS + 1)
        out, report = degrade_server.transform_with_report([good, longest, bad])
        assert len(out) == 2
        assert out[object_col].values[1] == "x" * MAX_STRING_CHARS
        assert [idx for idx, _ in report.quarantine.quarantined] == [2]
        assert f"max_string_chars={MAX_STRING_CHARS}" in report.quarantine.quarantined[0][1]

    def test_hostile_values_raise_typed_error_under_strict(
        self, plan_and_frame, strict_server
    ):
        plan, frame = plan_and_frame
        row = _good_row(frame, 0)
        row[plan.input_schema[0][0]] = {"nested": 1}
        try:
            strict_server.transform([row])
        except PlanError as exc:
            assert "nested" in str(exc)  # typed AND actionable
        else:
            pytest.fail("hostile batch served silently under strict policy")


class TestFloodAndDriftWarnings:
    def test_nan_flood_flagged_not_fatal(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        numeric_col = next(n for n, k in plan.input_schema if coarse_kind(k) == "numeric")
        rows = []
        for i in range(10):
            row = _good_row(frame, i)
            row[numeric_col] = float("nan")
            rows.append(row)
        out, report = degrade_server.transform_with_report(rows)
        assert len(out) == 10
        assert any(
            numeric_col in w and "NaN" in w for w in report.quarantine.warnings
        )

    def test_unknown_categories_flagged(self, plan_and_frame, degrade_server):
        plan, frame = plan_and_frame
        rows = []
        for i in range(5):
            row = _good_row(frame, i)
            row["City"] = f"Atlantis-{i}"
            rows.append(row)
        out, report = degrade_server.transform_with_report(rows)
        assert len(out) == 5  # unseen categories serve (kernels have a path)
        assert any("City" in w and "categories" in w for w in report.quarantine.warnings)


class TestValidateRowsDirect:
    def test_validated_frame_passes_plan_schema(self, plan_and_frame):
        plan, frame = plan_and_frame
        rows = [_good_row(frame, i) for i in range(6)]
        built, _report = validate_rows(plan, rows)
        plan.validate_frame(built)  # must not raise

    def test_report_serializes(self, plan_and_frame):
        plan, frame = plan_and_frame
        rows = [_good_row(frame, 0), "junk"]
        _built, report = validate_rows(plan, rows)
        payload = report.to_dict()
        assert payload["total_rows"] == 2
        assert payload["quarantined_rows"] == 1
        assert payload["quarantined"][0]["reason"]
