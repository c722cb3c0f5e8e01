"""The shared record codec and atomic JSON writer (``repro.records``)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.agenda import AgendaEntry
from repro.core.types import (
    GeneratedFeature,
    OperatorFamily,
    RowCompletionPlan,
    SourceSuggestion,
)
from repro.fm.base import Budget, CallLedger, FMResponse
from repro.records import assign_record, from_record, to_record, write_json_atomic


def _row_plan() -> RowCompletionPlan:
    return RowCompletionPlan(
        name="Risk",
        description="row-level risk label",
        preview=[({"Age": np.int64(3), "Income": np.float64(1.5)}, "low")],
        n_rows=np.int64(48),
        estimated_calls=48,
        estimated_cost_usd=0.125,
        estimated_latency_s=12.5,
        relevant_columns=["Age", "Income"],
    )


class TestToRecord:
    def test_fields_in_declaration_order_with_enum_by_value(self):
        feature = GeneratedFeature(
            name="Age_x_Income",
            family=OperatorFamily.BINARY,
            input_columns=["Age", "Income"],
            description="product",
            output_columns=["Age_x_Income"],
            source_code="def transform(df): ...",
            fm_calls=2,
        )
        record = to_record(feature)
        assert list(record) == [
            "name",
            "family",
            "input_columns",
            "description",
            "output_columns",
            "source_code",
            "fm_calls",
            "expr",
            "omit_reason",
        ]
        assert record["family"] == "binary"

    def test_tuples_become_lists_and_numpy_scalars_python(self):
        record = to_record(_row_plan())
        assert record["preview"] == [[{"Age": 3, "Income": 1.5}, "low"]]
        assert type(record["preview"][0][0]["Age"]) is int
        assert type(record["n_rows"]) is int
        assert type(to_record(np.bool_(True))) is bool
        json.dumps(record)  # plain JSON data all the way down

    def test_unrecorded_fields_are_left_out(self):
        ledger = CallLedger(budget=Budget(max_calls=3), keep_history=True)
        ledger.history.append(("prompt", "text"))
        record = to_record(ledger)
        assert not {"history", "keep_history", "budget"} & set(record)
        assert list(record)[:5] == [
            "n_calls",
            "prompt_tokens",
            "completion_tokens",
            "latency_s",
            "cost_usd",
        ]

    def test_unrepresentable_value_fails_loudly(self):
        with pytest.raises(TypeError, match="cannot record"):
            to_record({"when": object()})


class TestFromRecord:
    @pytest.mark.parametrize(
        "obj",
        [
            GeneratedFeature("f", OperatorFamily.EXTRACTOR, ["a"], "d", ["f"]),
            SourceSuggestion("f", "no function", ["census.gov"]),
            AgendaEntry("City", "categorical", "where", ["LA", "SF"]),
            FMResponse("text", 3, 4, 0.25, 1e-6, model="gpt-4"),
        ],
        ids=lambda obj: type(obj).__name__,
    )
    def test_roundtrip_through_json(self, obj):
        data = json.loads(json.dumps(to_record(obj)))
        assert from_record(type(obj), data) == obj

    def test_row_plan_preview_is_rebuilt_as_tuples(self):
        data = json.loads(json.dumps(to_record(_row_plan())))
        plan = from_record(RowCompletionPlan, data)
        assert plan.preview == [({"Age": 3, "Income": 1.5}, "low")]
        assert isinstance(plan.preview[0], tuple)

    def test_missing_required_field_raises(self):
        with pytest.raises(TypeError):
            from_record(SourceSuggestion, {"name": "f"})


class TestAssignRecord:
    def test_unrounded_ledger_state_roundtrips_exactly(self):
        ledger = CallLedger()
        for cost, latency in ((1e-7, 0.1), (2e-7, 0.2), (3.3e-7, 0.7)):
            ledger.record("p", FMResponse("t", 1, 1, latency, cost))
        restored = CallLedger()
        assign_record(restored, json.loads(json.dumps(to_record(ledger))))
        assert to_record(restored) == to_record(ledger)
        assert restored.cost_usd == ledger.cost_usd  # exact, not rounded

    def test_stray_keys_cannot_replace_unrecorded_fields(self):
        budget = Budget(max_calls=5)
        ledger = CallLedger(budget=budget)
        assign_record(ledger, {"n_calls": 4, "budget": None, "bogus": 1})
        assert ledger.n_calls == 4
        assert ledger.budget is budget


class TestWriteJsonAtomic:
    def test_writes_text_and_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.json"
        write_json_atomic(path, '{"ok": true}')
        assert path.read_text() == '{"ok": true}'
        assert [p.name for p in path.parent.iterdir()] == ["out.json"]

    def test_failed_write_keeps_previous_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        write_json_atomic(path, '{"generation": 1}')
        real_write_text = Path.write_text

        def dying_write(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", dying_write)
        with pytest.raises(OSError, match="disk full"):
            write_json_atomic(path, '{"generation": 2}')
        monkeypatch.undo()
        assert path.read_text() == '{"generation": 1}'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_replace_removes_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"

        def dying_replace(src, dst):
            raise OSError("killed")

        monkeypatch.setattr("repro.records.os.replace", dying_replace)
        with pytest.raises(OSError, match="killed"):
            write_json_atomic(path, "{}")
        assert list(tmp_path.iterdir()) == []
