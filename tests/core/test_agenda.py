"""Unit tests for :mod:`repro.core.agenda`."""

import dataclasses

import pytest

from repro.core import DataAgenda
from repro.dataframe import DataFrame


class TestFromDataframe:
    def test_target_excluded(self, insurance_agenda):
        assert "Safe" not in insurance_agenda

    def test_kinds_inferred(self, insurance_agenda):
        assert insurance_agenda.entries["Age"].kind == "numeric"
        assert insurance_agenda.entries["City"].kind == "categorical"
        assert insurance_agenda.entries["Claim in last 6 months"].kind == "binary"

    def test_categorical_values_listed(self, insurance_agenda):
        assert insurance_agenda.entries["City"].values == ("SF", "LA", "SEA")

    def test_high_cardinality_values_omitted(self):
        frame = DataFrame({"id": [f"u{i}" for i in range(50)], "y": [0, 1] * 25})
        agenda = DataAgenda.from_dataframe(frame, target="y")
        assert agenda.entries["id"].values == ()

    def test_missing_target_raises(self, insurance_frame):
        with pytest.raises(KeyError):
            DataAgenda.from_dataframe(insurance_frame, target="nope")

    def test_descriptions_optional(self, insurance_frame):
        agenda = DataAgenda.from_dataframe(insurance_frame, target="Safe")
        assert agenda.entries["Age"].description == ""


class TestDescribe:
    def test_contains_all_sections(self, insurance_agenda):
        text = insurance_agenda.describe()
        assert text.startswith("Dataset description: Car insurance")
        assert "Features:" in text
        assert "- Age (numeric): Age of the policyholder in years" in text
        assert "- City (categorical, values: SF|LA|SEA): City of residence" in text
        assert "Prediction class: Safe — 1 = safe" in text
        assert "Downstream model: decision_tree" in text

    def test_untitled_dataset(self):
        frame = DataFrame({"x": [1, 2], "y": [0, 1]})
        agenda = DataAgenda.from_dataframe(frame, target="y")
        assert "untitled dataset" in agenda.describe()

    def test_model_line_omitted_when_unset(self):
        frame = DataFrame({"x": [1, 2], "y": [0, 1]})
        agenda = DataAgenda.from_dataframe(frame, target="y")
        assert "Downstream model" not in agenda.describe()


class TestMutation:
    def test_add_and_contains(self, insurance_agenda):
        insurance_agenda.add("new_feat", "numeric", "binary[-]: diff")
        assert "new_feat" in insurance_agenda
        assert "- new_feat (numeric): binary[-]: diff" in insurance_agenda.describe()

    def test_add_invalid_kind_raises(self, insurance_agenda):
        with pytest.raises(ValueError):
            insurance_agenda.add("x", "fancy", "desc")

    def test_remove(self, insurance_agenda):
        insurance_agenda.remove("Age")
        assert "Age" not in insurance_agenda

    def test_remove_missing_is_noop(self, insurance_agenda):
        insurance_agenda.remove("nope")

    def test_copy_is_deep(self, insurance_agenda):
        copy = insurance_agenda.copy()
        copy.add("extra", "numeric", "d")
        copy.add("Age", "numeric", "changed")
        assert "extra" not in insurance_agenda
        assert insurance_agenda.entries["Age"].description != "changed"
        assert copy.entries["City"] == insurance_agenda.entries["City"]
        assert copy.entries["City"] is not insurance_agenda.entries["City"]

    def test_entries_are_immutable_and_render_once(self, insurance_agenda):
        entry = insurance_agenda.entries["City"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.description = "changed"
        assert entry.line == "- City (categorical, values: SF|LA|SEA): " + entry.description
        assert insurance_agenda.describe().splitlines()[2:-2] == [
            e.line for e in insurance_agenda.entries.values()
        ]

    def test_feature_name_helpers(self, insurance_agenda):
        assert "Age" in insurance_agenda.numeric_features()
        assert "City" in insurance_agenda.categorical_features()
