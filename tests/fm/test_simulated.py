"""Unit tests for the SimulatedFM against the real prompt templates."""

import json

import pytest

from repro.core import DataAgenda, prompts
from repro.core.types import FeatureCandidate, OperatorFamily
from repro.dataframe import DataFrame
from repro.fm import SimulatedFM
from repro.fm.simulated import parse_agenda


@pytest.fixture
def frame():
    return DataFrame(
        {
            "Age": [21, 35, 42, 22, 45, 56],
            "Income": [30.0, 80.0, 95.0, 25.0, 110.0, 70.0],
            "City": ["SF", "LA", "SEA", "SF", "SEA", "LA"],
            "HasClaim": [1, 0, 0, 1, 0, 0],
            "Safe": [0, 1, 1, 0, 1, 1],
        }
    )


@pytest.fixture
def agenda(frame):
    return DataAgenda.from_dataframe(
        frame,
        target="Safe",
        descriptions={
            "Age": "Age of the policyholder in years",
            "Income": "Annual income in thousands of dollars",
            "City": "City of residence",
            "HasClaim": "Whether a claim was filed in the last 6 months",
        },
        title="Car insurance policyholders",
        target_description="1 = safe driver",
        model="random_forest",
    )


class TestAgendaParsing:
    def test_roundtrip_through_prompt(self, agenda):
        view = parse_agenda(agenda.describe())
        assert set(view.features) == {"Age", "Income", "City", "HasClaim"}
        assert view.target == "Safe"
        assert view.model == "random_forest"
        assert view.features["City"].kind == "categorical"
        assert view.features["City"].values == ("SF", "LA", "SEA")
        assert view.features["HasClaim"].kind == "binary"

    def test_roles_inferred(self, agenda):
        view = parse_agenda(agenda.describe())
        assert view.features["Age"].role.value == "age"
        assert view.features["Income"].role.value == "money"
        assert view.features["City"].role.value == "city"


class TestUnaryAnswers:
    def test_age_gets_bucketization_certain(self, agenda):
        fm = SimulatedFM(seed=0)
        text = fm.complete(prompts.unary_proposal_prompt(agenda, "Age")).text
        assert "bucketization" in text
        assert "(certain)" in text

    def test_insurance_context_selects_insurance_bands(self, agenda):
        fm = SimulatedFM(seed=0)
        text = fm.complete(prompts.unary_proposal_prompt(agenda, "Age")).text
        assert "age_insurance" in text

    def test_money_gets_log_transform(self, agenda):
        fm = SimulatedFM(seed=0)
        text = fm.complete(prompts.unary_proposal_prompt(agenda, "Income")).text
        assert "log_transform (certain)" in text

    def test_low_cardinality_categorical_gets_dummies(self, agenda):
        fm = SimulatedFM(seed=0)
        text = fm.complete(prompts.unary_proposal_prompt(agenda, "City")).text
        assert "get_dummies (certain)" in text

    def test_binary_column_gets_none(self, agenda):
        fm = SimulatedFM(seed=0)
        text = fm.complete(prompts.unary_proposal_prompt(agenda, "HasClaim")).text
        assert text.startswith("none")

    def test_dnn_model_prefers_minmax(self, agenda):
        agenda = agenda.copy()
        agenda.model = "dnn"
        fm = SimulatedFM(seed=0)
        text = fm.complete(prompts.unary_proposal_prompt(agenda, "Income")).text
        assert "normalization[minmax]" in text

    def test_tree_model_prefers_zscore(self, agenda):
        fm = SimulatedFM(seed=0)
        text = fm.complete(prompts.unary_proposal_prompt(agenda, "Income")).text
        assert "normalization[zscore]" in text

    def test_unknown_attribute_answers_none(self, agenda):
        fm = SimulatedFM(seed=0)
        prompt = prompts.unary_proposal_prompt(agenda, "Age").replace('"Age"', '"Bogus"')
        assert fm.complete(prompt).text.startswith("none")

    def test_deterministic_at_temperature_zero(self, agenda):
        prompt = prompts.unary_proposal_prompt(agenda, "Age")
        assert SimulatedFM(seed=0).complete(prompt).text == SimulatedFM(seed=0).complete(prompt).text


class TestBinaryAnswers:
    def test_valid_json_with_known_columns(self, agenda):
        fm = SimulatedFM(seed=0)
        payload = json.loads(fm.complete(prompts.binary_sampling_prompt(agenda), temperature=0.7).text)
        assert payload["operator"] in "+-*/"
        assert all(c in agenda.feature_names for c in payload["columns"])
        assert payload["description"].startswith("binary[")

    def test_sampling_varies_across_calls(self):
        wide = DataFrame(
            {
                "income": [1.0, 2.0, 3.0],
                "loan": [4.0, 5.0, 6.0],
                "n_children": [0, 1, 2],
                "balance": [9.0, 8.0, 7.0],
                "y": [0, 1, 0],
            }
        )
        agenda = DataAgenda.from_dataframe(wide, target="y")
        fm = SimulatedFM(seed=0)
        prompt = prompts.binary_sampling_prompt(agenda)
        names = {json.loads(fm.complete(prompt, temperature=0.7).text)["name"] for _ in range(10)}
        assert len(names) >= 2

    def test_no_numeric_pairs_gracefully_declines(self, frame):
        narrow = DataAgenda.from_dataframe(frame[["City", "Safe"]], target="Safe")
        fm = SimulatedFM(seed=0)
        payload = json.loads(fm.complete(prompts.binary_sampling_prompt(narrow), temperature=0.7).text)
        assert payload["operator"] is None


class TestHighOrderAnswers:
    def test_valid_combo(self, agenda):
        fm = SimulatedFM(seed=0)
        payload = json.loads(
            fm.complete(prompts.high_order_sampling_prompt(agenda), temperature=0.7).text
        )
        assert payload["groupby_col"]
        assert payload["agg_col"] in agenda.feature_names
        assert payload["function"] in ("mean", "max", "min", "sum", "count")

    def test_claim_history_favoured_as_aggregate(self, agenda):
        # 'HasClaim' shares words with the claim-themed target description,
        # so across repeated samples it should dominate the agg column.
        fm = SimulatedFM(seed=1)
        agenda = agenda.copy()
        agenda.target_description = "1 = unlikely to file an insurance claim"
        prompt = prompts.high_order_sampling_prompt(agenda)
        picks = [
            json.loads(fm.complete(prompt, temperature=0.7).text)["agg_col"] for _ in range(12)
        ]
        assert picks.count("HasClaim") >= 4


class TestExtractorAnswers:
    def test_city_knowledge_candidate(self, agenda):
        fm = SimulatedFM(seed=0)
        found = set()
        for _ in range(10):
            payload = json.loads(
                fm.complete(prompts.extractor_sampling_prompt(agenda), temperature=0.7).text
            )
            found.add(payload["name"])
        assert any("population_density" in n for n in found)

    def test_kind_is_function_for_listed_values(self, agenda):
        fm = SimulatedFM(seed=3)
        for _ in range(10):
            payload = json.loads(
                fm.complete(prompts.extractor_sampling_prompt(agenda), temperature=0.7).text
            )
            if "population_density" in payload["name"]:
                assert payload["kind"] == "function"
                break
        else:
            pytest.fail("density candidate never sampled")


class TestFunctionAnswers:
    def test_generates_runnable_code(self, agenda):
        fm = SimulatedFM(seed=0)
        candidate = FeatureCandidate(
            name="bucketization_Age",
            columns=["Age"],
            description="bucketization[age_insurance]: Age in insurance bands",
            family=OperatorFamily.UNARY,
        )
        text = fm.complete(prompts.function_generation_prompt(agenda, candidate)).text
        assert "```python" in text
        assert "def transform" in text


class TestRowCompletion:
    def test_density_lookup(self):
        fm = SimulatedFM(seed=0)
        prompt = prompts.row_completion_prompt("City_population_density", {"City": "SF"})
        assert float(fm.complete(prompt).text) == 18630.0

    def test_unknown_topic_answers_unknown(self):
        fm = SimulatedFM(seed=0)
        prompt = prompts.row_completion_prompt("favourite_colour", {"City": "SF"})
        assert fm.complete(prompt).text == "unknown"


class TestErrorInjection:
    def test_error_rate_one_always_garbles(self, agenda):
        fm = SimulatedFM(seed=0, error_rate=1.0)
        text = fm.complete(prompts.binary_sampling_prompt(agenda), temperature=0.7).text
        assert "operator" not in text or "{" not in text or not text.strip().endswith("}")

    def test_error_rate_zero_never_garbles(self, agenda):
        fm = SimulatedFM(seed=0, error_rate=0.0)
        for _ in range(5):
            text = fm.complete(prompts.binary_sampling_prompt(agenda), temperature=0.7).text
            assert text.startswith("{")


class TestAccounting:
    def test_gpt4_labeled_client_costs_more(self, agenda):
        prompt = prompts.binary_sampling_prompt(agenda)
        big = SimulatedFM(seed=0, model="gpt-4")
        small = SimulatedFM(seed=0, model="gpt-3.5-turbo")
        big.complete(prompt)
        small.complete(prompt)
        assert big.ledger.cost_usd > small.ledger.cost_usd
