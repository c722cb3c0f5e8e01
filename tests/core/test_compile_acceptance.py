"""Compilability is the fit-time acceptance rule.

The function generator lifts every FM answer once with the serving
compiler's lifter and evaluates the frozen template; FM code never runs.
An answer outside the lifted subset is re-prompted with the lifter's
reason, like an evaluation error, and rejected as "not compilable" once
its retries run out — so it is never evaluated and never reaches a plan.
"""

import json
import re

import pytest

from repro.core import FunctionGenerator, SmartFeat, prompts
from repro.core import function_generator
from repro.core.function_generator import RealizedFeature
from repro.core.parsing import extract_code
from repro.core.sandbox import TransformError
from repro.core.types import FeatureCandidate, OperatorFamily
from repro.dataframe import DataFrame
from repro.dataframe.expr import Unliftable
from repro.dataframe.lift import lift_source
from repro.fm import ScriptedFM

GOOD_CODE = "```python\ndef transform(df):\n    return df['Age'] * 2\n```"


def _answer(body: str) -> str:
    return f"```python\ndef transform(df):\n    return {body}\n```"


UNLIFTABLE_CODE = _answer("df['Age'].apply(lambda v: v * 2)")
RATIO_CODE = _answer("df['Age'] / df['Income']")

#: An answer whose literal the lifter cannot even build: the dict
#: display raises ``TypeError`` (as the sandbox would) while lifting.
UNHASHABLE_KEY_CODE = (
    "```python\ndef transform(df):\n    m = {[1]: 2}\n    return df['Age'] * 2\n```"
)

#: One answer per form outside the lifted subset (the rewrite corpus's
#: unliftable entries, and a literal that fails to lift), each with its
#: own lifter reason.
UNLIFTABLE_ANSWERS = {
    "lambda_apply": UNLIFTABLE_CODE,
    "string_method_chain": _answer("df['Sex'].str.lower().str.len()"),
    "median_fill": _answer("df['Age'].fillna(df['Age'].median())"),
    "unhashable_key": UNHASHABLE_KEY_CODE,
}


def _lifter_reason(code: str) -> str:
    with pytest.raises(Unliftable) as excinfo:
        lift_source(extract_code(code))
    return str(excinfo.value)


def _candidate():
    return FeatureCandidate(
        name="double_age",
        columns=["Age", "Sex"],
        description="doubled age (test)",
        family=OperatorFamily.UNARY,
    )


@pytest.fixture
def evaluated(monkeypatch):
    """Every template the generator hands to the fit evaluator, in order."""
    seen = []
    real = function_generator.fit_feature

    def counting(template, frame):
        seen.append(template)
        return real(template, frame)

    monkeypatch.setattr(function_generator, "fit_feature", counting)
    return seen


def _template(code: str) -> dict:
    return lift_source(extract_code(code))


@pytest.mark.parametrize("form", sorted(UNLIFTABLE_ANSWERS))
class TestGenerator:
    def test_unliftable_answer_repaired_with_the_lifters_reason(
        self, form, insurance_agenda, insurance_frame, evaluated
    ):
        unliftable = UNLIFTABLE_ANSWERS[form]
        fm = ScriptedFM([unliftable, GOOD_CODE])
        fm.ledger.keep_history = True
        realized = FunctionGenerator(fm, repair_retries=1).realize(
            _candidate(), insurance_agenda, insurance_frame
        )
        assert isinstance(realized, RealizedFeature)
        assert realized.feature.fm_calls == 2
        assert realized.feature.source_code == extract_code(GOOD_CODE)
        repair_prompt = fm.ledger.history[1][0]
        assert "Generate a corrected" in repair_prompt
        assert f"not compilable: {_lifter_reason(unliftable)}" in repair_prompt
        assert evaluated == [_template(GOOD_CODE)]

    def test_still_unliftable_after_retries_raises_not_compilable(
        self, form, insurance_agenda, insurance_frame, evaluated
    ):
        unliftable = UNLIFTABLE_ANSWERS[form]
        fm = ScriptedFM([unliftable, unliftable])
        reason = re.escape(_lifter_reason(unliftable))
        with pytest.raises(TransformError, match=f"^not compilable: {reason}$"):
            FunctionGenerator(fm, repair_retries=1).realize(
                _candidate(), insurance_agenda, insurance_frame
            )
        assert fm.ledger.n_calls == 2
        assert evaluated == []


class TestPipeline:
    @pytest.fixture
    def frame(self):
        return DataFrame(
            {
                "Age": [20, 30, 40, 50] * 25,
                "Income": [10.0, 20.0, 30.0, 40.0] * 25,
                "y": [0, 1, 0, 1] * 25,
            }
        )

    def test_unliftable_candidate_lands_in_rejections(self, frame, evaluated):
        proposal = json.dumps(
            {
                "operator": "-",
                "columns": ["Age", "Income"],
                "name": "gap",
                "description": "binary[-]: gap",
            }
        )
        tool = SmartFeat(
            fm=ScriptedFM([proposal]),
            function_fm=ScriptedFM([UNLIFTABLE_CODE, UNLIFTABLE_CODE]),
            downstream_model="rf",
            operator_families=(OperatorFamily.BINARY,),
            sampling_budget=1,
            repair_retries=1,
        )
        result = tool.fit_transform(frame, target="y")
        assert result.new_features == {}
        reason = _lifter_reason(UNLIFTABLE_CODE)
        assert result.rejections["gap"] == f"generation failed: not compilable: {reason}"
        assert evaluated == []

    def test_lift_failure_rejects_one_candidate_and_the_fit_runs_on(
        self, frame, evaluated
    ):
        def proposal(name, operator):
            return json.dumps(
                {
                    "operator": operator,
                    "columns": ["Age", "Income"],
                    "name": name,
                    "description": f"binary[{operator}]: {name}",
                }
            )

        def answer(prompt):
            return UNHASHABLE_KEY_CODE if '"broken"' in prompt else RATIO_CODE

        tool = SmartFeat(
            fm=ScriptedFM([proposal("broken", "-"), proposal("ratio", "/")]),
            function_fm=ScriptedFM(answer),
            downstream_model="rf",
            operator_families=(OperatorFamily.BINARY,),
            sampling_budget=2,
            repair_retries=1,
        )
        result = tool.fit_transform(frame, target="y")
        assert result.rejections["broken"] == (
            "generation failed: not compilable: "
            "lift failed: TypeError: unhashable type: 'list'"
        )
        assert list(result.new_features) == ["ratio"]
        assert evaluated == [_template(RATIO_CODE)]


class TestOneEvaluator:
    """A fit lifts each FM answer once and never enters the sandbox."""

    def test_fit_lifts_each_answer_once_and_never_runs_the_sandbox(self, monkeypatch):
        from repro.core import sandbox
        from repro.datasets import load_dataset
        from repro.fm import SimulatedFM

        def forbidden(*args, **kwargs):
            raise AssertionError("fit entered the sandbox")

        monkeypatch.setattr(sandbox, "run_transform", forbidden)
        monkeypatch.setattr(sandbox, "_compiled", forbidden)
        monkeypatch.setattr(function_generator, "run_transform", forbidden)
        answers, lifted = [], []
        real_extract, real_lift = function_generator.extract_code, function_generator.lift_source

        def extracting(text):
            answers.append(real_extract(text))
            return answers[-1]

        def lifting(source):
            lifted.append(source)
            return real_lift(source)

        monkeypatch.setattr(function_generator, "extract_code", extracting)
        monkeypatch.setattr(function_generator, "lift_source", lifting)
        loaded = load_dataset("heart", seed=0, n_rows=200)
        result = SmartFeat(
            SimulatedFM(seed=0, model="gpt-4"),
            function_fm=SimulatedFM(seed=1, model="gpt-3.5-turbo"),
            operator_families=(
                OperatorFamily.UNARY,
                OperatorFamily.BINARY,
                OperatorFamily.EXTRACTOR,
            ),
        ).fit_transform(
            loaded.frame,
            loaded.target,
            descriptions=loaded.descriptions,
            title=loaded.title,
        )
        assert len(answers) >= 5, "too few FM answers: weak test"
        assert lifted == answers
        assert result.plan.counts() == {"compiled": len(result.new_features), "omitted": 0}


class TestLifter:
    def test_unhashable_dict_key_is_unliftable(self):
        with pytest.raises(Unliftable, match="^lift failed: TypeError: unhashable"):
            lift_source(extract_code(UNHASHABLE_KEY_CODE))


#: One source per form the code prompts name as accepted.
PROMPTED_FORMS = {
    "arithmetic": "(df['Age'] - 1.5) * df['Income'] ** 2",
    "pd.cut": "pd.cut(df['Age'], bins=[0, 30, 60], labels=['young', 'old'])",
    "pd.qcut": "pd.qcut(df['Age'], 4)",
    "pd.get_dummies": "pd.get_dummies(df['Sex'])",
    "groupby": "df.groupby(['Sex'])['Age'].transform('mean')",
    "date parts": "pd.DataFrame({'y': df['D'].dt.year, 'm': df['D'].dt.month})",
    ".map(dict)": "df['Sex'].map({'male': 0, 'female': 1})",
    ".fillna": "df['Age'].fillna(0)",
    ".clip": "df['Age'].clip(18, 65)",
    ".isna": "df['Age'].isna().astype(int)",
    "fit statistics": "(df['Age'] - df['Age'].mean()) / df['Age'].std()",
    ".min/.max": "(df['Age'] - df['Age'].min()) / df['Age'].max()",
    ".where": "df['Age'] / df['Income'].where(df['Income'] != 0)",
    ".apply(np.ufunc)": "df['Age'].apply(np.log1p)",
    ".str.len": "df['Sex'].str.len()",
}


class TestPrompts:
    """The code prompts promise exactly what fit accepts."""

    def test_both_code_prompts_state_the_subset(self, insurance_agenda):
        for prompt in (
            prompts.function_generation_prompt(insurance_agenda, _candidate()),
            prompts.function_repair_prompt(
                insurance_agenda, _candidate(), "def transform(df): ...", "boom"
            ),
        ):
            assert prompts._SUBSET in prompt
            assert "no\nloops, lambdas, `math`" in prompt

    @pytest.mark.parametrize("form", sorted(PROMPTED_FORMS))
    def test_each_named_form_lifts(self, form):
        lift_source(extract_code(_answer(PROMPTED_FORMS[form])))
