"""The plan compiler lifts each feature from its accepted source.

Two contracts:

* **Tag-blind.**  A real provider's descriptions carry no simulator
  ``op[args]:`` tag.  Stripping the tag from every description of a
  fitted run must leave every feature's compile status and frozen
  expression unchanged.
* **Rewrite corpus.**  Hand-written sources equivalent in intent to the
  codegen forms (renamed variables, intermediate assignments, inline
  literals, operand swaps …) mostly compile, every compiled entry
  realizes and replays bit-identically to its sandbox run (the sandbox
  is the oracle here; fit never runs it), and every other entry is
  rejected with the lifter's reason and never ships.
"""

import dataclasses
import re

import pytest

from repro.core.function_generator import realize_source
from repro.core.pipeline import SmartFeatResult
from repro.core.sandbox import TransformError, run_transform
from repro.core.types import GeneratedFeature, OperatorFamily
from repro.dataframe.series import Series
from repro.eval.serving import (
    ALL_DATASETS,
    build_demo_result,
    fit_and_export,
    make_serving_frame,
)
from repro.serve import compile_plan, series_identical
from repro.serve.compiler import Unliftable, lift_source

_TAG = re.compile(r"^[A-Za-z_]+(\[[^\]]*\])*:\s*")

#: Fit size for the tag-blind sweep: every dataset x 2 seeds stays ~10 s.
FIT_ROWS = 400


def _strip_tags(result: SmartFeatResult) -> SmartFeatResult:
    features = {
        name: dataclasses.replace(f, description=_TAG.sub("", f.description))
        for name, f in result.new_features.items()
    }
    assert all(not _TAG.match(f.description) for f in features.values())
    return dataclasses.replace(result, new_features=features)


def _signature(plan) -> list:
    return [(s.name, s.status, s.expr) for s in plan.features]


class TestTagBlind:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dataset", ALL_DATASETS)
    def test_stripped_descriptions_compile_identically(self, dataset, seed):
        bundle, result = fit_and_export(dataset, n_rows=FIT_ROWS, seed=seed)
        assert any(_TAG.match(f.description) for f in result.new_features.values())
        stripped = compile_plan(_strip_tags(result), bundle["frame"], bundle["target"])
        assert _signature(stripped) == _signature(result.plan)
        assert stripped.counts()["compiled"] == len(stripped.features)

    def test_demo_plan_compiles_every_form_untagged(self):
        result, frame = build_demo_result(400, seed=0)
        plan = compile_plan(_strip_tags(result), frame, "Target")
        assert plan.counts() == {"compiled": 16, "omitted": 0}
        assert _signature(plan) == _signature(compile_plan(result, frame, "Target"))


# ----------------------------------------------------------------------
# Rewrite corpus
# ----------------------------------------------------------------------
def _src(*lines: str) -> str:
    return "def transform(df):\n" + "".join(f"    {line}\n" for line in lines)


#: (name, source) — rewrites of the codegen forms over the demo table.
CORPUS = [
    (
        "zscore_renamed",
        "def transform(frame):\n"
        "    income = frame['Income']\n"
        "    mu = income.mean()\n"
        "    sd = income.std() or 1.0\n"
        "    return (income - mu) / sd\n",
    ),
    ("zscore_bare_std", _src("return (df['Age'] - df['Age'].mean()) / df['Age'].std()")),
    ("centered", _src("return df['Income'] - df['Income'].mean()")),
    (
        "minmax_inline",
        _src(
            "c = df['Balance']",
            "return (c - c.min()) / ((c.max() - c.min()) or 1.0)",
        ),
    ),
    ("sum_swapped", _src("return df['Balance'] + df['Income']")),
    ("product_scalar_first", _src("return 2 * df['Income'] - 1")),
    ("negative_literal", _src("return df['Balance'] + -100.0")),
    ("squared_as_product", _src("return df['Age'] * df['Age']")),
    ("sqrt_as_power", _src("return df['Age'] ** 0.5")),
    (
        "ratio_intermediate",
        _src("a = df['Income']", "b = df['Age']", "ratio = a / b.where(b != 0)", "return ratio"),
    ),
    ("ratio_inline", _src("return df['Income'] / df['Age'].where(df['Age'] != 0)")),
    ("log1p_clip", _src("return df['Income'].clip(0).apply(np.log1p)")),
    ("sqrt_clip_keyword", _src("return df['Balance'].clip(lower=0).apply(np.sqrt)")),
    ("exp_clip_upper", _src("return df['Age'].clip(upper=10).apply(np.exp)")),
    ("isnull", _src("return df['Balance'].isnull().astype(int)")),
    ("cut_inline", _src("return pd.cut(df['Age'], [0, 30, 60, 120], labels=[0, 1, 2])")),
    (
        "cut_left_closed",
        _src("edges = [18, 40, 65, 81]", "return pd.cut(df['Age'], edges, right=False)"),
    ),
    ("qcut_unlabelled", _src("return pd.qcut(df['Income'], 5)")),
    ("groupby_string_key", _src("return df.groupby('Segment')['Income'].transform('mean')")),
    (
        "groupby_intermediate",
        _src("g = df.groupby(['Segment', 'City'])", "return g['Balance'].transform('max')"),
    ),
    (
        "map_inline",
        _src("return df['City'].map({'SF': 1.0, 'NYC': 2.0, 'LA': 3.0}).fillna(0.0)"),
    ),
    (
        "map_keyword_fillna",
        '''def transform(df):
    """Rough cost-of-living tier per city."""
    tiers = {'SF': 3, 'New York': 3, 'Boston': 2, 'Chicago': 2}
    return df['City'].map(tiers).fillna(value=1)
''',
    ),
    ("dummies_no_prefix", _src("return pd.get_dummies(df['City'])")),
    ("text_length_renamed", _src("notes = df['Notes']", "return notes.str.len()")),
    (
        "date_parts_reordered",
        _src(
            "d = df['SignupDate']",
            "return pd.DataFrame({'signup_dow': d.dt.dayofweek,"
            " 'signup_month': d.dt.month, 'signup_year': d.dt.year})",
        ),
    ),
    (
        "split_renamed",
        _src(
            "pieces = df['Pair'].str.split(',', expand=True)",
            "pieces = pieces.rename(columns={'0': 'make', '1': 'model'})",
            "result = pd.DataFrame({})",
            "for col in pieces.columns:",
            "    result[col] = pieces[col].str.strip()",
            "return result",
        ),
    ),
    (
        "composite_unrolled",
        _src(
            "a, b = df['Age'], df['Income']",
            "za = (a - a.mean()) / (a.std() or 1.0)",
            "zb = (b - b.mean()) / (b.std() or 1.0)",
            "return za * 0.5 + zb * 0.5",
        ),
    ),
    (
        "composite_conditional",
        _src(
            "total = None",
            "for_age = (df['Age'] - df['Age'].mean()) / (df['Age'].std() or 1.0)",
            "total = for_age if total is None else total + for_age",
            "z = (df['Balance'] - df['Balance'].mean()) / (df['Balance'].std() or 1.0)",
            "total = z if total is None else total + z",
            "return total",
        ),
    ),
    # Outside the lifted subset: fit rejects these, and a plan omits them.
    ("lambda_apply", _src("return df['Income'].apply(lambda v: v * 2)")),
    ("string_method_chain", _src("return df['City'].str.lower().str.len()")),
    ("median_fill", _src("return df['Income'].fillna(df['Income'].median())")),
]

MIN_COMPILED_SHARE = 0.8

UNLIFTABLE = ["lambda_apply", "string_method_chain", "median_fill"]


def _as_outputs(name: str, out) -> dict:
    if isinstance(out, Series):
        return {name: out.rename(name)}
    return {column: out[column] for column in out}


@pytest.fixture(scope="module")
def corpus_frame():
    return make_serving_frame(300, seed=4)


@pytest.fixture(scope="module")
def corpus_plans(corpus_frame):
    """Each entry realized through the fit evaluator and assembled into a
    plan on its own, paired with its sandbox run.  An entry fit rejects
    keeps its sandbox outputs in the fitted frame, so only the missing
    expression omits it."""
    plans = {}
    for name, source in CORPUS:
        outputs = _as_outputs(name, run_transform(source, corpus_frame))
        feature = GeneratedFeature(
            name=name,
            family=OperatorFamily.UNARY,
            input_columns=[],
            description=name,
            output_columns=list(outputs),
            source_code=source,
        )
        fitted = outputs
        try:
            feature.expr, out = realize_source(source, corpus_frame)
            fitted = _as_outputs(name, out)
        except TransformError as exc:
            feature.omit_reason = str(exc)
        working = corpus_frame.column_view(corpus_frame.columns)
        for column, series in fitted.items():
            working[column] = series
        result = SmartFeatResult(frame=working, new_features={name: feature})
        plans[name] = (compile_plan(result, corpus_frame, "Target"), outputs)
    return plans


class TestRewriteCorpus:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 20
        assert len({name for name, _ in CORPUS}) == len(CORPUS)

    def test_compiled_share(self, corpus_plans):
        statuses = {name: plan.features[0].status for name, (plan, _) in corpus_plans.items()}
        assert set(statuses.values()) <= {"compiled", "omitted"}
        compiled = sum(status == "compiled" for status in statuses.values())
        share = compiled / len(statuses)
        print(f"rewrite corpus: {compiled}/{len(statuses)} compiled ({share:.0%})")
        assert share >= MIN_COMPILED_SHARE, statuses

    @pytest.mark.parametrize(
        "name", [name for name, _ in CORPUS if name not in UNLIFTABLE]
    )
    def test_entry_replays_like_its_sandbox_run(self, name, corpus_plans, corpus_frame):
        plan, outputs = corpus_plans[name]
        replayed = plan.apply(corpus_frame)
        for column, series in outputs.items():
            assert series_identical(replayed[column], series), column

    @pytest.mark.parametrize("name", UNLIFTABLE)
    def test_unliftable_entries_are_omitted(self, name, corpus_plans, corpus_frame):
        with pytest.raises(Unliftable) as excinfo:
            lift_source(dict(CORPUS)[name])
        plan = corpus_plans[name][0]
        spec = plan.features[0]
        assert (spec.status, spec.expr) == ("omitted", None)
        assert spec.reason == f"not compilable: {excinfo.value}"
        assert not set(spec.output_columns) & set(plan.apply(corpus_frame).columns)
