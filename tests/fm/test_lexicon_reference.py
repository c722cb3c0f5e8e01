"""The compiled, memoized role lexicon against its plain-loop reference.

:mod:`repro.fm.lexicon` compiles each role's keywords once and memoizes
roles and tokens; ``lexicon_reference`` keeps the per-keyword loops it
replaced.  The two must agree on every input, and a seeded fit must not
be able to tell them apart.
"""

from __future__ import annotations

import re
from collections import Counter

import lexicon_reference as reference
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SmartFeat
from repro.datasets import load_dataset
from repro.datasets.synth import make_synthetic_bundle
from repro.eval.serving import ALL_DATASETS
from repro.fm import SimulatedFM, lexicon, simulated
from repro.serve import frames_identical

ROWS = 200
KINDS = ("numeric", "categorical", "binary", "")
#: The ``op[args]:`` tag a generated feature's description starts with.
OP_TAG = re.compile(r"^[A-Za-z_]+(\[[^\]]*\])*:\s*")

KEYWORDS = sorted(
    {k for _, keywords in lexicon._ROLE_KEYWORDS for k in keywords}
    | lexicon._POSITIVE_STAT_WORDS
    | lexicon._NEGATIVE_STAT_WORDS
)
fragments = st.one_of(
    st.sampled_from(KEYWORDS),
    st.sampled_from(KEYWORDS).map(str.title),
    st.sampled_from(KEYWORDS).map(str.upper),
    st.text(max_size=8),
)
phrases = st.tuples(
    st.lists(fragments, max_size=6), st.sampled_from([" ", "_", ".", "", "-", ":"])
).map(lambda parts: parts[1].join(parts[0]))
texts = st.one_of(phrases, st.text(max_size=60))


def _bundle(dataset: str, seed: int) -> dict:
    if dataset == "synthetic":
        return make_synthetic_bundle(ROWS, seed=seed)
    loaded = load_dataset(dataset, seed=seed, n_rows=ROWS)
    return {
        "frame": loaded.frame,
        "target": loaded.target,
        "descriptions": loaded.descriptions,
        "title": loaded.title,
        "target_description": loaded.target_description,
    }


def _fit(bundle: dict, seed: int):
    fm = SimulatedFM(seed=seed, model="gpt-4")
    function_fm = SimulatedFM(seed=seed + 1, model="gpt-3.5-turbo")
    result = SmartFeat(fm, function_fm=function_fm).fit_transform(
        bundle["frame"],
        bundle["target"],
        descriptions=bundle["descriptions"],
        title=bundle["title"],
        target_description=bundle.get("target_description", ""),
    )
    ledgers = [
        (c.ledger.n_calls, c.ledger.prompt_tokens, c.ledger.completion_tokens, c.ledger.cost_usd)
        for c in (fm, function_fm)
    ]
    return result, ledgers


def _use_reference(monkeypatch) -> None:
    for name in ("infer_role", "stat_polarity", "tokenize_identifier"):
        monkeypatch.setattr(simulated, name, getattr(reference, name))


def _assert_matches_reference(name: str, description: str, kind: str) -> None:
    assert lexicon.infer_role(name, description, kind) == reference.infer_role(
        name, description, kind
    ), (name, description, kind)
    assert lexicon.stat_polarity(name, description) == reference.stat_polarity(name, description)
    for text in (name, description):
        assert lexicon.tokenize_identifier(text) == reference.tokenize_identifier(text)


@given(texts, texts, st.sampled_from(KINDS))
def test_matches_reference_on_generated_text(name, description, kind):
    _assert_matches_reference(name, description, kind)
    _assert_matches_reference(name, "", kind)


@pytest.fixture(scope="module")
def column_texts() -> set[tuple[str, str, str]]:
    """Every ``(name, description, kind)`` the simulator resolves while
    fitting each dataset, plus each data-card column under every kind."""
    seen: set[tuple[str, str, str]] = set()
    shipped = lexicon.infer_role

    def recording(name, description="", dtype=""):
        seen.add((name, description, dtype))
        return shipped(name, description, dtype)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulated, "infer_role", recording)
        for dataset in ALL_DATASETS:
            bundle = _bundle(dataset, seed=0)
            for column in bundle["frame"].columns:
                description = bundle["descriptions"].get(column, "")
                seen.update((column, description, kind) for kind in KINDS)
            _fit(bundle, seed=0)
    return seen


def test_matches_reference_on_every_dataset_column(column_texts):
    tagged = [t for t in column_texts if OP_TAG.match(t[1])]
    assert tagged, "the fits resolved no generated feature"
    for name, description, kind in column_texts:
        _assert_matches_reference(name, description, kind)
        _assert_matches_reference(name, OP_TAG.sub("", description), kind)


def test_tokens_are_fresh_lists():
    tokens = lexicon.tokenize_identifier("AgeOfCar")
    tokens.append("mutated")
    assert lexicon.tokenize_identifier("AgeOfCar") == ["age", "of", "car"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dataset", ALL_DATASETS)
def test_fit_is_identical_under_the_reference(dataset, seed, monkeypatch):
    bundle = _bundle(dataset, seed)
    result, ledgers = _fit(bundle, seed)
    with monkeypatch.context() as patch:
        _use_reference(patch)
        expect, expect_ledgers = _fit(bundle, seed)
    assert list(result.new_features) == list(expect.new_features)
    identical, detail = frames_identical(result.frame, expect.frame)
    assert identical, detail
    assert ledgers == expect_ledgers


def test_matcher_runs_once_per_distinct_column_text(monkeypatch):
    """The uncached matcher runs at most once per distinct
    ``(name, description, kind)`` during a fit, however many FM calls
    parse the same agenda lines: each client resolves a distinct line
    once (its line memo), and the process-wide role memo matches a
    column text both clients resolve once."""
    lexicon._cached_role.cache_clear()
    matched: Counter = Counter()
    resolved: Counter = Counter()
    match, shipped = lexicon._match_role, simulated.infer_role

    def counting_match(*key):
        matched[key] += 1
        return match(*key)

    def counting_infer(name, description="", dtype=""):
        resolved[name, description, dtype] += 1
        return shipped(name, description, dtype)

    monkeypatch.setattr(lexicon, "_match_role", counting_match)
    monkeypatch.setattr(simulated, "infer_role", counting_infer)
    _fit(make_synthetic_bundle(2000, seed=0), seed=0)
    assert matched and max(matched.values()) == 1
    assert set(matched) == set(resolved)
    assert max(resolved.values()) <= 2  # once per client
    assert sum(resolved.values()) > len(matched)
