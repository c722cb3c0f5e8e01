"""The simulator's per-client memos change no parse and no answer.

``SimulatedFM`` memoizes the parse of each agenda line, the scored
options of each column pair and the group-by combos of each (group,
aggregate, target).  Every memo is a pure function of its text key, so
a client whose memos are warm (from this prompt, earlier prompts, or
other agendas altogether) parses and answers exactly as a fresh one,
from any number of threads at once; a pickled client starts cold.
"""

import dataclasses
import pickle
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataAgenda, prompts
from repro.core.agenda import AgendaEntry
from repro.core.types import FeatureCandidate, OperatorFamily
from repro.fm import SimulatedFM
from repro.fm.simulated import _LINE_MEMO, _PAIR_MEMO, parse_agenda

SEED = 3
#: One client for the whole module: its memos stay warm across examples.
WARM = SimulatedFM(seed=SEED)

_WORDS = st.sampled_from(
    ["Age", "income", "City", "claims", "won", "errors", "created", "glucose",
     "insulin", "trap", "count", "rate", "x", "Make Model", "score"]
)
#: Hostile fragments: a name's `` (``, a value's ``|``, a description's
#: `` — `` and tag forms, brackets, colons and line breaks.
_FRAGMENTS = st.sampled_from(
    [" (", "|", " — ", "[", "]", ": ", "(numeric)", ", values: ", "\n", " ", "_", ")"]
)
_TEXT = st.lists(st.one_of(_WORDS, _FRAGMENTS), max_size=5).map("".join)
_TAGGED = st.builds(
    "{}{}".format,
    st.sampled_from(
        ["", "binary[-]: ", "log_transform: ", "normalization[zscore]: ", "groupby[mean]: ",
         "knowledge_map[car_make_risk]: ", "bucketization[age_generic]: ", "split_parts[,]: "]
    ),
    _TEXT,
)
#: A small name pool, so duplicate names are common.
_NAMES = st.one_of(
    st.sampled_from(["Age", "income", "City", "log_transform_income", "Age (years"]),
    _TEXT.filter(str.strip),
)


@st.composite
def agendas(draw) -> DataAgenda:
    agenda = DataAgenda(
        title=draw(_TEXT),
        target=draw(st.sampled_from(["Safe", "claim rate", "won — match"])),
        target_description=draw(_TEXT),
        model=draw(st.sampled_from(["", "knn", "random_forest"])),
    )
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["numeric", "categorical", "binary"]))
        values = draw(st.lists(_TEXT, max_size=4)) if kind == "categorical" else []
        # Keyed by position: two entries may render the same name.
        agenda.entries[str(i)] = AgendaEntry(draw(_NAMES), kind, draw(_TAGGED), values)
    return agenda


def every_prompt(agenda: DataAgenda) -> list[str]:
    names = [entry.name for entry in agenda.entries.values()] or ["Age"]
    candidate = FeatureCandidate(
        name="new_feature",
        columns=names[:2],
        description="binary[-]: difference of the two",
        family=OperatorFamily.BINARY,
    )
    return [
        *(prompts.unary_proposal_prompt(agenda, name) for name in names[:3]),
        prompts.binary_sampling_prompt(agenda),
        prompts.binary_proposal_prompt(agenda, 4),
        prompts.high_order_sampling_prompt(agenda),
        prompts.extractor_sampling_prompt(agenda),
        prompts.function_generation_prompt(agenda, candidate),
        prompts.function_repair_prompt(agenda, candidate, "def transform(df):\n    x", "boom"),
        prompts.source_suggestion_prompt(agenda, candidate),
        prompts.feature_removal_prompt(agenda),
        prompts.caafe_prompt(agenda, "a,b\n1,2", 2),
        prompts.row_completion_prompt("city_population_density", {"City": "LA", "n": 3}),
    ]


def assert_same_view(warm, cold) -> None:
    assert (warm.title, warm.target, warm.target_description, warm.model) == (
        cold.title, cold.target, cold.target_description, cold.model
    )
    assert list(warm.features) == list(cold.features)
    for name, info in cold.features.items():
        for f in dataclasses.fields(info):
            assert getattr(warm.features[name], f.name) == getattr(info, f.name), f.name


@settings(max_examples=60, deadline=None)
@given(agendas())
def test_warm_parse_equals_the_uncached_parse(agenda):
    texts = every_prompt(agenda)
    for text in texts:  # warm on every template first
        parse_agenda(text, WARM._line_info)
    for text in texts:
        assert_same_view(parse_agenda(text, WARM._line_info), parse_agenda(text))


@settings(max_examples=40, deadline=None)
@given(agendas(), st.integers(1, 10**6))
def test_warm_client_answers_as_a_fresh_client(agenda, state):
    for text in every_prompt(agenda):
        for temperature in (0.0, 0.7):
            for warm_state in (state, state + 1):  # the second call is warm on this prompt
                fresh = SimulatedFM(seed=SEED)._complete_with_state(text, temperature, warm_state)
                assert WARM._complete_with_state(text, temperature, warm_state) == fresh


@settings(max_examples=15, deadline=None)
@given(agendas(), st.integers(1, 10**6))
def test_error_injection_draws_alike_warm_or_fresh(agenda, state):
    warm = SimulatedFM(seed=SEED, error_rate=0.5)
    for text in every_prompt(agenda) * 2:
        fresh = SimulatedFM(seed=SEED, error_rate=0.5)
        assert warm._complete_with_state(text, 0.7, state) == fresh._complete_with_state(
            text, 0.7, state
        )


def fixed_agenda() -> DataAgenda:
    agenda = DataAgenda(title="Car insurance", target="Safe", model="knn")
    rows = [
        ("Age", "numeric", "Age of the policyholder in years", ()),
        ("Income", "numeric", "Annual income in dollars", ()),
        ("Claims", "numeric", "Number of claims filed", ()),
        ("Winners", "numeric", "winners hit", ()),
        ("Errors", "numeric", "unforced errors", ()),
        ("City", "categorical", "City of residence", ("SF", "LA", "SEA")),
        ("HasClaim", "binary", "Whether a claim was filed", ()),
        ("log_transform_Income", "numeric", "log_transform: log of Income", ()),
    ]
    for name, kind, description, values in rows:
        agenda.add(name, kind, description, list(values))
    return agenda


def test_threads_sharing_one_client_answer_as_the_sequential_run():
    """Transport responders share one client across threads: cold memos
    filled from many threads at once still give the sequential answers."""
    jobs = [
        (text, temperature, state)
        for state, text in enumerate(every_prompt(fixed_agenda()) * 3, start=1)
        for temperature in (0.0, 0.7)
    ]
    sequential = SimulatedFM(seed=SEED)
    want = [sequential._complete_with_state(*job) for job in jobs]
    shared = SimulatedFM(seed=SEED)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    got: list[list[str | None]] = [[None] * len(jobs) for _ in range(n_threads)]

    def work(t: int) -> None:
        barrier.wait()
        # Each thread walks the jobs from its own offset, so threads miss
        # on different lines and pairs at the same time.
        for k in range(len(jobs)):
            i = (k + t * 7) % len(jobs)
            got[t][i] = shared._complete_with_state(*jobs[i])

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-miss included
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(answers == want for answers in got)


def test_a_pickled_client_carries_no_memo_entries():
    client = SimulatedFM(seed=SEED)
    texts = every_prompt(fixed_agenda())
    want = [client._complete_with_state(text, 0.7, 5) for text in texts]
    memos = ("_line_info", "_pair_options", "_group_combos")
    assert all(getattr(client, memo).cache_info().currsize for memo in memos)
    copy = pickle.loads(pickle.dumps(client))
    assert [getattr(copy, memo).cache_info().currsize for memo in memos] == [0, 0, 0]
    assert copy.checkpoint_state() == client.checkpoint_state()
    assert [copy._complete_with_state(text, 0.7, 5) for text in texts] == want


def test_memos_are_bounded():
    client = SimulatedFM(seed=SEED)
    assert client._line_info.cache_info().maxsize == _LINE_MEMO
    assert client._pair_options.cache_info().maxsize == _PAIR_MEMO
    assert client._group_combos.cache_info().maxsize == _PAIR_MEMO
