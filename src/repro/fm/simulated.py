"""A deterministic, knowledge-based foundation-model simulator.

:class:`SimulatedFM` answers the prompt shapes of the SMARTFEAT operator
selector, the function generator, row-level completion, source suggestion,
and the CAAFE baseline.  It sees *only the prompt text* — never the raw
dataframe — exactly like a real FM:

* column semantics come from :mod:`repro.fm.lexicon` applied to the names
  and descriptions serialised into the prompt's data agenda (a role is
  resolved once per distinct column text per process, so a call costs
  O(prompt): parsing the agenda, never rescanning the lexicon);
* each client memoizes what it reads off the agenda, keyed on text: the
  parse of each agenda line with the facts the answers use (derivation
  tag, stat polarity, base name, group/aggregate eligibility), the scored
  binary options of each column pair and the weighted group-by combos of
  each (group, aggregate, target).  Each memo is a pure function of its
  key, bounded (:data:`_LINE_MEMO`, :data:`_PAIR_MEMO` entries, least
  recently used out), and no part of the client's state: it is not
  checkpointed and a pickled client starts without it.  A call therefore
  pays only for the agenda lines it has not seen before, and an answer
  is a function of the seed, the prompt and the reserved state only;
* open-world answers come from :mod:`repro.fm.knowledge`;
* executable code comes from :mod:`repro.fm.codegen`;
* sampling-strategy diversity comes from a seeded generator keyed on the
  call counter when ``temperature > 0`` (the i.i.d. sampling of the
  paper's Tree-of-Thoughts-style search), and on the prompt hash when
  ``temperature == 0`` (deterministic proposals).

``error_rate`` injects malformed responses (refusals, broken JSON, code
that raises) to exercise SMARTFEAT's error threshold, mirroring the
paper's observation that FMs are "susceptible to unpredicted errors".
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import threading
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.fm.base import Budget, FMClient
from repro.fm.codegen import derivation_tag, generate_transform_source
from repro.fm.cost import CostModel
from repro.fm.knowledge import KnowledgeStore, default_knowledge
from repro.fm.lexicon import ColumnRole, infer_role, stat_polarity, tokenize_identifier

__all__ = ["AgendaView", "SimulatedFM", "simulated_pair"]

_FEATURE_LINE = re.compile(
    r"^- (?P<name>.+?) \((?P<kind>numeric|categorical|binary)"
    r"(?:, values: (?P<values>[^)]*))?\): (?P<desc>.*)$",
    re.MULTILINE,
)
_TARGET_LINE = re.compile(r"^Prediction class: (?P<name>[^—\n]+?)(?: — (?P<desc>.*))?$", re.MULTILINE)
_MODEL_LINE = re.compile(r"^Downstream model: (?P<model>.+)$", re.MULTILINE)
_TITLE_LINE = re.compile(r"^Dataset description: (?P<title>.+)$", re.MULTILINE)


#: Agenda lines each client's parse memo keeps.
_LINE_MEMO = 4096
#: Column pairs (and group-by combos) each client's scoring memos keep.
_PAIR_MEMO = 16384

#: Derivation tags usable as binary-operator inputs: original columns
#: plus semantically meaningful derived quantities (group rates,
#: knowledge lookups, composites).  Arithmetic on bucket codes, one-hot
#: flags, z-scores, logs, or already-combined features is the kind of
#: nonsense an FM's semantic understanding avoids.
_BINARY_INPUT_TAGS = frozenset({"", "knowledge_map", "composite_index", "groupby"})
#: Tags usable as group-by keys (bucketised / split columns partition well).
_GROUP_COL_TAGS = frozenset({"", "bucketization", "split_parts"})
#: Tags usable as aggregate columns (no nested group-bys, no arithmetic
#: combinations — aggregate the interpretable quantities).
_AGG_COL_TAGS = frozenset({"", "normalization", "log_transform", "knowledge_map"})
#: Words two descriptions may share without naming the same quantity.
_STOPWORDS = frozenset(
    {"the", "of", "by", "for", "player", "1", "2", "number", "in", "a", "an",
     "per", "total", "and", "to", "hit", "served"}
)
#: Words of a "chances" stat, a natural ratio denominator.
_OPPORTUNITY_WORDS = frozenset(
    {"created", "attempted", "attempts", "chances", "opportunities", "total"}
)
_OUTBREAK_WORDS = ("trap", "mosquito", "virus", "outbreak")


@dataclass(frozen=True)
class _FeatureInfo:
    """One parsed agenda line and the facts the answers read off it.

    Every field is a function of :attr:`line` (the text of one
    ``_FEATURE_LINE`` match) alone, so a client shares one instance among
    all the prompts that carry the line.
    """

    line: str
    name: str
    kind: str
    values: tuple[str, ...]
    description: str
    role: ColumnRole = field(init=False)
    #: The description's operator tag (:func:`derivation_tag`).
    tag: str = field(init=False)
    #: :func:`stat_polarity` of name and description.
    polarity: int = field(init=False)
    #: The underlying column a derived feature was built from: generated
    #: names follow ``{tag}_{base}``; originals are their own base.
    base: str = field(init=False)
    #: A "chances" stat (created/attempted): a natural ratio denominator.
    opportunity: bool = field(init=False)
    #: Content words of the description (for shared-concept pairing).
    concept_words: frozenset = field(init=False)
    #: Word set of name and description (matched against the target).
    words: frozenset = field(init=False)
    #: Usable as a binary-operator input (a numeric column).
    binary_input: bool = field(init=False)
    #: Usable as a group-by key: a column that partitions rows into
    #: subsets (categorical or binary, at most 20 listed values).
    group_key: bool = field(init=False)
    #: Usable as an aggregate: a numeric, or a binary indicator (whose
    #: group mean is a rate — the paper's claim-probability-per-car-model
    #: example).
    aggregate: bool = field(init=False)
    #: Name or description mentions an outbreak-surveillance word.
    outbreak: bool = field(init=False)

    def __post_init__(self) -> None:
        name, description = self.name, self.description
        tag = derivation_tag(description)
        tokens = set(tokenize_identifier(name)) | set(tokenize_identifier(description))
        text = f"{name} {description}".lower()
        facts = {
            "role": infer_role(name, description, self.kind),
            "tag": tag,
            "polarity": stat_polarity(name, description),
            "base": name[len(tag) + 1 :] if tag and name.startswith(f"{tag}_") else name,
            "opportunity": bool(tokens & _OPPORTUNITY_WORDS),
            "concept_words": frozenset(tokenize_identifier(description)) - _STOPWORDS,
            "words": frozenset(re.findall(r"\w+", text)),
            "binary_input": self.kind == "numeric" and tag in _BINARY_INPUT_TAGS,
            "group_key": self.kind in ("categorical", "binary")
            and (not self.values or len(self.values) <= 20)
            and tag in _GROUP_COL_TAGS,
            "aggregate": self.kind in ("numeric", "binary") and tag in _AGG_COL_TAGS,
            "outbreak": any(word in text for word in _OUTBREAK_WORDS),
        }
        for key, value in facts.items():
            object.__setattr__(self, key, value)


def _feature_info(match: re.Match) -> _FeatureInfo:
    values = tuple(v.strip() for v in (match.group("values") or "").split("|") if v.strip())
    return _FeatureInfo(
        line=match.group(0),
        name=match.group("name").strip(),
        kind=match.group("kind"),
        values=values,
        description=match.group("desc").strip(),
    )


def _line_info(line: str) -> _FeatureInfo:
    """The parse of *line*, one agenda line as a prompt carried it.

    Matching the line alone gives the groups it had in its prompt: the
    match ended at *line*'s end there, so no path the regex tries first
    can differ inside it."""
    return _feature_info(_FEATURE_LINE.match(line))


@dataclass
class AgendaView:
    """The simulator's parse of the data agenda embedded in a prompt."""

    title: str = ""
    features: dict[str, _FeatureInfo] = field(default_factory=dict)
    target: str = ""
    target_description: str = ""
    model: str = ""

    @property
    def numeric(self) -> list[_FeatureInfo]:
        return [f for f in self.features.values() if f.kind == "numeric"]

    @property
    def categorical(self) -> list[_FeatureInfo]:
        return [f for f in self.features.values() if f.kind == "categorical"]

    def column_values(self) -> dict[str, tuple[str, ...]]:
        return {name: info.values for name, info in self.features.items() if info.values}


def _line_search(pattern: re.Pattern, head: str, text: str) -> re.Match | None:
    """``pattern.search(text)`` for a line pattern that starts ``^head``:
    ``str.find`` jumps to each line that starts with *head*, where the
    regex engine would try every position of the prompt."""
    pos = text.find(head)
    while pos >= 0:
        if pos == 0 or text[pos - 1] == "\n":
            match = pattern.match(text, pos)
            if match:
                return match
        pos = text.find(head, pos + 1)
    return None


def parse_agenda(prompt: str, line_info=None) -> AgendaView:
    """Extract the serialised data agenda from a prompt.

    *line_info*, when given, maps each feature line's text to its parse
    (a client's memo of :func:`_line_info`); without it every line is
    parsed afresh.  Either way each role comes from the memoized
    :func:`infer_role`, so a column is matched against the lexicon once
    per process, not once per call.
    """
    view = AgendaView()
    title = _line_search(_TITLE_LINE, "Dataset description: ", prompt)
    if title:
        view.title = title.group("title").strip()
    for match in _FEATURE_LINE.finditer(prompt):
        info = _feature_info(match) if line_info is None else line_info(match.group(0))
        view.features[info.name] = info
    target = _line_search(_TARGET_LINE, "Prediction class: ", prompt)
    if target:
        view.target = target.group("name").strip()
        view.target_description = (target.group("desc") or "").strip()
    model = _line_search(_MODEL_LINE, "Downstream model: ", prompt)
    if model:
        view.model = model.group("model").strip().lower()
    return view


def _weighted_pick(rng: np.random.Generator, items: list[tuple]) -> tuple:
    """One of *items* drawn with probability proportional to its first
    field (its score or weight)."""
    weights = np.fromiter(map(itemgetter(0), items), dtype=float, count=len(items))
    return items[int(rng.choice(len(items), p=weights / weights.sum()))]


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class SimulatedFM(FMClient):
    """Seeded knowledge-based simulator implementing :class:`FMClient`.

    Parameters
    ----------
    seed:
        Controls all sampling; two clients with the same seed answer the
        same call sequence identically.
    model:
        Model label used for pricing (``gpt-4`` or ``gpt-3.5-turbo``).
    knowledge:
        World-knowledge store; defaults to the shared store the dataset
        generators also use.
    error_rate:
        Probability of answering with a malformed response.
    """

    def __init__(
        self,
        seed: int = 0,
        model: str = "gpt-4",
        knowledge: KnowledgeStore | None = None,
        error_rate: float = 0.0,
        cost_model: CostModel | None = None,
        budget: "Budget | None" = None,
    ) -> None:
        super().__init__(
            model=model, cost_model=cost_model or CostModel(model=model), budget=budget
        )
        self.seed = seed
        self.knowledge = knowledge or default_knowledge()
        self.error_rate = error_rate
        self._counter = 0
        self._counter_lock = threading.Lock()
        self._clear_memos()

    def _clear_memos(self) -> None:
        """Fresh, empty memos of the pure functions of agenda text (they
        hold no reference to the client)."""
        line_info = functools.lru_cache(maxsize=_LINE_MEMO)(_line_info)
        self._line_info = line_info
        self._pair_options = functools.lru_cache(maxsize=_PAIR_MEMO)(
            functools.partial(self._score_pair, line_info)
        )
        self._group_combos = functools.lru_cache(maxsize=_PAIR_MEMO)(
            functools.partial(self._score_combos, line_info)
        )

    def __getstate__(self) -> dict:
        # The memos are derived data and the lock is per process: a
        # pickled client carries neither.
        state = self.__dict__.copy()
        for key in ("_counter_lock", "_line_info", "_pair_options", "_group_combos"):
            del state[key]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._counter_lock = threading.Lock()
        self._clear_memos()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _reserve_state(self, prompt: str, temperature: float) -> int:
        """Every call consumes the seeded counter, in submission order.

        Sampling (``temperature > 0``) calls key their entropy on the
        reserved counter value — the i.i.d. draws of the paper's search —
        while deterministic calls key on the prompt text, so reordering
        them inside a batch cannot change any answer.
        """
        with self._counter_lock:
            self._counter += 1
            return self._counter

    def _on_cache_hit(self, prompt: str, temperature: float) -> None:
        """A cache hit replaces a call the serial run would have made, so
        it still consumes the counter — keeping warm-cache reruns on the
        same sampling trajectory as the run that filled the cache."""
        self._reserve_state(prompt, temperature)

    # ------------------------------------------------------------------
    # Checkpoint protocol: the sampling counter IS the client's per-call
    # state, so restoring it puts a resumed run back on the exact
    # sampling trajectory the interrupted run was on.
    def checkpoint_state(self) -> object | None:
        with self._counter_lock:
            return {"counter": self._counter}

    def restore_checkpoint_state(self, state: object | None) -> None:
        if state is None:
            return
        if not isinstance(state, dict) or "counter" not in state:
            raise ValueError(f"unrecognised SimulatedFM checkpoint state: {state!r}")
        with self._counter_lock:
            self._counter = int(state["counter"])

    def _complete_text(self, prompt: str, temperature: float) -> str:
        return self._complete_with_state(
            prompt, temperature, self._reserve_state(prompt, temperature)
        )

    def _rng(self, prompt: str, temperature: float, state: object | None) -> np.random.Generator:
        """The call's generator: keyed on the reserved state when
        sampling, on the prompt text otherwise."""
        entropy = state if temperature > 0 and state is not None else _stable_hash(prompt)
        return np.random.default_rng([self.seed, int(entropy) % 2**32])

    def _complete_with_state(
        self, prompt: str, temperature: float, state: object | None
    ) -> str:
        # The generator is built only for a call that draws from it; one
        # that injects errors draws its error roll first, then its answer.
        rng = None
        if self.error_rate > 0:
            rng = self._rng(prompt, temperature, state)
            if rng.uniform() < self.error_rate:
                return self._garbled(rng)
        agenda = parse_agenda(prompt, self._line_info)
        if "Consider the unary operators on the attribute" in prompt:
            return self._answer_unary(prompt, agenda)
        if "List up to" in prompt and "binary arithmetic operator" in prompt:
            return self._answer_binary_proposal(prompt, agenda)
        if "binary arithmetic operator" in prompt:
            return self._answer_binary(prompt, agenda, rng or self._rng(prompt, temperature, state))
        if "Generate a groupby feature" in prompt:
            return self._answer_high_order(
                prompt, agenda, rng or self._rng(prompt, temperature, state)
            )
        if "Propose ONE extractor feature" in prompt:
            return self._answer_extractor(
                prompt, agenda, rng or self._rng(prompt, temperature, state)
            )
        if "Generate the optimal Python function" in prompt or "Generate a corrected" in prompt:
            return self._answer_function(prompt, agenda)
        if "Respond with the value only" in prompt:
            return self._answer_row_completion(prompt)
        if "cannot be computed by a" in prompt and "suggest external" in prompt:
            return self._answer_sources(prompt)
        if "should be removed before training" in prompt:
            return self._answer_feature_removal(agenda)
        if "You are an automated feature engineering assistant (CAAFE" in prompt:
            return self._answer_caafe(prompt, agenda, rng or self._rng(prompt, temperature, state))
        return (
            "I am a language model. Please provide a data agenda and a task "
            "description so I can help with feature engineering."
        )

    @staticmethod
    def _garbled(rng: np.random.Generator) -> str:
        """A malformed answer: refusal, broken JSON, or crashing code."""
        options = [
            "I'm sorry, I can't assist with that request.",
            '{"operator": "-", "columns": ["only_one"',
            "```python\ndef transform(df):\n    return df[undefined_name] + 1\n```",
            "As an AI model, here are some general thoughts about features...",
        ]
        return options[int(rng.integers(0, len(options)))]

    # ------------------------------------------------------------------
    # Unary proposals
    # ------------------------------------------------------------------
    def _answer_unary(self, prompt: str, agenda: AgendaView) -> str:
        match = re.search(r'unary operators on the attribute "([^"]+)"', prompt)
        if not match or match.group(1) not in agenda.features:
            return "none (certain): attribute not found in the provided agenda"
        info = agenda.features[match.group(1)]
        insurance_context = "insur" in (agenda.title + agenda.target_description).lower()
        prefers_scaling = any(tag in agenda.model for tag in ("knn", "dnn", "neural", "mlp"))
        norm_mode = "minmax" if prefers_scaling else "zscore"
        lines: list[str] = []

        def add(op_tag: str, confidence: str, text: str) -> None:
            lines.append(f"{op_tag} ({confidence}): {text}")

        role = info.role
        name = info.name
        if info.kind == "numeric":
            if role == ColumnRole.AGE:
                domain = "age_insurance" if insurance_context else "age_generic"
                add(
                    f"bucketization[{domain}]",
                    "certain",
                    f"{name} grouped into standard {'insurance ' if insurance_context else ''}age bands",
                )
                add(
                    f"normalization[{norm_mode}]",
                    "high" if prefers_scaling else "medium",
                    f"{name} rescaled for distance-sensitive models",
                )
            elif role == ColumnRole.MONEY:
                add("log_transform", "certain", f"log of {name} to compress its heavy tail")
                add(
                    f"normalization[{norm_mode}]",
                    "high" if prefers_scaling else "medium",
                    f"{name} rescaled to a comparable range",
                )
                add("bucketization[income_k]", "medium", f"{name} grouped into income bands")
            elif role == ColumnRole.COUNT:
                add("log_transform", "high", f"log of {name} to dampen large counts")
                add("is_missing", "low", f"indicator for missing {name}")
            elif role == ColumnRole.MEASUREMENT:
                domain = self._measurement_domain(name, info.description)
                if domain:
                    add(
                        f"bucketization[{domain}]",
                        "certain",
                        f"{name} grouped into clinically standard {domain.replace('_', ' ')} ranges",
                    )
                add(
                    f"normalization[{norm_mode}]",
                    "high" if prefers_scaling else "medium",
                    f"{name} standardised for model input",
                )
            elif role in (ColumnRole.SCORE, ColumnRole.RATE, ColumnRole.PERCENTAGE):
                add(
                    f"normalization[{norm_mode}]",
                    "high" if prefers_scaling else "medium",
                    f"{name} rescaled to a comparable range",
                )
                add("squared", "low", f"squared {name} to expose non-linear effects")
            elif role == ColumnRole.YEAR:
                add("bucketization[age_generic]", "low", f"{name} grouped into coarse eras")
            elif role == ColumnRole.DURATION:
                add("log_transform", "high", f"log of {name} to compress long durations")
                add(f"normalization[{norm_mode}]", "medium", f"{name} rescaled")
            elif role == ColumnRole.IDENTIFIER:
                add("none", "certain", "identifiers carry no predictive signal")
            else:
                # Cryptic or unknown numeric column: the FM hedges.
                add(f"normalization[{norm_mode}]", "medium", f"{name} rescaled as a generic treatment")
                add("squared", "low", f"squared {name} in case of non-linearity")
        elif info.kind == "categorical":
            if role == ColumnRole.DATE:
                add("date_split", "certain", f"calendar components extracted from {name}")
            elif info.values and len(info.values) <= 12:
                add("get_dummies", "certain", f"one-hot indicators for {name}")
            else:
                add("get_dummies", "low", f"one-hot {name} (high cardinality, likely too sparse)")
            if role == ColumnRole.TEXT:
                add("text_length", "medium", f"length of the {name} text")
        else:  # binary
            add("none", "certain", f"{name} is already a binary indicator")
        return "\n".join(lines)

    @staticmethod
    def _measurement_domain(name: str, description: str) -> str | None:
        haystack = f"{name} {description}".lower()
        if "bmi" in haystack or "body mass" in haystack:
            return "bmi"
        if "glucose" in haystack:
            return "glucose"
        if "pressure" in haystack:
            return "blood_pressure"
        return None

    # ------------------------------------------------------------------
    # Binary sampling
    # ------------------------------------------------------------------
    _AFFINITY: dict[tuple[ColumnRole, ColumnRole], tuple[tuple[str, float], ...]] = {
        (ColumnRole.MONEY, ColumnRole.COUNT): (("/", 4.0),),
        (ColumnRole.MONEY, ColumnRole.MONEY): (("-", 4.0), ("/", 2.0)),
        (ColumnRole.COUNT, ColumnRole.COUNT): (("-", 4.2), ("/", 3.5)),
        (ColumnRole.SCORE, ColumnRole.SCORE): (("-", 4.0),),
        (ColumnRole.PERCENTAGE, ColumnRole.PERCENTAGE): (("-", 3.2),),
        (ColumnRole.PERCENTAGE, ColumnRole.COUNT): (("*", 2.5),),
        (ColumnRole.AGE, ColumnRole.DURATION): (("-", 4.5),),
        (ColumnRole.AGE, ColumnRole.AGE): (("-", 4.0),),
        (ColumnRole.MEASUREMENT, ColumnRole.MEASUREMENT): (("-", 3.0), ("/", 2.5)),
        (ColumnRole.RATE, ColumnRole.COUNT): (("*", 3.0),),
        (ColumnRole.MONEY, ColumnRole.DURATION): (("/", 3.0),),
        (ColumnRole.COUNT, ColumnRole.DURATION): (("/", 3.5),),
    }

    _OP_WORD = {"+": "plus", "-": "minus", "*": "times", "/": "div"}

    @classmethod
    def _score_pair(
        cls, line_info, line_a: str, line_b: str
    ) -> tuple[tuple[float, str, str, str, str], ...]:
        """The scored binary options ``(score, op, left, right, name)`` of
        the pair of agenda lines, in option order (``()`` for two views
        of the same underlying column)."""
        a, b = line_info(line_a), line_info(line_b)
        if a.base == b.base:
            return ()
        options = cls._AFFINITY.get((a.role, b.role), cls._AFFINITY.get((b.role, a.role), ()))
        if not options:
            weak = 0.5 if ColumnRole.UNKNOWN in (a.role, b.role) else 1.0
            options = (("-", weak),)
        tokens = (a.name + " " + b.name).lower()
        swap = False
        if a.polarity * b.polarity == -1:
            # Opposing stats (winners vs errors): the differential and the
            # ratio are the analyst's first instincts — always oriented
            # positive-over-negative.
            options = (("-", 6.0), ("/", 5.0))
            swap = a.polarity < 0
        elif (
            len(a.concept_words & b.concept_words) >= 2
            and a.role == b.role == ColumnRole.COUNT
        ):
            # Same underlying concept measured twice ("break points won" /
            # "break points created": ≥2 shared content words) -> a
            # conversion ratio, oriented outcomes-over-opportunities.
            options = (("/", 6.5),)
            swap = a.opportunity and not b.opportunity
        elif "glucose" in tokens and "insulin" in tokens:
            # The glucose-to-insulin ratio is a textbook clinical index an
            # FM recalls immediately.
            options = (("/", 7.0),)
            swap = "insulin" in a.name.lower()
        left, right = (b.name, a.name) if swap else (a.name, b.name)
        return tuple(
            (score, op, left, right, f"{left}_{cls._OP_WORD[op]}_{right}")
            for op, score in options
        )

    def _binary_candidates(self, agenda: AgendaView) -> list[tuple[float, str, str, str, str]]:
        """``(score, op, left, right, name)`` of every binary feature not
        yet in the agenda, best first."""
        numeric = [f.line for f in agenda.features.values() if f.binary_input]
        existing = agenda.features
        pairs = chain.from_iterable(
            self._pair_options(a, b) for i, a in enumerate(numeric) for b in numeric[i + 1 :]
        )
        out = [option for option in pairs if option[4] not in existing]
        out.sort(key=lambda item: (-item[0], item[2], item[3]))
        return out

    def _answer_binary(self, prompt: str, agenda: AgendaView, rng: np.random.Generator) -> str:
        candidates = self._binary_candidates(agenda)
        if not candidates:
            return json.dumps(
                {"operator": None, "columns": [], "name": "", "description": "no suitable numeric pair"}
            )
        _, op, a, b, name = _weighted_pick(rng, candidates)
        nature = {"+": "sum", "-": "difference", "*": "product", "/": "ratio"}[op]
        return json.dumps(
            {
                "operator": op,
                "columns": [a, b],
                "name": name,
                "description": f"binary[{op}]: {nature} of {a} and {b}",
            }
        )

    def _answer_binary_proposal(self, prompt: str, agenda: AgendaView) -> str:
        """Proposal strategy: the deterministic top-k, one JSON per line."""
        match = re.search(r"List up to (\d+)", prompt)
        k = int(match.group(1)) if match else 5
        lines = []
        for _, op, a, b, name in self._binary_candidates(agenda)[:k]:
            nature = {"+": "sum", "-": "difference", "*": "product", "/": "ratio"}[op]
            lines.append(
                json.dumps(
                    {
                        "operator": op,
                        "columns": [a, b],
                        "name": name,
                        "description": f"binary[{op}]: {nature} of {a} and {b}",
                    }
                )
            )
        return "\n".join(lines) if lines else json.dumps(
            {"operator": None, "columns": [], "name": "", "description": "no suitable numeric pair"}
        )

    # ------------------------------------------------------------------
    # High-order sampling
    # ------------------------------------------------------------------
    @staticmethod
    def _score_combos(
        line_info, group_line: str, agg_line: str, target: str
    ) -> tuple[tuple[float, str, str, str, str], ...]:
        """The weighted group-by combos ``(weight, group, agg, function,
        name)`` of one (group, aggregate) pair of agenda lines for
        *target*, in function order."""
        g, a = line_info(group_line), line_info(agg_line)
        if a.name == g.name:
            return ()
        weight = 1.0
        if a.role in (ColumnRole.COUNT, ColumnRole.RATE, ColumnRole.BINARY):
            weight += 2.0
        if a.words & set(re.findall(r"\w+", target.lower())):
            weight += 3.0  # aggregate the historical signal (claim-rate style)
        if a.kind == "binary":
            # Mean of a 0/1 column is a per-group rate (the paper's
            # claim-probability-per-car-model feature); max/min/count of
            # an indicator are uninformative.
            functions = [("mean", 0.8), ("sum", 0.2)]
        else:
            functions = [("mean", 0.5), ("max", 0.15), ("min", 0.1), ("sum", 0.15), ("count", 0.1)]
        return tuple(
            (weight * fw, g.name, a.name, func, f"GroupBy_{g.name}_{func}_{a.name}")
            for func, fw in functions
        )

    def _answer_high_order(self, prompt: str, agenda: AgendaView, rng: np.random.Generator) -> str:
        group_lines = [f.line for f in agenda.features.values() if f.group_key]
        agg_lines = [f.line for f in agenda.features.values() if f.aggregate]
        if not group_lines or not agg_lines:
            return json.dumps({"groupby_col": [], "agg_col": None, "function": None})
        existing = agenda.features
        combos = list(
            chain.from_iterable(
                self._group_combos(g, a, agenda.target) for g in group_lines for a in agg_lines
            )
        )
        if any(name.startswith("GroupBy_") for name in existing):  # every combo's prefix
            combos = [combo for combo in combos if combo[4] not in existing]
        if not combos:
            return json.dumps({"groupby_col": [], "agg_col": None, "function": None})
        _, gcol, acol, func, _ = _weighted_pick(rng, combos)
        return json.dumps({"groupby_col": [gcol], "agg_col": acol, "function": func})

    # ------------------------------------------------------------------
    # Extractor sampling
    # ------------------------------------------------------------------
    def _extractor_candidates(self, agenda: AgendaView) -> list[dict]:
        existing = agenda.features
        out: list[dict] = []
        for info in agenda.features.values():
            if info.role == ColumnRole.CITY and info.kind == "categorical":
                for topic, suffix, noun in (
                    ("city_population_density", "population_density", "population density"),
                    ("city_median_income", "median_income", "median household income"),
                ):
                    name = f"{info.name}_{suffix}"
                    if name in existing:
                        continue
                    kind = "function" if info.values and len(info.values) <= 30 else "row_level"
                    out.append(
                        {
                            "name": name,
                            "columns": [info.name],
                            "description": f"knowledge_map[{topic}]: approximate {noun} of {info.name}",
                            "kind": kind,
                        }
                    )
            if info.role == ColumnRole.VEHICLE and info.kind == "categorical":
                has_comma = any("," in v for v in info.values)
                if has_comma and f"{info.name}_part0" not in existing:
                    out.append(
                        {
                            "name": f"{info.name}_split",
                            "columns": [info.name],
                            "description": f"split_parts[,]: make and model split out of {info.name}",
                            "kind": "function",
                        }
                    )
                make_col = info.name if not has_comma else f"{info.name}_part0"
                if make_col in agenda.features or make_col == info.name:
                    name = f"{make_col}_insurance_risk"
                    if name not in existing:
                        out.append(
                            {
                                "name": name,
                                "columns": [make_col],
                                "description": f"knowledge_map[car_make_risk]: typical insurance risk factor of the {make_col} make",
                                "kind": "function",
                            }
                        )
        score_cols = [
            f.name
            for f in agenda.numeric
            if f.role
            in (ColumnRole.SCORE, ColumnRole.MEASUREMENT, ColumnRole.RATE, ColumnRole.PERCENTAGE)
            and f.tag == ""
        ]
        if len(score_cols) >= 3:
            chosen = score_cols[:3]
            name = "composite_index_" + "_".join(c.split()[0] for c in chosen)[:40]
            if name not in existing:
                out.append(
                    {
                        "name": name,
                        "columns": chosen,
                        "description": "composite_index: equal-weight z-score composite of "
                        + ", ".join(chosen),
                        "kind": "function",
                    }
                )
        if any(f.outbreak for f in agenda.features.values()):
            if "historical_weather_conditions" not in existing:
                out.append(
                    {
                        "name": "historical_weather_conditions",
                        "columns": [],
                        "description": "source[weather_history]: recent precipitation and "
                        "temperature history near each observation site",
                        "kind": "source",
                    }
                )
        return out

    def _answer_extractor(self, prompt: str, agenda: AgendaView, rng: np.random.Generator) -> str:
        candidates = self._extractor_candidates(agenda)
        if not candidates:
            return json.dumps(
                {"name": "", "columns": [], "description": "no extractor applies", "kind": "none"}
            )
        pick = candidates[int(rng.integers(0, len(candidates)))]
        return json.dumps(pick)

    # ------------------------------------------------------------------
    # Function generation
    # ------------------------------------------------------------------
    def _answer_function(self, prompt: str, agenda: AgendaView) -> str:
        name_match = re.search(r'new feature\s+"([^"]+)"', prompt)
        cols_match = re.search(r"(?:using feature\(s\)|\(inputs)\s+(\[[^\]]*\])", prompt)
        desc_match = re.search(r"Feature description:\s*(.*)", prompt)
        if not (name_match and cols_match and desc_match):
            return "```python\ndef transform(df):\n    return None\n```"
        try:
            columns = [c.strip().strip("'\"") for c in cols_match.group(1).strip("[]").split(",") if c.strip()]
        except ValueError:  # pragma: no cover - defensive
            columns = []
        source = generate_transform_source(
            name=name_match.group(1),
            columns=columns,
            description=desc_match.group(1).strip(),
            knowledge=self.knowledge,
            column_values=agenda.column_values(),
        )
        return f"```python\n{source}```"

    # ------------------------------------------------------------------
    # Row-level completion
    # ------------------------------------------------------------------
    _TOPIC_HINTS = (
        ("density", "city_population_density"),
        ("income", "city_median_income"),
        ("risk", "car_make_risk"),
        ("sport", "car_make_sporty"),
    )

    def _answer_row_completion(self, prompt: str) -> str:
        masked = re.search(r"^(?P<attr>[^:\n]+): \?$", prompt, re.MULTILINE)
        record = re.search(r"^Record: (?P<body>.+)$", prompt, re.MULTILINE)
        if not masked or not record:
            return "unknown"
        attr = masked.group("attr").strip().lower()
        topic = next((t for hint, t in self._TOPIC_HINTS if hint in attr), None)
        pairs = {}
        for part in record.group("body").split(","):
            if ":" in part:
                key, value = part.split(":", 1)
                pairs[key.strip()] = value.strip()
        if topic is None:
            return "unknown"
        key_role = ColumnRole.CITY if topic.startswith("city") else ColumnRole.VEHICLE
        for key, value in pairs.items():
            if infer_role(key) == key_role:
                return str(self.knowledge.lookup(topic, value))
        # Fall back to the first non-numeric value (the FM guesses the entity).
        for value in pairs.values():
            if not re.fullmatch(r"-?\d+(\.\d+)?", value):
                return str(self.knowledge.lookup(topic, value))
        return "unknown"

    # ------------------------------------------------------------------
    # Source suggestion
    # ------------------------------------------------------------------
    def _answer_sources(self, prompt: str) -> str:
        # Scope topic inference to the feature being asked about (the
        # agenda above it may mention other knowledge features).
        match = re.search(r'The feature "([^"]+)" \(([^)]*)\)', prompt, re.DOTALL)
        lowered = (f"{match.group(1)} {match.group(2)}" if match else prompt).lower()
        if "weather" in lowered or "precipitation" in lowered or "temperature" in lowered:
            topic = "weather_history"
        elif "density" in lowered:
            topic = "city_population_density"
        elif "income" in lowered:
            topic = "city_median_income"
        elif "risk" in lowered or "insurance" in lowered:
            topic = "car_make_risk"
        else:
            topic = "generic"
        sources = self.knowledge.sources_for(topic)
        return "\n".join(f"- {s}" for s in sources)

    # ------------------------------------------------------------------
    # FM-driven feature removal (§3.2 future work)
    # ------------------------------------------------------------------
    def _answer_feature_removal(self, agenda: AgendaView) -> str:
        """Flag redundant generated features.

        The FM reads the descriptions: when several monotone transforms of
        the same base column coexist (normalization + log of X), all but
        the domain-preferred one are redundant; features derived from
        identifier-like columns carry no signal."""
        remove: list[str] = []
        monotone_by_base: dict[str, list[_FeatureInfo]] = {}
        for info in agenda.features.values():
            if info.tag in ("normalization", "log_transform", "squared") and info.base != info.name:
                monotone_by_base.setdefault(info.base, []).append(info)
            if info.tag and infer_role(info.base) == ColumnRole.IDENTIFIER:
                remove.append(info.name)
        preference = {"log_transform": 0, "normalization": 1, "squared": 2}
        for variants in monotone_by_base.values():
            if len(variants) < 2:
                continue
            ordered = sorted(variants, key=lambda v: preference.get(v.tag, 9))
            remove.extend(v.name for v in ordered[1:])
        return json.dumps({"remove": sorted(set(remove))})

    # ------------------------------------------------------------------
    # CAAFE-style unguided code generation
    # ------------------------------------------------------------------
    def _answer_caafe(self, prompt: str, agenda: AgendaView, rng: np.random.Generator) -> str:
        """Free-form feature code in CAAFE's style.

        Same semantic pair scoring as the binary operator (the FM is the
        same model), but unguided: the combinations drift toward numeric
        attributes, the walk is iteration-indexed rather than budgeted,
        and — crucially — the emitted code carries **no NaN or zero
        guards** (CAAFE's prompt does not ask for them)."""
        combos = self._binary_candidates(agenda)
        if not combos:
            return "```python\n# no further features\n```"
        # Weighted sampling over the ranked space, like the operator
        # selector's sampling strategy but without guards or budget logic.
        _, op, a, b, name = _weighted_pick(rng, combos)
        comment = {"/": "ratio", "*": "interaction", "-": "difference", "+": "sum"}[op]
        code = (
            f"# {comment} of {a} and {b}\n"
            f"df[{name!r}] = df[{a!r}] {op} df[{b!r}]\n"
        )
        return f"```python\n{code}```"


def simulated_pair(
    seed: int = 0, budget: Budget | None = None
) -> tuple[SimulatedFM, SimulatedFM]:
    """The paper's two models as seeded simulators: the GPT-4 operator
    selector (seed *seed*) and the GPT-3.5-turbo function generator
    (seed *seed* + 1), both charging *budget* when one is given."""
    return (
        SimulatedFM(seed=seed, model="gpt-4", budget=budget),
        SimulatedFM(seed=seed + 1, model="gpt-3.5-turbo", budget=budget),
    )
