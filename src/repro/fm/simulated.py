"""A deterministic, knowledge-based foundation-model simulator.

:class:`SimulatedFM` answers the prompt shapes of the SMARTFEAT operator
selector, the function generator, row-level completion, source suggestion,
and the CAAFE baseline.  It sees *only the prompt text* — never the raw
dataframe — exactly like a real FM:

* column semantics come from :mod:`repro.fm.lexicon` applied to the names
  and descriptions serialised into the prompt's data agenda (a role is
  resolved once per distinct column text per process, so a call costs
  O(prompt): parsing the agenda, never rescanning the lexicon);
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

import hashlib
import json
import re
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.fm.base import Budget, FMClient
from repro.fm.codegen import derivation_tag, generate_transform_source
from repro.fm.cost import CostModel
from repro.fm.knowledge import KnowledgeStore, default_knowledge
from repro.fm.lexicon import ColumnRole, infer_role, stat_polarity, tokenize_identifier

__all__ = ["AgendaView", "SimulatedFM"]

_FEATURE_LINE = re.compile(
    r"^- (?P<name>.+?) \((?P<kind>numeric|categorical|binary)"
    r"(?:, values: (?P<values>[^)]*))?\): (?P<desc>.*)$",
    re.MULTILINE,
)
_TARGET_LINE = re.compile(r"^Prediction class: (?P<name>[^—\n]+?)(?: — (?P<desc>.*))?$", re.MULTILINE)
_MODEL_LINE = re.compile(r"^Downstream model: (?P<model>.+)$", re.MULTILINE)
_TITLE_LINE = re.compile(r"^Dataset description: (?P<title>.+)$", re.MULTILINE)


@dataclass
class _FeatureInfo:
    name: str
    kind: str
    values: list[str]
    description: str
    role: ColumnRole = ColumnRole.UNKNOWN


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

    @property
    def groupable(self) -> list[_FeatureInfo]:
        """Columns that partition rows into subsets (categorical / binary)."""
        return [f for f in self.features.values() if f.kind in ("categorical", "binary")]

    @property
    def aggregatable(self) -> list[_FeatureInfo]:
        """Columns whose per-group aggregate is meaningful: numerics plus
        binary indicators (whose group mean is a rate — the paper's
        claim-probability-per-car-model example)."""
        return [f for f in self.features.values() if f.kind in ("numeric", "binary")]

    def column_values(self) -> dict[str, list[str]]:
        return {name: info.values for name, info in self.features.items() if info.values}


def parse_agenda(prompt: str) -> AgendaView:
    """Extract the serialised data agenda from a prompt.

    Each feature line's role comes from the memoized :func:`infer_role`,
    so a column is matched against the lexicon once per process, not
    once per call.
    """
    view = AgendaView()
    title = _TITLE_LINE.search(prompt)
    if title:
        view.title = title.group("title").strip()
    for match in _FEATURE_LINE.finditer(prompt):
        values = [v.strip() for v in (match.group("values") or "").split("|") if v.strip()]
        info = _FeatureInfo(
            name=match.group("name").strip(),
            kind=match.group("kind"),
            values=values,
            description=match.group("desc").strip(),
        )
        info.role = infer_role(info.name, info.description, info.kind)
        view.features[info.name] = info
    target = _TARGET_LINE.search(prompt)
    if target:
        view.target = target.group("name").strip()
        view.target_description = (target.group("desc") or "").strip()
    model = _MODEL_LINE.search(prompt)
    if model:
        view.model = model.group("model").strip().lower()
    return view


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

    def _complete_with_state(
        self, prompt: str, temperature: float, state: object | None
    ) -> str:
        entropy = state if temperature > 0 and state is not None else _stable_hash(prompt)
        rng = np.random.default_rng([self.seed, int(entropy) % 2**32])
        if self.error_rate > 0 and rng.uniform() < self.error_rate:
            return self._garbled(rng)
        agenda = parse_agenda(prompt)
        if "Consider the unary operators on the attribute" in prompt:
            return self._answer_unary(prompt, agenda)
        if "List up to" in prompt and "binary arithmetic operator" in prompt:
            return self._answer_binary_proposal(prompt, agenda)
        if "binary arithmetic operator" in prompt:
            return self._answer_binary(prompt, agenda, rng)
        if "Generate a groupby feature" in prompt:
            return self._answer_high_order(prompt, agenda, rng)
        if "Propose ONE extractor feature" in prompt:
            return self._answer_extractor(prompt, agenda, rng)
        if "Generate the optimal Python function" in prompt or "Generate a corrected" in prompt:
            return self._answer_function(prompt, agenda)
        if "Respond with the value only" in prompt:
            return self._answer_row_completion(prompt)
        if "cannot be computed by a" in prompt and "suggest external" in prompt:
            return self._answer_sources(prompt)
        if "should be removed before training" in prompt:
            return self._answer_feature_removal(agenda)
        if "You are an automated feature engineering assistant (CAAFE" in prompt:
            return self._answer_caafe(prompt, agenda, rng)
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

    #: Derivation tags usable as binary-operator inputs: original columns
    #: plus semantically meaningful derived quantities (group rates,
    #: knowledge lookups, composites).  Arithmetic on bucket codes,
    #: one-hot flags, z-scores, logs, or already-combined features is the
    #: kind of nonsense an FM's semantic understanding avoids.
    _BINARY_INPUT_TAGS = frozenset({"", "knowledge_map", "composite_index", "groupby"})
    #: Tags usable as group-by keys (bucketised / split columns partition well).
    _GROUP_COL_TAGS = frozenset({"", "bucketization", "split_parts"})
    #: Tags usable as aggregate columns (no nested group-bys, no arithmetic
    #: combinations — aggregate the interpretable quantities).
    _AGG_COL_TAGS = frozenset({"", "normalization", "log_transform", "knowledge_map"})

    _STOPWORDS = frozenset(
        {"the", "of", "by", "for", "player", "1", "2", "number", "in", "a", "an",
         "per", "total", "and", "to", "hit", "served"}
    )

    _OPPORTUNITY_WORDS = frozenset({"created", "attempted", "attempts", "chances", "opportunities", "total"})

    @classmethod
    def _is_opportunity_stat(cls, info: _FeatureInfo) -> bool:
        """True for "chances" stats (created/attempted) — natural ratio
        denominators."""
        tokens = set(tokenize_identifier(info.name)) | set(tokenize_identifier(info.description))
        return bool(tokens & cls._OPPORTUNITY_WORDS)

    @classmethod
    def _shared_concept(cls, a: _FeatureInfo, b: _FeatureInfo) -> bool:
        """True when two columns describe the same underlying quantity
        (≥2 shared content words in their descriptions)."""
        words_a = set(tokenize_identifier(a.description)) - cls._STOPWORDS
        words_b = set(tokenize_identifier(b.description)) - cls._STOPWORDS
        return len(words_a & words_b) >= 2

    @staticmethod
    def _base_name(info: _FeatureInfo) -> str:
        """The underlying column a derived feature was built from.

        Generated names follow ``{tag}_{base}``; originals are their own
        base."""
        tag = derivation_tag(info.description)
        if tag and info.name.startswith(f"{tag}_"):
            return info.name[len(tag) + 1 :]
        return info.name

    def _binary_candidates(self, agenda: AgendaView) -> list[tuple[float, str, str, str]]:
        numeric = [
            f for f in agenda.numeric if derivation_tag(f.description) in self._BINARY_INPUT_TAGS
        ]
        existing = set(agenda.features)
        out: list[tuple[float, str, str, str]] = []
        for i, a in enumerate(numeric):
            for b in numeric[i + 1 :]:
                if self._base_name(a) == self._base_name(b):
                    continue  # two views of the same underlying column
                options = self._AFFINITY.get(
                    (a.role, b.role), self._AFFINITY.get((b.role, a.role), ())
                )
                if not options:
                    weak = 0.5 if ColumnRole.UNKNOWN in (a.role, b.role) else 1.0
                    options = (("-", weak),)
                pol_a = stat_polarity(a.name, a.description)
                pol_b = stat_polarity(b.name, b.description)
                tokens = (a.name + " " + b.name).lower()
                swap = False
                if pol_a * pol_b == -1:
                    # Opposing stats (winners vs errors): the differential
                    # and the ratio are the analyst's first instincts —
                    # always oriented positive-over-negative.
                    options = (("-", 6.0), ("/", 5.0))
                    swap = pol_a < 0
                elif self._shared_concept(a, b) and a.role == b.role == ColumnRole.COUNT:
                    # Same underlying concept measured twice ("break points
                    # won" / "break points created") -> a conversion ratio,
                    # oriented outcomes-over-opportunities.
                    options = (("/", 6.5),)
                    swap = self._is_opportunity_stat(a) and not self._is_opportunity_stat(b)
                elif "glucose" in tokens and "insulin" in tokens:
                    # The glucose-to-insulin ratio is a textbook clinical
                    # index an FM recalls immediately.
                    options = (("/", 7.0),)
                    swap = "insulin" in a.name.lower()
                left, right = (b, a) if swap else (a, b)
                for op, score in options:
                    name = f"{left.name}_{self._OP_WORD[op]}_{right.name}"
                    if name in existing:
                        continue
                    out.append((score, op, left.name, right.name))
        out.sort(key=lambda item: (-item[0], item[2], item[3]))
        return out

    def _answer_binary(self, prompt: str, agenda: AgendaView, rng: np.random.Generator) -> str:
        candidates = self._binary_candidates(agenda)
        if not candidates:
            return json.dumps(
                {"operator": None, "columns": [], "name": "", "description": "no suitable numeric pair"}
            )
        weights = np.array([c[0] for c in candidates])
        pick = candidates[int(rng.choice(len(candidates), p=weights / weights.sum()))]
        _, op, a, b = pick
        name = f"{a}_{self._OP_WORD[op]}_{b}"
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
        for score, op, a, b in self._binary_candidates(agenda)[:k]:
            del score
            nature = {"+": "sum", "-": "difference", "*": "product", "/": "ratio"}[op]
            lines.append(
                json.dumps(
                    {
                        "operator": op,
                        "columns": [a, b],
                        "name": f"{a}_{self._OP_WORD[op]}_{b}",
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
    def _answer_high_order(self, prompt: str, agenda: AgendaView, rng: np.random.Generator) -> str:
        group_candidates = [
            f
            for f in agenda.groupable
            if (not f.values or len(f.values) <= 20)
            and derivation_tag(f.description) in self._GROUP_COL_TAGS
        ]
        agg_candidates = [
            f
            for f in agenda.aggregatable
            if derivation_tag(f.description) in self._AGG_COL_TAGS
        ]
        if not group_candidates or not agg_candidates:
            return json.dumps({"groupby_col": [], "agg_col": None, "function": None})
        existing = set(agenda.features)
        target_words = set(re.findall(r"\w+", agenda.target.lower()))

        def agg_weight(info: _FeatureInfo) -> float:
            weight = 1.0
            if info.role in (ColumnRole.COUNT, ColumnRole.RATE, ColumnRole.BINARY):
                weight += 2.0
            words = set(re.findall(r"\w+", (info.name + " " + info.description).lower()))
            if words & target_words:
                weight += 3.0  # aggregate the historical signal (claim-rate style)
            return weight

        combos: list[tuple[float, str, str, str]] = []
        for g in group_candidates:
            for a in agg_candidates:
                if a.name == g.name:
                    continue
                if a.kind == "binary":
                    # Mean of a 0/1 column is a per-group rate (the paper's
                    # claim-probability-per-car-model feature); max/min/count
                    # of an indicator are uninformative.
                    functions = [("mean", 0.8), ("sum", 0.2)]
                else:
                    functions = [
                        ("mean", 0.5), ("max", 0.15), ("min", 0.1), ("sum", 0.15), ("count", 0.1),
                    ]
                for func, fw in functions:
                    name = f"GroupBy_{g.name}_{func}_{a.name}"
                    if name in existing:
                        continue
                    combos.append((agg_weight(a) * fw, g.name, a.name, func))
        if not combos:
            return json.dumps({"groupby_col": [], "agg_col": None, "function": None})
        weights = np.array([c[0] for c in combos])
        pick = combos[int(rng.choice(len(combos), p=weights / weights.sum()))]
        _, gcol, acol, func = pick
        return json.dumps({"groupby_col": [gcol], "agg_col": acol, "function": func})

    # ------------------------------------------------------------------
    # Extractor sampling
    # ------------------------------------------------------------------
    def _extractor_candidates(self, agenda: AgendaView) -> list[dict]:
        existing = set(agenda.features)
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
            and derivation_tag(f.description) == ""
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
        haystack = " ".join(
            f"{f.name} {f.description}" for f in agenda.features.values()
        ).lower()
        if any(word in haystack for word in ("trap", "mosquito", "virus", "outbreak")):
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
            tag = derivation_tag(info.description)
            if tag in ("normalization", "log_transform", "squared"):
                base = self._base_name(info)
                if base != info.name:
                    monotone_by_base.setdefault(base, []).append(info)
            if tag and infer_role(self._base_name(info)) == ColumnRole.IDENTIFIER:
                remove.append(info.name)
        preference = {"log_transform": 0, "normalization": 1, "squared": 2}
        for base, variants in monotone_by_base.items():
            if len(variants) < 2:
                continue
            ordered = sorted(
                variants, key=lambda v: preference.get(derivation_tag(v.description), 9)
            )
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
        weights = np.array([c[0] for c in combos])
        _, op, a, b = combos[int(rng.choice(len(combos), p=weights / weights.sum()))]
        name = f"{a}_{self._OP_WORD[op]}_{b}"
        comment = {"/": "ratio", "*": "interaction", "-": "difference", "+": "sum"}[op]
        code = (
            f"# {comment} of {a} and {b}\n"
            f"df[{name!r}] = df[{a!r}] {op} df[{b!r}]\n"
        )
        return f"```python\n{code}```"
