"""The operator selector (Section 3.2).

Holds the per-family prompt templates and the two prompting strategies:

* **proposal** (unary): one deterministic call per original attribute; the
  FM lists all appropriate operators with confidence levels, and the
  selector keeps the *certain*/*high* ones;
* **sampling** (binary, high-order, extractor): repeated temperature>0
  calls, one candidate per call, until the sampling budget or the
  generation-error threshold is reached (driven by the pipeline).

Outputs are :class:`~repro.core.types.FeatureCandidate` records carrying
the paper's three selector outputs: feature name, relevant columns, and
feature description.

Both strategies have batch entry points (:meth:`unary_candidates_batch`,
:meth:`sample_batch`): the calls of one batch are independent — unary
proposals talk about different attributes, sampling draws are i.i.d. —
so an :class:`~repro.fm.executor.FMExecutor` may fan them out
concurrently without changing any answer.
"""

from __future__ import annotations

from repro.core import prompts
from repro.core.agenda import DataAgenda
from repro.core.parsing import parse_json_response, parse_proposals
from repro.core.types import FeatureCandidate, OperatorFamily
from repro.fm.base import FMClient
from repro.fm.errors import FMError, FMParseError
from repro.fm.executor import FMExecutor, FMRequest

__all__ = ["OperatorSelector"]

#: Confidence levels the selector keeps from proposal output.
ACCEPTED_CONFIDENCES = ("certain", "high")

_BINARY_OP_WORD = {"+": "plus", "-": "minus", "*": "times", "/": "div"}


class OperatorSelector:
    """FM-backed selection of operators and candidate features."""

    def __init__(
        self,
        fm: FMClient,
        temperature: float = 0.7,
        accepted_confidences: tuple[str, ...] = ACCEPTED_CONFIDENCES,
        executor: FMExecutor | None = None,
    ) -> None:
        self.fm = fm
        self.temperature = temperature
        self.accepted_confidences = accepted_confidences
        self.executor = executor or FMExecutor()

    # ------------------------------------------------------------------
    # Proposal strategy (unary)
    # ------------------------------------------------------------------
    def unary_candidates_batch(
        self,
        agenda: DataAgenda,
        attrs: list[str],
        executor: FMExecutor | None = None,
    ) -> "list[_Parsed[list[FeatureCandidate]]]":
        """One proposal call per attribute, fanned out as a single batch.

        Returns one outcome per attribute, in order: the parsed candidate
        list, or the error that call raised (so the pipeline can count it
        without losing the rest of the batch).
        """
        for attr in attrs:
            if attr not in agenda:
                raise KeyError(f"attribute {attr!r} not in agenda")
        requests = [
            FMRequest(prompts.unary_proposal_prompt(agenda, attr), 0.0) for attr in attrs
        ]
        results = self.fm.complete_batch(requests, executor or self.executor)
        outcomes: list[_Parsed[list[FeatureCandidate]]] = []
        for attr, result in zip(attrs, results):
            if not result.ok:
                outcomes.append(_Parsed(error=result.error))
                continue
            outcomes.append(
                _Parsed(value=self._parse_unary(result.response.text, attr))
            )
        return outcomes

    def _parse_unary(self, text: str, attr: str) -> list[FeatureCandidate]:
        """The certain/high-confidence candidates, named by the paper's
        ``OpName_OrgAttr`` scheme (the tagged description is kept for the
        function generator)."""
        candidates: list[FeatureCandidate] = []
        for tag, confidence, description in parse_proposals(text):
            if confidence not in self.accepted_confidences:
                continue
            base = tag.split("[", 1)[0]
            candidates.append(
                FeatureCandidate(
                    name=f"{base}_{attr}",
                    columns=[attr],
                    description=f"{tag}: {description}",
                    family=OperatorFamily.UNARY,
                    params={"confidence": confidence},
                )
            )
        return candidates

    # ------------------------------------------------------------------
    # Sampling strategy (binary / high-order / extractor)
    # ------------------------------------------------------------------
    def binary_candidates_proposal(self, agenda: DataAgenda, k: int = 5) -> list[FeatureCandidate]:
        """Proposal-strategy alternative for the binary family (§3.2).

        One deterministic call returning up to *k* candidates — cheaper
        and duplicate-free, but less diverse than sampling in rich spaces.
        """
        response = self._complete(prompts.binary_proposal_prompt(agenda, k), 0.0)
        candidates: list[FeatureCandidate] = []
        for line in response.text.splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                payload = parse_json_response(line)
            except FMParseError:
                continue
            candidate = self._binary_from_payload(payload, agenda)
            if candidate is not None:
                candidates.append(candidate)
        return candidates[:k]

    def sample_batch(
        self,
        family: OperatorFamily,
        agenda: DataAgenda,
        n: int,
        executor: FMExecutor | None = None,
    ) -> "list[_Parsed[FeatureCandidate | None]]":
        """*n* i.i.d. sampling draws for *family*, fanned out as one wave.

        Every draw shares the same prompt (built once from the current
        agenda); diversity comes from the sampling temperature.  Returns
        one outcome per draw, in order — a candidate, None (the FM
        declined), or the parse/client error the draw raised.
        """
        prompt_builders = {
            OperatorFamily.BINARY: prompts.binary_sampling_prompt,
            OperatorFamily.HIGH_ORDER: prompts.high_order_sampling_prompt,
            OperatorFamily.EXTRACTOR: prompts.extractor_sampling_prompt,
        }
        prompt = prompt_builders[family](agenda)
        requests = [FMRequest(prompt, self.temperature) for _ in range(n)]
        results = self.fm.complete_batch(requests, executor or self.executor)
        outcomes: list[_Parsed[FeatureCandidate | None]] = []
        for result in results:
            if not result.ok:
                outcomes.append(_Parsed(error=result.error))
                continue
            try:
                outcomes.append(
                    _Parsed(value=self._parse_sample(family, result.response.text, agenda))
                )
            except (FMError, FMParseError) as exc:
                outcomes.append(_Parsed(error=exc))
        return outcomes

    def _parse_sample(
        self, family: OperatorFamily, text: str, agenda: DataAgenda
    ) -> FeatureCandidate | None:
        parsers = {
            OperatorFamily.BINARY: self._parse_binary_sample,
            OperatorFamily.HIGH_ORDER: self._parse_high_order_sample,
            OperatorFamily.EXTRACTOR: self._parse_extractor_sample,
        }
        return parsers[family](text, agenda)

    def _parse_binary_sample(self, text: str, agenda: DataAgenda) -> FeatureCandidate | None:
        payload = parse_json_response(text)
        return self._binary_from_payload(payload, agenda, strict=True)

    def _binary_from_payload(
        self, payload: dict, agenda: DataAgenda, strict: bool = False
    ) -> FeatureCandidate | None:
        """Turn a binary-operator JSON payload into a candidate.

        ``strict`` raises on unknown columns (a generation error the
        pipeline counts); otherwise invalid payloads are skipped.
        """
        operator = payload.get("operator")
        columns = payload.get("columns") or []
        if operator not in ("+", "-", "*", "/") or len(columns) != 2:
            return None
        missing = [c for c in columns if c not in agenda]
        if missing:
            if strict:
                raise FMParseError(f"binary candidate references unknown columns: {missing}")
            return None
        name = payload.get("name") or f"{columns[0]}_{_BINARY_OP_WORD[operator]}_{columns[1]}"
        description = payload.get("description") or f"binary[{operator}]: combination of {columns}"
        if not description.startswith("binary["):
            description = f"binary[{operator}]: {description}"
        return FeatureCandidate(
            name=name,
            columns=list(columns),
            description=description,
            family=OperatorFamily.BINARY,
            params={"operator": operator},
        )

    def _parse_high_order_sample(self, text: str, agenda: DataAgenda) -> FeatureCandidate | None:
        """Per the paper, the name is ``GroupBy_Gcol_func_Acol`` and the
        transformation expression doubles as the description."""
        payload = parse_json_response(text)
        group_cols = payload.get("groupby_col") or []
        if isinstance(group_cols, str):
            group_cols = [group_cols]
        agg_col = payload.get("agg_col")
        function = payload.get("function")
        if not group_cols or not agg_col or function not in ("mean", "max", "min", "sum", "count", "avg", "average"):
            return None
        missing = [c for c in [*group_cols, agg_col] if c not in agenda]
        if missing:
            raise FMParseError(f"high-order candidate references unknown columns: {missing}")
        name = f"GroupBy_{'_'.join(group_cols)}_{function}_{agg_col}"
        return FeatureCandidate(
            name=name,
            columns=[*group_cols, agg_col],
            description=(
                f"groupby[{function}]: df.groupby({group_cols})[{agg_col!r}]"
                f".transform({function!r})"
            ),
            family=OperatorFamily.HIGH_ORDER,
            params={"groupby_col": list(group_cols), "agg_col": agg_col, "function": function},
        )

    def _parse_extractor_sample(self, text: str, agenda: DataAgenda) -> FeatureCandidate | None:
        payload = parse_json_response(text)
        kind = payload.get("kind", "function")
        name = payload.get("name") or ""
        if not name or kind not in ("function", "row_level", "source"):
            return None
        columns = payload.get("columns") or []
        missing = [c for c in columns if c not in agenda]
        if missing:
            raise FMParseError(f"extractor candidate references unknown columns: {missing}")
        return FeatureCandidate(
            name=name,
            columns=list(columns),
            description=payload.get("description") or name,
            family=OperatorFamily.EXTRACTOR,
            kind=kind,
        )

    # ------------------------------------------------------------------
    def _complete(self, prompt: str, temperature: float):
        """One call through the configured executor."""
        return self.executor.complete(self.fm, prompt, temperature)


class _Parsed:
    """One batch outcome: a parsed value or the error that replaced it."""

    __slots__ = ("value", "error")

    def __init__(self, value=None, error: Exception | None = None) -> None:
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self):
        if self.error is not None:
            raise self.error
        return self.value
