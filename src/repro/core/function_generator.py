"""The function generator (Section 3.3).

For each candidate the generator decides among the paper's three
scenarios:

1. **Transformation function** — interact with the FM (the efficient path:
   one call per feature, independent of table size), extract the code,
   lift it once to the serving IR, freeze it against the working frame
   and evaluate it there (:func:`realize_source`): FM code never runs,
   and the plan serves the expression whose output fit installed.  An
   answer outside the lifted subset is re-prompted with the lifter's
   reason like any other error, and rejected as "not compilable" once
   its retries run out.
   High-order candidates skip the FM entirely: the selector's output
   already determines ``df.groupby(g)[a].transform(f)``.
2. **Row-level completion** — no explicit function exists.  Small tables
   are completed row by row (and frozen as an input→output map); for
   large tables the generator produces a preview plus a cost estimate and
   defers to the user (the pipeline's ``row_level_policy``).
3. **Source suggestion** — neither applies; the FM suggests external data
   sources.

The first attempt of every scenario-1 generation and every row of a
scenario-2 completion run at ``temperature == 0`` and are independent of
one another, so :meth:`FunctionGenerator.realize_batch` fans them out
through the configured :class:`~repro.fm.executor.FMExecutor`; only the
(rare) error-correction retries stay serial, because each retry depends
on the previous attempt's failure.
"""

from __future__ import annotations

import json

from repro.core import prompts
from repro.core.agenda import DataAgenda
from repro.core.parsing import extract_code, parse_scalar
from repro.core.sandbox import TransformError

# Fit no longer calls the sandbox, but perfbench's tracer patches this
# name; the benchmark change that adds a ``fit_eval`` layer drops the
# import (ROADMAP item L).
from repro.core.sandbox import run_transform  # noqa: F401
from repro.fm.errors import FMBudgetExceededError, FMError, FMParseError
from repro.core.types import (
    FeatureCandidate,
    GeneratedFeature,
    OperatorFamily,
    RowCompletionPlan,
    SourceSuggestion,
)
from repro.dataframe import DataFrame, Series
from repro.dataframe import kernels as _kernels
from repro.dataframe.expr import JSON_SCALARS, ExprError, Unliftable, expr_columns, fit_feature
from repro.dataframe.lift import lift_source
from repro.fm.base import FMClient, FMResponse
from repro.fm.cost import estimate_tokens
from repro.fm.executor import FMExecutor, FMRequest

__all__ = ["FunctionGenerator", "RealizedFeature", "freeze_completion", "realize_source"]

#: Exceptions that turn one candidate's realization into a rejection.
REALIZE_ERRORS = (FMError, FMParseError, TransformError)

#: ``source_code`` of a feature materialised by per-row FM completion.
ROW_LEVEL_SOURCE = "<row-level FM completion>"


def realize_source(source: str, frame: DataFrame) -> tuple[dict, Series | dict[str, Series]]:
    """``(frozen expression, outputs)`` of *source*, lifted once, frozen
    against *frame* and evaluated there.  A lift, freeze or serialisation
    failure raises ``TransformError("not compilable: <why>")``; one the
    source itself would hit, the sandbox's ``transform(df) raised …``."""
    try:
        template = lift_source(source)
    except Unliftable as exc:
        raise TransformError(f"not compilable: {exc}") from None
    missing = [c for c in expr_columns(template) if c not in frame]
    if missing:
        raise TransformError(f"transform(df) raised KeyError: {missing[0]!r}")
    try:
        frozen, outputs = fit_feature(template, frame)
    except ExprError as exc:
        raise TransformError(f"not compilable: {exc}") from None
    except Exception as exc:
        raise TransformError(f"transform(df) raised {type(exc).__name__}: {exc}") from exc
    try:
        json.dumps(frozen)  # plans must round-trip; reject exotic scalars
    except (TypeError, ValueError) as exc:
        raise TransformError(f"not compilable: expression not serializable: {exc}") from None
    return frozen, outputs


def freeze_completion(feature: GeneratedFeature, frame: DataFrame, values: Series) -> None:
    """Freeze a row-level FM completion on *feature* as an exact ``dict_map``
    over *frame*, or record why its plan omits it (it stays accepted)."""
    try:
        feature.expr = _completion_map(feature.input_columns, frame, values)
    except ExprError as exc:
        feature.omit_reason = str(exc)


def _completion_map(input_columns: list[str], frame: DataFrame, values: Series) -> dict:
    if len(input_columns) != 1:
        raise ExprError("row-level completion reads multiple columns")
    column = input_columns[0]
    if column not in frame:
        raise ExprError(f"row-level input column {column!r} unavailable at serve time")
    mapping: dict = {}
    for key, value in zip(frame[column].tolist(), values.tolist()):
        if _kernels.is_missing_scalar(key):
            if value is not None:
                raise ExprError("completion is not missing-preserving")
            continue
        if not isinstance(key, JSON_SCALARS):
            raise ExprError(f"completion key {key!r} is not a JSON scalar")
        if value is not None and not isinstance(value, JSON_SCALARS):
            raise ExprError(f"completion value {value!r} is not a JSON scalar")
        if key not in mapping:
            mapping[key] = value
        elif mapping[key] != value or type(mapping[key]) is not type(value):
            raise ExprError("completion is not a function of the input column")
    return {"op": "dict_map", "column": column, "keys": list(mapping), "values": list(mapping.values())}


class RealizedFeature:
    """A successfully materialised feature: columns of values + provenance."""

    def __init__(self, feature: GeneratedFeature, values: dict[str, Series]) -> None:
        self.feature = feature
        self.values = values


class FunctionGenerator:
    """Turns selector candidates into values via FM-generated functions."""

    def __init__(
        self,
        fm: FMClient,
        row_limit: int = 200,
        preview_rows: int = 5,
        repair_retries: int = 1,
        executor: FMExecutor | None = None,
    ) -> None:
        self.fm = fm
        self.row_limit = row_limit
        self.preview_rows = preview_rows
        self.repair_retries = repair_retries
        self.executor = executor or FMExecutor()

    # ------------------------------------------------------------------
    def realize(
        self,
        candidate: FeatureCandidate,
        agenda: DataAgenda,
        frame: DataFrame,
        executor: FMExecutor | None = None,
    ) -> RealizedFeature | RowCompletionPlan | SourceSuggestion:
        """Dispatch a candidate to the appropriate §3.3 scenario."""
        executor = executor or self.executor
        if candidate.kind == "source":
            return self._suggest_sources(candidate, agenda, executor=executor)
        if candidate.kind == "row_level":
            return self._row_level(candidate, frame, executor=executor)
        if candidate.family == OperatorFamily.HIGH_ORDER:
            return self._high_order_direct(candidate, frame)
        return self._via_function(candidate, agenda, frame, executor=executor)

    def realize_batch(
        self,
        candidates: list[FeatureCandidate],
        agenda: DataAgenda,
        frame: DataFrame,
        executor: FMExecutor | None = None,
    ) -> list[RealizedFeature | RowCompletionPlan | SourceSuggestion | Exception]:
        """Realize a wave of candidates, batching the first FM attempts.

        Scenario-1 first attempts are deterministic and independent, so
        they fan out as one batch; repairs and the other scenarios run
        serially in candidate order.  Returns one outcome per candidate,
        in order — a failed candidate yields the exception the serial
        path would have raised, so callers keep per-candidate rejection
        bookkeeping.
        """
        executor = executor or self.executor
        first_attempts: dict[int, object] = {}
        fn_indices = [
            i
            for i, candidate in enumerate(candidates)
            if candidate.kind == "function" and candidate.family != OperatorFamily.HIGH_ORDER
        ]
        if fn_indices:
            requests = [
                FMRequest(prompts.function_generation_prompt(agenda, candidates[i]), 0.0)
                for i in fn_indices
            ]
            for i, result in zip(fn_indices, self.fm.complete_batch(requests, executor)):
                first_attempts[i] = result.response if result.ok else result.error
        outcomes: list[RealizedFeature | RowCompletionPlan | SourceSuggestion | Exception] = []
        for i, candidate in enumerate(candidates):
            try:
                if i in first_attempts:
                    outcomes.append(
                        self._via_function(
                            candidate,
                            agenda,
                            frame,
                            first_attempt=first_attempts[i],
                            executor=executor,
                        )
                    )
                else:
                    outcomes.append(
                        self.realize(candidate, agenda, frame, executor=executor)
                    )
            except FMBudgetExceededError:
                raise  # budget exhaustion aborts the run, not one candidate
            except REALIZE_ERRORS as exc:
                outcomes.append(exc)
        return outcomes

    # ------------------------------------------------------------------
    # Scenario 1a: FM-generated transformation function
    # ------------------------------------------------------------------
    def _via_function(
        self,
        candidate: FeatureCandidate,
        agenda: DataAgenda,
        frame: DataFrame,
        first_attempt: "FMResponse | Exception | None" = None,
        executor: FMExecutor | None = None,
    ) -> RealizedFeature:
        prompt = prompts.function_generation_prompt(agenda, candidate)
        fm_calls = 0
        source = ""
        last_error: Exception | None = None
        for attempt in range(self.repair_retries + 1):
            if attempt == 0 and isinstance(first_attempt, Exception):
                # The batched first attempt already failed at the client
                # level; surface it exactly like a failing complete().
                raise first_attempt
            if attempt == 0 and first_attempt is not None:
                response = first_attempt
            else:
                response = self._complete(
                    prompt, 0.0 if attempt == 0 else 0.7, executor=executor
                )
            fm_calls += 1
            try:
                source = extract_code(response.text)
                realized = realize_source(source, frame)
                return self._realized(candidate, source, realized, fm_calls)
            except (FMParseError, TransformError) as exc:
                last_error = exc
                # Error-correction loop (Section 5 future work): re-ask with
                # the failing code and the error message (or the lifter's
                # reason it cannot be compiled).
                prompt = prompts.function_repair_prompt(
                    agenda, candidate, source or response.text, str(exc)
                )
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # Scenario 1b: high-order features need no FM interaction
    # ------------------------------------------------------------------
    def _high_order_direct(
        self, candidate: FeatureCandidate, frame: DataFrame
    ) -> RealizedFeature:
        params = candidate.params
        source = (
            f"def transform(df):\n    return df.groupby({params['groupby_col']!r})"
            f"[{params['agg_col']!r}].transform({params['function']!r})\n"
        )
        return self._realized(candidate, source, realize_source(source, frame), 0)

    # ------------------------------------------------------------------
    # Scenario 2: row-level completion with cost gating
    # ------------------------------------------------------------------
    def _row_level(
        self,
        candidate: FeatureCandidate,
        frame: DataFrame,
        executor: FMExecutor | None = None,
    ) -> RealizedFeature | RowCompletionPlan:
        relevant = candidate.columns or frame.columns
        n_rows = len(frame)
        if n_rows <= self.row_limit:
            values = self._complete_rows(
                candidate.name, frame, relevant, executor=executor
            )
            series = Series(values, candidate.name)
            feature = GeneratedFeature(
                name=candidate.name,
                family=candidate.family,
                input_columns=list(relevant),
                description=candidate.description,
                output_columns=[candidate.name],
                source_code=ROW_LEVEL_SOURCE,
                fm_calls=n_rows,
            )
            freeze_completion(feature, frame, series)
            return RealizedFeature(feature, {candidate.name: series})
        # Too large: produce a preview and a cost projection for the user.
        preview_values = self._complete_rows(
            candidate.name,
            frame.head(self.preview_rows),
            relevant,
            raw=True,
            executor=executor,
        )
        preview_names, preview_rows = frame.head(self.preview_rows).row_tuples(relevant)
        preview = [
            (dict(zip(preview_names, vals)), text)
            for vals, text in zip(preview_rows, preview_values)
        ]
        sample_prompt = prompts.row_completion_prompt(
            candidate.name, {c: frame[c][0] for c in relevant}
        )
        per_call_tokens = estimate_tokens(sample_prompt) + 8
        cost = self.fm.cost_model.price(per_call_tokens, 8) * n_rows
        latency = self.fm.cost_model.latency(8) * n_rows
        return RowCompletionPlan(
            name=candidate.name,
            description=candidate.description,
            preview=preview,
            n_rows=n_rows,
            estimated_calls=n_rows,
            estimated_cost_usd=round(cost, 4),
            estimated_latency_s=round(latency, 1),
            relevant_columns=list(relevant),
        )

    def _complete_rows(
        self,
        name: str,
        frame: DataFrame,
        columns: list[str],
        raw: bool = False,
        executor: FMExecutor | None = None,
    ) -> list:
        """One temperature-0 completion per row, batched through the
        executor.  A client-level failure on any row aborts the whole
        feature, as the serial loop did.  Row dicts are assembled from one
        up-front column extraction instead of a dict comprehension per row."""
        names, rows = frame.row_tuples(columns)
        requests = [
            FMRequest(prompts.row_completion_prompt(name, dict(zip(names, vals))), 0.0)
            for vals in rows
        ]
        results = self.fm.complete_batch(requests, executor or self.executor)
        texts = [result.unwrap().text for result in results]
        return texts if raw else [parse_scalar(text) for text in texts]

    # ------------------------------------------------------------------
    # Scenario 3: external data sources
    # ------------------------------------------------------------------
    def _suggest_sources(
        self,
        candidate: FeatureCandidate,
        agenda: DataAgenda,
        executor: FMExecutor | None = None,
    ) -> SourceSuggestion:
        prompt = prompts.source_suggestion_prompt(agenda, candidate)
        response = self._complete(prompt, 0.0, executor=executor)
        sources = [
            line.lstrip("- ").strip()
            for line in response.text.splitlines()
            if line.strip()
        ]
        return SourceSuggestion(
            name=candidate.name, description=candidate.description, sources=sources
        )

    # ------------------------------------------------------------------
    def _complete(
        self, prompt: str, temperature: float, executor: FMExecutor | None = None
    ) -> FMResponse:
        """One call through *executor*, or the configured one."""
        return (executor or self.executor).complete(self.fm, prompt, temperature)

    # ------------------------------------------------------------------
    @staticmethod
    def _realized(candidate: FeatureCandidate, source: str, realized, fm_calls: int):
        expr, outputs = realized
        # A single-Series output is the candidate feature itself, keyed by
        # its name (installing names the column after its key; the Series
        # may still carry an input's name).  Multi-column outputs keep theirs.
        values = {candidate.name: outputs} if isinstance(outputs, Series) else dict(outputs)
        feature = GeneratedFeature(
            name=candidate.name,
            family=candidate.family,
            input_columns=candidate.columns,
            description=candidate.description,
            output_columns=list(values),
            source_code=source,
            fm_calls=fm_calls,
            expr=expr,
        )
        return RealizedFeature(feature, values)
