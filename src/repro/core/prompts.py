"""Prompt templates for the operator selector and the function generator.

These mirror the paper's Table 2 templates (and its Figure 2 function
prompt).  Every template embeds the serialised data agenda so both a real
FM and the simulator work from the same context window.
"""

from __future__ import annotations

from repro.core.agenda import DataAgenda
from repro.core.types import FeatureCandidate

__all__ = [
    "binary_proposal_prompt",
    "binary_sampling_prompt",
    "feature_removal_prompt",
    "extractor_sampling_prompt",
    "function_generation_prompt",
    "function_repair_prompt",
    "high_order_sampling_prompt",
    "row_completion_prompt",
    "source_suggestion_prompt",
    "unary_proposal_prompt",
]

_UNARY = """{agenda}

Task: Consider the unary operators on the attribute "{attr}" that can
generate helpful features to predict "{target}". List all possible
appropriate operators and your confidence levels
(certain/high/medium/low), one per line, in the format:
operator_tag (confidence): short feature description
Allowed operator tags: normalization, bucketization, log_transform,
get_dummies, date_split, text_length, squared, is_missing, none."""


def unary_proposal_prompt(agenda: DataAgenda, attr: str) -> str:
    """Proposal-strategy prompt for the unary operator family (Table 2)."""
    return _UNARY.format(agenda=agenda.describe(), attr=attr, target=agenda.target)


_BINARY = """{agenda}

Task: Propose ONE new feature that combines exactly two numeric attributes
with a binary arithmetic operator (+, -, *, /) and is helpful to predict
"{target}". Avoid features already present in the agenda.
Respond with JSON only:
{{"operator": "-", "columns": ["colA", "colB"], "name": "...", "description": "..."}}"""


def binary_sampling_prompt(agenda: DataAgenda) -> str:
    """Sampling-strategy prompt for the binary operator family."""
    return _BINARY.format(agenda=agenda.describe(), target=agenda.target)


_BINARY_PROPOSAL = """{agenda}

Task: List up to {k} new features, each combining exactly two numeric
attributes with a binary arithmetic operator (+, -, *, /), that are most
helpful to predict "{target}". Avoid features already present in the
agenda. Respond with one JSON object per line:
{{"operator": "-", "columns": ["colA", "colB"], "name": "...", "description": "..."}}"""


def binary_proposal_prompt(agenda: DataAgenda, k: int) -> str:
    """Proposal-strategy prompt for the binary family (§3.2 ablation).

    The paper applies the proposal strategy where the search space is
    small; exposing it for the binary family lets the strategy trade-off
    (one call, deterministic top-k vs. many calls, diverse samples) be
    measured directly."""
    return _BINARY_PROPOSAL.format(agenda=agenda.describe(), target=agenda.target, k=k)


_HIGH_ORDER = """{agenda}

Task: Generate a groupby feature for predicting "{target}" by applying
'df.groupby(groupby_col)[agg_col].transform(function)'. Specify the
groupby_col, agg_col, and the aggregation function (mean/max/min/sum/count).
Respond with JSON only:
{{"groupby_col": ["..."], "agg_col": "...", "function": "mean"}}"""


def high_order_sampling_prompt(agenda: DataAgenda) -> str:
    """Sampling-strategy prompt for the high-order (GroupByThenAgg) family
    — the exact Table 2 template."""
    return _HIGH_ORDER.format(agenda=agenda.describe(), target=agenda.target)


_EXTRACTOR = """{agenda}

Task: Propose ONE extractor feature that captures information the other
operators cannot: a composite index over several attributes, parsing or
splitting structured text, or an open-world knowledge lookup (for example
the population density of a city). It should help predict "{target}".
Respond with JSON only:
{{"name": "...", "columns": ["..."], "description": "...", "kind": "function" | "row_level" | "source"}}"""


def extractor_sampling_prompt(agenda: DataAgenda) -> str:
    """Sampling-strategy prompt for the extractor family."""
    return _EXTRACTOR.format(agenda=agenda.describe(), target=agenda.target)


#: The code fit's lifter accepts (``dataframe.lift.lift_source``; its
#: calls are the table ``dataframe.expr.SOURCE_FORMS``): fit rejects any
#: other answer as "not compilable", so both prompts that ask for code
#: state it.
_SUBSET = """The execution environment provides `pd` (pandas-compatible) and
`np` (numpy). Write straight-line code over `df[c]` columns, with no
loops, lambdas, `math` or `.apply` of Python functions. Accepted forms:
arithmetic with numeric constants; `pd.cut(df[c], bins=[...])`,
`pd.qcut(df[c], q)`, `pd.get_dummies(df[c])`,
`df.groupby(keys)[c].transform(agg)`,
`pd.DataFrame({name: df[c].dt.<part>, ...})`; and on a column
`.map(dict)`, `.fillna(constant)`, `.clip(lower, upper)`,
`.isna().astype(int)`, `.mean()`/`.min()`/`.max()`/`.std()`,
`.where(s != 0)`, `.apply(np.<ufunc>)` and `.str.len()`."""

_FUNCTION = """{agenda}

Task: Generate the optimal Python function to obtain the new feature
"{name}" (output) using feature(s) {columns} (input).
Feature description: {description}
Requirements: define `def transform(df):` returning the new column (a
Series) or new columns (a DataFrame).
{subset}
Handle missing values and avoid division by zero. Respond with Python
code only."""


def function_generation_prompt(agenda: DataAgenda, candidate: FeatureCandidate) -> str:
    """Function-generator prompt (Figure 2's right-hand interaction)."""
    return _FUNCTION.format(
        agenda=agenda.describe(),
        name=candidate.name,
        columns=candidate.columns,
        description=candidate.description,
        subset=_SUBSET,
    )


_REPAIR = """{agenda}

Task: The Python function previously generated for the new feature
"{name}" (inputs {columns}) failed.
Feature description: {description}
Failing code:
```python
{source}
```
Error: {error}
Generate a corrected `def transform(df):` meeting the same requirements.
{subset}
Handle missing values and avoid division by zero. Respond with Python
code only."""


def function_repair_prompt(
    agenda: DataAgenda, candidate: FeatureCandidate, source: str, error: str
) -> str:
    """Error-correction prompt: re-ask with the failing code and message.

    Implements the paper's "further improvements in error correction and
    detection" direction (Section 5) as a retry-with-feedback loop.
    """
    return _REPAIR.format(
        agenda=agenda.describe(),
        name=candidate.name,
        columns=candidate.columns,
        description=candidate.description,
        source=source.rstrip(),
        error=error,
        subset=_SUBSET,
    )


_ROW_COMPLETION = """Using world knowledge, complete the value of attribute "{attr}".
Record: {serialized}
{attr}: ?
Respond with the value only."""


def row_completion_prompt(attr: str, record: dict) -> str:
    """Serialised row-completion prompt: ``A1: v1, ..., A_new: ?`` (§3.3)."""
    serialized = ", ".join(f"{k}: {v}" for k, v in record.items())
    return _ROW_COMPLETION.format(attr=attr, serialized=serialized)


_SOURCES = """{agenda}

The feature "{name}" ({description}) cannot be computed by a
transformation function or row-level completion. Please suggest external
data sources the user could consult to construct it, one per line."""


def source_suggestion_prompt(agenda: DataAgenda, candidate: FeatureCandidate) -> str:
    """Scenario-3 prompt: ask the FM to suggest external data sources."""
    return _SOURCES.format(
        agenda=agenda.describe(), name=candidate.name, description=candidate.description
    )


_REMOVAL = """{agenda}

Task: Review the final feature set above. Identify generated features
that are redundant with one another (multiple monotone transforms of the
same column), near-duplicates, or uninformative for predicting
"{target}", and should be removed before training.
Respond with JSON only:
{{"remove": ["feature_name", "..."]}}"""


def feature_removal_prompt(agenda: DataAgenda) -> str:
    """FM-driven feature removal (the paper's Section 3.2 future work:
    "The exploration of utilizing FMs for feature removal is left as
    future work")."""
    return _REMOVAL.format(agenda=agenda.describe(), target=agenda.target)


def caafe_prompt(agenda: DataAgenda, sample_rows: str, iteration: int) -> str:
    """The CAAFE baseline's unguided code-generation prompt.

    Lives here (rather than in the baseline) so all prompt surfaces are in
    one reviewed module.
    """
    return (
        "You are an automated feature engineering assistant (CAAFE).\n"
        f"{agenda.describe()}\n"
        f"Sample rows:\n{sample_rows}\n"
        f"Iteration {iteration}: Suggest ONE new feature as Python code that\n"
        "operates on the dataframe `df` and assigns the new column, e.g.\n"
        "df['new_feature'] = df['a'] / df['b']\n"
        "Respond with Python code only."
    )
