"""Datatypes shared across the SMARTFEAT core."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "FeatureCandidate",
    "GeneratedFeature",
    "OperatorFamily",
    "RowCompletionPlan",
    "SourceSuggestion",
]


class OperatorFamily(enum.Enum):
    """The four operator families of Section 3.2."""

    UNARY = "unary"
    BINARY = "binary"
    HIGH_ORDER = "high_order"
    EXTRACTOR = "extractor"


@dataclass
class FeatureCandidate:
    """Operator-selector output: what feature to build, from what, and why.

    Mirrors the paper's three selector outputs — (i) the new feature name,
    (ii) the relevant columns, (iii) the feature description — plus the
    operator family and the realisation *kind* for extractors
    (``function`` / ``row_level`` / ``source``).
    """

    name: str
    columns: list[str]
    description: str
    family: OperatorFamily
    kind: str = "function"
    params: dict = field(default_factory=dict)


@dataclass
class GeneratedFeature:
    """A realised feature: provenance plus ``expr``, the frozen expression
    fit evaluated and its plan serves, or ``omit_reason``, why the plan
    omits it."""

    name: str
    family: OperatorFamily
    input_columns: list[str]
    description: str
    output_columns: list[str]
    source_code: str = ""
    fm_calls: int = 0
    expr: dict | None = None
    omit_reason: str = ""


@dataclass
class SourceSuggestion:
    """Scenario 3 of Section 3.3: no function exists; suggest data sources."""

    name: str
    description: str
    sources: list[str]


@dataclass
class RowCompletionPlan:
    """Scenario 2 of Section 3.3 when the table is large: a preview of
    row-level completions plus the projected cost of completing every row,
    for the user to decide on.

    ``relevant_columns`` records which columns the selector deemed
    relevant, so executing the plan later does not have to re-infer them
    from the preview records."""

    name: str
    description: str
    preview: list[tuple[dict, str]]
    n_rows: int
    estimated_calls: int
    estimated_cost_usd: float
    estimated_latency_s: float
    relevant_columns: list[str] = field(default_factory=list)
