"""Transformation emission for the simulated function generator.

The real system's GPT-3.5 turns a (feature name, relevant columns,
description) triple into executable pandas code.  This module is the
simulator's code-writing faculty: given the same triple — plus the data
agenda embedded in the prompt — it emits Python source defining
``def transform(df)`` that returns the new column (a Series) or columns
(a DataFrame).

Descriptions carry a machine-readable operator tag prefix (emitted by the
simulated operator selector), e.g. ``"bucketization[age_insurance]: Age
grouped into standard insurance bands"`` — mirroring how the paper reuses
the operator description as the feature description.

The source is the only emission: fit's lifter
(:mod:`repro.dataframe.lift`) lifts the serving expression from the
accepted source itself, never from the tag, so a real provider's untagged
code compiles the same way.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from repro.fm.knowledge import KnowledgeStore

__all__ = [
    "KNOWN_TAGS",
    "derivation_tag",
    "generate_transform_source",
    "parse_op_tag",
]

#: Operator tags the selector/codegen pipeline emits in descriptions.
KNOWN_TAGS = frozenset(
    {
        "normalization",
        "bucketization",
        "log_transform",
        "get_dummies",
        "date_split",
        "text_length",
        "squared",
        "is_missing",
        "binary",
        "groupby",
        "knowledge_map",
        "split_parts",
        "composite_index",
        "source",
    }
)


#: Entries each tag memo keeps: fitting all nine evaluation datasets at
#: two seeds reads 400 distinct descriptions.
_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_CACHE_SIZE)
def derivation_tag(description: str) -> str:
    """The operator tag a generated feature's description starts with.

    Original data-card descriptions are natural language and yield ``""``;
    generated features carry tags like ``"binary"`` or ``"groupby"`` — the
    FM reads these to avoid stacking operators nonsensically.  Memoized
    per description.
    """
    tag, _ = _op_tag(description)
    return tag if tag in KNOWN_TAGS else ""


def parse_op_tag(description: str) -> tuple[str, list[str]]:
    """Split ``"op[arg1][arg2]: text"`` into ``("op", ["arg1", "arg2"])``.

    Descriptions without a recognisable tag yield ``("", [])``.  The
    split is memoized per description; each call returns a fresh list.
    """
    op, args = _op_tag(description)
    return op, list(args)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _op_tag(description: str) -> tuple[str, tuple[str, ...]]:
    head = description.split(":", 1)[0].strip()
    if not head or " " in head.split("[", 1)[0]:
        return "", ()
    if "[" in head:
        op = head[: head.index("[")]
        return op, tuple(part.rstrip("]") for part in head[head.index("[") + 1 :].split("["))
    return head, ()


# ----------------------------------------------------------------------
# Operator forms
# ----------------------------------------------------------------------
def _bucketization(column: str, args: list[str], knowledge: KnowledgeStore) -> str:
    domain = args[0] if args else ""
    try:
        edges = knowledge.thresholds(domain)
    except KeyError:
        return (
            f"def transform(df):\n"
            f"    # No domain-standard bands known; fall back to quartiles.\n"
            f"    return pd.qcut(df[{column!r}], 4, labels=[0, 1, 2, 3])\n"
        )
    return (
        f"def transform(df):\n"
        f"    # Domain-standard {domain or 'generic'} bands.\n"
        f"    edges = {edges!r}\n"
        f"    return pd.cut(df[{column!r}], edges, labels=list(range(len(edges) - 1)))\n"
    )


def _normalization(column: str, args: list[str]) -> str:
    mode = args[0] if args else "zscore"
    if mode == "minmax":
        return (
            f"def transform(df):\n"
            f"    col = df[{column!r}]\n"
            f"    lo, hi = col.min(), col.max()\n"
            f"    span = (hi - lo) or 1.0\n"
            f"    return (col - lo) / span\n"
        )
    return (
        f"def transform(df):\n"
        f"    col = df[{column!r}]\n"
        f"    scale = col.std() or 1.0\n"
        f"    return (col - col.mean()) / scale\n"
    )


def _log_transform(column: str) -> str:
    return (
        f"def transform(df):\n"
        f"    # log1p of the non-negative part; keeps zeros/negatives safe.\n"
        f"    # np.log dispatches as one vectorised ufunc call.\n"
        f"    return (df[{column!r}].clip(0) + 1.0).apply(np.log)\n"
    )


def _squared(column: str) -> str:
    return f"def transform(df):\n    return df[{column!r}] ** 2\n"


def _get_dummies(column: str) -> str:
    return (
        f"def transform(df):\n"
        f"    return pd.get_dummies(df[{column!r}], prefix={column!r})\n"
    )


def _date_split(column: str) -> str:
    return (
        f"def transform(df):\n"
        f"    col = df[{column!r}]\n"
        f"    return pd.DataFrame({{\n"
        f"        {column + '_month'!r}: col.dt.month,\n"
        f"        {column + '_dayofweek'!r}: col.dt.dayofweek,\n"
        f"    }})\n"
    )


def _text_length(column: str) -> str:
    return f"def transform(df):\n    return df[{column!r}].str.len()\n"


def _is_missing(column: str) -> str:
    return (
        f"def transform(df):\n"
        f"    return df[{column!r}].isna().astype(int)\n"
    )


def _binary(op: str, columns: list[str]) -> str:
    a, b = columns[0], columns[1]
    if op == "/":
        return (
            f"def transform(df):\n"
            f"    # Guard against division by zero: zero/null denominators\n"
            f"    # become missing via one vectorised mask, and propagate.\n"
            f"    den = df[{b!r}].where(df[{b!r}] != 0)\n"
            f"    return df[{a!r}] / den\n"
        )
    symbol = {"+": "+", "-": "-", "*": "*"}[op]
    return (
        f"def transform(df):\n"
        f"    return df[{a!r}] {symbol} df[{b!r}]\n"
    )


def _groupby(args: list[str], columns: list[str]) -> str:
    func = args[0] if args else "mean"
    agg_col = columns[-1]
    group_cols = columns[:-1]
    return (
        f"def transform(df):\n"
        f"    return df.groupby({group_cols!r})[{agg_col!r}].transform({func!r})\n"
    )


def _knowledge_map(
    topic: str, column: str, values: Sequence[str], knowledge: KnowledgeStore
) -> str:
    mapping = knowledge.mapping_for(topic, values)
    default = knowledge.default_for(topic)
    entries = ", ".join(f"{k!r}: {v!r}" for k, v in mapping.items())
    return (
        f"def transform(df):\n"
        f"    # Encoded world knowledge: {topic.replace('_', ' ')}.\n"
        f"    # Dict .map runs one lookup per distinct value; unmapped and\n"
        f"    # missing inputs fall through to the default.\n"
        f"    lookup = {{{entries}}}\n"
        f"    return df[{column!r}].map(lookup).fillna({default!r})\n"
    )


def _split_parts(column: str, args: list[str]) -> str:
    separator = args[0] if args else ","
    return (
        f"def transform(df):\n"
        f"    parts = df[{column!r}].str.split({separator!r}, expand=True)\n"
        f"    parts = parts.rename(columns={{'0': {column + '_part0'!r}, '1': {column + '_part1'!r}}})\n"
        f"    out = pd.DataFrame({{}})\n"
        f"    for name in parts.columns:\n"
        f"        out[name] = parts[name].str.strip()\n"
        f"    return out\n"
    )


def _composite_index(columns: list[str]) -> str:
    weight = 1.0 / max(len(columns), 1)
    body = [
        "def transform(df):",
        "    # Equal-weight z-score composite of the inputs.",
        "    total = None",
    ]
    for col in columns:
        body.append(f"    col = df[{col!r}]")
        body.append("    scale = col.std() or 1.0")
        body.append(f"    part = ((col - col.mean()) / scale) * {weight!r}")
        body.append("    total = part if total is None else total + part")
    body.append("    return total")
    return "\n".join(body) + "\n"


def generate_transform_source(
    name: str,
    columns: list[str],
    description: str,
    knowledge: KnowledgeStore,
    column_values: dict[str, Sequence[str]] | None = None,
) -> str:
    """Emit ``def transform(df)`` source for one feature candidate.

    Parameters mirror the function-generator prompt: the feature *name*,
    its *columns*, the tagged *description*, and the categorical domains
    (*column_values*) parsed from the agenda in the prompt.
    """
    op, args = parse_op_tag(description)
    column = columns[0] if columns else ""
    values = (column_values or {}).get(column, [])
    if op == "bucketization":
        return _bucketization(column, args, knowledge)
    if op == "normalization":
        return _normalization(column, args)
    if op == "log_transform":
        return _log_transform(column)
    if op == "squared":
        return _squared(column)
    if op == "get_dummies":
        return _get_dummies(column)
    if op == "date_split":
        return _date_split(column)
    if op == "text_length":
        return _text_length(column)
    if op == "is_missing":
        return _is_missing(column)
    if op == "binary" and args and len(columns) >= 2:
        return _binary(args[0], columns)
    if op == "groupby":
        return _groupby(args, columns)
    if op == "knowledge_map" and args:
        return _knowledge_map(args[0], column, values, knowledge)
    if op == "split_parts":
        return _split_parts(column, args)
    if op == "composite_index":
        return _composite_index(columns)
    # Unknown intent: a defensible generic fallback (identity copy) that the
    # validator will reject as redundant — mirroring an FM low-quality answer.
    return f"def transform(df):\n    return df[{column!r}]\n"
