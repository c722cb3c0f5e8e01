"""Reference role lexicon: the plain per-keyword loops, uncached.

The oracle for :mod:`repro.fm.lexicon`, whose matcher compiles each
role's keywords once and memoizes its results.  Both read the same
keyword table and stat-word sets; only the matching differs.
"""

from __future__ import annotations

import re

from repro.fm.lexicon import (
    _NEGATIVE_STAT_WORDS,
    _POSITIVE_STAT_WORDS,
    _ROLE_KEYWORDS,
    ColumnRole,
)


def tokenize_identifier(name: str) -> list[str]:
    spaced = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", name)
    spaced = re.sub(r"[_\.\-/,:]+", " ", spaced)
    return [t for t in spaced.lower().split() if t]


def stat_polarity(name: str, description: str = "") -> int:
    tokens = set(tokenize_identifier(name)) | set(tokenize_identifier(description))
    positive = bool(tokens & _POSITIVE_STAT_WORDS)
    negative = bool(tokens & _NEGATIVE_STAT_WORDS)
    if positive and not negative:
        return 1
    if negative and not positive:
        return -1
    return 0


def infer_role(name: str, description: str = "", dtype: str = "") -> ColumnRole:
    haystacks = []
    if description:
        haystacks.append(" " + " ".join(tokenize_identifier(description)) + " ")
    haystacks.append(" " + " ".join(tokenize_identifier(name)) + " ")
    for role, keywords in _ROLE_KEYWORDS:
        for haystack in haystacks:
            for keyword in keywords:
                needle = keyword if keyword.startswith(" ") or keyword.endswith(" ") else f" {keyword}"
                if needle in haystack or haystack.strip().startswith(keyword.strip()):
                    return role
    if dtype == "categorical":
        return ColumnRole.CATEGORY
    return ColumnRole.UNKNOWN
