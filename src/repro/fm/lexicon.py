"""Semantic column-role inference.

A foundation model reads a column name like ``Age of car`` or ``FSW.1`` and
brings world knowledge about what transformations make sense.  The
simulator's stand-in for that capability is a lexicon that maps column
names *and their data-card descriptions* to semantic roles; roles then
drive which operators the simulated FM proposes and with what parameters
(e.g. actuarial age bands for AGE, log-scaling for MONEY).

The lexicon deliberately works better with descriptions than with bare
abbreviated names — reproducing the paper's "Impact of Feature
Descriptions" finding that opaque names like ``FSW.1`` degrade output.

Cost model: each role's keywords compile once, at import, into one
containment regex and one ``str.startswith`` prefix tuple, and
:func:`infer_role` and :func:`tokenize_identifier` are memoized on their
string arguments (bounded LRU caches).  A role is resolved once per
distinct column text per process, so the simulator's per-call cost is
O(prompt), independent of the lexicon's size.
"""

from __future__ import annotations

import enum
import functools
import re

__all__ = ["ColumnRole", "infer_role", "tokenize_identifier"]


class ColumnRole(enum.Enum):
    """Semantic interpretation of a column, as an FM would perceive it."""

    AGE = "age"
    YEAR = "year"
    DATE = "date"
    DURATION = "duration"
    MONEY = "money"
    RATE = "rate"
    PERCENTAGE = "percentage"
    COUNT = "count"
    SCORE = "score"
    MEASUREMENT = "measurement"
    CITY = "city"
    REGION = "region"
    CATEGORY = "category"
    BINARY = "binary"
    IDENTIFIER = "identifier"
    TEXT = "text"
    VEHICLE = "vehicle"
    OCCUPATION = "occupation"
    EDUCATION = "education"
    SPECIES = "species"
    UNKNOWN = "unknown"


_ROLE_KEYWORDS: list[tuple[ColumnRole, tuple[str, ...]]] = [
    # Order matters: first match wins, most specific roles first.
    (ColumnRole.CITY, ("city", "town", "municipality", "metro")),
    (ColumnRole.REGION, ("state", "region", "county", "country", "zip", "postcode", "district", "neighborhood", "address", "location")),
    (ColumnRole.AGE, ("age",)),
    (ColumnRole.SPECIES, ("species", "breed", "variety", "strain")),
    (ColumnRole.VEHICLE, ("vehicle", "car", "make", "model of car", "automobile")),
    (ColumnRole.YEAR, ("year", "vintage", "yr")),
    (ColumnRole.DATE, ("date", "timestamp", "datetime", "day of", "birthdate", "dob")),
    (ColumnRole.DURATION, ("duration", "tenure", "months since", "days since", "length of stay", "elapsed")),
    (ColumnRole.MONEY, ("income", "price", "salary", "balance", "cost", "revenue", "amount", "loan", "wage", "fee", "value in dollars", "budget", "payment", "earnings")),
    (ColumnRole.PERCENTAGE, ("percent", "percentage", "pct", "proportion", "share of")),
    (ColumnRole.RATE, ("rate", "ratio", "frequency", "per capita", "speed")),
    (ColumnRole.SCORE, ("score", "gpa", "grade", "rank", "rating", "index", "lsat", "ugpa", "points won", "serve percentage")),
    (ColumnRole.MEASUREMENT, ("pressure", "glucose", "insulin", "bmi", "cholesterol", "temperature", "humidity", "weight", "height", "thickness", "concentration", "measurement", "level")),
    (ColumnRole.COUNT, ("count", "number of", "num ", "n_", "children", "dependents", "claims", "visits", "aces", "faults", "wins", "attempts", "occurrences", "quantity", "mosquitos", "population", "households", "rooms", "bedrooms")),
    (ColumnRole.OCCUPATION, ("occupation", "job", "profession", "employment", "workclass")),
    (ColumnRole.EDUCATION, ("education", "degree", "school", "academic")),
    (ColumnRole.TEXT, ("comment", "description text", "notes", "review", "title")),
    (ColumnRole.IDENTIFIER, ("identifier", " id", "_id", "uuid", "serial", "ssn", "account number")),
    (ColumnRole.BINARY, ("flag", "is ", "has ", "binary", "yes/no", "boolean", "default", "subscribed", "married")),
]


def _compile_roles() -> list[tuple[ColumnRole, re.Pattern[str], tuple[str, ...]]]:
    """Each role's keywords as ``(role, needles, prefixes)``.

    A keyword matches a haystack (``" " + " ".join(tokens) + " "``) when
    its needle (the keyword itself if it starts or ends with a space,
    else ``" " + keyword``) occurs in it, or when the stripped haystack
    starts with the stripped keyword (so ``" id"`` matches any name
    starting with ``id``).  A role's needles become one regex
    alternation and its prefixes one tuple: two C-level calls per
    haystack.
    """
    compiled = []
    for role, keywords in _ROLE_KEYWORDS:
        needles = [k if k.startswith(" ") or k.endswith(" ") else f" {k}" for k in keywords]
        pattern = re.compile("|".join(map(re.escape, needles)))
        compiled.append((role, pattern, tuple(k.strip() for k in keywords)))
    return compiled


_ROLE_MATCHERS = _compile_roles()
#: Entries each memo keeps.  Fitting all nine evaluation datasets at
#: two seeds resolves 490 distinct roles from 873 distinct strings.
_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _tokens(name: str) -> tuple[str, ...]:
    spaced = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", name)
    spaced = re.sub(r"[_\.\-/,:]+", " ", spaced)
    return tuple(spaced.lower().split())


def tokenize_identifier(name: str) -> list[str]:
    """Split an identifier into lowercase word tokens.

    Handles snake_case, camelCase, dotted abbreviations, and digits:
    ``"AgeOfCar"`` → ``["age", "of", "car"]``; ``"FSW.1"`` → ``["fsw", "1"]``.
    The tokens are memoized; each call returns a fresh list.
    """
    return list(_tokens(name))


_POSITIVE_STAT_WORDS = frozenset(
    {"won", "win", "wins", "winners", "aces", "created", "success", "successful", "gained"}
)
_NEGATIVE_STAT_WORDS = frozenset(
    {"errors", "error", "faults", "fault", "unforced", "lost", "losses", "failures", "missed"}
)


def stat_polarity(name: str, description: str = "") -> int:
    """+1 for "good" stats (winners, aces), -1 for "bad" ones (errors,
    faults), 0 otherwise.

    An FM pairing ``winners`` with ``unforced errors`` knows they oppose —
    which is why differentials/ratios of opposing stats rank highly in its
    binary-operator proposals.
    """
    tokens = set(_tokens(name)).union(_tokens(description))
    positive = bool(tokens & _POSITIVE_STAT_WORDS)
    negative = bool(tokens & _NEGATIVE_STAT_WORDS)
    if positive and not negative:
        return 1
    if negative and not positive:
        return -1
    return 0


def infer_role(name: str, description: str = "", dtype: str = "") -> ColumnRole:
    """Infer the semantic role of a column from name + description + dtype.

    The description dominates when present (an FM reads the data card); a
    bare cryptic name often yields :attr:`ColumnRole.UNKNOWN` — which is
    what degrades SMARTFEAT's output in the names-only ablation.  Roles
    are memoized per ``(name, description, dtype)``.
    """
    return _cached_role(name, description, dtype)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_role(name: str, description: str, dtype: str) -> ColumnRole:
    return _match_role(name, description, dtype)


def _match_role(name: str, description: str, dtype: str) -> ColumnRole:
    """The uncached matcher: the first role in lexicon order whose
    keywords match the description's or the name's haystack."""
    texts = [" ".join(_tokens(name))]
    if description:
        texts.insert(0, " ".join(_tokens(description)))
    haystacks = [(f" {text} ", text) for text in texts]
    for role, needles, prefixes in _ROLE_MATCHERS:
        for haystack, text in haystacks:
            if needles.search(haystack) or text.startswith(prefixes):
                return role
    if dtype == "categorical":
        return ColumnRole.CATEGORY
    return ColumnRole.UNKNOWN
