"""Seeded batches for the serve path: hostile rows and kind-valid frames.

* :func:`hostile_rows` builds a reproducible row-dict batch laced with
  values a caller might POST (inf, numeric strings, nested values,
  oversized or non-UTF-8 strings, non-mapping rows, missing keys), which
  :func:`~repro.serve.resilience.validate_rows` must patch or quarantine
  before any kernel runs.
* :func:`kind_valid_frame` builds a frame that passes the plan's schema
  check but holds the cells fit is least likely to have seen (NaN, ±inf,
  ±1e300, −0.0, empty, number-like and unparseable text, long strings,
  numbers in text columns).  The compiled ops are total on such input:
  ``benchmarks/bench_resilience.py`` and ``tests/serve/test_op_fuzz.py``
  count every feature that still fails on it, and require none.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.dataframe.frame import DataFrame
from repro.dataframe.series import Series
from repro.serve.plan import coarse_kind
from repro.serve.resilience import plan_known_categories

__all__ = ["hostile_rows", "kind_valid_frame"]

#: The edge cells :func:`kind_valid_frame` draws from besides the values
#: fit saw, per column kind (``_NUMBER_CELLS``: numbers in a text column).
_FLOAT_CELLS = (np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, 0.0, 1.0, -1.0)
_INT_CELLS = (0, 1, -1, 2**62, -(2**62))
_TEXT_CELLS = (
    "", "nan", "NaN", "12", "-3.5", "2021-13-45", "2020-02-30", "2020/01/31",
    "cat2", "N/A", "a,b,c", " spaced ", None,
)
_NUMBER_CELLS = (12, -3.5, 0.0, float("nan"), 2**62)


def hostile_rows(
    input_schema: Sequence[tuple[str, str]],
    n_rows: int = 32,
    *,
    hostility: float = 0.3,
    seed: int = 0,
) -> list:
    """A seeded batch of row dicts laced with hostile values.

    Each cell is, with probability *hostility*, replaced by an attack
    drawn from the repertoire of the column's coarse kind (see
    :func:`~repro.serve.plan.coarse_kind`): inf/NaN/numeric strings/
    nested values for numerics, 0/1/None/strings for bools, oversized or
    surrogate (non-UTF-8-encodable) strings and nested values for
    objects.  Whole-row attacks (non-mapping rows, missing keys) are
    sprinkled at the same rate.  The same ``(schema, n_rows, hostility,
    seed)`` always yields the identical batch.
    """
    rng = np.random.default_rng(seed)
    numeric_attacks = [
        float("inf"),
        float("-inf"),
        float("nan"),
        "12.5",
        "not-a-number",
        None,
        {"nested": 1},
        [1, 2],
    ]
    bool_attacks = [0, 1, None, "yes", 2.5]
    object_attacks = [
        "x" * 20_000,
        "\ud800bad-surrogate",
        None,
        {"nested": True},
        ["a", "b"],
        42,
    ]
    rows: list = []
    for _ in range(n_rows):
        if rng.random() < hostility / 4:
            rows.append("not a mapping at all")
            continue
        row: dict[str, Any] = {}
        for name, pinned in input_schema:
            kind = coarse_kind(pinned)
            if rng.random() < hostility / 4:
                continue  # missing key
            if rng.random() < hostility:
                if kind == "numeric":
                    row[name] = numeric_attacks[int(rng.integers(len(numeric_attacks)))]
                elif kind == "bool":
                    row[name] = bool_attacks[int(rng.integers(len(bool_attacks)))]
                else:
                    row[name] = object_attacks[int(rng.integers(len(object_attacks)))]
            else:
                if kind == "numeric":
                    row[name] = float(rng.normal())
                elif kind == "bool":
                    row[name] = bool(rng.random() < 0.5)
                else:
                    row[name] = f"cat{int(rng.integers(4))}"
        rows.append(row)
    return rows


def kind_valid_frame(plan, n_rows: int, *, seed: int = 0) -> DataFrame:
    """A seeded batch that passes *plan*'s schema check, built of edge cells.

    Each input column is of its pinned coarse kind: ``bool`` columns are
    bool arrays; numeric columns are float64 or int64 arrays with a third
    of the cells drawn from the values fit saw and from NaN, ±inf, ±1e300
    and −0.0 (int64: ±2**62); object columns mix the values fit saw with
    empty, number-like and unparseable text, a 300-character string and
    ``None``, and in half the batches numbers too.  The same ``(plan,
    n_rows, seed)`` always yields the same frame.
    """
    rng = np.random.default_rng(seed)
    known = plan_known_categories(plan)
    kinds = dict(plan.input_schema)
    data = {}
    for name in plan.input_columns:
        kind = coarse_kind(kinds.get(name, "float"))
        seen = [v for v in known.get(name, ()) if v is not None]
        if kind == "bool":
            values = rng.random(n_rows) < 0.5
        elif kind == "numeric":
            seen = [v for v in seen if isinstance(v, (int, float)) and not isinstance(v, bool)]
            if rng.random() < 0.5:
                values = rng.integers(-1000, 1000, n_rows)
                pool = [int(v) for v in seen if float(v).is_integer() and abs(v) < 2**62]
                pool += _INT_CELLS
            else:
                values = rng.normal(0.0, 10.0 ** int(rng.integers(0, 7)), n_rows)
                pool = [*seen, *_FLOAT_CELLS]
            hit = np.flatnonzero(rng.random(n_rows) < 0.35)
            values[hit] = np.asarray(pool, dtype=values.dtype)[rng.integers(len(pool), size=len(hit))]
        else:
            pool = [*seen, *_TEXT_CELLS, "".join(rng.choice(list("xyz, -"), 300))]
            if rng.random() < 0.5:
                pool += _NUMBER_CELLS
            values = np.empty(n_rows, dtype=object)
            values[:] = [pool[i] for i in rng.integers(len(pool), size=n_rows)]
        data[name] = Series._from_array(values, name)
    return DataFrame(data)
