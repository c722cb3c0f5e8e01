"""Frozen transform expressions: the serving IR behind compiled FeaturePlans.

A SMARTFEAT run's FM answers are ``def transform(df)`` sources.  The
lifter (:mod:`repro.serve.compiler`) turns each into JSON-safe expression
nodes that evaluate through the same Series/kernel operations the source
would have hit; fit freezes and evaluates those nodes
(:func:`fit_feature`) instead of executing the source, and the plan
serves the same frozen nodes, so replay is value- and dtype-identical to
``fit_transform``'s frame by construction.

Two node families exist:

* **frozen** nodes (``col``/``add``/``cut``/``dict_map``/``group_lookup``
  …) are pure data — column references, constants, and frozen fit-time
  statistics — and are what a serialized plan contains;
* **fit** nodes (``fit_mean``/``fit_qcut``/``fit_group_table`` …) stand
  for statistics the source would recompute per call.  They exist only
  in lifted templates: :func:`freeze_expr` resolves each one against the
  fit frame into a frozen node, and :func:`validate_expr` rejects them
  in anything claiming to be a plan.

Evaluation deliberately routes through the public ``Series`` operations
(``where``/``map``/``fillna``/``apply`` on ufuncs, the ``cut``/``qcut``
reshape kernels, and the segmented group machinery) rather than raw
numpy — those carry the package's exact missingness and dtype-coercion
rules, which is what makes bit-identical replay provable.

String work runs over column dictionaries
(:mod:`repro.dataframe.dictionary`).  A compiled
:class:`~repro.serve.plan.FeaturePlan` holds one per string column it
reads: the column's distinct values, a ``{value: id}`` index, and
per-entry results of the ops that read the column.  The cost model of
one served batch:

* each all-plain-``str`` column costs one type pass and one ``index.get``
  pass over its cells, however many features read it, and only the
  values the dictionary has not seen are added; the codes are kept on
  the Series, so serving the same Series again skips both passes;
* ``str_len``, ``date_split``, ``split_parts``, ``dict_map`` and the
  ``group_lookup`` key ids are computed once per distinct value over the
  plan's lifetime and gathered by code; ``dummies`` compares codes with
  each category's id;
* any other column (``None``, NaN, ``np.str_`` or numbers among its
  cells), and any batch bringing new values to a full dictionary, is
  encoded per batch through :meth:`Series.encoding` into a throwaway
  dictionary and pays per distinct value of the batch, as every column
  does when :func:`evaluate_feature` is called without a plan's lookup
  (fit, tests) — there is one op code path.

Every per-entry result is a function of one value, and validity (an ISO
date, a NUL-free split) is judged over the entries a batch holds, so a
batch's output never depends on what the plan served before.
``group_lookup`` maps key ids onto a table compiled once per node
(:class:`_GroupTable`).
"""

from __future__ import annotations

import operator
import threading
from itertools import repeat
from typing import Any

import numpy as np

from repro.dataframe import kernels as _kernels
from repro.dataframe import reshape as _reshape
from repro.dataframe import dictionary as _dictionary
from repro.dataframe.dictionary import ColumnDictionaries
from repro.dataframe.series import Series

__all__ = [
    "EXPR_OPS",
    "FIT_OPS",
    "ExprError",
    "evaluate_feature",
    "expr_columns",
    "fit_feature",
    "freeze_expr",
    "is_frozen",
    "refreeze_group_table",
    "validate_expr",
]


class ExprError(Exception):
    """A transform expression cannot be frozen, validated, or evaluated."""


#: Unary ufuncs a frozen expression may apply.  Evaluation passes the
#: ufunc object itself to ``Series.apply`` — the same call shape the
#: generated ``.apply(np.log)`` source makes, so domain violations
#: (``log`` of a negative) produce the identical NaN/warning behaviour.
_UFUNCS: dict[str, np.ufunc] = {
    "log": np.log,
    "log1p": np.log1p,
    "log2": np.log2,
    "log10": np.log10,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "pow": lambda a, b: a ** b,
}

#: Frozen (serializable) node kinds.
EXPR_OPS = frozenset(
    {
        "col",
        "const",
        *_ARITH,
        "clip",
        "ufunc",
        "where_nonzero",
        "isna_int",
        "cut",
        "qcut_collapsed",
        "dict_map",
        "fillna",
        "str_len",
        "date_split",
        "dummies",
        "split_parts",
        "group_lookup",
    }
)

#: Node kinds producing several named columns at once.
_MULTI_OUTPUT = frozenset({"date_split", "dummies", "split_parts"})

#: Child-expression slots a node may carry.
_CHILD_SLOTS = ("arg", "left", "right")


# ----------------------------------------------------------------------
# Validation / inspection
# ----------------------------------------------------------------------
def _walk(node: dict):
    yield node
    for slot in _CHILD_SLOTS:
        child = node.get(slot)
        if isinstance(child, dict):
            yield from _walk(child)


def validate_expr(node: Any) -> None:
    """Raise :class:`ExprError` unless *node* is a well-formed frozen tree."""
    if not isinstance(node, dict) or "op" not in node:
        raise ExprError(f"expression node must be a dict with an 'op' key, got {node!r}")
    for sub in _walk(node):
        if not isinstance(sub, dict) or "op" not in sub:
            raise ExprError(f"malformed expression node: {sub!r}")
        op = sub["op"]
        if op in FIT_OPS:
            raise ExprError(
                f"expression contains unfrozen fit-time node {op!r}; "
                f"plans must be frozen with freeze_expr() before serialization"
            )
        if op not in EXPR_OPS:
            raise ExprError(f"unknown expression op {op!r}")


def is_frozen(node: dict) -> bool:
    """True when no fit-time node remains anywhere in the tree."""
    return all(sub.get("op") not in FIT_OPS for sub in _walk(node))


def expr_columns(node: dict) -> list[str]:
    """Input columns the expression reads, in first-reference order."""
    seen: dict[str, None] = {}
    for sub in _walk(node):
        op = sub.get("op")
        if op == "col":
            seen.setdefault(sub["name"], None)
        elif op == "group_lookup" or op == "fit_group_table":
            for key in sub["keys"]:
                seen.setdefault(key, None)
            if "agg_col" in sub:
                seen.setdefault(sub["agg_col"], None)
        elif "column" in sub:
            seen.setdefault(sub["column"], None)
    return list(seen)


# ----------------------------------------------------------------------
# Per-entry derivations (each a function of one value at a time)
# ----------------------------------------------------------------------
def _str_lengths(values: list) -> tuple[np.ndarray]:
    return (np.fromiter(map(len, values), np.int64, len(values)),)


def _split_fields(values: list, sep: str, n_parts: int) -> tuple[np.ndarray, ...]:
    """``(valid, part 0, part 1, …)`` of ``str.split`` per value.

    A value holding a NUL is not valid (fixed-width ``U`` arrays drop
    trailing NULs) and its parts are ``None``; a column holding one takes
    the per-row loop.
    """
    n = len(values)
    valid = ~np.fromiter(map(operator.contains, values, repeat("\x00")), bool, n)
    if valid.all():
        return (valid, *_split_parts(values, sep, n_parts))
    rows = np.flatnonzero(valid)
    columns = [np.empty(n, dtype=object) for _ in range(n_parts)]
    kept = _split_parts([values[i] for i in rows.tolist()], sep, n_parts)
    for column, part in zip(columns, kept):
        column[rows] = part
    return (valid, *columns)


def _split_parts(values: list, sep: str, n_parts: int) -> list[np.ndarray]:
    """Vectorized ``str.split`` of NUL-free values via repeated
    ``np.char.partition``: each partition peels one piece, and values
    whose previous partition found no separator have no further pieces,
    matching ``pieces[i] if i < len(pieces) else None``."""
    out = [np.empty(len(values), dtype=object) for _ in range(n_parts)]
    if not values:
        return out
    rest = np.array(values, dtype=str)
    has_piece = np.ones(len(values), dtype=bool)
    for column in out:
        parts = np.char.partition(rest, sep)
        column[:] = np.char.strip(parts[:, 0]).tolist()
        column[~has_piece] = None
        has_piece &= parts[:, 1] != ""
        rest = parts[:, 2]
    return out


def _mapped(values: list, node: dict) -> tuple[np.ndarray]:
    mapping = dict(zip(node["keys"], node["values"]))
    return (np.fromiter(map(mapping.get, values), object, len(values)),)


def _table_ids(values: list, table_ids: dict) -> tuple[np.ndarray]:
    return (np.fromiter(map(table_ids.get, values, repeat(-1)), np.int64, len(values)),)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _col(frame, name: str) -> Series:
    """Column lookup that fails as :class:`ExprError`, not a bare KeyError.

    A serving frame missing a column a frozen expression reads must
    surface as a typed, per-feature failure the resilience layer can
    isolate — not as a ``KeyError`` thrown from deep inside a kernel.
    """
    if name not in frame:
        raise ExprError(f"expression reads column {name!r} absent from the frame")
    return frame[name]


def _operand(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Any:
    """Evaluate an arithmetic operand: ``const`` → scalar, else Series.

    Scalar constants must stay plain Python numbers so the Series
    arithmetic takes the same scalar-broadcast path the generated source
    took with its literal/computed statistics.
    """
    if node["op"] == "const":
        return node["value"]
    return _evaluate(node, frame, dictionaries)


def _evaluate(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    op = node["op"]
    if op == "col":
        return _col(frame, node["name"])
    if op in _ARITH:
        return _ARITH[op](
            _operand(node["left"], frame, dictionaries), _operand(node["right"], frame, dictionaries)
        )
    if op == "clip":
        arg = _evaluate(node["arg"], frame, dictionaries)
        return arg.clip(node.get("lower"), node.get("upper"))
    if op == "ufunc":
        fn = node["fn"]
        if fn not in _UFUNCS:
            raise ExprError(f"unknown ufunc {fn!r}")
        return _evaluate(node["arg"], frame, dictionaries).apply(_UFUNCS[fn])
    if op == "where_nonzero":
        arg = _evaluate(node["arg"], frame, dictionaries)
        return arg.where(arg != 0)
    if op == "isna_int":
        return _col(frame, node["column"]).isna().astype(int)
    if op == "cut":
        return _reshape.cut(
            _col(frame, node["column"]),
            list(node["edges"]),
            labels=list(node["labels"]) if node.get("labels") is not None else None,
            right=node.get("right", True),
        )
    if op == "qcut_collapsed":
        return _eval_qcut_collapsed(_col(frame, node["column"]))
    if op == "dict_map":
        return _eval_dict_map(node, frame, dictionaries)
    if op == "fillna":
        return _evaluate(node["arg"], frame, dictionaries).fillna(node["value"])
    if op == "str_len":
        series = _col(frame, node["column"])
        encoded = _dictionary.strings(dictionaries, node["column"], series)
        if encoded is None:
            return series.str.len()
        codes, dictionary = encoded
        (lengths,) = dictionary.derive("str_len", None, _str_lengths)
        return Series._from_array(lengths[codes], series.name)
    if op == "group_lookup":
        return _eval_group_lookup(node, frame, dictionaries)
    if op in _MULTI_OUTPUT:
        raise ExprError(f"multi-output op {op!r} must be evaluated via evaluate_feature()")
    if op == "const":
        raise ExprError("a bare constant is not a column expression")
    raise ExprError(f"unknown expression op {op!r}")


def _eval_qcut_collapsed(series: Series) -> Series:
    """Replay of degenerate ``qcut`` fits (all edges tied, or no data).

    Mirrors ``Series([0 if not isnan(v) else None])`` — present values
    collapse into the single bin, missing stays missing, and the
    all-missing case coerces to an object column of ``None``.
    """
    data = series._numeric()
    missing = np.isnan(data)
    if len(data) and missing.all():
        return Series._from_array(np.full(len(data), None, dtype=object), series.name)
    if not missing.any():
        return Series._from_array(np.zeros(len(data), dtype=np.int64), series.name)
    return Series._from_array(np.where(missing, np.nan, 0.0), series.name)


def _eval_dict_map(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    """``Series.map`` of the node's mapping: per-entry mapped values
    gathered by code (unused entries cannot sway the output dtype)."""
    series = _col(frame, node["column"])
    encoded = _dictionary.strings(dictionaries, node["column"], series)
    if encoded is None:
        return series.map(dict(zip(node["keys"], node["values"])))
    codes, dictionary = encoded
    (mapped,) = dictionary.derive(
        ("dict_map", id(node)), node, lambda values: _mapped(values, node)
    )
    return Series._from_array(_kernels.take_uniques(mapped, codes), series.name)


def _unbox(value: Any) -> Any:
    return value.item() if isinstance(value, np.generic) else value


class _GroupTable:
    """A frozen ``group_lookup`` table compiled for vectorized probing.

    ``key_ids[j]`` maps each distinct table value of key *j* to a dense
    id in first-seen order, with dict semantics (``1``, ``1.0`` and
    ``True`` share an id).  Key ids combine pairwise and are re-densified
    after each key, as :class:`repro.dataframe.groupby._GroupIndex` does,
    so a combined id stays below the table's row count squared however
    many keys there are.  Each of ``steps`` maps ``prefix * width + id``
    to the next dense prefix, through ``lut`` when the pair space is
    small and by searching the sorted ``pairs`` otherwise.  The last
    prefix is the value slot: ``values`` holds each slot's value, the
    last row of a repeated key winning like the dict the table once
    built; the slot after the last stands for ``fill``, read at
    evaluation time.
    """

    def __init__(self, node: dict) -> None:
        rows = node["table"]
        self.key_ids: list[dict] = [{} for _ in node["keys"]]
        row_ids = np.array(
            [
                [ids.setdefault(v, len(ids)) for ids, v in zip(self.key_ids, row)]
                for row in rows
            ],
            dtype=np.int64,
        ).reshape(len(rows), len(self.key_ids))
        slot = row_ids[:, 0]
        n_slots = len(self.key_ids[0])
        self.steps: list[tuple[int, np.ndarray, np.ndarray | None]] = []
        for j, ids in enumerate(self.key_ids[1:], start=1):
            width = len(ids)
            pairs, slot = np.unique(slot * width + row_ids[:, j], return_inverse=True)
            space = n_slots * width
            lut = None
            if space <= max(8 * len(pairs), 1 << 16):
                # One extra trailing entry: a pair id of -1 stays -1.
                lut = np.full(space + 1, -1, dtype=np.int64)
                lut[pairs] = np.arange(len(pairs))
            self.steps.append((width, pairs, lut))
            n_slots = len(pairs)
        self.fill_slot = n_slots
        self.values = np.empty(n_slots + 1, dtype=object)
        for i, row in zip(slot.tolist(), rows):
            self.values[i] = row[-1]

    def key_ids_per_row(
        self, node: dict, j: int, series: Series, dictionaries: ColumnDictionaries | None
    ) -> np.ndarray:
        """Row ids of key *j* in this table (``-1`` unseen).

        Each dictionary entry of the key column is mapped to its table id
        once (memoized per entry until the node's table is refrozen) and
        gathered by code.  A missing cell (code ``-1``) never matches,
        except that ``None`` finds a table ``None`` key; the rows are
        scanned for it only when the table has such a key and the column
        is not all plain ``str``.
        """
        name = node["keys"][j]
        encoded = _dictionary.encoded(dictionaries, name, series)
        if encoded is None:
            raise TypeError(f"group key {series.name!r} holds unhashable cells")
        codes, dictionary = encoded
        table_ids = self.key_ids[j]
        (ids,) = dictionary.derive(
            ("group_lookup", id(node), j),
            node["table"],
            lambda values: _table_ids(values, table_ids),
        )
        # One extra trailing entry: a missing cell's code of -1 reads -1.
        per_row = np.append(ids, -1)[codes]
        none_id = table_ids.get(None)
        if none_id is not None and dictionary.index is None and series.dtype == object:
            missing = np.flatnonzero(codes < 0)
            cells = series.values[missing]
            is_none = np.fromiter((v is None for v in cells), bool, len(cells))
            per_row[missing[is_none]] = none_id
        return per_row

    def slots(self, key_ids: list[np.ndarray]) -> np.ndarray:
        """Value slot per row from each key's per-row ids."""
        slot = key_ids[0]
        for (width, pairs, lut), ids in zip(self.steps, key_ids[1:]):
            combined = slot * width + ids
            combined[(slot < 0) | (ids < 0)] = -1
            if lut is not None:
                slot = lut[combined]
            else:
                pos = np.minimum(np.searchsorted(pairs, combined), len(pairs) - 1)
                slot = np.where(pairs[pos] == combined, pos, -1)
        return np.where(slot < 0, self.fill_slot, slot)


#: Compiled group tables, outside the plan JSON: ``id(node)`` →
#: ``(table, compiled)``.  An entry serves a node only while
#: ``node["table"]`` is the very list it was compiled from, so
#: :func:`refreeze_group_table` (which installs a new list) invalidates
#: it and the recompile replaces it in place.  Holding the table keeps
#: that identity check sound after a dead node's id is reused.  Bounded
#: FIFO; entries of discarded plans age out.  The per-entry table ids in
#: column dictionaries are keyed on the same table list.
_COMPILED_TABLES: dict[int, tuple[list, _GroupTable]] = {}
_COMPILED_TABLES_MAX = 256
_COMPILED_TABLES_LOCK = threading.Lock()


def _compiled_table(node: dict) -> _GroupTable:
    table = node["table"]
    hit = _COMPILED_TABLES.get(id(node))
    if hit is not None and hit[0] is table:
        return hit[1]
    compiled = _GroupTable(node)
    with _COMPILED_TABLES_LOCK:
        if id(node) not in _COMPILED_TABLES and (
            len(_COMPILED_TABLES) >= _COMPILED_TABLES_MAX
        ):
            _COMPILED_TABLES.pop(next(iter(_COMPILED_TABLES)))
        _COMPILED_TABLES[id(node)] = (table, compiled)
    return compiled


def _eval_group_lookup(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    """Broadcast a frozen per-group table along the batch.

    The table is compiled once per node (:class:`_GroupTable`).  Per
    batch, each key column's codes are mapped to the table's key ids
    through its dictionary (:meth:`_GroupTable.key_ids_per_row`); the
    ids combine into one value slot per row.  Unseen groups, and NaN
    keys, take ``fill``.  Only the slots present in the batch are
    materialized, so the output dtype follows the groups the batch
    holds, as the fitted ``transform`` did.
    """
    if len(frame) == 0:
        return Series([])
    compiled = _compiled_table(node)
    slots = compiled.slots(
        [
            compiled.key_ids_per_row(node, j, frame[key], dictionaries)
            for j, key in enumerate(node["keys"])
        ]
    )
    seen = np.zeros(len(compiled.values), dtype=bool)
    seen[slots] = True
    present = np.flatnonzero(seen)
    per = compiled.values[present].tolist()
    if seen[-1]:
        per[-1] = node.get("fill")
    remap = np.empty(len(seen), dtype=np.int64)
    remap[present] = np.arange(len(present))
    return _broadcast_per_group(per, remap[slots], node["value_kind"])


def _broadcast_per_group(per: list, inverse: np.ndarray, value_kind: str) -> Series:
    if value_kind == "object" or (
        value_kind == "int64" and any(v is None for v in per)
    ):
        arr = np.empty(len(per), dtype=object)
        for i, v in enumerate(per):
            arr[i] = v
        return Series(arr[inverse].tolist())
    if value_kind == "float64":
        arr = np.array(
            [np.nan if v is None else float(v) for v in per], dtype=np.float64
        )
        return Series._from_array(_kernels.match_coerce_float(arr[inverse]))
    arr = np.array(per, dtype=np.int64)
    return Series._from_array(arr[inverse])


def _eval_date_split(node: dict, frame, dictionaries: ColumnDictionaries | None) -> dict[str, Series]:
    series = _col(frame, node["column"])
    outputs = [(part, name) for part, name in node["outputs"]]
    encoded = _dictionary.strings(dictionaries, node["column"], series)
    if encoded is not None and all(part in _kernels.ISO_DATE_PARTS for part, _ in outputs):
        codes, dictionary = encoded
        valid, *fields = dictionary.derive("date_split", None, _kernels.iso_date_fields)
        if len(codes) and valid[codes].all():
            parts = dict(zip(_kernels.ISO_DATE_PARTS, fields))
            return {
                name: Series._from_array(parts[part][codes], name)
                for part, name in outputs
            }
    return _date_split_by_accessor(series, outputs)


def _date_split_by_accessor(series: Series, outputs: list) -> dict[str, Series]:
    """The per-row ``Series.dt`` path: raises for an invalid date, as the
    fitted transform did."""
    accessor = series.dt
    return {name: getattr(accessor, part).rename(name) for part, name in outputs}


def _eval_dummies(node: dict, frame, dictionaries: ColumnDictionaries | None) -> dict[str, Series]:
    name = node["column"]
    series = _col(frame, name)
    encoded = _dictionary.encoded(dictionaries, name, series)
    if encoded is None:
        codes, uniques = series._factorized()
        position = {u: j for j, u in enumerate(uniques)}
    else:
        codes, dictionary = encoded
        position = dictionary.index
        if position is None:
            position = {u: j for j, u in enumerate(dictionary.values)}
    # -2 matches nothing, incl. missing (-1); one row of the block per column.
    kept = np.fromiter(
        (position.get(category, -2) for category in node["categories"]), np.int64
    )
    block = np.empty((len(kept), len(codes)), np.int64)
    np.equal(kept[:, None], codes, out=block)
    return {
        column: Series._from_array(row, column) for column, row in zip(node["names"], block)
    }


def _eval_split_parts(node: dict, frame, dictionaries: ColumnDictionaries | None) -> dict[str, Series]:
    sep, names = node["sep"], node["outputs"]
    series = _col(frame, node["column"])
    encoded = _dictionary.strings(dictionaries, node["column"], series)
    if encoded is not None:
        codes, dictionary = encoded
        valid, *parts = dictionary.derive(
            ("split_parts", sep, len(names)),
            None,
            lambda values: _split_fields(values, sep, len(names)),
        )
        if len(codes) and valid[codes].all():
            return {
                name: Series._from_array(column[codes], name)
                for name, column in zip(names, parts)
            }
    return _split_parts_by_row(series, sep, names)


def _split_parts_by_row(series: Series, sep: str, names: list) -> dict[str, Series]:
    """The per-row ``str.split`` loop, for columns that are not all plain
    ``str`` or that hold a NUL."""
    lists: list[list] = [[] for _ in names]
    for value in series.tolist():
        if _kernels.is_missing_scalar(value):
            for lst in lists:
                lst.append(None)
            continue
        pieces = str(value).split(sep)
        for i, lst in enumerate(lists):
            lst.append(pieces[i].strip() if i < len(pieces) else None)
    return {name: Series(lst, name) for name, lst in zip(names, lists)}


def evaluate_feature(
    node: dict, frame, dictionaries: ColumnDictionaries | None = None
) -> Series | dict[str, Series]:
    """Evaluate a frozen expression against *frame*.

    Single-column expressions return a :class:`Series`; the multi-output
    forms (``date_split``/``dummies``/``split_parts``) return an ordered
    ``{column name: Series}`` mapping.  A plan passes its
    *dictionaries*; without them the string ops use throwaway
    dictionaries (:mod:`repro.dataframe.dictionary`).
    """
    op = node.get("op")
    if op == "date_split":
        return _eval_date_split(node, frame, dictionaries)
    if op == "dummies":
        return _eval_dummies(node, frame, dictionaries)
    if op == "split_parts":
        return _eval_split_parts(node, frame, dictionaries)
    return _evaluate(node, frame, dictionaries)


# ----------------------------------------------------------------------
# Freezing fit-time statistics
# ----------------------------------------------------------------------
def _const(value: Any) -> dict:
    if isinstance(value, np.generic):
        value = value.item()
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ExprError(f"fit-time statistic is not numeric: {value!r}")
    return {"op": "const", "value": value}


def _freeze_qcut(node: dict, frame) -> dict:
    kind, edges = _reshape.qcut_params(frame[node["column"]], node["q"])
    if kind != "cut":
        return {"op": "qcut_collapsed", "column": node["column"]}
    labels = node.get("labels")
    if labels is not None:
        labels = list(labels)[: len(edges) - 1]
    return {
        "op": "cut",
        "column": node["column"],
        "edges": [float(e) for e in edges],
        "labels": labels,
        "right": True,
    }


def _freeze_categories(node: dict, frame) -> dict:
    _, uniques = frame[node["column"]]._factorized()
    prefix = node["prefix"]
    return {
        "op": "dummies",
        "column": node["column"],
        "categories": list(uniques),
        "names": [f"{prefix}_{cat}" for cat in uniques],
    }


def _group_table(node: dict, frame) -> tuple[dict, Any, np.ndarray, list]:
    """``(frozen group_lookup node, group index, per-group values, kept)``:
    the values in the index's sort-segment order, and whether each group
    got a table row in first-seen order."""
    from repro.dataframe.groupby import _GroupIndex, _segmented_name, _segmented_sorted

    keys, agg_col = node["keys"], node["agg_col"]
    op = _segmented_name(node["agg"])
    if op is None:
        raise ExprError(f"aggregate {node['agg']!r} has no segmented form")
    index = _GroupIndex(frame, keys)
    series = frame[agg_col] if op != "size" else None
    per = _segmented_sorted(index, series, op) if index.n_rows else None
    if per is None:
        raise ExprError(
            f"aggregate {node['agg']!r} over {agg_col!r} has no segmented form "
            "on the fitted frame; cannot freeze"
        )
    frozen = {
        "op": "group_lookup",
        "keys": list(keys),
        "agg": node["agg"],
        # The aggregated column is not needed to replay the frozen table,
        # but an out-of-core refresh pass re-aggregates from it — keep it.
        "agg_col": agg_col,
        "table": None,
        "value_kind": None,
        "fill": None,
    }
    kept = refreeze_group_table(frozen, index.labels(), per[index.first_seen_order()])
    return frozen, index, per, kept


def _fit_group_table(node: dict, frame) -> tuple[dict, Series]:
    """Freeze a group table and broadcast it over the frame it was fitted
    on through the freeze's own group codes, not a table probe: every
    table group is present there, and NaN-keyed rows take the fill.
    Bit-identical to ``evaluate_feature`` on the frozen node."""
    frozen, index, per, kept_first_seen = _group_table(node, frame)
    kept = np.empty(index.n_groups, dtype=bool)
    kept[index.first_seen_order()] = kept_first_seen
    values, inverse = _unboxed(per[kept]), index.inverse
    if not kept.all():
        remap = np.full(index.n_groups, len(values), dtype=np.int64)
        remap[kept] = np.arange(len(values))
        inverse = remap[inverse]
        values.append(frozen["fill"])
    return frozen, _broadcast_per_group(values, inverse, frozen["value_kind"])


def _unboxed(values: np.ndarray) -> list:
    """The array's cells as Python scalars (``tolist`` leaves object cells)."""
    cells = values.tolist()
    return list(map(_unbox, cells)) if values.dtype == object else cells


def refreeze_group_table(node: dict, labels: list, per: np.ndarray) -> list[bool]:
    """Replace a frozen ``group_lookup`` table in place from per-group values.

    *labels*/*per* come from an out-of-core aggregation over the full
    shard stream (:class:`repro.dataframe.groupby.StreamingGroupAgg` in
    first-seen order).  The fit-time freeze builds its table through this
    same function, so a refreshed node replays through the identical
    broadcast path.  A group keyed on a NaN gets no row: a NaN key never
    matches at lookup.  Returns whether each label got a row.
    """
    if node.get("op") != "group_lookup":
        raise ExprError(f"cannot refreeze node op {node.get('op')!r}")
    kind = per.dtype.kind
    node["value_kind"] = (
        "int64" if kind in "iu" else "float64" if kind == "f" else "object"
    )
    parts = [[label] for label in labels] if len(node["keys"]) == 1 else labels
    kept = [not any(p != p and _kernels.is_missing_scalar(p) for p in key) for key in parts]
    node["table"] = [
        [*map(_unbox, key), value]
        for key, value, keep in zip(parts, _unboxed(per), kept)
        if keep
    ]
    return kept


def _freeze_split_outputs(node: dict, frame) -> dict:
    column, sep, rename = node["column"], node["sep"], node["rename"]
    width = 0
    for value in frame[column].tolist():
        if not _kernels.is_missing_scalar(value):
            width = max(width, len(str(value).split(sep)))
    if width == 0:
        raise ExprError(f"split_parts saw no present values in {column!r} at fit time")
    # The source's rename maps positional names ("0", "1" …); parts it
    # does not rename keep the positional name the frame gave them.
    names = [rename.get(str(i), str(i)) for i in range(width)]
    return {"op": "split_parts", "column": column, "sep": sep, "outputs": names}


def _freeze_stat(node: dict, frame) -> dict:
    """``fit_mean`` → ``Series.mean()`` of the column, and so on."""
    return _const(getattr(frame[node["column"]], node["op"][len("fit_") :])())


def _freeze_or(node: dict, frame) -> dict:
    """``left or right`` over fit-time scalars (``col.std() or 1.0``)."""
    left = _operand(freeze_expr(node["left"], frame), frame, None)
    return _const(left or _operand(freeze_expr(node["right"], frame), frame, None))


_FIT_FREEZERS = {
    **dict.fromkeys(("fit_mean", "fit_std", "fit_min", "fit_max"), _freeze_stat),
    "fit_or": _freeze_or,
    "fit_qcut": _freeze_qcut,
    "fit_categories": _freeze_categories,
    "fit_group_table": lambda node, frame: _group_table(node, frame)[0],
    "fit_split_outputs": _freeze_split_outputs,
}

#: Compile-time-only node kinds; :func:`freeze_expr` resolves these.
FIT_OPS = frozenset(_FIT_FREEZERS)


def freeze_expr(node: dict, frame) -> dict:
    """Resolve every fit-time node against the fitted *frame*.

    Returns a frozen tree safe to serialize; raises :class:`ExprError`
    when a statistic cannot be captured (fit then rejects the answer as
    not compilable, with the error as its reason).
    """
    op = node.get("op")
    if op in _FIT_FREEZERS:
        return _FIT_FREEZERS[op](node, frame)
    out = dict(node)
    for slot in _CHILD_SLOTS:
        child = out.get(slot)
        if isinstance(child, dict):
            out[slot] = freeze_expr(child, frame)
    return out


def fit_feature(template: dict, frame) -> tuple[dict, Series | dict[str, Series]]:
    """``(freeze_expr(template, frame), evaluate_feature(frozen, frame))``:
    fit's one evaluator, so what a plan serves is what fit installed.  A
    top-level ``fit_group_table`` reuses its freeze's grouping."""
    if template.get("op") == "fit_group_table":
        return _fit_group_table(template, frame)
    frozen = freeze_expr(template, frame)
    return frozen, evaluate_feature(frozen, frame)
