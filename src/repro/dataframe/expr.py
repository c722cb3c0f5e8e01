"""The serving IR: one op table, the kernels it names, and the source
forms the lifter accepts.

A SMARTFEAT run's FM answers are ``def transform(df)`` sources.  The
lifter (:mod:`repro.dataframe.lift`) turns each into JSON-safe expression
nodes that evaluate through the same Series/kernel operations the source
would have hit; fit freezes and evaluates those nodes
(:func:`fit_feature`) instead of executing the source, and the plan
serves the same frozen nodes, so replay is value- and dtype-identical to
``fit_transform``'s frame by construction.

Each op and each source form is declared once, here:

* :data:`OPS` maps an op name to its :class:`Op`: the node's fields
  (with the JSON kind of each name or list field) and child slots, the
  columns it reads, and either a serve kernel or a fit-time freeze.
  **Frozen** ops (``col``/``add``/``cut``/``dict_map``/
  ``group_lookup`` …) have a kernel: they are pure data — column
  references, constants, frozen fit-time statistics — and are what a
  plan holds.  **Fit** ops (``fit_mean``/``fit_qcut``/``fit_group_table``
  …) have a freeze: they stand for statistics the source recomputes per
  call, exist only in lifted templates, and :func:`freeze_expr` resolves
  each into a frozen node.  Every function below that walks a tree reads
  this table; no other module branches on an op name.
* :data:`SOURCE_FORMS` maps a (receiver kind, method) call to the
  builder of the node or :class:`Ref` it lifts to.  A builder's
  parameters are the pandas-facade method's, so its signature, built
  once at import, binds a call's arguments (and words a bad call's
  error) as the sandbox would.

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

* each string column (plain ``str`` cells, and ``None`` for an empty
  CSV cell) costs one C-level lookup of its cells, however many features
  read it, and only the values the dictionary has not seen are added;
  the codes are kept on the Series, so serving the same Series again
  skips the lookup;
* ``str_len``, ``date_split``, ``split_parts``, ``dict_map`` and the
  ``group_lookup`` key ids are computed once per distinct value over the
  plan's lifetime and gathered by code, a ``None`` cell's ``-1`` code
  reading what the per-row path gives a missing cell (:func:`_gathered`,
  and ``take_uniques`` for ``dict_map``); ``dummies`` compares codes
  with each category's id;
* any other column (NaN, ``np.str_`` or numbers among its cells), and
  any batch bringing new values to a full dictionary, is encoded per
  batch through :meth:`Series.encoding` into a throwaway dictionary and
  pays per distinct value of the batch, as every column does when
  :func:`evaluate_feature` is called without a plan's lookup (fit,
  tests) — there is one op code path.

Every per-entry result is a function of one value, and validity (an ISO
date, a NUL-free split) is judged over the entries a batch holds, so a
batch's output never depends on what the plan served before.
``group_lookup`` maps key ids onto a table compiled once per node
(:class:`_GroupTable`).
"""

from __future__ import annotations

import inspect
import operator
import threading
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from itertools import chain, repeat
from typing import Any, Callable

import numpy as np

from repro.dataframe import kernels as _kernels
from repro.dataframe import reshape as _reshape
from repro.dataframe import dictionary as _dictionary
from repro.dataframe.dictionary import ColumnDictionaries
from repro.dataframe.series import Series, _parse_datetime

__all__ = [
    "OPS",
    "SOURCE_FORMS",
    "ExprError",
    "Unliftable",
    "evaluate_feature",
    "expr_columns",
    "fit_feature",
    "freeze_expr",
    "group_tables",
    "is_frozen",
    "refreeze_group_table",
    "validate_expr",
    "vocabularies",
]


class ExprError(Exception):
    """A transform expression cannot be frozen, validated, or evaluated."""


#: Unary ufuncs a frozen expression may apply.  Evaluation passes the
#: ufunc object itself to ``Series.apply`` — the same call shape the
#: generated ``.apply(np.log)`` source makes, so domain violations
#: (``log`` of a negative) produce the identical NaN/warning behaviour.
_UFUNCS: dict[str, np.ufunc] = {
    name: getattr(np, name) for name in ("log", "log1p", "log2", "log10", "exp", "sqrt", "abs")
}


# ----------------------------------------------------------------------
# Validation / inspection
# ----------------------------------------------------------------------
def _op(node: dict) -> "Op":
    op = node.get("op")
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ExprError(f"unknown expression op {op!r}")
    return spec


#: The JSON name of each declared field kind (see :class:`Op`).
_JSON_KINDS = {str: "string", list: "list"}


def _walk(node: dict):
    yield node
    for slot in _op(node).children:
        yield from _walk(node[slot])


def validate_expr(node: Any) -> None:
    """Raise :class:`ExprError` unless *node* is a well-formed frozen tree:
    known frozen ops only, each node holding its op's declared fields, a
    name or list field of its declared JSON kind, and an expression node
    in each child slot."""
    if not isinstance(node, dict) or "op" not in node:
        raise ExprError(f"expression node must be a dict with an 'op' key, got {node!r}")
    spec, op = _op(node), node["op"]
    if spec.freeze is not None:
        raise ExprError(
            f"expression contains unfrozen fit-time node {op!r}; "
            f"plans must be frozen with freeze_expr() before serialization"
        )
    for field in (*spec.fields, *spec.children):
        if field not in node:
            raise ExprError(f"{op!r} node lacks its {field!r} field")
    for field, kind in spec.fields.items():
        if kind is not None and not isinstance(node[field], kind):
            raise ExprError(
                f"{op!r} node's {field!r} field must be a {_JSON_KINDS[kind]}, "
                f"got {node[field]!r}"
            )
    for slot in spec.children:
        child = node[slot]
        if not isinstance(child, dict) or "op" not in child:
            raise ExprError(f"{op!r} node's {slot!r} field is not an expression node: {child!r}")
        validate_expr(child)


def is_frozen(node: dict) -> bool:
    """True when no fit-time node remains anywhere in the tree."""
    return all(_op(sub).freeze is None for sub in _walk(node))


def expr_columns(node: dict) -> list[str]:
    """Input columns the expression reads, in first-reference order."""
    seen: dict[str, None] = {}
    for sub in _walk(node):
        for field in _op(sub).reads:
            value = sub.get(field, [])
            seen.update(dict.fromkeys(value if isinstance(value, list) else [value]))
    return list(seen)


def vocabularies(node: dict) -> list[tuple[str, list]]:
    """``(input column, values seen at fit)`` per category vocabulary."""
    return [pair for sub in _walk(node) for pair in _op(sub).vocabulary(sub)]


def group_tables(node: dict) -> list[dict]:
    """The tree's ``group_lookup`` nodes, for :func:`refreeze_group_table`."""
    return [sub for sub in _walk(node) if sub["op"] == "group_lookup"]


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


def _gathered(entries: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``entries[codes]``, a ``-1`` code reading a missing cell as list
    coercion stores it: NaN in a float64 copy of int entries, ``None`` in
    object ones, and an object column of ``None`` when no code is
    present (an empty batch too) — what the per-row path builds from a
    ``None`` per missing cell."""
    if len(codes) and codes.min() >= 0:
        return entries[codes]
    missing = codes < 0
    if missing.all():
        return np.full(len(codes), None, dtype=object)
    out = entries[codes]
    if out.dtype != object:
        out = out.astype(np.float64)
    out[missing] = None if out.dtype == object else np.nan
    return out


def _present(valid: np.ndarray, codes: np.ndarray) -> bool:
    """Whether every present cell's entry is *valid* (``-1`` codes read
    the appended ``True``)."""
    return bool(np.append(valid, True)[codes].all())


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


def _evaluate(node: dict, frame, dictionaries, yields: tuple = ("column",)) -> Any:
    """Run *node*'s kernel; its op must yield one of *yields*."""
    spec = _op(node)
    if spec.kernel is None:
        raise ExprError(f"unknown expression op {node['op']!r}")
    if spec.yields not in yields:
        raise ExprError(
            f"multi-output op {node['op']!r} must be evaluated via evaluate_feature()"
            if spec.yields == "columns"
            else "a bare constant is not a column expression"
        )
    return spec.kernel(node, frame, dictionaries)


def _operand(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Any:
    """Evaluate an arithmetic operand: ``const`` → scalar, else Series.

    Scalar constants must stay plain Python numbers so the Series
    arithmetic takes the same scalar-broadcast path the generated source
    took with its literal/computed statistics.
    """
    return _evaluate(node, frame, dictionaries, ("column", "scalar"))


def _arith(fn: Callable) -> Callable:
    return lambda n, f, d: fn(_operand(n["left"], f, d), _operand(n["right"], f, d))


def _arg(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    return _evaluate(node["arg"], frame, dictionaries)


def _eval_ufunc(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    if node["fn"] not in _UFUNCS:
        raise ExprError(f"unknown ufunc {node['fn']!r}")
    return _arg(node, frame, dictionaries).apply(_UFUNCS[node["fn"]])


def _eval_cut(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    return _reshape.cut(
        _col(frame, node["column"]),
        list(node["edges"]),
        labels=list(node["labels"]) if node.get("labels") is not None else None,
        right=node.get("right", True),
    )


def _eval_str_len(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    series = _col(frame, node["column"])
    encoded = _dictionary.strings(dictionaries, node["column"], series)
    if encoded is None:
        return series.str.len()
    codes, dictionary = encoded
    (lengths,) = dictionary.derive("str_len", None, _str_lengths)
    return Series._from_array(_gathered(lengths, codes), series.name)


def _eval_qcut_collapsed(node: dict, frame, dictionaries: ColumnDictionaries | None) -> Series:
    """Replay of degenerate ``qcut`` fits (all edges tied, or no data).

    Mirrors ``Series([0 if not isnan(v) else None])`` — present values
    collapse into the single bin, missing stays missing, and the
    all-missing case coerces to an object column of ``None``.
    """
    series = _col(frame, node["column"])
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
        scanned for it only when the table has such a key and the
        column's cell types include ``None``.
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
        if (
            none_id is not None
            and series.dtype == object
            and type(None) in series.cell_types()
        ):
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
        if len(codes) and _present(valid, codes):
            parts = dict(zip(_kernels.ISO_DATE_PARTS, fields))
            return {
                name: Series._from_array(_gathered(parts[part], codes), name)
                for part, name in outputs
            }
    return _date_split_by_accessor(series, outputs, dictionaries is not None)


def _date_split_by_accessor(
    series: Series, outputs: list, serving: bool = False
) -> dict[str, Series]:
    """The per-row ``Series.dt`` path.  Without a plan's dictionaries
    (fit) a cell that is not a date raises, as the fitted transform did;
    a plan serves it as missing, as it serves an unseen group key."""
    if serving:
        series = Series([_date_or_none(v) for v in series.tolist()], series.name)
    accessor = series.dt
    return {name: getattr(accessor, part).rename(name) for part, name in outputs}


def _date_or_none(value: Any):
    try:
        return _parse_datetime(value)
    except ValueError:
        return None


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
        if len(codes) and _present(valid, codes):
            return {
                name: Series._from_array(_gathered(column, codes), name)
                for name, column in zip(names, parts)
            }
    return _split_parts_by_row(series, sep, names)


def _split_parts_by_row(series: Series, sep: str, names: list) -> dict[str, Series]:
    """The per-row ``str.split`` loop, for columns that are not string
    columns or that hold a NUL."""
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
    return _evaluate(node, frame, dictionaries, ("column", "columns"))


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


#: Key cell types that are never NaN and never need unboxing.
_PLAIN_KEYS = frozenset({str, int, bool, type(None)})


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
    single = len(node["keys"]) == 1
    values = _unboxed(per)
    if set(map(type, labels if single else chain.from_iterable(labels))) <= _PLAIN_KEYS:
        # No key can be NaN or needs unboxing: every group gets its row.
        pairs = zip(labels, values)
        node["table"] = list(map(list, pairs)) if single else [[*k, v] for k, v in pairs]
        return [True] * len(labels)
    parts = [[label] for label in labels] if single else labels
    kept = [not any(p != p and _kernels.is_missing_scalar(p) for p in key) for key in parts]
    node["table"] = [
        [*map(_unbox, key), value]
        for key, value, keep in zip(parts, values, kept)
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


def _freeze_stat(name: str) -> Callable:
    """``fit_mean`` → ``Series.mean()`` of the column, and so on."""
    return lambda node, frame: _const(getattr(frame[node["column"]], name)())


def _freeze_or(node: dict, frame) -> dict:
    """``left or right`` over fit-time scalars (``col.std() or 1.0``)."""
    left = _operand(freeze_expr(node["left"], frame), frame, None)
    return _const(left or _operand(freeze_expr(node["right"], frame), frame, None))


def freeze_expr(node: dict, frame) -> dict:
    """Resolve every fit-time node against the fitted *frame*.

    Returns a frozen tree safe to serialize; raises :class:`ExprError`
    when a statistic cannot be captured (fit then rejects the answer as
    not compilable, with the error as its reason).
    """
    spec = _op(node)
    if spec.freeze is not None:
        return spec.freeze(node, frame)
    out = dict(node)
    for slot in spec.children:
        out[slot] = freeze_expr(node[slot], frame)
    return out


def fit_feature(template: dict, frame) -> tuple[dict, Series | dict[str, Series]]:
    """``(freeze_expr(template, frame), evaluate_feature(frozen, frame))``:
    fit's one evaluator, so what a plan serves is what fit installed.  A
    top-level op with a ``fit`` (``fit_group_table``) freezes and
    evaluates in one pass."""
    fit = _op(template).fit
    if fit is not None:
        return fit(template, frame)
    frozen = freeze_expr(template, frame)
    return frozen, evaluate_feature(frozen, frame)


# ----------------------------------------------------------------------
# The op table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One IR op of :data:`OPS`."""

    #: Every node holds these fields, each of its JSON kind: ``str`` (a
    #: name), ``list`` (an array) or ``None`` (any value) ...
    fields: dict[str, type | None] = dataclass_field(default_factory=dict)
    children: tuple[str, ...] = ()  # ... and these child expressions
    reads: tuple[str, ...] = ("column",)  # fields naming the columns read
    kernel: Callable | None = None  # frozen op: (node, frame, dictionaries)
    freeze: Callable | None = None  # fit op: (node, frame) -> frozen node
    fit: Callable | None = None  # fit op: (node, frame) -> (frozen, outputs)
    yields: str = "column"  # a Series, "columns" ({name: Series}) or "scalar"
    vocabulary: Callable = lambda node: ()  # -> [(column, category values)]


def _listed(field: str) -> Callable:
    """The vocabulary of a node listing its column's values in *field*."""
    return lambda n: [(n["column"], n[field])]


#: Every IR op, by name.  Optional fields (``clip``'s bounds, ``cut``'s
#: ``labels``/``right``, ``group_lookup``'s ``agg_col``/``fill``) are
#: read with defaults.
OPS: dict[str, Op] = {
    # Frozen ops: what a plan holds.
    "col": Op({"name": str}, reads=("name",), kernel=lambda n, f, d: _col(f, n["name"])),
    "const": Op({"value": None}, yields="scalar", kernel=lambda n, f, d: n["value"]),
    "add": Op(children=("left", "right"), kernel=_arith(operator.add)),
    "sub": Op(children=("left", "right"), kernel=_arith(operator.sub)),
    "mul": Op(children=("left", "right"), kernel=_arith(operator.mul)),
    "div": Op(children=("left", "right"), kernel=_arith(operator.truediv)),
    "pow": Op(children=("left", "right"), kernel=_arith(operator.pow)),
    "clip": Op(
        children=("arg",), kernel=lambda n, f, d: _arg(n, f, d).clip(n.get("lower"), n.get("upper"))
    ),
    "ufunc": Op({"fn": str}, ("arg",), kernel=_eval_ufunc),
    "where_nonzero": Op(
        children=("arg",), kernel=lambda n, f, d: (a := _arg(n, f, d)).where(a != 0)
    ),
    "isna_int": Op({"column": str}, kernel=lambda n, f, d: _col(f, n["column"]).isna().astype(int)),
    "cut": Op({"column": str, "edges": list}, kernel=_eval_cut),
    "qcut_collapsed": Op({"column": str}, kernel=_eval_qcut_collapsed),
    "dict_map": Op(
        {"column": str, "keys": list, "values": list},
        kernel=_eval_dict_map,
        vocabulary=_listed("keys"),
    ),
    "fillna": Op(
        {"value": None}, ("arg",), kernel=lambda n, f, d: _arg(n, f, d).fillna(n["value"])
    ),
    "str_len": Op({"column": str}, kernel=_eval_str_len),
    "date_split": Op({"column": str, "outputs": list}, kernel=_eval_date_split, yields="columns"),
    "dummies": Op(
        {"column": str, "categories": list, "names": list},
        kernel=_eval_dummies,
        yields="columns",
        vocabulary=_listed("categories"),
    ),
    "split_parts": Op(
        {"column": str, "sep": str, "outputs": list},
        kernel=_eval_split_parts,
        yields="columns",
    ),
    "group_lookup": Op(
        {"keys": list, "agg": str, "table": list, "value_kind": str},
        reads=("keys", "agg_col"),
        kernel=_eval_group_lookup,
        vocabulary=lambda n: [
            (key, [row[j] for row in n["table"]]) for j, key in enumerate(n["keys"])
        ],
    ),
    # Fit ops: lifted templates only.
    **{
        f"fit_{s}": Op({"column": str}, freeze=_freeze_stat(s))
        for s in ("mean", "std", "min", "max")
    },
    "fit_or": Op(children=("left", "right"), freeze=_freeze_or),
    "fit_qcut": Op({"column": str, "q": None, "labels": None}, freeze=_freeze_qcut),
    "fit_categories": Op({"column": str, "prefix": str}, freeze=_freeze_categories),
    "fit_group_table": Op(
        {"keys": list, "agg_col": None, "agg": str},
        reads=("keys", "agg_col"),
        freeze=lambda n, f: _group_table(n, f)[0],
        fit=_fit_group_table,
    ),
    "fit_split_outputs": Op(
        {"column": str, "sep": str, "rename": None}, freeze=_freeze_split_outputs
    ),
}


# ----------------------------------------------------------------------
# Lift-time values and the source forms
# ----------------------------------------------------------------------
class Unliftable(Exception):
    """The source steps outside the lifted subset; the message says where."""


@dataclass(frozen=True)
class Lit:
    """A value known at lift time: a literal, or a builtin over literals."""

    value: Any


@dataclass(frozen=True)
class Ref:
    """A lift-time value that is neither a literal nor a column expression:
    the frame, a module, an accessor, a group-by, a split, a mask …"""

    kind: str
    args: tuple = ()


def is_ref(value: Any, kind: str) -> bool:
    return isinstance(value, Ref) and value.kind == kind


def literal(value: Any, *types: type) -> Any:
    """The literal *value* holds, optionally restricted to exact *types*."""
    if not isinstance(value, Lit) or (types and type(value.value) not in types):
        raise Unliftable("expected a literal")
    return value.value


def column_name(value: Any) -> str:
    """The column a plain ``df[c]`` reference names."""
    if not (isinstance(value, dict) and value["op"] == "col"):
        raise Unliftable("expected a plain column reference")
    return value["name"]


JSON_SCALARS = (str, int, float, bool)
_NUMBER = (int, float)
_OPTIONAL_LIST = (list, tuple, type(None))
_OPTIONAL_NUMBER = (int, float, type(None))

#: The ``Series.dt`` date parts a source may read.
DATE_PARTS = frozenset({"year", "month", "day", "dayofweek", "quarter", "dayofyear"})


# A builder takes the facade method's parameters (``self``: the receiver)
# and returns the node or Ref the call lifts to, or None if unsupported.
def _cut(series, bins, labels=None, right=True):
    edges, labels = literal(bins, list, tuple), literal(labels, *_OPTIONAL_LIST)
    if all(type(e) in _NUMBER for e in edges):
        return {
            "op": "cut",
            "column": column_name(series),
            "edges": [float(e) for e in edges],
            "labels": None if labels is None else list(labels),
            "right": literal(right, bool),
        }


def _get_dummies(data, columns=None, prefix=None, drop_first=False):
    if (columns, drop_first) == (Lit(None), Lit(False)):
        column, prefix = column_name(data), literal(prefix, str, type(None))
        prefix = column if prefix is None else prefix
        return {"op": "fit_categories", "column": column, "prefix": prefix}


def _frame(data=None, columns=None):
    """``pd.DataFrame({})``, or a frame of one column's date parts."""
    if data == Lit({}):
        return Ref("empty_frame")
    items = data.args if is_ref(data, "columns") else ()
    parts = [v.args for _, v in items if is_ref(v, "date_part")]
    if items and len(parts) == len(items) and len({column for column, _ in parts}) == 1:
        outputs = [[part, name] for (_, part), (name, _) in zip(parts, items)]
        return {"op": "date_split", "column": parts[0][0], "outputs": outputs}


def _groupby(self, by):
    keys = literal(by, str, list, tuple)
    return Ref("groupby", ([keys] if isinstance(keys, str) else list(keys),))


def _map(self, mapper):
    mapping = literal(mapper, dict)
    if all(isinstance(key, JSON_SCALARS) for key in mapping):
        keys, values = list(mapping), list(mapping.values())
        return {"op": "dict_map", "column": column_name(self), "keys": keys, "values": values}


#: ``(receiver kind, method)`` → ``(signature, builder)`` of every call the
#: lifter accepts.  Kinds: ``pd`` (the facade module), ``frame``/``split``
#: (DataFrame), ``grouped`` (SeriesGroupBy), ``series``/``isna`` (Series),
#: ``str`` (StringAccessor).
SOURCE_FORMS: dict[tuple[str, str], tuple[inspect.Signature, Callable]] = {
    key: (inspect.signature(build), build)
    for key, build in {
        ("pd", "cut"): _cut,
        ("pd", "qcut"): lambda series, q, labels=None: {
            "op": "fit_qcut",
            "column": column_name(series),
            "q": literal(q, int),
            "labels": literal(labels, *_OPTIONAL_LIST),
        },
        ("pd", "get_dummies"): _get_dummies,
        ("pd", "DataFrame"): _frame,
        ("frame", "groupby"): _groupby,
        ("grouped", "transform"): lambda self, func: {
            "op": "fit_group_table",
            "keys": self.args[0],
            "agg_col": self.args[1],
            "agg": literal(func, str),
        },
        ("series", "clip"): lambda self, lower=None, upper=None: {
            "op": "clip",
            "arg": self,
            "lower": literal(lower, *_OPTIONAL_NUMBER),
            "upper": literal(upper, *_OPTIONAL_NUMBER),
        },
        ("series", "apply"): lambda self, func: (
            {"op": "ufunc", "fn": func.args[0], "arg": self} if is_ref(func, "ufunc") else None
        ),
        ("series", "where"): lambda self, cond, other=None: (
            {"op": "where_nonzero", "arg": self}
            if (cond, other) == (Ref("nonzero", (self,)), Lit(None))
            else None
        ),
        ("series", "isna"): lambda self: Ref("isna", (column_name(self),)),
        ("series", "isnull"): lambda self: Ref("isna", (column_name(self),)),
        ("isna", "astype"): lambda self, dtype: (
            {"op": "isna_int", "column": self.args[0]} if dtype == Lit(int) else None
        ),
        ("series", "map"): _map,
        ("series", "fillna"): lambda self, value: (
            {"op": "fillna", "arg": self, "value": literal(value)}
        ),
        ("series", "mean"): lambda self: {"op": "fit_mean", "column": column_name(self)},
        ("series", "min"): lambda self: {"op": "fit_min", "column": column_name(self)},
        ("series", "max"): lambda self: {"op": "fit_max", "column": column_name(self)},
        ("series", "std"): lambda self, ddof=1: (
            {"op": "fit_std", "column": column_name(self)} if ddof == Lit(1) else None
        ),
        ("str", "len"): lambda self: {"op": "str_len", "column": self.args[0]},
        ("str", "split"): lambda self, sep, expand=False: (
            Ref("split", (self.args[0], literal(sep, str), {})) if expand == Lit(True) else None
        ),
        ("split", "rename"): lambda self, columns: (
            None if self.args[2] else Ref("split", (*self.args[:2], literal(columns, dict)))
        ),
    }.items()
}
