"""Vectorized numpy kernels backing the dataframe hot paths.

Every kernel here is a drop-in replacement for an element loop elsewhere in
the package and must stay value- and dtype-identical to the retained
reference implementations in :mod:`repro.dataframe.reference` — the
property suite in ``tests/dataframe/test_vectorized_equivalence.py``
enforces that, including NaN/None propagation.

Conventions shared with :mod:`repro.dataframe.series`:

* missing values are ``None``/``NaN`` (see :func:`is_missing_scalar`);
* integer codes use ``-1`` for missing, mirroring ``factorize``;
* classification of mixed Python values follows ``Series`` coercion rules
  (all-bool → ``bool``, numeric → ``int64``/``float64``, else ``object``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from operator import itemgetter
from typing import Any, NamedTuple

import numpy as np

__all__ = [
    "ColumnProfile",
    "PLAIN_STR",
    "STR_OR_NONE",
    "cell_types",
    "coerce_listlike",
    "coerce_typed",
    "coercion_kind",
    "column_profile",
    "dictionary_encode",
    "factorize_values",
    "gather_ids",
    "group_codes",
    "is_missing_scalar",
    "ISO_DATE_PARTS",
    "iso_date_fields",
    "match_coerce_float",
    "missing_mask",
    "segmented_agg",
    "segmented_sum_carry",
    "sorted_grouping",
    "take_uniques",
]


def match_coerce_float(values: np.ndarray) -> np.ndarray:
    """Mirror list coercion's all-missing rule for a float64 result.

    ``Series([...])`` turns a non-empty list with *no present values* into
    an ``object`` column of ``None`` — so a vectorized float64 result that
    came out all-NaN must downgrade the same way to stay dtype-identical
    with the element-loop paths.
    """
    if values.dtype.kind == "f" and len(values) and np.isnan(values).all():
        return np.full(len(values), None, dtype=object)
    return values

#: Segmented reductions :func:`segmented_agg` understands.
SEGMENTED_OPS = frozenset({"sum", "mean", "min", "max", "count", "size"})


def is_missing_scalar(value: Any) -> bool:
    """Return ``True`` when *value* is one of the recognised missing markers."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, np.floating) and np.isnan(value):
        return True
    return False


def missing_mask(values: np.ndarray) -> np.ndarray:
    """Vectorised missing-value mask covering both NaN and ``None``."""
    if values.dtype.kind == "f":
        return np.isnan(values)
    if values.dtype == object:
        return np.array([is_missing_scalar(v) for v in values], dtype=bool)
    return np.zeros(len(values), dtype=bool)


# ----------------------------------------------------------------------
# Single-pass list coercion
# ----------------------------------------------------------------------
def coercion_kind(
    any_object: bool,
    any_present: bool,
    all_bool: bool,
    any_float: bool,
    any_missing: bool,
    any_wide: bool,
) -> str:
    """Name the list-coercion kind of a column from its one-pass flags.

    The six kinds are ``"object"`` (any non-numeric, non-bool value),
    ``"empty"`` (no present values: an all-``None`` object array),
    ``"bool"``, ``"bool_missing"`` (booleans with missing values: the
    object ``None``/``bool`` path), ``"float"`` (numeric with any float or
    missing value) and ``"int"``.  An int column with a value outside
    int64 (*any_wide*) is ``"object"``, so its values stay exact Python
    ints; with a float or missing value it is ``"float"`` like any other
    int column, and an int past a float's range reads as ``±inf``.
    List coercion (:func:`_classify`) and the CSV codec
    (``io.scan_csv_kinds`` and schema-less shards) all decide through
    this one rule.
    """
    if any_object:
        return "object"
    if not any_present:
        return "empty"
    if all_bool:
        return "bool_missing" if any_missing else "bool"
    if any_float or any_missing:
        return "float"
    return "object" if any_wide else "int"


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_NONE_TYPE = type(None)

#: The cell-types summary of an all-plain-``str`` column: a column's
#: ``Series.cell_types`` is a subset of it exactly when every cell is a
#: ``str`` proper (``np.str_`` and other subclasses do not qualify).
PLAIN_STR = frozenset((str,))

#: The cell-types summary of a text column with missing cells (an empty
#: CSV cell decodes to ``None``): plain ``str`` and ``None`` only.
STR_OR_NONE = frozenset((str, _NONE_TYPE))


def _role(cell_type: type) -> str:
    """What a cell of *cell_type* is to list coercion, by ``isinstance``
    semantics: ``"none"``, ``"bool"``, ``"float"`` (a NaN is missing),
    ``"int"`` or ``"object"``."""
    if cell_type is _NONE_TYPE:
        return "none"
    if issubclass(cell_type, (bool, np.bool_)):
        return "bool"
    if issubclass(cell_type, (float, np.floating)):
        return "float"
    if issubclass(cell_type, (int, np.integer)):
        return "int"
    return "object"


def _classify(values: list, types: frozenset) -> tuple[str, np.ndarray | None]:
    """*values*' :func:`coercion_kind`, read off the roles of their
    distinct cell *types*.

    The roles settle the kind except for two facts about cells, each
    checked in one vectorized pass: whether a float cell is NaN, and
    whether an int cell lies outside int64.  The array built for that
    check comes back with the kind when it is the coerced result.
    """
    roles = set(map(_role, types))
    if "object" in roles:
        return "object", None
    if "float" not in roles:
        numeric = "int" in roles
        kind = coercion_kind(
            False, bool(roles - {"none"}), not numeric, False, "none" in roles, False
        )
        if kind != "int":
            return kind, None
        try:
            return kind, np.array(values, dtype=np.int64)
        except OverflowError:  # an int outside int64
            return "object", None
    if roles <= {"none", "float"}:
        array = np.array(values, dtype=np.float64)  # None reads as NaN
        missing = np.isnan(array)
        any_float = not missing.all()
        kind = coercion_kind(False, any_float, False, any_float, bool(missing.any()), False)
        return kind, array if kind == "float" else None
    # Floats among ints or bools: a float cell is present or missing, so
    # only an all-NaN set of floats beside bools keeps the bool kind.
    floats = {t for t in types if _role(t) == "float"}
    if "int" in roles or any(v == v for v in values if type(v) in floats):
        return "float", None
    return "bool_missing", None


def coerce_typed(
    values: list, kind: str | None = None
) -> tuple[np.ndarray, frozenset | None]:
    """Coerce a Python list into a 1-D array, and name its cell types.

    One C-level ``set(map(type, values))`` pass classifies the list
    (:func:`_classify`); the array is then built in one C-level call.
    An object result is always 1-D (a list of equal-length tuples stays
    a column of tuples).  *kind* (a :func:`coercion_kind` name) skips
    the classification and pins the result: the CSV decoder's per-cell
    fallback passes its column's kind, so that block decodes to the
    column's dtype.

    The types cover ``type(v)`` for every cell of an object result (a
    NaN cell is stored as ``None``, so a list holding floats adds
    ``NoneType``); they are ``None`` for a typed result, whose dtype
    names its cells' type.
    """
    types = frozenset(map(type, values))
    if kind is None:
        kind, built = _classify(values, types)
        if built is not None:
            return built, None
    if kind == "bool":
        return np.fromiter(map(bool, values), bool, len(values)), None
    if kind == "float":
        try:
            return np.array(values, dtype=np.float64), None
        except OverflowError:  # an int past a float's range
            return np.array([_as_float(v) for v in values], dtype=np.float64), None
    if kind == "int":
        return np.array(values, dtype=np.int64), None
    if kind == "bool_missing" and not types <= {bool, _NONE_TYPE}:
        values = [None if is_missing_scalar(v) else bool(v) for v in values]
        types = frozenset((bool, _NONE_TYPE))
    elif any(_role(t) == "float" for t in types):  # NaN cells become None
        values = [None if is_missing_scalar(v) else v for v in values]
        types |= {_NONE_TYPE}
    return np.fromiter(values, object, len(values)), types


def coerce_listlike(values: list, kind: str | None = None) -> np.ndarray:
    """:func:`coerce_typed`'s array alone."""
    return coerce_typed(values, kind)[0]


#: The Python type ``ndarray.tolist`` gives each cell of a typed array.
_TYPED_CELLS = {"f": float, "i": int, "u": int, "b": bool}


def cell_types(values: np.ndarray, items: list | None = None) -> frozenset:
    """``frozenset(map(type, values.tolist()))``: read off the dtype for a
    numeric or bool array, one C-level pass over the cells otherwise.
    *items*, ``values.tolist()`` when the caller has already built it,
    saves building it again."""
    typed = _TYPED_CELLS.get(values.dtype.kind)
    if typed is not None:
        return frozenset((typed,) if len(values) else ())
    return frozenset(map(type, values.tolist() if items is None else items))


def _as_float(value) -> float:
    """*value* as a float (``None`` as NaN); an int past a float's range
    is ``±inf``, as ``float(text)`` reads its text."""
    if value is None:
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# ----------------------------------------------------------------------
# Factorisation (np.unique fast path, dict fallback)
# ----------------------------------------------------------------------
def _factorize_loop(values: np.ndarray) -> tuple[np.ndarray, list]:
    """Hash-based factorisation: the semantics of dict insertion order."""
    uniques: list = []
    lookup: dict = {}
    codes = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        if is_missing_scalar(v):
            codes[i] = -1
            continue
        if isinstance(v, np.generic):
            v = v.item()
        if v not in lookup:
            lookup[v] = len(uniques)
            uniques.append(v)
        codes[i] = lookup[v]
    return codes, uniques


def _first_seen_renumber(
    inverse: np.ndarray, first_index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remap sorted-unique codes to first-occurrence order.

    ``inverse``/``first_index`` come from ``np.unique``; returns
    ``(codes, order)`` where ``order`` positions sorted uniques in
    first-seen order.
    """
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[inverse], order


def factorize_values(values: np.ndarray) -> tuple[np.ndarray, list]:
    """Factorise an array: ``(codes, uniques)`` with ``-1`` for missing and
    uniques in first-seen order, as Python scalars.

    Numeric/boolean/sortable-object arrays go through ``np.unique``;
    mixed-type object arrays (unorderable) fall back to the hash loop,
    which is also the semantics reference.  Columns of plain ``str``
    cells, with or without ``None`` cells, are encoded by
    :func:`dictionary_encode` instead.
    """
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64), []
    kind = values.dtype.kind
    if kind in "iub":
        uniq, first_index, inverse = np.unique(
            values, return_index=True, return_inverse=True
        )
        codes, order = _first_seen_renumber(inverse, first_index)
        return codes, [u.item() for u in uniq[order]]
    if kind == "f":
        mask = np.isnan(values)
        if mask.all():
            return np.full(n, -1, dtype=np.int64), []
        present = values[~mask]
        uniq, first_index, inverse = np.unique(
            present, return_index=True, return_inverse=True
        )
        sub_codes, order = _first_seen_renumber(inverse, first_index)
        codes = np.full(n, -1, dtype=np.int64)
        codes[~mask] = sub_codes
        return codes, [u.item() for u in uniq[order]]
    if values.dtype == object:
        try:
            mask = missing_mask(values)
            if mask.all():
                return np.full(n, -1, dtype=np.int64), []
            present = values[~mask]
            uniq, first_index, inverse = np.unique(
                present, return_index=True, return_inverse=True
            )
        except TypeError:  # unorderable mixed types
            return _factorize_loop(values)
        sub_codes, order = _first_seen_renumber(inverse, first_index)
        codes = np.full(n, -1, dtype=np.int64)
        codes[~mask] = sub_codes
        return codes, [
            u.item() if isinstance(u, np.generic) else u for u in uniq[order]
        ]
    return _factorize_loop(values)


def _dict_codes(items: list, none_missing: bool = False) -> tuple[np.ndarray, dict]:
    """``(codes, {key: code})`` under dict keying, codes in first-seen order.

    Keying is C-level dict hashing: equal cells share a code (``1``,
    ``1.0`` and ``True`` included), ``None`` is one key, a NaN object
    matches only itself, and the numbering never depends on the hash
    seed.  With *none_missing*, ``None`` is no key but maps to the
    missing code ``-1``, as the index's last entry.  Raises
    ``TypeError`` for an unhashable cell.
    """
    first_seen = dict.fromkeys(items)
    if none_missing:
        first_seen.pop(None, None)
    index = dict(zip(first_seen, range(len(first_seen))))
    if none_missing:
        index[None] = -1
    return gather_ids(index, items), index


def gather_ids(index: dict, items: list) -> np.ndarray:
    """``index[item]`` for every item, as int64, in one C-level
    ``operator.itemgetter`` call; ``KeyError`` when an item is absent."""
    if len(items) < 2:  # itemgetter of one key returns the bare id
        return np.array([index[item] for item in items], dtype=np.int64)
    return np.fromiter(itemgetter(*items)(index), np.int64, len(items))


def group_codes(values: np.ndarray) -> np.ndarray:
    """Codes grouping an object column exactly as a dict keyed on its cells.

    These are :meth:`repro.dataframe.series.Series.grouping`'s keys for
    object columns that are not all plain ``str``: unlike
    :func:`dictionary_encode`, missing cells get codes of their own
    (``None`` one group, each NaN object its own by identity).
    """
    return _dict_codes(values.tolist())[0]


def dictionary_encode(
    values: np.ndarray, types: frozenset | None = None, items: list | None = None
) -> tuple[np.ndarray, list, dict | None] | None:
    """Dictionary-encode a column: ``(codes, uniques, index)``.

    ``codes``/``uniques`` follow :func:`factorize_values` (first-seen
    order, ``-1`` for missing).  ``index`` is the ``{value: code}`` dict
    when every cell is a plain ``str`` (``type(v) is str``; ``str``
    subclasses such as ``np.str_`` do not qualify), else ``None``.  Such
    columns, and columns of plain ``str`` and ``None`` cells (whose
    ``None`` cells code ``-1``), are keyed by C-level dict hashing —
    exact equality, so ``"a"`` and ``"a\\x00"`` stay apart, and
    first-seen numbering never depends on the string hash seed.  Returns
    ``None`` when a cell is unhashable.  *types*, the column's known cell types
    (``Series.cell_types``), saves the pass that finds them; without
    them an object column finds them from the cell list it keys.
    *items*, ``values.tolist()`` when the caller has built it, saves
    building it again.
    """
    if values.dtype == object and (types is None or types <= STR_OR_NONE):
        if items is None:
            items = values.tolist()
        if types is None:
            types = cell_types(values, items)
        if types <= PLAIN_STR:
            codes, index = _dict_codes(items)
            return codes, list(index), index
        if types <= STR_OR_NONE:
            codes, index = _dict_codes(items, none_missing=True)
            return codes, list(index)[:-1], None
    try:
        codes, uniques = factorize_values(values)
        if values.dtype == object:
            for u in uniques:  # np.unique can sort cells it cannot hash
                hash(u)
    except TypeError:
        return None
    return codes, uniques, None


# ----------------------------------------------------------------------
# Column profile: the feature screens' and the agenda's one scan
# ----------------------------------------------------------------------
class ColumnProfile(NamedTuple):
    """What the feature screens and the agenda read off a column.

    * ``non_null`` — present values, as ``Series.count()``.
    * ``single_valued`` — exactly ``len(set(series.tolist())) <= 1``.  A
      set keeps every NaN float object apart, so each NaN counts as its
      own value: ``[5.0, nan, nan]`` is *not* single-valued, while
      ``[5.0, 5.0]`` and ``[0.0, -0.0]`` are.
    * ``uniques`` — the distinct present values in first-seen order, as
      ``Series.unique()``, or ``None`` once there are more than the cap.
    * ``binary`` — exactly ``set(series.unique()) <= {0, 1}``: every
      present value equals 0 or 1 (``0 == 0.0 == False``); vacuously true
      when nothing is present.

    All three value verdicts follow from the distinct present values
    when there are at most ``max(cap, 2)`` of them; past that the column
    is neither single-valued nor binary and lists no uniques.
    """

    non_null: int
    single_valued: bool
    uniques: list | None
    binary: bool


#: Leading rows the distinct-value probes read first; a column with more
#: distinct values than the cap nearly always shows it there, so it never
#: pays for a full sort or a full keying.
_PROBE_ROWS = 1024

_BINARY = frozenset((0, 1))


def column_profile(
    values: np.ndarray,
    cap: int,
    encoding: Callable[[], tuple | None] | None = None,
    types: frozenset | None = None,
) -> ColumnProfile:
    """Profile one column's backing array (see :class:`ColumnProfile`).

    Numeric and boolean arrays take one capped first-seen distinct probe
    (:func:`_numeric_uniques`, ``-0.0 == 0.0``, NaNs counted apart), and
    every verdict is read off its uniques.  *types* are the column's
    known cell types (``Series.cell_types``); without them an object
    column finds them from the cell list it profiles.  *encoding*, when
    given, is the column's ``Series.encoding``: an all-plain-``str``
    column whose leading rows hold at most *cap* distinct values is then
    profiled from that cached encoding, so the ops that later read it do
    not key the column again.  Other arrays keep exact Python set semantics in one
    pass that exits once the verdicts are settled and more than *cap*
    distinct values were seen, so high-cardinality text is never fully
    factorised; columns of plain ``str``/``int``/``bool``/``None`` cells
    run that pass as C-level dict keying.  Cells must be hashable, as the
    set semantics require (an unhashable cell raises ``TypeError``).
    """
    kind = values.dtype.kind
    if kind in "fiub":
        n_nan = int(np.count_nonzero(np.isnan(values))) if kind == "f" else 0
        present = values[~np.isnan(values)] if n_nan else values
        return _uniques_profile(
            len(present), _numeric_uniques(present, max(cap, 2)), cap, n_nan
        )
    if kind != "O":
        return _object_profile(values.tolist(), cap, None)
    items = None
    if types is None:
        items = values.tolist()
        types = cell_types(values, items)
    if (
        encoding is not None
        and types <= PLAIN_STR
        and len(dict.fromkeys(values[:_PROBE_ROWS].tolist())) <= cap
    ):
        return _uniques_profile(len(values), encoding()[1], cap)
    return _object_profile(values.tolist() if items is None else items, cap, types)


def _uniques_profile(
    non_null: int, uniques: list | None, cap: int, n_apart: int = 0
) -> ColumnProfile:
    """The profile of a column whose distinct present values are *uniques*
    (``None``: more than ``max(cap, 2)`` of them), plus *n_apart* set
    members among its missing cells (each float NaN, or one ``None``)."""
    if uniques is None:
        return ColumnProfile(non_null, False, None, False)
    return ColumnProfile(
        non_null=non_null,
        single_valued=len(uniques) + n_apart <= 1,
        uniques=list(uniques) if len(uniques) <= cap else None,
        binary=_BINARY.issuperset(uniques),
    )


def _numeric_uniques(present: np.ndarray, cap: int) -> list | None:
    """First-seen distinct values of a NaN-free numeric array as Python
    scalars, or ``None`` when there are more than *cap*.

    The leading rows are probed first; when every later value is among
    the probe's, the probe's first occurrences are the column's.  That
    membership test is one ``==`` pass per probed value (at most *cap*
    of them): ``np.isin`` would pick its table method for an int column
    and pay for the whole value range.
    """
    head = present[:_PROBE_ROWS]
    distinct, first = np.unique(head, return_index=True)
    if len(distinct) > cap:
        return None
    if len(head) < len(present) and not _all_among(present[len(head):], distinct):
        distinct, first = np.unique(present, return_index=True)
        if len(distinct) > cap:
            return None
    return present[np.sort(first)].tolist()


def _all_among(values: np.ndarray, distinct: np.ndarray) -> bool:
    """Whether every one of *values* equals one of the (few) *distinct*."""
    seen = values == distinct[0]
    for value in distinct[1:]:
        seen |= values == value
    return bool(seen.all())


#: Cell types whose equality with ``None`` is identity and that are never
#: NaN or numpy scalars: a C-level ``dict.fromkeys`` has the set
#: semantics for columns of these.
_PLAIN_CELLS = frozenset((str, int, bool, type(None)))


def _object_profile(items: list, cap: int, types: frozenset | None) -> ColumnProfile:
    """The exact set-semantics scan over an array's cells, *items*
    (``values.tolist()``): the *types* of an object array's cells, or
    ``None`` for any other array.

    ``ndarray.tolist`` unboxes numpy scalars of typed arrays but keeps
    object cells as stored, so numpy scalars in object cells are unboxed
    here, like ``Series.tolist`` does: an unboxed NaN is a fresh float,
    hence distinct from every other NaN, while one NaN object repeated
    is one set member.
    """
    if types is None:  # typed cells: nothing is missing
        non_null = len(items)
    elif types <= _PLAIN_CELLS:
        return _plain_profile(items, cap, _NONE_TYPE in types)
    else:
        non_null = len(items) - sum(map(is_missing_scalar, items))
    seen: set = set()  # set(series.tolist()), kept to two members
    present: dict = {}  # Series.unique(), kept to cap + 1 members
    binary = True
    for v in items:
        if isinstance(v, np.generic):
            v = v.item()
        if len(seen) < 2:
            seen.add(v)
        if v in present or is_missing_scalar(v):
            continue
        present[v] = None
        if binary and v not in _BINARY:
            binary = False
        if len(present) > cap and len(seen) > 1 and not binary:
            break
    return ColumnProfile(
        non_null=non_null,
        single_valued=len(seen) <= 1,
        uniques=list(present) if len(present) <= cap else None,
        binary=binary,
    )


def _plain_profile(items: list, cap: int, has_none: bool) -> ColumnProfile:
    """:func:`_object_profile` for cells of :data:`_PLAIN_CELLS` types.

    The leading rows settle every verdict once they hold more than
    ``max(cap, 2)`` distinct present values: the column is then neither
    single-valued nor binary (0 and 1 are the only binary keys) and has
    no listable uniques.  Otherwise the whole column is keyed.
    """
    distinct = dict.fromkeys(items[:_PROBE_ROWS])
    if len(distinct) - (None in distinct) <= max(cap, 2):
        distinct = dict.fromkeys(items)
    n_none = int(None in distinct)
    distinct.pop(None, None)
    return _uniques_profile(
        len(items) - (items.count(None) if has_none else 0), list(distinct), cap, n_none
    )


# ----------------------------------------------------------------------
# Code → value materialisation with Series coercion semantics
# ----------------------------------------------------------------------
def take_uniques(choices: Sequence[Any], codes: np.ndarray) -> np.ndarray:
    """Expand ``choices[codes]`` into an array, ``-1`` codes → missing.

    The output dtype matches what ``Series([...])`` coercion would produce
    for the fully expanded list; unused choices are dropped first so they
    cannot influence the dtype (exactly like the expanded-list path).
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = len(codes)
    choices = list(choices)
    seen = np.zeros(len(choices) + 1, dtype=bool)
    seen[codes] = True  # one O(n) pass; -1 codes land in the sentinel slot
    has_missing_codes = bool(seen[-1])
    used_list = np.flatnonzero(seen[:-1]).tolist()
    if len(used_list) != len(choices):
        remap = np.full(len(choices) + 1, -1, dtype=np.int64)
        for new, old in enumerate(used_list):
            remap[old] = new
        codes = remap[codes]  # -1 stays -1 via the sentinel slot
        choices = [choices[old] for old in used_list]
    choices += [None] * has_missing_codes
    kind, _ = _classify(choices, frozenset(map(type, choices)))
    if kind in ("empty", "bool_missing", "object"):
        lookup = np.empty(len(choices) + 1, dtype=object)
        for i, c in enumerate(choices):
            lookup[i] = None if is_missing_scalar(c) else c
        lookup[-1] = None
        return lookup[codes]
    # Only a float lookup can meet a -1 code: its None sentinel reads NaN.
    return coerce_listlike(choices, kind)[codes]


# ----------------------------------------------------------------------
# Segmented (sort-based) group reductions
# ----------------------------------------------------------------------
def _compact_int_keys(values: np.ndarray) -> np.ndarray:
    """Shift integer keys to zero and narrow the dtype.

    Numpy's stable integer argsort is a radix sort whose cost scales with
    the key width, so ``uint8``/``uint16`` keys sort several times faster
    than spread-out ``int64`` values.
    """
    if not len(values):
        return values
    lo, hi = values.min(), values.max()
    span = int(hi) - int(lo)  # Python ints: no int64 overflow
    if span < 2**8:
        return (values - lo).astype(np.uint8)
    if span < 2**16:
        return (values - lo).astype(np.uint16)
    if span < 2**32:
        return (values - lo).astype(np.uint32)
    return values


def sorted_grouping(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal values with ONE stable argsort.

    Returns ``(order, starts, inverse)``: ``order`` is a stable row
    permutation placing equal values contiguously, ``starts`` the segment
    offsets (one group per segment, ordered by sort key), and ``inverse``
    each row's segment id.  Float NaNs sort last and never equal one
    another, so each NaN row is a segment of its own — the grouping a
    dict keyed on the column's ``tolist()`` gives.  Object columns group
    through integer codes (:func:`dictionary_encode`,
    :func:`group_codes`), never through this sort directly.
    """
    n = len(values)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    kind = values.dtype.kind
    if kind == "b":
        keys = values.view(np.uint8)
    elif kind in "iu":
        keys = _compact_int_keys(values)
    else:
        keys = values
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    segment = np.cumsum(boundary) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = segment
    return order, starts, inverse


# ----------------------------------------------------------------------
# Serving replay kernels (plan hot path)
# ----------------------------------------------------------------------
#: The components :func:`iso_date_fields` returns, in order.
ISO_DATE_PARTS = ("year", "month", "day", "dayofweek")


def iso_date_fields(strings: Sequence[str]) -> tuple[np.ndarray, ...]:
    """Per-element date components of plain-``str`` ``YYYY-MM-DD`` dates.

    Returns ``(valid, year, month, day, dayofweek)``: ``valid[i]`` says
    whether ``strings[i]`` is a 10-character ASCII ISO date of the
    proleptic Gregorian calendar, and the int64 component arrays hold its
    parts (zeros where it is not).  One vectorized parse yields every
    component the date-split operator needs — versus one ``strptime``
    per element *per component* on the accessor path — and each element
    is judged on its own, so callers can parse a column's distinct values
    once and gather by code.  Both paths use the proleptic Gregorian
    calendar, so the components agree exactly; a caller whose column
    holds an invalid element must take the accessor path, which raises
    the same error fitting would have.
    """
    n = len(strings)
    valid = np.fromiter(map(len, strings), np.int64, n) == 10
    valid &= np.fromiter(map(str.isascii, strings), bool, n)
    rows = np.flatnonzero(valid)
    kept = strings if len(rows) == n else [strings[i] for i in rows.tolist()]
    mat = np.array(kept, dtype="S10").view(np.uint8).reshape(len(rows), 10)
    ok = (mat[:, 4] == ord("-")) & (mat[:, 7] == ord("-"))
    for pos in (0, 1, 2, 3, 5, 6, 8, 9):
        byte = mat[:, pos]
        ok &= (byte >= ord("0")) & (byte <= ord("9"))
    zero = np.int64(ord("0"))
    digit = lambda pos: mat[:, pos].astype(np.int64) - zero  # noqa: E731
    year = digit(0) * 1000 + digit(1) * 100 + digit(2) * 10 + digit(3)
    month = digit(5) * 10 + digit(6)
    day = digit(8) * 10 + digit(9)
    leap = ((year % 4 == 0) & (year % 100 != 0)) | (year % 400 == 0)
    month_ok = (month >= 1) & (month <= 12)
    month_lengths = np.array(
        [31, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int64
    )
    limit = month_lengths[np.where(month_ok, month, 0)] + (
        (month == 2) & leap
    )
    ok &= month_ok & (day >= 1) & (day <= limit)
    # Days since 1970-01-01 by the civil-calendar formula (shifted March
    # years), all integer ufuncs — no per-element parse.
    shifted = year - (month <= 2)
    era = shifted // 400
    year_of_era = shifted - era * 400
    month_shifted = np.where(month > 2, month - 3, month + 9)
    day_of_year = (153 * month_shifted + 2) // 5 + day - 1
    day_of_era = (
        year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    )
    day_idx = era * 146097 + day_of_era - 719468
    # 1970-01-01 was a Thursday; Monday == 0 like datetime.weekday().
    fields = (year, month, day, (day_idx + 3) % 7)
    if len(rows) == n and ok.all():
        return (ok, *fields)
    valid[rows] = ok
    out = [valid]
    for part in fields:
        full = np.zeros(n, dtype=np.int64)
        full[rows[ok]] = part[ok]
        out.append(full)
    return tuple(out)


def segmented_agg(
    op: str, values: np.ndarray, order: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-group reduction over float64 *values* pre-sorted by *order*.

    NaN handling matches the ``Series`` reductions: ``sum`` skips NaN
    (all-NaN group → 0.0), ``mean`` skips NaN (all-NaN → NaN), ``min``/
    ``max`` skip NaN (all-NaN → NaN), ``count`` counts non-NaN, ``size``
    counts rows.  Returns float64 except ``count``/``size`` (int64).
    """
    n = len(order)
    n_groups = len(starts)
    if n_groups == 0:
        return np.empty(0, dtype=np.int64 if op in ("count", "size") else np.float64)
    if op == "size":
        return np.diff(np.append(starts, n)).astype(np.int64)
    sorted_vals = values[order]
    present = ~np.isnan(sorted_vals)
    if op == "count":
        return np.add.reduceat(present.astype(np.int64), starts)
    if op == "sum":
        return np.add.reduceat(np.where(present, sorted_vals, 0.0), starts)
    if op == "mean":
        sums = np.add.reduceat(np.where(present, sorted_vals, 0.0), starts)
        counts = np.add.reduceat(present.astype(np.float64), starts)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = sums / counts
        out[counts == 0] = np.nan
        return out
    if op == "min":
        return np.fmin.reduceat(sorted_vals, starts)
    if op == "max":
        return np.fmax.reduceat(sorted_vals, starts)
    raise ValueError(f"unknown segmented op {op!r}; expected one of {sorted(SEGMENTED_OPS)}")


def segmented_sum_carry(
    values: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    carry: np.ndarray,
) -> np.ndarray:
    """Continue per-group sequential-fold sums across shards.

    The out-of-core sum is defined as the **strict left fold** of each
    group's values in stream (row) order: ``acc = ((0.0 + v0) + v1) + …``.
    That definition is what makes it streamable — any shard boundary
    splits the fold between two additions, so resuming from the carried
    accumulator reproduces the identical bit pattern no matter how the
    table is chunked (one shard or one row per shard).  Note the one-shot
    in-memory kernel (:func:`segmented_agg`, via ``np.add.reduceat``)
    uses numpy's *pairwise* summation, a different association: the two
    agree to within float64 round-off (a few ulps, growing slowly with
    group size), not bitwise — the chunking-invariance contract here is
    against the fold itself.

    Implementation: each segment of the (NaN-masked, sort-ordered) values
    is seeded with its carry, and ``np.add.accumulate`` — which is
    inherently sequential, unlike ``reduce``/``reduceat`` — folds it.

    Two-pass merge rules (the out-of-core aggregation contract):

    * ``sum`` — carried sequential fold (this function); NaN folds as 0.0.
    * ``count``/``size`` — integer partials add exactly.
    * ``min``/``max`` — ``fmin``/``fmax`` partials merge associatively
      (NaN is the identity, so the all-NaN group stays NaN); these are
      bit-exact against the one-shot kernel.
    * ``mean`` — never merged directly: derived at finalize time as
      ``merged_sum / merged_count`` in float64 (the mean-from-sums rule),
      so it inherits the sum's chunking invariance.
    * ``first``/``last`` — first occurrence keeps, later occurrences
      overwrite; values are positional, NaN included; bit-exact.

    *carry* holds one running accumulator per segment of *starts* (in
    sort-segment order); the return value is the updated accumulator per
    segment, same order.
    """
    n_groups = len(starts)
    if n_groups == 0:
        return np.empty(0, dtype=np.float64)
    sorted_vals = values[order]
    masked = np.where(np.isnan(sorted_vals), 0.0, sorted_vals)
    seeded = np.insert(masked, starts, carry)
    seeded_starts = starts + np.arange(n_groups, dtype=np.int64)
    seeded_ends = np.append(seeded_starts[1:], len(seeded))
    out = np.empty(n_groups, dtype=np.float64)
    for g in range(n_groups):
        out[g] = np.add.accumulate(seeded[seeded_starts[g]:seeded_ends[g]])[-1]
    return out
