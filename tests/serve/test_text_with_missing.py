"""Text columns with missing cells on the column-dictionary path.

A CSV empty cell decodes to ``None``, so a text column with any empty
cell holds plain ``str`` and ``None`` cells.  Such a column resolves
against the plan's column dictionaries as an all-``str`` column does,
``None`` coding ``-1``.  The contract under test: for every string op,
and for ``group_lookup`` keys, the plan path equals the per-row path in
values and dtype — with no dictionaries, with fresh, warm and full ones,
and whether or not the column already knows its cell types.  One
difference is by design: a date that does not parse raises on the
per-row path (as at fit), but a plan, which serves through its
dictionaries, reads it as a missing cell.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, dictionary
from repro.dataframe.dictionary import ColumnDictionaries
from repro.dataframe.expr import evaluate_feature
from repro.dataframe.kernels import STR_OR_NONE
from repro.serve import frames_identical

#: Cells a text column may hold: an empty string, separators, NULs,
#: valid, invalid and non-ISO dates, and a value with no separator.
POOL = [
    "",
    "a,b",
    " x , y ,z",
    "only",
    "a\x00,b",
    "\x00",
    "Zürich",
    "2020-01-01",
    "2020-02-29",
    "1999-12-31",
    "2021-02-29",
    "2020/01/01",
    "20200101xx",
]

cells_strategy = st.one_of(
    st.lists(st.none(), max_size=6),
    st.lists(st.one_of(st.none(), st.sampled_from(POOL)), max_size=40),
    st.lists(st.one_of(st.none(), st.text(alphabet="ab,-\x001 ", max_size=4)), max_size=40),
)

#: How the plan's dictionary for the column stands before the batch.
STATES = ("none", "fresh", "warm", "full")


def column(cells: list, known: bool) -> Series:
    """An object column holding *cells* exactly; *known* gives it the
    cell-types summary the CSV decoder gives a text block."""
    arr = np.empty(len(cells), dtype=object)
    arr[:] = cells
    return Series._from_array(arr, "t", STR_OR_NONE if known else None)


def dictionaries_for(state: str, cells: list) -> ColumnDictionaries | None:
    if state == "none":
        return None
    held = ColumnDictionaries()
    seen = []
    if state == "warm":  # some of the batch's values, and others, seen before
        seen = [c for c in cells[::2] if c is not None] + ["warm-only", None]
    if state == "full":
        seen = [f"fill-{i}" for i in range(dictionary.MAX_ENTRIES)]
    if seen:
        frame = DataFrame({"t": column(seen, state == "full")})
        evaluate_feature({"op": "str_len", "column": "t"}, frame, held)
    return held


def per_row(values: list, name: str = "x") -> Series:
    """A missing cell as ``None``, then Series list coercion: what each
    per-row path builds."""
    return Series(values, name)


def outputs(result) -> DataFrame:
    if isinstance(result, dict):
        return DataFrame(dict(result))
    return DataFrame({"x": result.rename("x")})


def assert_same(got, want) -> None:
    identical, detail = frames_identical(outputs(got), outputs(want))
    assert identical, detail


def parses_as_date(cell) -> bool:
    try:
        column([cell], False).dt.year
    except ValueError:
        return False
    return True


def reference(node: dict, cells: list, serving: bool = False):
    """The per-row answer for *node* over *cells*, or the exception type
    the per-row path raises; *serving* reads each date that does not
    parse as a missing cell, as a plan does."""
    op = node["op"]
    if op == "str_len":
        return per_row([None if c is None else len(c) for c in cells])
    if op == "split_parts":
        parts = {name: [] for name in node["outputs"]}
        for c in cells:
            pieces = None if c is None else c.split(node["sep"])
            for i, name in enumerate(node["outputs"]):
                present = pieces is not None and i < len(pieces)
                parts[name].append(pieces[i].strip() if present else None)
        return {name: per_row(values, name) for name, values in parts.items()}
    if op == "date_split":
        if serving:
            cells = [c if c is None or parses_as_date(c) else None for c in cells]
        series = column(cells, False)
        try:
            return {
                name: getattr(series.dt, part).rename(name) for part, name in node["outputs"]
            }
        except ValueError:
            return ValueError
    if op == "dict_map":
        mapping = dict(zip(node["keys"], node["values"]))
        return per_row([None if c is None else mapping.get(c) for c in cells])
    if op == "dummies":
        return {
            name: Series(np.array([int(c == cat) for c in cells], np.int64), name)
            for cat, name in zip(node["categories"], node["names"])
        }
    if op == "group_lookup":
        table = {key: value for key, value in node["table"]}
        return per_row([table.get(c, node["fill"]) for c in cells])
    raise AssertionError(op)


NODES = [
    {"op": "str_len", "column": "t"},
    {"op": "split_parts", "column": "t", "sep": ",", "outputs": ["p0", "p1", "p2"]},
    {
        "op": "date_split",
        "column": "t",
        "outputs": [["year", "y"], ["month", "m"], ["dayofweek", "w"]],
    },
    {"op": "dict_map", "column": "t", "keys": ["a,b", "only", ""], "values": [1.5, 2, None]},
    {
        "op": "dummies",
        "column": "t",
        "categories": ["only", "", "a,b", 1],
        "names": ["d0", "d1", "d2", "d3"],
    },
    {
        "op": "group_lookup",
        "keys": ["t"],
        "agg": "mean",
        "agg_col": "v",
        "table": [["only", 1], ["", 2], [None, 3], ["a,b", 4]],
        "value_kind": "object",
        "fill": 9,
    },
]


def check(node: dict, cells: list, state: str, known: bool) -> None:
    with mock.patch.object(dictionary, "MAX_ENTRIES", 8):
        held = dictionaries_for(state, cells)
        want = reference(node, cells, serving=held is not None)
        frame = DataFrame({"t": column(cells, known), "v": Series(np.zeros(len(cells)))})
        if want is ValueError:
            try:
                evaluate_feature(node, frame, held)
            except ValueError:
                return
            raise AssertionError("the per-row path raised, the plan path did not")
        assert_same(evaluate_feature(node, frame, held), want)


@settings(max_examples=150, deadline=None)
@given(
    cells=cells_strategy,
    node=st.sampled_from(NODES),
    state=st.sampled_from(STATES),
    known=st.booleans(),
)
def test_plan_path_equals_the_per_row_path(cells, node, state, known):
    check(node, cells, state, known)


def test_every_op_and_state_on_a_fixed_column():
    cells = [None, "a,b", "", "only", None, "2020-01-01", "a,b", "\x00"]
    dates = [None, "2020-01-01", None, "1999-12-31", "2021-02-29", "cat2", ""]
    for node in NODES:
        for state in STATES:
            for known in (False, True):
                check(node, dates if node["op"] == "date_split" else cells, state, known)
                check(node, [None, None], state, known)
                check(node, [], state, known)


def test_a_batch_with_no_new_values_is_one_gather(monkeypatch):
    """Once a column's values are held, a batch with ``None`` cells
    resolves in one ``gather_ids`` call, with no ``index.get`` pass."""
    held = ColumnDictionaries()
    node = {"op": "str_len", "column": "t"}
    evaluate_feature(node, DataFrame({"t": column(["a", "bb"], True)}), held)
    calls = []
    real = dictionary.gather_ids

    def gathering(index, items):
        calls.append(len(items))
        return real(index, items)

    monkeypatch.setattr(dictionary, "gather_ids", gathering)
    out = evaluate_feature(node, DataFrame({"t": column(["bb", None, "a", None], True)}), held)
    assert calls == [4]
    assert out.dtype == np.float64
    assert out.tolist()[0] == 2.0 and np.isnan(out.tolist()[1])
    assert held.get("t").values == ["a", "bb"]
