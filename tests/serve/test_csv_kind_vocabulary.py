"""The CSV scan's kind vocabulary against the plan's input kinds.

``dataframe.io.scan_csv_kinds`` names six kinds, and a v3 FeaturePlan
pins each input column to one of the same six (``serve.plan.CSV_KINDS``),
checking an in-memory batch only by the pinned kind's coarse kind
(``serve.plan.coarse_kind``).  Each scan kind is written here as a
one-column CSV and decoded pinned to that kind; the decoded column must
equal ``read_csv``'s, carry the pinned kind's coarse kind (so a pinned
decode always passes the plan's batch check), and be pinned back to the
kind ``compile_plan`` records for it (``serve.plan.csv_kind``).

Two kinds are not what ``compile_plan`` records for their decoded
column, and are pinned as named cases:

* ``bool_missing`` decodes to an object column (``True``/``None``/
  ``False``), which a plan pins as ``object``;
* ``empty`` (no present value) decodes to an object column of ``None``,
  pinned as ``object`` too.

An ``object`` pin decodes either one's cells to the same values.
"""

import pytest

from repro.dataframe.io import concat_shards, read_csv, read_csv_shards, scan_csv_kinds
from repro.serve import coarse_kind, column_kind, csv_kind, series_identical
from repro.serve.plan import CSV_KINDS

#: scan kind → (cells of a one-column CSV, kind a plan pins for the decoded column)
AGREEING = {
    "bool": (["True", "False", "True"], "bool"),
    "int": (["1", "-2", "3"], "int"),
    "float": (["1.5", "2", ""], "float"),
    "object": (["a", "1", ""], "object"),
}
DISAGREEING = {
    "bool_missing": (["True", "", "False"], "object"),
    "empty": (["", "", ""], "object"),
}
CASES = {**AGREEING, **DISAGREEING}


def _decode(tmp_path, cells, pinned):
    path = tmp_path / "one_column.csv"
    path.write_text("c\n" + "\n".join(cells) + "\n")
    column = concat_shards(read_csv_shards(path, 2, schema={"c": pinned}))["c"]
    return scan_csv_kinds(path)["c"], column, read_csv(path)["c"]


def test_the_cases_cover_every_plan_kind():
    assert set(CASES) == set(CSV_KINDS)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_pinned_decode_keeps_the_kinds_coarse_kind(tmp_path, kind):
    cells, recorded = CASES[kind]
    scanned, column, whole_file = _decode(tmp_path, cells, kind)
    assert scanned == kind
    assert series_identical(column, whole_file)
    assert column_kind(column) == coarse_kind(kind)
    assert csv_kind(column) == recorded
    assert coarse_kind(recorded) == coarse_kind(kind)


@pytest.mark.parametrize("kind", sorted(DISAGREEING))
def test_an_object_pin_decodes_the_cells_alike(tmp_path, kind):
    cells, _ = DISAGREEING[kind]
    _, pinned, _ = _decode(tmp_path, cells, kind)
    _, as_object, _ = _decode(tmp_path, cells, "object")
    assert as_object.dtype == pinned.dtype
    assert as_object.tolist() == pinned.tolist()


def test_bool_with_missing_cells_is_not_a_bool_column(tmp_path):
    _, column, _ = _decode(tmp_path, DISAGREEING["bool_missing"][0], "bool_missing")
    assert column.tolist() == [True, None, False]
    assert column_kind(column) != "bool"


def test_all_missing_column_is_not_numeric(tmp_path):
    _, column, _ = _decode(tmp_path, DISAGREEING["empty"][0], "empty")
    assert column.tolist() == [None, None, None]
    assert column_kind(column) != "numeric"
