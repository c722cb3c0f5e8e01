"""The CSV scan's kind vocabulary against the plan's input-schema kinds.

``dataframe.io.scan_csv_kinds`` names six kinds; a FeaturePlan pins each
input column to one of three coarse kinds (``serve.plan.column_kind``).
Decoding a CSV against a plan's pinned schema needs the two to agree, so
each scan kind is written as a one-column CSV, read back with the
scanned kinds, and the decoded column's plan kind is pinned here.

Two kinds do not map onto the plan kind of the same name, and are pinned
as named cases:

* ``bool_missing`` decodes to an object column (``True``/``None``/
  ``False``), whose plan kind is ``object`` — a plan that pinned ``bool``
  cannot take a batch with a missing boolean cell;
* ``empty`` (no present value) decodes to an object column of ``None``,
  so an all-missing chunk of a numeric column reads as ``object``.
"""

import pytest

from repro.dataframe.io import concat_shards, read_csv, read_csv_shards, scan_csv_kinds
from repro.serve.plan import column_kind

#: scan kind → (cells of a one-column CSV, plan kind of the decoded column)
AGREEING = {
    "bool": (["True", "False", "True"], "bool"),
    "int": (["1", "-2", "3"], "numeric"),
    "float": (["1.5", "2", ""], "numeric"),
    "object": (["a", "1", ""], "object"),
}
DISAGREEING = {
    "bool_missing": (["True", "", "False"], "object"),
    "empty": (["", "", ""], "object"),
}


def _decode(tmp_path, cells):
    path = tmp_path / "one_column.csv"
    path.write_text("c\n" + "\n".join(cells) + "\n")
    kinds = scan_csv_kinds(path)
    column = concat_shards(read_csv_shards(path, 2, schema=kinds))["c"]
    return kinds["c"], column, read_csv(path)["c"]


@pytest.mark.parametrize("kind", sorted({**AGREEING, **DISAGREEING}))
def test_scanned_kind_decodes_to_its_plan_kind(tmp_path, kind):
    cells, plan_kind = {**AGREEING, **DISAGREEING}[kind]
    scanned, column, whole_file = _decode(tmp_path, cells)
    assert scanned == kind
    assert column_kind(column) == plan_kind
    assert column.dtype == whole_file.dtype


def test_bool_with_missing_cells_is_not_a_bool_column(tmp_path):
    _, column, _ = _decode(tmp_path, DISAGREEING["bool_missing"][0])
    assert column.tolist() == [True, None, False]
    assert column_kind(column) != "bool"


def test_all_missing_column_is_not_numeric(tmp_path):
    _, column, _ = _decode(tmp_path, DISAGREEING["empty"][0])
    assert column.tolist() == [None, None, None]
    assert column_kind(column) != "numeric"
