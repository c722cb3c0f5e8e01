"""Plan v3: each input column's CSV kind is pinned, and ``plan apply``
reads the CSV once against it.

* ``compile_plan`` records each input column's coercion kind; an
  in-memory batch is still checked by the coarse kind only.
* ``plan apply`` decodes every chunk against the pinned kinds, with no
  schema scan; columns the plan does not read pass through as text; a
  cell that breaks its kind fails naming the file's first such row, for
  every chunk size; ``--out`` is replaced only by a whole apply.
* A v2 plan (coarse kinds) loads as v2 and applies byte for byte as the
  v2 reader did: its chunked apply still scans the CSV.
"""

import csv
import json

import pytest

from repro.cli import main
from repro.dataframe import io
from repro.eval.serving import build_demo_result
from repro.serve import (
    PLAN_SCHEMA_VERSION,
    FeaturePlan,
    FeatureServer,
    FeatureSpec,
    PlanSchemaError,
    compile_plan,
)

CHUNKS = ([], ["--chunk-rows", "1"], ["--chunk-rows", "2"], ["--chunk-rows", "7"])
CHUNK_IDS = ["whole", "chunk1", "chunk2", "chunk7"]


@pytest.fixture(scope="module")
def demo():
    result, frame = build_demo_result(80, seed=0)
    return compile_plan(result, frame, "Target"), frame


def _apply(plan_path, csv_path, *extra) -> int:
    return main(["plan", "apply", "--plan", str(plan_path), "--csv", str(csv_path), *extra])


# ----------------------------------------------------------------------
# The pinned kinds
# ----------------------------------------------------------------------
def test_compile_pins_each_input_columns_csv_kind(demo):
    plan, _ = demo
    assert plan.schema_version == PLAN_SCHEMA_VERSION == 3
    assert plan.input_schema == [
        ("Age", "int"),
        ("Income", "float"),
        ("Balance", "float"),
        ("City", "object"),
        ("Segment", "object"),
        ("SignupDate", "object"),
        ("Notes", "object"),
        ("Pair", "object"),
    ]
    loaded = FeaturePlan.from_json(plan.to_json())
    assert loaded.input_schema == plan.input_schema
    assert loaded.schema_version == 3
    assert loaded.csv_schema() == dict(plan.input_schema)


def test_a_float_column_where_fit_saw_int_still_serves_in_memory(demo):
    plan, frame = demo
    batch = frame.column_view(frame.columns)
    batch["Age"] = batch["Age"].astype(float)
    expected = FeatureServer(plan=plan).transform(frame)
    served = FeatureServer(plan=plan).transform(batch)
    assert served.columns == expected.columns


def test_an_unpinned_column_a_feature_reads_decodes_by_its_own_kind():
    plan = FeaturePlan(
        input_columns=["x", "y"],
        input_schema=[("x", "float")],
        target="y",
        features=[
            FeatureSpec(
                name="y_twice",
                family="unary",
                description="",
                input_columns=["y"],
                output_columns=["y_twice"],
                status="compiled",
                expr={
                    "op": "mul",
                    "left": {"op": "col", "name": "y"},
                    "right": {"op": "const", "value": 2},
                },
            )
        ],
    )
    assert plan.csv_schema() == {"y": None, "x": "float"}


@pytest.mark.parametrize(
    "version, kind", [(3, "numeric"), (3, "str"), (2, "int"), (2, "bool_missing")]
)
def test_a_kind_outside_the_versions_vocabulary_fails_at_load(demo, version, kind):
    payload = demo[0].to_dict()
    payload["schema_version"] = version
    payload["input_schema"][0][1] = kind
    payload.pop("fingerprint")
    with pytest.raises(PlanSchemaError, match=f"'Age' has kind {kind!r}"):
        FeaturePlan.from_dict(payload)


# ----------------------------------------------------------------------
# plan apply reads the CSV once
# ----------------------------------------------------------------------
@pytest.fixture
def applied(tmp_path, demo):
    """The demo plan saved, and its fit frame written as a CSV."""
    plan, frame = demo
    plan_path = tmp_path / "plan.json"
    plan.save(str(plan_path))
    csv_path = tmp_path / "rows.csv"
    io.to_csv(frame, csv_path)
    return plan_path, csv_path


def _edited(source, path, column: str, cells: dict):
    """*source* rewritten to *path* with *column*'s cell at each data row
    of *cells* (1-based) replaced by its text."""
    with open(source, newline="") as handle:
        rows = list(csv.reader(handle))
    at = rows[0].index(column)
    for row, text in cells.items():
        rows[row][at] = text
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return path


def _column(path, column: str) -> list:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    at = rows[0].index(column)
    return [row[at] for row in rows[1:]]


def _counting_scans(monkeypatch) -> list:
    calls = []
    scan = io.scan_csv_kinds
    monkeypatch.setattr(io, "scan_csv_kinds", lambda path: calls.append(path) or scan(path))
    return calls


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_a_v3_apply_never_scans(applied, monkeypatch, capsys, chunk):
    plan_path, csv_path = applied
    scans = _counting_scans(monkeypatch)
    assert _apply(plan_path, csv_path, *chunk) == 0
    assert scans == []


def test_the_target_passes_through_as_its_text(tmp_path, applied, capsys):
    plan_path, csv_path = applied
    texts = ["1.50", "007", "", "1"]
    edited = _edited(csv_path, tmp_path / "edited.csv", "Target", dict(enumerate(texts, 1)))
    for chunk in CHUNKS:
        out = tmp_path / "out.csv"
        assert _apply(plan_path, edited, "--out", str(out), *chunk) == 0
        assert _column(out, "Target") == _column(edited, "Target")
        assert _column(out, "Target")[:4] == texts


#: Cells each pinned number column admits whose value writes otherwise:
#: ``1e400`` reads as inf, written ``inf``, which a float pin refuses.
SPELLINGS = {
    "Age": ["-0", "+3", "007", "-0", "+3", "007", "1"],
    "Income": ["1e400", "-0", ".5", "1e3", "+3", "007", "1.50", ""],
    "Balance": ["", "1.50", "-1e400", ".5", "", "1e3", "007", "+3"],
}


def test_pinned_number_cells_are_written_as_read(tmp_path, applied, capsys):
    plan_path, csv_path = applied
    edited = tmp_path / "edited.csv"
    source = csv_path
    for column, texts in SPELLINGS.items():
        source = _edited(source, edited, column, dict(enumerate(texts, 1)))
    for chunk in CHUNKS:
        out = tmp_path / "out.csv"
        assert _apply(plan_path, edited, "--out", str(out), *chunk) == 0
        for column, texts in SPELLINGS.items():
            assert _column(out, column) == _column(edited, column)
            assert _column(out, column)[: len(texts)] == texts
        # The output's pinned columns decode under the same plan (the
        # columns the plan drops are missing, hence degrade).
        again = tmp_path / "again.csv"
        degrade = ("--failure-policy", "degrade")
        assert _apply(plan_path, out, *degrade, "--out", str(again), *chunk) == 0
        for column in SPELLINGS:
            assert _column(again, column) == _column(edited, column)


@pytest.mark.parametrize("bad", ["1.5", "", "x"])
def test_the_first_broken_row_is_named_for_every_chunk_size(tmp_path, applied, bad):
    plan_path, csv_path = applied
    broken = _edited(csv_path, tmp_path / "broken.csv", "Age", {23: bad, 61: bad})
    for chunk in CHUNKS:
        message = f"plan apply failed: .*column 'Age' is pinned int, but data row 23 holds {bad!r}"
        with pytest.raises(SystemExit, match=message):
            _apply(plan_path, broken, *chunk)


# ----------------------------------------------------------------------
# --out is replaced only by a whole apply
# ----------------------------------------------------------------------
@pytest.mark.parametrize("existing", [None, "kept as it was\n"], ids=["absent", "present"])
def test_a_break_in_the_last_chunk_leaves_out_as_it_was(tmp_path, applied, existing):
    plan_path, csv_path = applied
    n_rows = len(_column(csv_path, "Age"))
    broken = _edited(csv_path, tmp_path / "broken.csv", "Age", {n_rows: "1.5"})
    out = tmp_path / "out.csv"
    if existing is not None:
        out.write_text(existing)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit, match=f"data row {n_rows} holds '1.5'"):
        _apply(plan_path, broken, "--out", str(out), "--chunk-rows", "7")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text() == existing


# ----------------------------------------------------------------------
# v2 plans
# ----------------------------------------------------------------------
#: A v2 plan as a v2 writer saved it: coarse input kinds.
V2_PLAN = {
    "schema_version": 2,
    "fingerprint": "8605270b8eeaedaa53b11120fecb4f748690734dd82f0732977dd81c117c2af2",
    "target": "Target",
    "input_columns": ["x", "g", "Target"],
    "input_schema": [["x", "numeric"], ["g", "object"]],
    "drop_columns": [],
    "metadata": {},
    "features": [
        {
            "name": "x_twice", "family": "unary", "description": "x_twice",
            "input_columns": ["x"], "output_columns": ["x_twice"], "status": "compiled",
            "expr": {
                "op": "mul",
                "left": {"op": "col", "name": "x"},
                "right": {"op": "const", "value": 2},
            },
            "reason": "", "output_kinds": ["numeric"],
        },
        {
            "name": "x_by_g", "family": "high_order", "description": "x_by_g",
            "input_columns": ["g", "x"], "output_columns": ["x_by_g"], "status": "compiled",
            "expr": {
                "op": "group_lookup", "keys": ["g"], "agg": "mean", "agg_col": "x",
                "table": [["a", 3.0], ["b", 3.0]], "value_kind": "float64", "fill": None,
            },
            "reason": "", "output_kinds": ["numeric"],
        },
    ],
}
V2_INPUT = (
    "x,g,Target,extra\n1,a,1.50,007\n2,b,0,x\n,a,1,\n4.5,c,0,True\n"
    '-0,b,,1e3\n6,a,1.0,"q,uote"\n'
)
#: What the v2 reader's ``plan apply`` wrote for V2_INPUT, whole and
#: chunked alike: the target decoded as a number.
V2_OUTPUT = (
    "x,g,Target,x_twice,x_by_g\r\n"
    "1.0,a,1.5,2.0,3.0\r\n"
    "2.0,b,0.0,4.0,3.0\r\n"
    ",a,1.0,,3.0\r\n"
    "4.5,c,0.0,9.0,\r\n"
    "0.0,b,,0.0,3.0\r\n"
    "6.0,a,1.0,12.0,3.0\r\n"
)


@pytest.mark.parametrize("chunk", CHUNKS, ids=CHUNK_IDS)
def test_a_v2_plan_applies_as_the_v2_reader_did(tmp_path, monkeypatch, capsys, chunk):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(V2_PLAN))
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(V2_INPUT)
    out = tmp_path / "out.csv"
    scans = _counting_scans(monkeypatch)
    assert _apply(plan_path, csv_path, "--out", str(out), *chunk) == 0
    assert out.read_bytes() == V2_OUTPUT.encode()
    assert len(scans) == (1 if chunk else 0)
    assert FeaturePlan.load(str(plan_path)).schema_version == 2
