"""A pinned number column keeps the CSV text it was read from.

``read_csv_shards`` keeps, for each column a schema pins ``int`` or
``float``, the text of each block (its cells joined with ``"\\n"``) on
the decoded Series, and ``to_csv`` writes such a column from that text.
So ``plan apply --out`` reproduces every pinned input cell as it was
read (``1e400``, ``-0``, ``.5``, ``1e3``, ``+3``, ``007``, ``1.50``),
whatever the chunking, and a cell whose text is already its value's
spelling is written as the value-based writer would write it.

The text is a cache keyed on the backing array: copy-on-write aliases
and frame views carry it, and anything that changes which cells a
column holds (a write, a slice, a row selection, a concat) drops it.
``read_csv`` and a decode with ``keep_text=False`` (the v2 plan path)
keep none.
"""

import csv
import pickle
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.dataframe import DataFrame, Series, read_csv
from repro.dataframe import io
from repro.dataframe.io import concat_shards, read_csv_shards, scan_csv_kinds, to_csv
from repro.serve import FeaturePlan, FeatureSpec

CHUNKS = (1, 2, 7, 2000, sys.maxsize)

#: Spellings each pinned kind admits whose value writes otherwise.
ODD = {
    "int": ["-0", "+3", "007", "-007", "+0"],
    "float": ["1e400", "-1e400", "-0", ".5", "1e3", "+3", "007", "1.50", "5.", "2.5E-3"],
    "object": ["1.50", "007", "1e3"],
}
#: Spellings that are already what the value-based writer writes.
CANONICAL = {
    "int": ["0", "3", "-12", "9223372036854775807", "-9223372036854775808"],
    "float": ["0.5", "-2.25", "1000.0", "1e+300", "0.1", "-0.0", "", "5e-324"],
    "object": ["a", "b", "", "q,r", 'q"s'],
}


def _plan() -> FeaturePlan:
    """A v3 plan pinning ``x`` float and ``n`` int, reading both."""

    def spec(name, op, left, right):
        return FeatureSpec(
            name=name,
            family="binary",
            description=name,
            input_columns=sorted({left, right} - {None}),
            output_columns=[name],
            status="compiled",
            expr={
                "op": op,
                "left": {"op": "col", "name": left},
                "right": {"op": "col", "name": right} if right else {"op": "const", "value": 2},
            },
        )

    return FeaturePlan(
        input_columns=["x", "n", "g"],
        input_schema=[("x", "float"), ("n", "int"), ("g", "object")],
        target="Target",
        features=[spec("x_twice", "mul", "x", None), spec("x_plus_n", "add", "x", "n")],
    )


def _write_cells(path, columns: dict) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))


def _read_cells(path) -> dict:
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _apply(plan_path, csv_path, out, chunk) -> None:
    argv = ["plan", "apply", "--plan", str(plan_path), "--csv", str(csv_path), "--out", str(out)]
    if chunk != sys.maxsize:
        argv += ["--chunk-rows", str(chunk)]
    assert main(argv) == 0


def _without_text(path, chunk_rows, schema=None, **_):
    """``read_csv_shards`` as the value-based writer's decoder."""
    return read_csv_shards(path, chunk_rows, schema, keep_text=False)


@st.composite
def number_table(draw):
    """Cells for ``x`` (float), ``n`` (int) and ``g`` (object); all
    canonical, or mixed with the odd spellings."""
    canonical = draw(st.booleans())
    pool = CANONICAL if canonical else {k: ODD[k] + CANONICAL[k] for k in ODD}
    n_rows = draw(st.integers(1, 12))
    cells = {
        kind: draw(st.lists(st.sampled_from(pool[kind]), min_size=n_rows, max_size=n_rows))
        for kind in pool
    }
    return canonical, {"x": cells["float"], "n": cells["int"], "g": cells["object"]}


@settings(max_examples=60, deadline=None)
@given(number_table())
def test_plan_apply_writes_pinned_cells_as_read(tmp_path_factory, table):
    canonical, columns = table
    work = tmp_path_factory.mktemp("apply")
    plan_path = work / "plan.json"
    _plan().save(str(plan_path))
    csv_path = work / "in.csv"
    _write_cells(csv_path, columns)
    for chunk in CHUNKS:
        out = work / "out.csv"
        _apply(plan_path, csv_path, out, chunk)
        written = _read_cells(out)
        for name, cells in columns.items():
            assert written[name] == cells, (name, chunk)
        if canonical:  # the bytes the value-based writer gives
            by_value = work / "by_value.csv"
            with mock.patch.object(io, "read_csv_shards", _without_text):
                _apply(plan_path, csv_path, by_value, chunk)
            assert out.read_bytes() == by_value.read_bytes(), chunk


# ----------------------------------------------------------------------
# Where the text is kept
# ----------------------------------------------------------------------
@pytest.fixture
def numbers(tmp_path):
    path = tmp_path / "t.csv"
    _write_cells(path, {"x": ["1e400", "", ".5", "1.50"], "n": ["007", "+3", "-0", "1"],
                        "g": ["a", "007", "", "b"]})
    return path


def _decoded(path, **kwargs) -> DataFrame:
    schema = {"x": "float", "n": "int", "g": "object"}
    [shard] = read_csv_shards(path, sys.maxsize, schema, **kwargs)
    return shard.frame


def test_number_columns_keep_one_string_per_block(numbers):
    frame = _decoded(numbers)
    assert frame["x"]._csv_text() == ("1e400\n\n.5\n1.50",)
    assert frame["n"]._csv_text() == ("007\n+3\n-0\n1",)
    assert frame["g"]._csv_text() == (("a", "007", "", "b"),)  # "007" reads as 7


def test_a_block_per_codec_block(tmp_path):
    path = tmp_path / "t.csv"
    cells = [str(i) for i in range(io._BLOCK_ROWS * 2 + 5)]
    _write_cells(path, {"n": cells})
    for chunk in (io._BLOCK_ROWS, io._BLOCK_ROWS + 3, sys.maxsize):
        for shard in read_csv_shards(path, chunk, {"n": "int"}):
            text = shard.frame["n"]._csv_text()
            assert all(type(block) is str for block in text)
            assert "\n".join(text).split("\n") == cells[shard.start : shard.start + len(shard)]


def test_string_columns_keep_none(numbers):
    [shard] = read_csv_shards(numbers, sys.maxsize, {"x": "float"})
    assert shard.frame["g"]._csv_text() is None  # unpinned: its values are its text
    path = numbers.parent / "s.csv"
    _write_cells(path, {"g": ["a", "", "b"]})
    [shard] = read_csv_shards(path, sys.maxsize, {"g": "object"})
    assert shard.frame["g"]._csv_text() is None


@pytest.mark.parametrize(
    "alias",
    [
        lambda s: s.rename("y"),
        lambda s: s.copy(),
        lambda s: Series(s),
        lambda s: Series(s, "y"),
        lambda s: DataFrame({"x": s}).column_view(["x"])["x"],
        lambda s: DataFrame({"x": s}).copy()["x"],
        lambda s: pickle.loads(pickle.dumps(s)),
    ],
    ids=["rename", "copy", "Series", "Series-named", "column_view", "frame-copy", "pickle"],
)
def test_aliases_carry_the_text(numbers, alias):
    source = _decoded(numbers)["x"]
    assert alias(source)._csv_text() == source._csv_text() is not None


def _assigned(s: Series) -> Series:
    s[0] = 2.0
    return s


@pytest.mark.parametrize(
    "derive",
    [
        _assigned,
        lambda s: s[1:],
        lambda s: s[:],
        lambda s: s[np.ones(len(s), dtype=bool)],
        lambda s: s[np.arange(len(s))],
        lambda s: s[[0, 1, 2, 3]],
        lambda s: concat_shards([DataFrame({"x": s})])["x"],
        lambda s: concat_shards([DataFrame({"x": s}), DataFrame({"x": s})])["x"],
        lambda s: s.astype(float),
        lambda s: next(io.iter_frame_shards(DataFrame({"x": s}), 2)).frame["x"],
    ],
    ids=["setitem", "slice", "full-slice", "mask", "positions", "list", "concat-one",
         "concat", "astype", "frame-shard"],
)
def test_a_new_set_of_cells_drops_the_text(numbers, derive):
    source = _decoded(numbers)["x"]
    assert derive(source.copy())._csv_text() is None
    assert source._csv_text() is not None  # the other owner keeps it


def test_a_write_in_place_drops_the_text(numbers):
    frame = _decoded(numbers)
    column = frame["n"]
    assert column.values.flags.writeable  # unshared: written in place
    column[0] = 8
    assert column._csv_text() is None
    out = numbers.parent / "out.csv"
    to_csv(frame.column_view(["n"]), out)
    assert _read_cells(out) == {"n": ["8", "3", "0", "1"]}


def test_a_write_through_one_alias_leaves_the_other(numbers):
    source = _decoded(numbers)["n"]
    alias = source.rename("m")
    alias[1] = 5
    assert alias._csv_text() is None
    assert source._csv_text() == ("007\n+3\n-0\n1",)
    out = numbers.parent / "out.csv"
    to_csv(DataFrame({"n": source, "m": alias}), out)
    assert _read_cells(out) == {"n": ["007", "+3", "-0", "1"], "m": ["7", "5", "0", "1"]}


def test_read_csv_and_a_decode_without_text_keep_none(numbers):
    for frame in (read_csv(numbers), _decoded(numbers, keep_text=False)):
        assert [frame[c]._csv_text() for c in frame.columns] == [None, None, None]
    for shard in read_csv_shards(numbers, 2, scan_csv_kinds(numbers), keep_text=False):
        assert [shard.frame[c]._csv_text() for c in shard.frame.columns] == [None] * 3


@pytest.mark.parametrize("chunk", [2, sys.maxsize])
def test_a_v2_plan_decodes_no_text(tmp_path, numbers, capsys, chunk):
    payload = _plan().to_dict()
    payload["schema_version"] = 2
    payload["input_schema"] = [["x", "numeric"], ["n", "numeric"], ["g", "object"]]
    payload.pop("fingerprint")
    plan_path = tmp_path / "plan.json"
    FeaturePlan.from_dict(payload).save(str(plan_path))
    texts = []

    def spying(*args, **kwargs):
        for shard in read_csv_shards(*args, **kwargs):
            texts.extend(shard.frame[c]._csv_text() for c in shard.frame.columns)
            yield shard

    out = tmp_path / "out.csv"
    with mock.patch.object(io, "read_csv_shards", spying):
        _apply(plan_path, numbers, out, chunk)
    assert texts and set(texts) == {None}
    assert _read_cells(out)["n"] == ["7", "3", "0", "1"]


# ----------------------------------------------------------------------
# The writer's string fast path
# ----------------------------------------------------------------------
STRINGS = ["a", "", "q,r", 'q"s', "line\nbreak", "cr\r", " pad ", "True", "1.50", "é"]


@pytest.mark.parametrize("with_none", [False, True], ids=["str", "str-or-none"])
@pytest.mark.parametrize("width", [1, 2])
def test_string_columns_write_as_the_csv_module_does(tmp_path, with_none, width):
    cells = STRINGS * 500 + ([None, "b", None] if with_none else [])
    frame = DataFrame({f"c{i}": Series(cells) for i in range(width)})
    assert frame["c0"]._known_types() == ({str, type(None)} if with_none else {str})
    out = tmp_path / "out.csv"
    to_csv(frame, out)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(frame.columns)
        writer.writerows(zip(*(["" if c is None else c for c in cells] for _ in range(width))))
    assert out.read_bytes() == expected.read_bytes()
