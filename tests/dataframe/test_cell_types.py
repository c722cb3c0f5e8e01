"""List coercion and the per-column cell-type summary (``Series.cell_types``).

``kernels.coerce_listlike`` classifies a list from its distinct cell
types and must stay bit-identical to the per-cell ``isinstance`` loop it
replaced (``reference.reference_coerce_listlike``), except that an object
result is always 1-D.  The type summary it fills travels with the buffer
(aliases, slices, shards, pickles), is cleared by ``__setitem__``, and
answers "is every cell a plain ``str``?" exactly.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, kernels
from repro.dataframe.io import iter_frame_shards, read_csv, to_csv
from repro.dataframe.reference import reference_coerce_listlike

I64 = np.iinfo(np.int64)

floats = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.5]),
    st.floats(width=32),
    st.sampled_from([np.float64("nan"), np.float32("nan"), np.float32(-0.0), np.float16(2.5)]),
)
bools = st.one_of(st.booleans(), st.booleans().map(np.bool_))
ints = st.one_of(
    st.sampled_from([0, 1, -1, I64.min, I64.max, I64.min - 1, I64.max + 1, 2**64, -(2**70)]),
    st.integers(-5, 5),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from(
        [np.int64(I64.max), np.int64(I64.min), np.int8(-3), np.uint8(200), np.int32(7),
         np.uint64(5), np.uint64(2**64 - 1), np.uint64(2**63)]
    ),
)
texts = st.one_of(
    st.sampled_from(["a", "", "b", "a\x00"]), st.sampled_from(["a", "z"]).map(np.str_)
)
tuples = st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2))
FAMILIES = [st.none(), floats, bools, ints, texts, tuples]
cells = st.one_of(*FAMILIES)
# Lists of one or two families reach every coercion kind, not just object.
lists = st.one_of(
    st.lists(cells, max_size=12),
    st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=2).flatmap(
        lambda fams: st.lists(st.one_of(*fams), max_size=12)
    ),
)


def assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if got.dtype == object:  # the very same cell objects
        assert all(a is b for a, b in zip(got.tolist(), want.tolist()))
    else:
        assert got.tobytes() == want.tobytes()


def assert_summary_exact_about_str(values: np.ndarray, types: frozenset) -> None:
    cell_types = set(map(type, values.tolist()))
    assert cell_types <= types
    assert (types <= {str}) == (cell_types <= {str})


@given(lists)
@settings(max_examples=600, deadline=None)
def test_coerce_matches_the_per_cell_loop(values):
    got, types = kernels.coerce_typed(list(values))
    assert_bit_identical(got, reference_coerce_listlike(list(values)))
    assert_bit_identical(kernels.coerce_listlike(list(values)), got)
    assert got.ndim == 1 and len(got) == len(values)
    if got.dtype == object:
        assert_summary_exact_about_str(got, types)
    else:
        assert types is None
    series = Series(list(values))
    assert_summary_exact_about_str(series.values, series.cell_types())


@pytest.mark.parametrize(
    "values",
    [[], [None], [math.nan], [None, math.nan], [np.float32("nan"), True], [True, None],
     [I64.max, True], [I64.max + 1], [I64.max + 1, 0.5], [2**1100, None], [np.uint64(2**64 - 1)],
     [("a", "b"), ("c", "d")], [["a"], ["b"]], [np.array([1, 2]), np.array([3, 4])]],
    ids=repr,
)
def test_coerce_edge_lists(values):
    assert_bit_identical(kernels.coerce_listlike(values), reference_coerce_listlike(values))


# ----------------------------------------------------------------------
# Object columns stay one-dimensional
# ----------------------------------------------------------------------
def test_equal_length_tuples_stay_one_column():
    s = Series([("a", "b"), ("c", "d")])
    assert s.values.shape == (2,)
    assert s.tolist() == [("a", "b"), ("c", "d")]


def test_split_results_are_a_column_of_lists():
    parts = Series(["a,b", "c,d"], "p").str.split(",")
    assert parts.values.shape == (2,)
    assert parts.tolist() == [["a", "b"], ["c", "d"]]
    assert all(type(v) is list for v in parts.tolist())
    frame = DataFrame({"p": parts})
    assert len(frame) == 2 and frame["p"].str.get(1).tolist() == ["b", "d"]


def test_apply_returning_tuples_is_a_column_of_tuples():
    pairs = Series([1, 2, 3]).apply(lambda v: (v, -v))
    assert pairs.values.shape == (3,)
    assert pairs.tolist() == [(1, -1), (2, -2), (3, -3)]


# ----------------------------------------------------------------------
# The summary: filled for free, carried, cleared
# ----------------------------------------------------------------------
@pytest.fixture
def passes(monkeypatch) -> list:
    """Every full-column type pass ``Series.cell_types`` runs."""
    seen: list = []
    real = kernels.cell_types

    def counting(values, items=None):
        seen.append(values)
        return real(values, items)

    monkeypatch.setattr(kernels, "cell_types", counting)
    return seen


def test_list_coercion_fills_the_summary(passes):
    assert Series(["a", "b"]).cell_types() == {str}
    assert Series(["a", None]).cell_types() == {str, type(None)}
    assert Series(["a", math.nan]).cell_types() >= {str, type(None)}
    assert Series([True, None]).cell_types() == {bool, type(None)}
    assert Series(np.array(["x", "y"])).cell_types() == {str}
    assert not passes


@pytest.mark.parametrize(
    "derive",
    [lambda s: s.rename("b"), lambda s: s.copy(), lambda s: Series(s, "b"),
     lambda s: DataFrame({"b": s})["b"], lambda s: pickle.loads(pickle.dumps(s))],
    ids=["rename", "copy", "Series(series)", "frame", "pickle"],
)
def test_aliases_and_pickles_carry_the_summary(passes, derive):
    s = Series(["a", None, "b"], "a")
    assert derive(s).cell_types() == {str, type(None)}
    assert not passes


@pytest.mark.parametrize(
    "subset",
    [lambda s: s[1:3], lambda s: s[np.array([True, False, True, True])], lambda s: s[[0, 2]],
     lambda s: DataFrame({"a": s})._take_mask(np.array([False, True, True, False]))["a"],
     lambda s: next(iter_frame_shards(DataFrame({"a": s}), 2)).frame["a"]],
    ids=["slice", "mask", "positions", "frame mask", "shard"],
)
def test_subsets_carry_a_one_type_summary(passes, subset):
    assert subset(Series(["a", "b", "c", "d"], "a")).cell_types() == {str}
    assert not passes
    mixed = subset(Series(["a", "b", "c", None], "a"))  # a subset may lose a type
    assert mixed.cell_types() == set(map(type, mixed.values.tolist()))
    assert len(passes) == 1


def test_an_empty_subset_holds_no_types(passes):
    assert Series([1, "a"])[1:1].cell_types() == frozenset()
    assert Series(["a"])[0:0].encoding()[2] == {}


def test_setitem_clears_the_summary():
    s = Series(["a", "b", "c"], "a")
    t = s.rename("t")
    s[1] = np.str_("x")
    assert s.cell_types() == {str, np.str_}
    assert s.encoding()[2] is None
    assert t.cell_types() == {str}


def test_a_summary_is_computed_at_most_once(passes):
    values = np.array(["a", None], dtype=object)
    s = Series._from_array(values, "a")
    assert s.cell_types() == s.cell_types() == {str, type(None)}
    assert len(passes) == 1
    old = Series.__new__(Series)  # a pickle written before the summary existed
    old.__setstate__((None, {"_values": values, "name": "a"}))
    assert old.cell_types() == old.cell_types() == {str, type(None)}
    assert old.encoding()[1] == ["a"]
    assert len(passes) == 2


def test_a_type_pass_reuses_the_cell_list_its_caller_keys(monkeypatch):
    """An untyped object column's type pass runs over the list that the
    encoding, the profile or the column dictionary lookup keys next."""
    given: list = []
    real = kernels.cell_types

    def recording(values, items=None):
        given.append(items is not None)
        return real(values, items)

    monkeypatch.setattr(kernels, "cell_types", recording)
    values = np.array(["b", "a", "b"], dtype=object)
    s = Series._from_array(values.copy(), "a")
    assert s.encoding()[1] == ["b", "a"]
    assert s.cell_types() == {str}
    assert kernels.dictionary_encode(values)[1] == ["b", "a"]
    assert kernels.column_profile(values, 8).uniques == ["b", "a"]
    assert given == [True, True, True]


def test_csv_verbatim_blocks_fill_the_summary(tmp_path, passes):
    path = tmp_path / "t.csv"
    to_csv(DataFrame({"a": ["x", "y", "z"], "b": ["x", None, "z"], "n": [1, 2, 3]}), path)
    frame = read_csv(path)
    assert frame["a"].cell_types() == {str}
    assert frame["b"].cell_types() == {str, type(None)}
    assert not passes
