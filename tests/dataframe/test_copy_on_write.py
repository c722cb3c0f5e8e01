"""Copy-on-write columns: sharing a buffer must look exactly like copying it.

``Series.rename``/``copy``/``Series(series)``, slicing, and the frame
constructors, ``copy`` and column assignment share the backing array
instead of copying it.  The contract checked here:

* a write through any owner (``Series.__setitem__``) never reaches
  another — random programs are run against an eager-copy model;
* a buffer two live Series share is read-only, so writing into
  ``.values`` raises ``ValueError`` instead of changing the other owner;
* the cached ``encoding()``, ``grouping()`` and column-dictionary codes,
  which travel with the shared buffer, are never stale after a write
  through any alias;
* every cached ``cell_types()`` summary covers the cells' types and says
  exactly whether they are all plain ``str``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series
from repro.dataframe import dictionary
from repro.dataframe.io import iter_frame_shards
from repro.dataframe.kernels import dictionary_encode

N_ROWS = 6

cells = st.sampled_from([0, 1, 7, -3, 2.5, "a", "zz", np.str_("zz")])
columns = st.one_of(
    st.lists(st.integers(-3, 3), min_size=N_ROWS, max_size=N_ROWS),
    st.lists(st.sampled_from([0.5, 1.0, -2.0, 0.0]), min_size=N_ROWS, max_size=N_ROWS),
    st.lists(st.sampled_from(["x", "y", "z"]), min_size=N_ROWS, max_size=N_ROWS),
)


# ----------------------------------------------------------------------
# The contract, one operation at a time
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "alias",
    [lambda s: s.rename("b"), lambda s: s.copy(), lambda s: Series(s, "b")],
    ids=["rename", "copy", "Series(series)"],
)
def test_alias_shares_the_buffer_and_caches_and_writes_stay_apart(alias):
    s = Series(["x", "y", "x", "z"], "a")
    encoding, grouping = s.encoding(), s.grouping()
    t = alias(s)
    assert t.values is s.values
    assert not s.values.flags.writeable
    assert t.encoding() is encoding and t.grouping() is grouping
    t[0] = "w"
    assert s.tolist() == ["x", "y", "x", "z"]
    assert t.tolist() == ["w", "y", "x", "z"]
    assert s.encoding() is encoding
    assert t.encoding()[1] == ["w", "y", "x", "z"]
    s[1] = "q"
    assert t.tolist() == ["w", "y", "x", "z"]


def test_writing_into_shared_values_raises():
    s = Series([1, 2, 3], "a")
    s.values[0] = 10  # unshared: the buffer is the Series' own
    t = s.rename("b")
    with pytest.raises(ValueError):
        s.values[0] = 0
    with pytest.raises(ValueError):
        t.values[0] = 0
    assert s.tolist() == t.tolist() == [10, 2, 3]


def test_series_from_an_array_copies_it():
    array = np.array([1.0, 2.0, 3.0])
    s = Series(array, "a")
    array[0] = 9.0
    assert s.tolist() == [1.0, 2.0, 3.0]
    assert array.flags.writeable


def test_slice_is_read_only_both_ways():
    s = Series([1, 2, 3, 4], "a")
    head = s[:2]
    assert not head.values.flags.writeable
    head[0] = 10
    assert s.tolist() == [1, 2, 3, 4]
    s[1] = 20
    assert head.tolist() == [10, 2]


@pytest.mark.parametrize(
    "derive",
    [
        lambda f: DataFrame(f),
        lambda f: f.copy(),
        lambda f: DataFrame({c: f[c] for c in f.columns}),
        lambda f: f[["a", "b"]],
        lambda f: f.rename({"a": "a"}),
    ],
    ids=["DataFrame(frame)", "copy", "DataFrame(mapping)", "select", "rename"],
)
def test_frame_derivations_share_buffers_and_writes_stay_apart(derive):
    frame = DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    out = derive(frame)
    for c in ("a", "b"):
        assert out[c].values is frame[c].values
        assert out[c] is not frame[c]
    out["a"][0] = 100
    out["b"][2] = "w"
    assert frame.to_dict() == {"a": [1, 2, 3], "b": ["x", "y", "z"]}
    frame["a"][1] = -1
    assert out["a"].tolist() == [100, 2, 3]


def test_column_assignment_shares_and_names_the_column():
    frame = DataFrame({"a": [1, 2, 3]})
    s = Series([4, 5, 6], "other")
    frame["b"] = s
    assert frame["b"].values is s.values and frame["b"].name == "b"
    assert s.name == "other"
    s[0] = 0
    assert frame["b"].tolist() == [4, 5, 6]


def test_shards_do_not_write_through_to_the_frame():
    frame = DataFrame({"a": [1, 2, 3, 4, 5]})
    shards = list(iter_frame_shards(frame, 2))
    shards[0].frame["a"][0] = 100
    assert frame["a"].tolist() == [1, 2, 3, 4, 5]
    frame["a"][2] = 30
    assert shards[1].frame["a"].tolist() == [3, 4]


def test_column_dictionary_codes_are_keyed_on_the_column_name():
    dictionaries = dictionary.ColumnDictionaries()
    s = Series(["x", "y", "x"], "a")
    codes, state = dictionary.encoded(dictionaries, "a", s)
    t = s.rename("b")
    codes_b, state_b = dictionary.encoded(dictionaries, "b", t)
    assert state_b is dictionaries.get("b") and state is dictionaries.get("a")
    assert [state_b.values[c] for c in codes_b] == ["x", "y", "x"]


# ----------------------------------------------------------------------
# Random programs against an eager-copy model
# ----------------------------------------------------------------------
class Program:
    """Live Series and frames, each Series with its eager-copy model."""

    def __init__(self) -> None:
        self.series: list[Series] = []
        self.model: dict[int, list] = {}  # id(Series) -> expected values
        self.frames: list[DataFrame] = []
        self.dictionaries = dictionary.ColumnDictionaries()

    def add(self, series: Series, expected: list) -> None:
        if id(series) not in self.model:
            self.series.append(series)
        self.model[id(series)] = list(expected)

    def expected(self, series: Series) -> list:
        return self.model[id(series)]

    def add_frame(self, frame: DataFrame, sources: dict) -> None:
        """Register *frame*, whose column ``c`` must equal ``sources[c]``."""
        for c in frame.columns:
            self.add(frame[c], sources[c])
        self.frames.append(frame)

    def check(self) -> None:
        for s in self.series:
            assert s.tolist() == self.expected(s)
        for i, s in enumerate(self.series):
            for t in self.series[i + 1 :]:
                if np.shares_memory(s.values, t.values):
                    assert not s.values.flags.writeable
                    assert not t.values.flags.writeable
        for s in self.series:  # leaves every cache warm for the next write
            check_caches(s, self.dictionaries)


def check_caches(s: Series, dictionaries: dictionary.ColumnDictionaries) -> None:
    """Every cache of *s* agrees with a fresh computation on its values."""
    if s._types_cache is not None and s._types_cache[1] is s.values:
        types, cell_types = s._types_cache[0], set(map(type, s.values.tolist()))
        assert cell_types <= types
        assert (types <= {str}) == (cell_types <= {str})
    fresh = Series._from_array(s.values.copy(), s.name)
    cached, recomputed = s.encoding(), dictionary_encode(fresh.values)
    assert cached[0].tolist() == recomputed[0].tolist()
    assert cached[1] == recomputed[1] and cached[2] == recomputed[2]
    for got, want in zip(s.grouping(), fresh.grouping()):
        assert got.tolist() == want.tolist()
    for held in (None, dictionaries):
        codes, state = dictionary.encoded(held, s.name, s)
        assert [state.values[c] for c in codes.tolist()] == s.tolist()


@given(st.lists(columns, min_size=1, max_size=3), st.data())
@settings(max_examples=250, deadline=None)
def test_random_programs_match_the_eager_copy_model(initial, data):
    program = Program()
    for i, values in enumerate(initial):
        program.add(Series(values, f"c{i}"), values)
    ops = [
        "rename", "copy", "Series", "slice", "mask", "setitem", "values_write",
        "frame_from_mapping", "frame_from_frame", "frame_copy", "frame_setitem",
    ]
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(ops))
        s = data.draw(st.sampled_from(program.series))
        full = [t for t in program.series if len(t) == N_ROWS]
        if op == "rename":
            program.add(s.rename(data.draw(st.sampled_from(["p", "q"]))), program.expected(s))
        elif op == "copy":
            program.add(s.copy(), program.expected(s))
        elif op == "Series":
            program.add(Series(s, "r"), program.expected(s))
        elif op == "slice":
            start = data.draw(st.integers(0, len(s)))
            stop = data.draw(st.integers(start, len(s)))
            program.add(s[start:stop], program.expected(s)[start:stop])
        elif op == "mask":
            keep = data.draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
            program.add(
                s[np.array(keep, dtype=bool)],
                [v for v, k in zip(program.expected(s), keep) if k],
            )
        elif op == "setitem" and len(s):
            i, v = data.draw(st.integers(0, len(s) - 1)), data.draw(cells)
            s[i] = v
            program.expected(s)[i] = v
        elif op == "values_write" and len(s):
            shared = any(
                np.shares_memory(s.values, t.values) for t in program.series if t is not s
            )
            if shared:  # an unshared buffer is the Series' own to misuse
                with pytest.raises(ValueError):
                    s.values[0] = s.values[0]
        elif op == "frame_from_mapping" and full:
            picked = data.draw(st.lists(st.sampled_from(full), min_size=1, max_size=3))
            mapping = {f"m{i}": t for i, t in enumerate(picked)}
            program.add_frame(
                DataFrame(mapping), {c: program.expected(t) for c, t in mapping.items()}
            )
        elif op in ("frame_from_frame", "frame_copy") and program.frames:
            frame = data.draw(st.sampled_from(program.frames))
            out = DataFrame(frame) if op == "frame_from_frame" else frame.copy()
            program.add_frame(out, {c: program.expected(frame[c]) for c in frame.columns})
        elif op == "frame_setitem" and program.frames and full:
            frame = data.draw(st.sampled_from(program.frames))
            t = data.draw(st.sampled_from(full))
            column = data.draw(st.sampled_from(["m0", "new"]))
            frame[column] = t
            program.add(frame[column], program.expected(t))
        program.check()
