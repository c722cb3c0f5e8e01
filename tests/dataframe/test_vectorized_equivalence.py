"""Property-based equivalence: vectorized data plane vs loop reference.

Mirrors ``tests/core/test_concurrent_properties.py`` one layer down: for
*random* mixed-type data — including ``None``/NaN, bools, negative and
tied values — every numpy fast path must produce the same values, dtype,
and missing-value handling as the retained element-loop implementations
in :mod:`repro.dataframe.reference`.

Equality contract: dtypes and missingness are exact; values are exact
except float accumulations (group sum/mean) and ``log``, where the
vectorized path's summation order / SIMD libm differ by a few ulp —
those compare with ``rtol=1e-12``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, cut, factorize, get_dummies
from repro.dataframe.kernels import _PROBE_ROWS, _numeric_uniques, column_profile
from repro.dataframe.reference import (
    REFERENCE_TRANSFORM_SOURCES,
    assert_frame_equivalent,
    assert_series_equivalent,
    reference_apply,
    reference_astype,
    reference_coerce_values,
    reference_column_profile,
    reference_cut,
    reference_factorize,
    reference_get_dummies,
    reference_groupby_agg,
    reference_groupby_transform,
    reference_isin,
    reference_map,
    reference_mode,
    reference_nunique,
    reference_unique,
    reference_value_counts,
    reference_where,
)
from repro.dataframe.series import _is_missing_scalar

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
maybe_missing_floats = st.one_of(
    st.none(), st.just(float("nan")), st.floats(allow_nan=False, allow_infinity=False, width=32)
)
mixed_scalars = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["a", "bb", "C", "", "dd"]),
)
group_keys = st.one_of(
    st.sampled_from(["x", "y", "z", "w"]),
    st.integers(min_value=-3, max_value=3),
)
AGG_NAMES = ("mean", "sum", "min", "max", "count", "size", "first", "last", "median", "std")


# The equality contract itself (exact dtype/missingness, float values
# within a few ulp) is the shared helper pair in repro.dataframe.reference
# — the same one the bench_dataplane smoke gate enforces.
assert_series_equal = assert_series_equivalent
assert_frame_equal = assert_frame_equivalent


# ----------------------------------------------------------------------
# Series construction (single-pass coercion)
# ----------------------------------------------------------------------
@given(st.lists(mixed_scalars, max_size=60))
@settings(max_examples=200)
def test_coerce_matches_reference(values):
    new = Series(values).values
    ref = reference_coerce_values(values)
    assert new.dtype == ref.dtype
    assert_series_equal(Series._from_array(new), Series._from_array(ref))


# ----------------------------------------------------------------------
# Element-wise transforms
# ----------------------------------------------------------------------
@given(
    st.lists(mixed_scalars, max_size=50),
    st.dictionaries(
        st.one_of(st.integers(-5, 5), st.sampled_from(["a", "bb", "C", ""])),
        st.one_of(st.none(), st.integers(-9, 9), finite_floats, st.sampled_from(["u", "v"])),
        max_size=8,
    ),
)
@settings(max_examples=150)
def test_map_dict_matches_reference(values, mapping):
    s = Series(values)
    assert_series_equal(s.map(mapping), reference_map(s, mapping))


@given(st.lists(maybe_missing_floats, max_size=50))
@settings(max_examples=100)
def test_map_ufunc_matches_reference(values):
    s = Series(values)
    assert_series_equal(s.map(np.sign), reference_map(s, np.sign))


@given(st.lists(st.one_of(st.none(), st.just(float("nan")), finite_floats), max_size=50))
@settings(max_examples=100)
def test_apply_abs_matches_reference(values):
    s = Series(values)
    for func in (abs, np.abs):
        try:
            ref = reference_apply(s, func)
            ref_error = None
        except TypeError as exc:  # abs(None) on all-missing object columns
            ref, ref_error = None, exc
        try:
            new = s.apply(func)
            new_error = None
        except TypeError as exc:
            new, new_error = None, exc
        assert (ref_error is None) == (new_error is None)
        if ref is not None:
            assert_series_equal(new, ref)


@given(st.lists(finite_floats, max_size=50))
@settings(max_examples=100)
def test_apply_math_domain_errors_match(values):
    """math.sqrt on possibly-negative data: the vectorized dispatch must
    raise exactly what the element loop raised."""
    s = Series(values)
    try:
        ref = reference_apply(s, math.sqrt)
        ref_error = None
    except ValueError as exc:
        ref, ref_error = None, exc
    try:
        new = s.apply(math.sqrt)
        new_error = None
    except ValueError as exc:
        new, new_error = None, exc
    assert (ref_error is None) == (new_error is None)
    if ref is not None:
        assert_series_equal(new, ref)


@given(st.lists(mixed_scalars, max_size=50), st.sampled_from(["str", "float", "bool"]))
@settings(max_examples=150)
def test_astype_matches_reference(values, dtype):
    s = Series(values)
    try:
        ref = reference_astype(s, dtype)
        ref_error = None
    except (ValueError, TypeError) as exc:
        ref, ref_error = None, type(exc)
    try:
        new = s.astype(dtype)
        new_error = None
    except (ValueError, TypeError) as exc:
        new, new_error = None, type(exc)
    assert (ref_error is None) == (new_error is None)
    if ref is not None:
        assert_series_equal(new, ref)


@given(st.lists(st.one_of(st.integers(-50, 50), finite_floats, st.booleans()), max_size=50))
@settings(max_examples=100)
def test_astype_int_matches_reference(values):
    s = Series(values)
    try:
        ref = reference_astype(s, int)
        ref_error = None
    except (ValueError, OverflowError) as exc:  # NaN / out-of-range floats
        ref, ref_error = None, type(exc)
    try:
        new = s.astype(int)
        new_error = None
    except (ValueError, OverflowError) as exc:
        new, new_error = None, type(exc)
    assert new_error == ref_error
    if ref is not None:
        assert_series_equal(new, ref)


@given(
    st.lists(
        st.one_of(maybe_missing_floats, st.integers(-50, 50)), min_size=1, max_size=50
    ),
    st.lists(st.booleans(), min_size=1, max_size=50),
    st.one_of(st.none(), st.integers(-9, 9), finite_floats),
)
@settings(max_examples=200)
def test_where_matches_reference(values, mask, other):
    n = min(len(values), len(mask))
    s = Series(values[:n])
    cond = Series(mask[:n])
    assert_series_equal(s.where(cond, other), reference_where(s, cond, other))


@given(
    st.lists(mixed_scalars, max_size=50),
    st.lists(st.one_of(st.integers(-5, 5), finite_floats, st.sampled_from(["a", "bb"])), max_size=6),
)
@settings(max_examples=150)
def test_isin_matches_reference(values, lookup):
    s = Series(values)
    assert_series_equal(s.isin(lookup), reference_isin(s, lookup))


# ----------------------------------------------------------------------
# Uniques / counts / factorisation
# ----------------------------------------------------------------------
@given(st.lists(mixed_scalars, max_size=60))
@settings(max_examples=200)
def test_unique_counts_factorize_match_reference(values):
    s = Series(values)
    assert s.unique() == reference_unique(s)
    assert s.value_counts() == reference_value_counts(s)
    assert s.value_counts(normalize=True) == reference_value_counts(s, normalize=True)
    mode_new, mode_ref = s.mode(), reference_mode(s)
    assert (mode_new is None) == (mode_ref is None)
    if mode_ref is not None:
        assert mode_new == mode_ref
    codes_new, uniques_new = factorize(s)
    codes_ref, uniques_ref = reference_factorize(s)
    assert codes_new.tolist() == codes_ref.tolist()
    assert uniques_new == uniques_ref
    assert s.nunique(dropna=False) == reference_nunique(s, dropna=False)


# ----------------------------------------------------------------------
# Column profile: the screens' and the agenda's one scan
# ----------------------------------------------------------------------
PROFILE_CAP = 15

#: One NaN object shared by every cell that draws it (a set counts it once).
SHARED_NAN = float("nan")

profile_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5.0, math.inf, -math.inf]), finite_floats
)
object_cells = st.one_of(
    st.none(),
    st.just(SHARED_NAN),
    st.builds(float, st.just("nan")),  # a fresh NaN object per cell
    st.builds(np.float64, st.just("nan")),
    st.sampled_from(["nan", "NaN", "", "a", "b"]),
    st.sampled_from([0, 1, 0.0, 1.0, -0.0, True, False]),
    st.sampled_from([np.int64(1), np.float64(0.0), np.bool_(True)]),
    st.integers(-2, 20),
)


def _scalar_key(value):
    """Type plus repr: tells 1 from 1.0 from True, and 0.0 from -0.0."""
    return type(value), repr(value)


def assert_profile_matches_reference(values: np.ndarray, cap: int = PROFILE_CAP) -> None:
    """Each field of ``column_profile`` against the expressions it replaced."""
    profile = column_profile(values, cap)
    series = Series._from_array(values)
    uniques = reference_unique(series)
    assert profile.non_null == series.count()
    assert profile.single_valued == (reference_nunique(series, dropna=False) <= 1)
    if len(uniques) > cap:
        assert profile.uniques is None
    else:
        assert [_scalar_key(u) for u in profile.uniques] == [_scalar_key(u) for u in uniques]
    assert profile.binary == (set(uniques) <= {0, 1, 0.0, 1.0, True, False})
    assert profile == reference_column_profile(values, cap)


@st.composite
def float_columns(draw):
    """Floats with 0, 1 or several NaNs at random positions, ±0.0 and ±inf."""
    body = draw(st.lists(profile_floats, max_size=40))
    for _ in range(draw(st.sampled_from([0, 1, 2, 3]))):
        body.insert(draw(st.integers(0, len(body))), math.nan)
    return np.array(body, dtype=np.float64)


@st.composite
def cardinality_columns(draw):
    """Exactly 14-17 distinct present values around the cap of 15, as
    int, float or string columns, optionally with missing cells."""
    k = draw(st.sampled_from([14, 15, 16, 17]))
    pool = draw(
        st.sampled_from(
            [list(range(k)), [i / 2 for i in range(k)], [f"v{i}" for i in range(k)]]
        )
    )
    cells = draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), max_size=20))))
    for _ in range(draw(st.integers(0, 2))):
        cells.insert(draw(st.integers(0, len(cells))), None)
    return Series(cells).values


@given(float_columns())
@settings(max_examples=300)
def test_column_profile_floats_match_reference(values):
    assert_profile_matches_reference(values)


@given(
    st.one_of(
        st.lists(st.integers(-3, 20), max_size=60).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), max_size=20).map(lambda v: np.array(v, dtype=bool)),
    )
)
@settings(max_examples=200)
def test_column_profile_ints_and_bools_match_reference(values):
    assert_profile_matches_reference(values)


@given(st.lists(object_cells, max_size=40), st.sampled_from([0, 1, 2, PROFILE_CAP]))
@settings(max_examples=300)
def test_column_profile_objects_match_reference(cells, cap):
    values = np.empty(len(cells), dtype=object)
    values[:] = cells
    assert_profile_matches_reference(values, cap)


@given(cardinality_columns(), st.sampled_from([0, 1, 2, 14, 15, 16]))
@settings(max_examples=200)
def test_column_profile_around_the_cap_matches_reference(values, cap):
    assert_profile_matches_reference(values, cap)


def test_column_profile_long_columns_match_reference():
    """Past the probe rows: a late new value, a tail of probe values only,
    and high-cardinality text that exits early."""
    rng = np.random.default_rng(0)
    low = rng.integers(0, 10, 5000)
    late = low.copy()
    late[4000] = 99
    crowded = late.copy()
    crowded[4001:4010] = np.arange(200, 209)
    columns = [low, late, crowded, low.astype(np.float64), late / 2.0]
    strings = np.array([f"c{v}" for v in low], dtype=object)
    late_strings = strings.copy()
    late_strings[4500] = "late"
    text = np.array([f"t{i}" for i in range(5000)], dtype=object)
    text[7] = None
    columns += [strings, late_strings, text]
    for values in columns:
        assert_profile_matches_reference(values)
    # Two binary keys in the probe rows must not settle a cap-1 profile.
    late_text = np.array([0, 1] * 1000 + ["a"], dtype=object)
    assert_profile_matches_reference(late_text, cap=1)


def test_nan_counts_apart_so_one_value_plus_two_nans_is_not_single_valued():
    values = np.array([5.0, math.nan, math.nan])
    assert not column_profile(values, PROFILE_CAP).single_valued
    assert Series._from_array(values).nunique(dropna=False) == 3


def test_repeated_value_is_single_valued():
    values = np.array([5.0, 5.0])
    assert column_profile(values, PROFILE_CAP).single_valued
    assert Series._from_array(values).nunique(dropna=False) == 1


def test_signed_zeros_are_single_valued():
    values = np.array([0.0, -0.0])
    profile = column_profile(values, PROFILE_CAP)
    assert profile.single_valued and profile.binary
    assert [_scalar_key(u) for u in profile.uniques] == [_scalar_key(0.0)]


def _uniques_columns() -> dict[str, np.ndarray]:
    """Int, bool and float columns longer than the probe rows, each with
    the case named: the linear probe must match ``np.unique`` on all."""
    rng = np.random.default_rng(0)
    n = 3 * _PROBE_ROWS
    low = rng.integers(0, 3, n)
    late = low.copy()
    late[2 * _PROBE_ROWS] = 9
    crowded = low.copy()  # 3 probe values, then 14 more only in the tail
    crowded[_PROBE_ROWS + 1 : _PROBE_ROWS + 15] = np.arange(100, 114)
    zeros = np.zeros(n)
    zeros[: _PROBE_ROWS] = -0.0
    flip = -zeros
    falses = np.ones(n, dtype=bool)
    falses[-1] = False
    return {
        "int": low,
        "int_short": low[:100],
        "int_new_after_probe": late,
        "int_wide_range": low * 10**12,
        "int_over_cap_in_head": rng.integers(0, 40, n),
        "int_over_cap_after_probe": crowded,
        "bool": low.astype(bool),
        "bool_new_after_probe": falses,
        "float": low / 2.0,
        "float_new_after_probe": late / 2.0,
        "float_over_cap_after_probe": crowded / 2.0,
        "float_neg_zero_then_zero": zeros,
        "float_zero_then_neg_zero": flip,
    }


@pytest.mark.parametrize("case", sorted(_uniques_columns()))
def test_numeric_uniques_match_numpy_unique(case):
    values = _uniques_columns()[case]
    distinct, first = np.unique(values, return_index=True)
    want = None if len(distinct) > PROFILE_CAP else values[np.sort(first)].tolist()
    got = _numeric_uniques(values, PROFILE_CAP)
    if want is None:
        assert got is None
    else:
        assert [_scalar_key(u) for u in got] == [_scalar_key(u) for u in want]


@given(st.lists(st.sampled_from(["x", "y", "z", "w"]), max_size=40), st.booleans())
@settings(max_examples=100)
def test_get_dummies_matches_reference(values, drop_first):
    s = Series(values, name="c")
    assert_frame_equal(
        get_dummies(s, drop_first=drop_first),
        reference_get_dummies(s, drop_first=drop_first),
    )


@given(
    st.lists(st.one_of(st.none(), finite_floats), max_size=40),
    st.lists(st.integers(-20, 20), min_size=2, max_size=6, unique=True),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150)
def test_cut_matches_reference(values, edges, right, with_labels):
    s = Series(values)
    edges = sorted(edges)
    labels = [f"bin{i}" for i in range(len(edges) - 1)] if with_labels else None
    assert_series_equal(
        cut(s, edges, labels=labels, right=right),
        reference_cut(s, edges, labels=labels, right=right),
    )


# ----------------------------------------------------------------------
# Group-by: segmented reductions vs per-group loops
# ----------------------------------------------------------------------
@given(
    st.lists(group_keys, min_size=1, max_size=60),
    st.lists(maybe_missing_floats, min_size=1, max_size=60),
    st.sampled_from(AGG_NAMES),
)
@settings(max_examples=200)
def test_groupby_single_key_matches_reference(keys, values, agg):
    n = min(len(keys), len(values))
    frame = DataFrame({"k": keys[:n], "v": values[:n]})
    assert_series_equal(
        frame.groupby("k")["v"].transform(agg),
        reference_groupby_transform(frame, "k", "v", agg),
    )
    assert_frame_equal(
        frame.groupby("k")["v"].agg(agg),
        reference_groupby_agg(frame, "k", "v", agg),
    )


@given(
    st.lists(group_keys, min_size=1, max_size=50),
    st.lists(st.sampled_from(["p", "q"]), min_size=1, max_size=50),
    st.lists(maybe_missing_floats, min_size=1, max_size=50),
    st.sampled_from(("mean", "sum", "min", "max", "count")),
)
@settings(max_examples=150)
def test_groupby_multi_key_matches_reference(keys_a, keys_b, values, agg):
    n = min(len(keys_a), len(keys_b), len(values))
    frame = DataFrame({"a": keys_a[:n], "b": keys_b[:n], "v": values[:n]})
    assert_series_equal(
        frame.groupby(["a", "b"])["v"].transform(agg),
        reference_groupby_transform(frame, ["a", "b"], "v", agg),
    )
    assert_frame_equal(
        frame.groupby(["a", "b"])["v"].agg(agg),
        reference_groupby_agg(frame, ["a", "b"], "v", agg),
    )


@given(
    st.lists(st.one_of(group_keys, st.none()), min_size=1, max_size=40),
    st.lists(maybe_missing_floats, min_size=1, max_size=40),
)
@settings(max_examples=100)
def test_groupby_missing_keys_fall_back_identically(keys, values):
    """None/NaN group keys group like the reference's dict: ``None`` one
    group, each NaN key its own."""
    n = min(len(keys), len(values))
    frame = DataFrame({"k": keys[:n], "v": values[:n]})
    assert_series_equal(
        frame.groupby("k")["v"].transform("mean"),
        reference_groupby_transform(frame, "k", "v", "mean"),
    )


@given(
    st.lists(group_keys, min_size=1, max_size=40),
    st.lists(maybe_missing_floats, min_size=1, max_size=40),
)
@settings(max_examples=100)
def test_groupby_callable_matches_reference(keys, values):
    n = min(len(keys), len(values))
    frame = DataFrame({"k": keys[:n], "v": values[:n]})
    spread = lambda s: (s.max() or 0.0) - (s.min() or 0.0)  # noqa: E731
    assert_series_equal(
        frame.groupby("k")["v"].transform(spread),
        reference_groupby_transform(frame, "k", "v", spread),
    )


# ----------------------------------------------------------------------
# Generated transforms: vectorized emissions vs the retained loop sources
# ----------------------------------------------------------------------
@given(
    st.lists(st.one_of(st.none(), st.floats(min_value=-50, max_value=5000, width=32)), min_size=1, max_size=50),
    st.lists(st.one_of(st.none(), st.integers(-5, 5)), min_size=1, max_size=50),
)
@settings(max_examples=100)
def test_codegen_log_and_division_match_reference(amounts, divisors):
    from repro.core.sandbox import run_transform
    from repro.fm.codegen import generate_transform_source
    from repro.fm.knowledge import KnowledgeStore

    n = min(len(amounts), len(divisors))
    frame = DataFrame({"Income": amounts[:n], "Balance": divisors[:n]})
    knowledge = KnowledgeStore()
    new_log = run_transform(
        generate_transform_source("f", ["Income"], "log_transform: squash", knowledge), frame
    )
    ref_log = run_transform(
        REFERENCE_TRANSFORM_SOURCES["log_transform"].format(col="Income"), frame
    )
    assert_series_equal(new_log, ref_log)
    new_div = run_transform(
        generate_transform_source("g", ["Income", "Balance"], "binary[/]: ratio", knowledge),
        frame,
    )
    ref_div = run_transform(
        REFERENCE_TRANSFORM_SOURCES["binary_div"].format(a="Income", b="Balance"), frame
    )
    assert_series_equal(new_div, ref_div)


def test_codegen_knowledge_map_matches_reference():
    from repro.core.sandbox import run_transform
    from repro.fm.codegen import generate_transform_source
    from repro.fm.knowledge import KnowledgeStore

    knowledge = KnowledgeStore()
    frame = DataFrame({"City": ["SF", "LA", "SEA", None, "Nowhere", "SF"]})
    values = {"City": ["SF", "LA", "SEA"]}
    source = generate_transform_source(
        "density", ["City"], "knowledge_map[city_population_density]: d", knowledge, values
    )
    mapping = knowledge.mapping_for("city_population_density", values["City"])
    default = knowledge.default_for("city_population_density")
    entries = ", ".join(f"{k!r}: {v!r}" for k, v in mapping.items())
    ref_source = REFERENCE_TRANSFORM_SOURCES["knowledge_map"].format(
        entries="{%s}" % entries, col="City", default=default
    )
    assert_series_equal(run_transform(source, frame), run_transform(ref_source, frame))


# ----------------------------------------------------------------------
# Row iteration: one extraction, identical rows
# ----------------------------------------------------------------------
@given(st.lists(mixed_scalars, min_size=1, max_size=30), st.lists(mixed_scalars, min_size=1, max_size=30))
@settings(max_examples=50)
def test_row_tuples_match_iterrows(col_a, col_b):
    n = min(len(col_a), len(col_b))
    frame = DataFrame({"a": col_a[:n], "b": col_b[:n]})
    names, rows = frame.row_tuples()
    assert names == ["a", "b"]
    reconstructed = [dict(zip(names, vals)) for vals in rows]
    via_iterrows = [row.to_dict() for _, row in frame.iterrows()]
    assert len(reconstructed) == len(via_iterrows) == n
    for left, right in zip(reconstructed, via_iterrows):
        for key in names:
            x, y = left[key], right[key]
            if _is_missing_scalar(x) or _is_missing_scalar(y):
                assert _is_missing_scalar(x) and _is_missing_scalar(y)
            else:
                assert x == y
