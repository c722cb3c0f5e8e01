"""Property-based integration: selector + simulator over random schemas.

Whatever schema the agenda describes, every candidate the simulated FM
proposes must be *well-formed*: it references only existing columns,
carries a parseable operator tag, and realises into a full-length column.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataAgenda, FunctionGenerator, OperatorSelector
from repro.core.function_generator import RealizedFeature
from repro.core.types import OperatorFamily
from repro.dataframe import DataFrame
from repro.fm import SimulatedFM
from repro.fm.codegen import derivation_tag

_COLUMN_POOLS = {
    "Age": [23.0, 34.0, 45.0, 56.0, 67.0, 21.0],
    "Income": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
    "Glucose": [90.0, 120.0, 100.0, 140.0, 95.0, 180.0],
    "NumVisits": [1.0, 2.0, 0.0, 5.0, 3.0, 2.0],
    "City": ["SF", "LA", "SEA", "SF", "LA", "SEA"],
    "JobRole": ["eng", "sales", "eng", "ops", "sales", "eng"],
    "Score": [0.1, 0.5, 0.9, 0.3, 0.7, 0.2],
    "HasFlag": [0, 1, 0, 1, 1, 0],
}

subsets = st.sets(st.sampled_from(sorted(_COLUMN_POOLS)), min_size=2, max_size=6)


def _build(columns):
    data = {name: list(_COLUMN_POOLS[name]) * 10 for name in sorted(columns)}
    data["target"] = [0, 1, 0, 1, 1, 0] * 10
    frame = DataFrame(data)
    agenda = DataAgenda.from_dataframe(frame, target="target", model="rf")
    return frame, agenda


@settings(max_examples=25, deadline=None)
@given(subsets, st.integers(min_value=0, max_value=99))
def test_binary_candidates_reference_real_columns(columns, seed):
    frame, agenda = _build(columns)
    selector = OperatorSelector(SimulatedFM(seed=seed))
    candidate = selector.sample_batch(OperatorFamily.BINARY, agenda, 1)[0].unwrap()
    if candidate is None:
        return
    for column in candidate.columns:
        assert column in agenda
    assert derivation_tag(candidate.description) == "binary"


@settings(max_examples=25, deadline=None)
@given(subsets, st.integers(min_value=0, max_value=99))
def test_high_order_candidates_reference_real_columns(columns, seed):
    frame, agenda = _build(columns)
    selector = OperatorSelector(SimulatedFM(seed=seed))
    candidate = selector.sample_batch(OperatorFamily.HIGH_ORDER, agenda, 1)[0].unwrap()
    if candidate is None:
        return
    for column in candidate.columns:
        assert column in agenda
    assert candidate.params["function"] in ("mean", "max", "min", "sum", "count")


@settings(max_examples=15, deadline=None)
@given(subsets, st.integers(min_value=0, max_value=99))
def test_unary_candidates_realize_full_length(columns, seed):
    frame, agenda = _build(columns)
    fm = SimulatedFM(seed=seed)
    selector = OperatorSelector(fm)
    generator = FunctionGenerator(fm)
    attr = sorted(columns)[0]
    for candidate in selector.unary_candidates_batch(agenda, [attr])[0].unwrap():
        realized = generator.realize(candidate, agenda, frame)
        assert isinstance(realized, RealizedFeature)
        for series in realized.values.values():
            assert len(series) == len(frame)
