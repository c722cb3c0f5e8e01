"""The op table is the one declaration of each IR op and each source form.

* Each source form's declared signature is the pandas-facade method's
  (names, order, defaults), so the lifter binds a call exactly as the
  sandbox and the CAAFE baseline run it.
* A plan node missing a field its op declares, holding a name or list
  field of another JSON kind than the op declares, or holding something
  other than an expression node in a child slot, fails at load with a
  :class:`PlanSchemaError` naming the feature, the op and the field —
  through ``from_json``, ``FeaturePlan.load`` and the registry alike.
"""

import copy
import inspect

import pytest

from repro.dataframe import pandas_facade
from repro.dataframe.expr import (
    DATE_PARTS,
    OPS,
    SOURCE_FORMS,
    ExprError,
    validate_expr,
    vocabularies,
)
from repro.dataframe.frame import DataFrame
from repro.dataframe.groupby import SeriesGroupBy
from repro.dataframe.series import DatetimeAccessor, Series, StringAccessor
from repro.eval.serving import build_demo_result
from repro.serve import FeaturePlan, PlanRegistry, PlanSchemaError, compile_plan
from repro.serve.resilience import plan_known_categories

#: The facade object each receiver kind stands for at fit time.
RECEIVERS = {
    "pd": pandas_facade,
    "frame": DataFrame,
    "split": DataFrame,
    "grouped": SeriesGroupBy,
    "series": Series,
    "isna": Series,
    "str": StringAccessor,
}


def _shape(signature: inspect.Signature) -> list:
    return [(p.name, p.kind, p.default) for p in signature.parameters.values()]


@pytest.mark.parametrize("kind, method", sorted(SOURCE_FORMS))
def test_declared_signature_is_the_facade_methods(kind, method):
    declared, _ = SOURCE_FORMS[kind, method]
    facade = inspect.signature(getattr(RECEIVERS[kind], method))
    assert _shape(declared) == _shape(facade)


def test_date_parts_are_the_datetime_accessors_properties():
    properties = {
        name for name, value in vars(DatetimeAccessor).items() if isinstance(value, property)
    }
    assert DATE_PARTS == properties


@pytest.mark.parametrize("op", sorted(OPS))
def test_each_op_has_exactly_one_of_kernel_and_freeze(op):
    spec = OPS[op]
    assert (spec.kernel is None) != (spec.freeze is None)
    assert spec.fit is None or spec.freeze is not None
    assert spec.yields in ("column", "columns", "scalar")


# ----------------------------------------------------------------------
# Malformed nodes fail at load
# ----------------------------------------------------------------------
def _nodes(node: dict, path: tuple = ()):
    """``(path, node)`` of every node of a frozen tree, by child slot."""
    yield path, node
    for slot in OPS[node["op"]].children:
        yield from _nodes(node[slot], (*path, slot))


def _demo_plan() -> FeaturePlan:
    result, frame = build_demo_result(120, seed=0)
    return compile_plan(result, frame, "Target")


def _first_node_per_op(plan: FeaturePlan) -> dict:
    """op → (feature index, child-slot path) of its first node in the plan."""
    found = {}
    for index, spec in enumerate(plan.features):
        for path, node in _nodes(spec.expr):
            found.setdefault(node["op"], (index, path))
    return found


DEMO_PLAN = _demo_plan()
DEMO_NODES = _first_node_per_op(DEMO_PLAN)
CASES = [
    (op, field)
    for op in sorted(DEMO_NODES)
    for field in (*OPS[op].fields, *OPS[op].children)
]


def _node_at(plan: FeaturePlan, op: str) -> tuple[str, dict]:
    index, path = DEMO_NODES[op]
    spec = plan.features[index]
    node = spec.expr
    for slot in path:
        node = node[slot]
    return spec.name, node


def _load_from_json(plan: FeaturePlan, tmp_path):
    return FeaturePlan.from_json(plan.to_json())


def _load_from_file(plan: FeaturePlan, tmp_path):
    path = tmp_path / "plan.json"
    plan.save(str(path))
    return FeaturePlan.load(str(path))


def _load_from_registry(plan: FeaturePlan, tmp_path):
    PlanRegistry(str(tmp_path)).save(plan, "demo")
    return PlanRegistry(str(tmp_path)).load("demo")


LOADERS = {
    "from_json": _load_from_json,
    "load": _load_from_file,
    "registry": _load_from_registry,
}


def test_demo_plan_covers_the_serving_ops():
    assert len(DEMO_NODES) >= 19
    assert {op for op, spec in OPS.items() if spec.kernel} <= set(DEMO_NODES) | {
        "qcut_collapsed"
    }


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_the_intact_demo_plan_loads(loader, tmp_path):
    loaded = LOADERS[loader](copy.deepcopy(DEMO_PLAN), tmp_path)
    assert loaded.to_dict() == DEMO_PLAN.to_dict()


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("op, field", CASES)
def test_node_missing_a_declared_field_fails_at_load(op, field, loader, tmp_path):
    plan = copy.deepcopy(DEMO_PLAN)
    feature, node = _node_at(plan, op)
    del node[field]
    with pytest.raises(PlanSchemaError) as excinfo:
        LOADERS[loader](plan, tmp_path)
    message = str(excinfo.value)
    assert f"feature {feature!r}" in message
    assert repr(op) in message and repr(field) in message


#: A value of the wrong JSON kind for each declared kind.
WRONG_KIND = {str: ["a"], list: "05"}
KIND_CASES = [
    (op, field)
    for op in sorted(DEMO_NODES)
    for field, kind in OPS[op].fields.items()
    if kind is not None
]


def test_every_name_and_list_field_declares_its_kind():
    assert ("cut", "edges") in KIND_CASES and ("group_lookup", "keys") in KIND_CASES
    for op in (spec for spec in OPS.values() if spec.kernel):  # what a plan holds
        for field in set(op.reads) & set(op.fields):
            assert op.fields[field] in (str, list), field


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("op, field", KIND_CASES)
def test_a_field_of_the_wrong_kind_fails_at_load(op, field, loader, tmp_path):
    plan = copy.deepcopy(DEMO_PLAN)
    feature, node = _node_at(plan, op)
    node[field] = WRONG_KIND[OPS[op].fields[field]]
    with pytest.raises(PlanSchemaError) as excinfo:
        LOADERS[loader](plan, tmp_path)
    message = str(excinfo.value)
    assert f"feature {feature!r}: {op!r} node's {field!r} field must be a" in message


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_child_slot_holding_a_scalar_fails_at_load(loader, tmp_path):
    plan = copy.deepcopy(DEMO_PLAN)
    feature, node = _node_at(plan, "add")
    node["left"] = 5
    with pytest.raises(PlanSchemaError, match=f"feature {feature!r}: 'add' node's 'left'"):
        LOADERS[loader](plan, tmp_path)


@pytest.mark.parametrize(
    "node, reason",
    [
        ({"op": "add", "left": 5, "right": {"op": "col", "name": "a"}}, "'left'"),
        ({"op": "col"}, "'name'"),
        ({"op": "clip", "lower": 0}, "'arg'"),
        ({"op": "dummies", "column": "c", "categories": ["x"]}, "'names'"),
        ({"op": "fillna", "arg": {"op": "col"}, "value": 0}, "'col' node lacks its 'name'"),
        ({"op": "cut", "column": "c", "edges": "05"}, "'cut' node's 'edges' field must be a list"),
        (
            {"op": "group_lookup", "keys": "g", "agg": "mean", "table": [], "value_kind": "f8"},
            "'group_lookup' node's 'keys' field must be a list",
        ),
        ({"op": "col", "name": 3}, "'col' node's 'name' field must be a string"),
        ({"op": "split_parts", "column": "c", "sep": None, "outputs": []}, "'sep'"),
    ],
)
def test_validate_expr_names_the_op_and_field(node, reason):
    with pytest.raises(ExprError, match=reason):
        validate_expr(node)


def test_known_categories_are_the_frozen_vocabularies():
    """The drift check's vocabularies: dummies categories, dict_map keys
    and each group_lookup key column's table values, node by node."""
    known: dict[str, set] = {}
    for spec in DEMO_PLAN.features:
        expected = []
        for _, node in _nodes(spec.expr):
            if node["op"] == "dummies":
                expected.append((node["column"], node["categories"]))
            elif node["op"] == "dict_map":
                expected.append((node["column"], node["keys"]))
            elif node["op"] == "group_lookup":
                for j, key in enumerate(node["keys"]):
                    expected.append((key, [row[j] for row in node["table"]]))
        assert vocabularies(spec.expr) == expected, spec.name
        for column, values in expected:
            known.setdefault(column, set()).update(values)
    assert {"City", "Segment"} <= set(known)
    assert plan_known_categories(DEMO_PLAN) == known
