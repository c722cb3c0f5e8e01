"""Compile a fitted run's accepted features into a :class:`FeaturePlan`.

Strategy: **rebuild and verify**.  Starting from the *original* input
frame (the fitted result drops some originals, so its frame cannot seed
the rebuild), each accepted feature is compiled to an expression
template, frozen against the rebuild state at its install point (fit-time
statistics — means, quantile edges, group tables, dummy categories — are
captured as constants), evaluated, and compared **bitwise** against the
fitted frame's columns.  Only a feature whose replay is value-, dtype-,
and missingness-identical ships as ``compiled``; anything else is
recorded as ``omitted`` with a reason.  The fitted outputs are installed
into the rebuild either way, so later features always freeze against the
exact state fit saw.

Templates are lifted from each feature's accepted ``def transform(df)``
source — never from its description — by :func:`lift_source`, a symbolic
evaluation of the source's ``ast`` over a whitelisted pandas subset
(column arithmetic, clip/ufunc/where, isna, map/fillna, cut/qcut,
get_dummies, group-by transforms, string length/split, date parts, and
fit-time statistics, which become fit nodes).  Nothing is executed.  The
function generator lifts every FM answer before it runs it and rejects
one outside the subset (:class:`Unliftable`), so a fitted feature always
lifts; a wrong lift fails the bitwise check, so it can never ship.
"""

from __future__ import annotations

import ast
import inspect
import json
import operator
import re
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dataframe import kernels as _kernels
from repro.dataframe import pandas_facade as _pd
from repro.dataframe.expr import (
    ExprError,
    evaluate_feature,
    expr_columns,
    freeze_expr,
)
from repro.dataframe.frame import DataFrame
from repro.dataframe.groupby import SeriesGroupBy
from repro.dataframe.series import DatetimeAccessor, Series, StringAccessor
from repro.serve.plan import FeaturePlan, FeatureSpec, column_kind

__all__ = [
    "Unliftable",
    "compile_plan",
    "frames_identical",
    "lift_source",
    "series_identical",
]

#: Marker the pipeline stamps on features materialised by per-row FM
#: completion rather than generated code.
_ROW_LEVEL_SENTINEL = "<row-level FM completion>"

_JSON_SCALARS = (str, int, float, bool)


# ----------------------------------------------------------------------
# Bitwise comparison
# ----------------------------------------------------------------------
def series_identical(a: Series, b: Series) -> bool:
    """True when two Series match in dtype, missingness, and every value."""
    if len(a) != len(b) or a.dtype != b.dtype:
        return False
    va, vb = a.values, b.values
    if va.dtype.kind == "f":
        return bool(np.array_equal(va, vb, equal_nan=True))
    if va.dtype == object:
        for x, y in zip(va, vb):
            mx = _kernels.is_missing_scalar(x)
            if mx != _kernels.is_missing_scalar(y):
                return False
            if mx:
                continue
            if type(x) is not type(y) or x != y:
                return False
        return True
    return bool(np.array_equal(va, vb))


def frames_identical(a: DataFrame, b: DataFrame) -> tuple[bool, str]:
    """Column-for-column bitwise identity; returns ``(ok, first difference)``."""
    if a.columns != b.columns:
        return False, f"column sets differ: {a.columns} vs {b.columns}"
    for name in a.columns:
        if not series_identical(a[name], b[name]):
            return False, f"column {name!r} differs (dtype/values/missingness)"
    return True, ""


# ----------------------------------------------------------------------
# Lifting accepted source to the expression IR
# ----------------------------------------------------------------------
class Unliftable(Exception):
    """The source steps outside the subset the lifter understands; the
    message says where."""


@dataclass(frozen=True)
class _Lit:
    """A value known at lift time: a literal, or a builtin over literals."""

    value: Any


@dataclass(frozen=True)
class _Ref:
    """A lift-time value that is neither a literal nor a column expression:
    the frame, a module, an accessor, a group-by, a split, a mask …"""

    kind: str
    args: tuple = ()


#: Names of the sandbox namespace the lifter follows.
_GLOBALS = {
    "pd": _Ref("pd"),
    "np": _Ref("np"),
    **{fn.__name__: _Lit(fn) for fn in (float, int, len, list, range, tuple)},
}

#: What each receiver kind is at fit time; its method signatures bind a
#: call's arguments exactly as the sandbox will.
_RECEIVERS = {
    "pd": _pd,
    "frame": DataFrame,
    "grouped": SeriesGroupBy,
    "series": Series,
    "isna": Series,
    "str": StringAccessor,
    "split": DataFrame,
}

_ARITH = {
    ast.Add: ("add", operator.add),
    ast.Sub: ("sub", operator.sub),
    ast.Mult: ("mul", operator.mul),
    ast.Div: ("div", operator.truediv),
    ast.Pow: ("pow", operator.pow),
}

_NUMBER = (int, float)
_OPTIONAL_LIST = (list, tuple, type(None))

#: The split-and-strip loop (as ``ast.unparse`` prints it): loop name,
#: split parts, output frame.
_STRIP_LOOP = re.compile(
    r"for (\w+) in (\w+)\.columns:\n    (\w+)\[\1\] = \2\[\1\]\.str\.strip\(\)"
)


def _is_ref(value: Any, kind: str) -> bool:
    return isinstance(value, _Ref) and value.kind == kind


def _lit(value: Any, *types: type) -> Any:
    """The literal *value* holds, optionally restricted to exact *types*."""
    if not isinstance(value, _Lit) or (types and type(value.value) not in types):
        raise Unliftable("expected a literal")
    return value.value


def _column(value: Any) -> str:
    """The column a plain ``df[c]`` reference names."""
    if not (isinstance(value, dict) and value["op"] == "col"):
        raise Unliftable("expected a plain column reference")
    return value["name"]


def _operand(value: Any) -> dict:
    if isinstance(value, dict):
        return value
    return {"op": "const", "value": _lit(value, *_NUMBER)}


def _fold(fn: Any, *args: Any) -> _Lit:
    """Apply a whitelisted builtin or operator to literals."""
    if not callable(fn):
        raise Unliftable("call of a non-callable literal")
    try:
        return _Lit(fn(*args))
    except (TypeError, ValueError, ArithmeticError) as exc:  # the source raises too
        raise Unliftable(f"literal arithmetic failed: {exc}") from None


def _bind(kind: str, method: str, receiver: Any, args: list, keywords: dict) -> dict:
    """Call arguments by parameter name, defaults filled in as literals."""
    fn = getattr(_RECEIVERS.get(kind), method, None)
    if method.startswith("_") or not callable(fn):
        raise Unliftable(f"unsupported call .{method}() on {kind}")
    own = [] if kind == "pd" else [receiver]
    try:
        bound = inspect.signature(fn).bind(*own, *args, **keywords)
    except (TypeError, ValueError) as exc:
        raise Unliftable(f".{method}(): {exc}") from None
    bound.apply_defaults()
    return {
        name: value if isinstance(value, (_Lit, _Ref, dict)) else _Lit(value)
        for name, value in bound.arguments.items()
    }


class _Lifter:
    """Symbolic evaluation of a ``def transform(df)`` body into the IR.

    Straight-line statements only: each name binds to an IR node, a
    :class:`_Lit` or a :class:`_Ref`, and conditions resolve at lift
    time.  Anything else raises :class:`Unliftable`.
    """

    def __init__(self, frame_name: str) -> None:
        self.env: dict[str, Any] = {frame_name: _Ref("frame")}

    def run(self, body: list[ast.stmt]) -> dict:
        for stmt in body:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                value = self.lift_expr(stmt.value)
                if not isinstance(value, dict):
                    raise Unliftable("the returned value is not a column expression")
                return value
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                self.assign(stmt.targets[0], stmt.value)
            elif isinstance(stmt, ast.For):
                self.strip_loop(stmt)
            elif not (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            ):
                raise Unliftable(f"unsupported statement {type(stmt).__name__}")
        raise Unliftable("no return statement")

    def assign(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.lift_expr(value)
            return
        if not (
            isinstance(target, ast.Tuple)
            and isinstance(value, ast.Tuple)
            and len(target.elts) == len(value.elts)
            and all(isinstance(t, ast.Name) for t in target.elts)
        ):
            raise Unliftable("unsupported assignment target")
        values = [self.lift_expr(v) for v in value.elts]
        for name, bound in zip(target.elts, values):
            self.env[name.id] = bound

    def strip_loop(self, stmt: ast.For) -> None:
        """``for c in parts.columns: out[c] = parts[c].str.strip()`` over a
        split and an empty frame binds *out* to the stripped split."""
        match = _STRIP_LOOP.fullmatch(ast.unparse(stmt))
        name, parts, out = match.groups() if match else (None, None, None)
        if not (
            _is_ref(self.env.get(parts), "split")
            and _is_ref(self.env.get(out), "empty_frame")
        ):
            raise Unliftable("unsupported loop")
        column, sep, rename = self.env[parts].args
        self.env[out] = {
            "op": "fit_split_outputs",
            "column": column,
            "sep": sep,
            "rename": rename,
        }
        self.env.pop(name, None)  # bound to a data-dependent column name

    def lift_expr(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Constant):
            return _Lit(node.value)
        if isinstance(node, ast.Name):
            value = self.env.get(node.id, _GLOBALS.get(node.id))
            if value is None:
                raise Unliftable(f"unknown name {node.id!r}")
            return value
        if isinstance(node, (ast.List, ast.Tuple)):
            items = [_lit(self.lift_expr(e)) for e in node.elts]
            return _Lit(items if isinstance(node, ast.List) else tuple(items))
        if isinstance(node, ast.Dict):
            if None in node.keys:
                raise Unliftable("dict unpacking")
            keys = [_lit(self.lift_expr(k)) for k in node.keys]
            values = [self.lift_expr(v) for v in node.values]
            if all(isinstance(v, _Lit) for v in values):
                return _Lit({k: v.value for k, v in zip(keys, values)})
            return _Ref("columns", tuple(zip(keys, values)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return _Lit(-_lit(self.lift_expr(node.operand), *_NUMBER))
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            name, fn = _ARITH[type(node.op)]
            left, right = self.lift_expr(node.left), self.lift_expr(node.right)
            if isinstance(left, _Lit) and isinstance(right, _Lit):
                return _fold(fn, left.value, right.value)
            return {"op": name, "left": _operand(left), "right": _operand(right)}
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            if len(node.values) != 2:
                raise Unliftable("unsupported `or`")
            left, right = (self.lift_expr(v) for v in node.values)
            if isinstance(left, _Lit):
                return left if left.value else right
            return {"op": "fit_or", "left": _operand(left), "right": _operand(right)}
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, right = self.lift_expr(node.left), self.lift_expr(node.comparators[0])
            return self.compare(node.ops[0], left, right)
        if isinstance(node, ast.IfExp):
            test = _lit(self.lift_expr(node.test), bool)
            return self.lift_expr(node.body if test else node.orelse)
        if isinstance(node, ast.Attribute):
            return self.attribute(self.lift_expr(node.value), node.attr)
        if isinstance(node, ast.Subscript):
            base, key = self.lift_expr(node.value), _lit(self.lift_expr(node.slice))
            if _is_ref(base, "frame") and isinstance(key, str):
                return {"op": "col", "name": key}
            if _is_ref(base, "groupby") and isinstance(key, str):
                return _Ref("grouped", (*base.args, key))
            raise Unliftable("unsupported subscript")
        if isinstance(node, ast.Call):
            return self.call(node)
        raise Unliftable(f"unsupported expression {type(node).__name__}")

    def compare(self, op: ast.cmpop, left: Any, right: Any) -> _Lit | _Ref:
        if isinstance(op, (ast.Is, ast.IsNot)) and right == _Lit(None):
            # Only a literal can be None; a lifted column never is.
            is_none = isinstance(left, _Lit) and left.value is None
            return _Lit(is_none == isinstance(op, ast.Is))
        if isinstance(op, ast.NotEq) and isinstance(left, dict) and right == _Lit(0):
            return _Ref("nonzero", (left,))
        raise Unliftable("unsupported comparison")

    def attribute(self, base: Any, attr: str) -> _Ref:
        if _is_ref(base, "np"):
            return _Ref("ufunc", (attr,))
        if attr in ("str", "dt") and isinstance(base, dict):
            return _Ref(attr, (_column(base),))
        if _is_ref(base, "dt") and isinstance(
            getattr(DatetimeAccessor, attr, None), property
        ):
            return _Ref("date_part", (*base.args, attr))
        raise Unliftable(f"unsupported attribute {attr!r}")

    def call(self, node: ast.Call) -> Any:
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            raise Unliftable("unpacked call arguments")
        args = [self.lift_expr(a) for a in node.args]
        keywords = {kw.arg: self.lift_expr(kw.value) for kw in node.keywords}
        if not isinstance(node.func, ast.Attribute):  # a builtin over literals
            if keywords:
                raise Unliftable("keywords on a builtin call")
            return _fold(_lit(self.lift_expr(node.func)), *(_lit(a) for a in args))
        receiver, method = self.lift_expr(node.func.value), node.func.attr
        if isinstance(receiver, _Ref):
            kind = receiver.kind
        else:
            kind = "series" if isinstance(receiver, dict) else "literal"
        a = _bind(kind, method, receiver, args, keywords)
        match kind, method:
            case "pd", "cut":
                edges = _lit(a["bins"], list, tuple)
                labels = _lit(a["labels"], *_OPTIONAL_LIST)
                if all(type(e) in _NUMBER for e in edges):
                    return {
                        "op": "cut",
                        "column": _column(a["series"]),
                        "edges": [float(e) for e in edges],
                        "labels": None if labels is None else list(labels),
                        "right": _lit(a["right"], bool),
                    }
            case "pd", "qcut":
                return {
                    "op": "fit_qcut",
                    "column": _column(a["series"]),
                    "q": _lit(a["q"], int),
                    "labels": _lit(a["labels"], *_OPTIONAL_LIST),
                }
            case "pd", "get_dummies" if (a["columns"], a["drop_first"]) == (
                _Lit(None),
                _Lit(False),
            ):
                column, prefix = _column(a["data"]), _lit(a["prefix"], str, type(None))
                return {
                    "op": "fit_categories",
                    "column": column,
                    "prefix": column if prefix is None else prefix,
                }
            case "pd", "DataFrame":
                if a["data"] == _Lit({}):
                    return _Ref("empty_frame")
                items = a["data"].args if _is_ref(a["data"], "columns") else ()
                parts = [v.args for _, v in items if _is_ref(v, "date_part")]
                columns = {column for column, _ in parts}
                if items and len(parts) == len(items) and len(columns) == 1:
                    return {
                        "op": "date_split",
                        "column": parts[0][0],
                        "outputs": [
                            [part, name] for (_, part), (name, _) in zip(parts, items)
                        ],
                    }
            case "frame", "groupby":
                keys = _lit(a["by"], str, list, tuple)
                keys = [keys] if isinstance(keys, str) else list(keys)
                return _Ref("groupby", (keys,))
            case "grouped", "transform":
                keys, agg_col = receiver.args
                return {
                    "op": "fit_group_table",
                    "keys": keys,
                    "agg_col": agg_col,
                    "agg": _lit(a["func"], str),
                }
            case "series", "clip":
                return {
                    "op": "clip",
                    "arg": receiver,
                    "lower": _lit(a["lower"], int, float, type(None)),
                    "upper": _lit(a["upper"], int, float, type(None)),
                }
            case "series", "apply" if _is_ref(a["func"], "ufunc"):
                return {"op": "ufunc", "fn": a["func"].args[0], "arg": receiver}
            case "series", "where" if (a["cond"], a["other"]) == (
                _Ref("nonzero", (receiver,)),
                _Lit(None),
            ):
                return {"op": "where_nonzero", "arg": receiver}
            case "series", "isna" | "isnull":
                return _Ref("isna", (_column(receiver),))
            case "isna", "astype" if a["dtype"] == _Lit(int):
                return {"op": "isna_int", "column": receiver.args[0]}
            case "series", "map":
                mapping = _lit(a["mapper"], dict)
                if all(isinstance(key, _JSON_SCALARS) for key in mapping):
                    return {
                        "op": "dict_map",
                        "column": _column(receiver),
                        "keys": list(mapping),
                        "values": list(mapping.values()),
                    }
            case "series", "fillna":
                return {"op": "fillna", "arg": receiver, "value": _lit(a["value"])}
            case "series", "mean" | "min" | "max":
                return {"op": f"fit_{method}", "column": _column(receiver)}
            case "series", "std" if a["ddof"] == _Lit(1):
                return {"op": "fit_std", "column": _column(receiver)}
            case "str", "len":
                return {"op": "str_len", "column": receiver.args[0]}
            case "str", "split" if a["expand"] == _Lit(True):
                return _Ref("split", (receiver.args[0], _lit(a["sep"], str), {}))
            case "split", "rename" if not receiver.args[2]:
                return _Ref("split", (*receiver.args[:2], _lit(a["columns"], dict)))
        raise Unliftable(f"unsupported call .{method}() on {kind}")


def lift_source(source: str) -> dict:
    """Lift accepted ``def transform(df)`` source to an IR template.

    The template may hold fit-time nodes for :func:`freeze_expr` to
    resolve.  Raises :class:`Unliftable` outside the whitelisted subset:
    fit rejects such an answer, so it never runs and never ships.
    Any other failure of the lift itself (an unhashable dict-literal key,
    literal folding out of memory …) is an :class:`Unliftable` too, so one
    malformed answer costs its candidate, never the fit.
    """
    try:
        return _lift(source)
    except Unliftable:
        raise
    except RecursionError:
        raise Unliftable("expression nests too deeply") from None
    except Exception as exc:
        raise Unliftable(f"lift failed: {type(exc).__name__}: {exc}") from None


def _lift(source: str) -> dict:
    try:
        body = ast.parse(source).body
    except (SyntaxError, ValueError) as exc:
        raise Unliftable(f"source does not parse: {exc}") from None
    func = body[0] if len(body) == 1 else None
    if not (
        isinstance(func, ast.FunctionDef)
        and func.name == "transform"
        and not func.decorator_list
        and ast.unparse(func.args).isidentifier()  # exactly one plain parameter
    ):
        raise Unliftable("source is not one def transform(df)")
    return _Lifter(func.args.args[0].arg).run(func.body)


# ----------------------------------------------------------------------
# Per-feature compilation
# ----------------------------------------------------------------------
def _row_level_template(feature, rebuild: DataFrame, expected: dict[str, Series]):
    """Freeze a small row-level FM completion as an exact input→output map."""
    if len(feature.input_columns) != 1 or len(feature.output_columns) != 1:
        raise ExprError("row-level completion reads multiple columns")
    column = feature.input_columns[0]
    if column not in rebuild:
        raise ExprError(f"row-level input column {column!r} unavailable at serve time")
    outputs = expected[feature.output_columns[0]].tolist()
    mapping: dict = {}
    for key, value in zip(rebuild[column].tolist(), outputs):
        if _kernels.is_missing_scalar(key):
            if value is not None:
                raise ExprError("completion is not missing-preserving")
            continue
        if not isinstance(key, _JSON_SCALARS):
            raise ExprError(f"completion key {key!r} is not a JSON scalar")
        if value is not None and not isinstance(value, _JSON_SCALARS):
            raise ExprError(f"completion value {value!r} is not a JSON scalar")
        if key in mapping:
            if mapping[key] != value or type(mapping[key]) is not type(value):
                raise ExprError("completion is not a function of the input column")
        else:
            mapping[key] = value
    return {
        "op": "dict_map",
        "column": column,
        "keys": list(mapping),
        "values": list(mapping.values()),
    }


def _outputs(result, output_columns: list[str]) -> dict[str, Series]:
    """A transform's result keyed by the feature's output columns."""
    if isinstance(result, Series):
        if len(output_columns) != 1:
            raise ExprError("expression yields one column, feature has several")
        return {output_columns[0]: result}
    for name in output_columns:
        if name not in result:
            raise ExprError(f"expression did not produce output column {name!r}")
    return {name: result[name] for name in output_columns}


def _identical(outputs: dict[str, Series], expected: dict[str, Series]) -> bool:
    return all(series_identical(outputs[name], expected[name]) for name in expected)


def _compiled_expr(feature, rebuild: DataFrame, expected) -> tuple[dict, dict]:
    """Lift, freeze and evaluate; returns ``(frozen expr, outputs)``."""
    if feature.source_code == _ROW_LEVEL_SENTINEL:
        template = _row_level_template(feature, rebuild, expected)
    else:
        template = lift_source(feature.source_code)
    missing = [c for c in expr_columns(template) if c not in rebuild]
    if missing:
        raise ExprError(f"expression reads columns absent at serve time: {missing}")
    frozen = freeze_expr(template, rebuild)
    return frozen, _outputs(evaluate_feature(frozen, rebuild), feature.output_columns)


def compile_plan(
    result,
    frame: DataFrame,
    target: str,
    metadata: dict | None = None,
) -> FeaturePlan:
    """Compile a fitted *result* (over original *frame*) into a FeaturePlan.

    *frame* must be the frame ``fit_transform`` was called with — the
    rebuild starts from it, so the compiler needs the original columns the
    fitted result may have dropped.
    """
    input_columns = frame.columns
    input_schema = [
        (name, column_kind(frame[name])) for name in input_columns if name != target
    ]
    rebuild = frame.column_view(input_columns)
    specs: list[FeatureSpec] = []
    for feature in result.new_features.values():
        expected: dict[str, Series] = {}
        reason = ""
        for name in feature.output_columns:
            if name not in result.frame:
                reason = f"output column {name!r} missing from fitted frame"
                break
            expected[name] = result.frame[name]
        specs.append(
            _spec(feature, "omitted", reason=reason)
            if reason
            else _compile_feature(feature, rebuild, expected)
        )
        # Install the *fitted* outputs regardless of compile status so
        # later features freeze against the exact state fit saw.
        for name, series in expected.items():
            rebuild[name] = series
    plan = FeaturePlan(
        input_columns=input_columns,
        input_schema=input_schema,
        target=target,
        features=specs,
        drop_columns=list(result.dropped),
        metadata=dict(metadata or {}),
    )
    counts = plan.counts()
    plan.metadata.setdefault("compile", {}).update(
        {
            "n_features": len(specs),
            **counts,
            "omitted_features": [
                {"name": s.name, "reason": s.reason}
                for s in specs
                if s.status == "omitted"
            ],
        }
    )
    return plan


def _spec(feature, status: str, expr=None, reason="", expected=None) -> FeatureSpec:
    # Record the fitted outputs' schema kinds alongside the recipe;
    # ``budget_rows`` sizes streamed shards by them.
    kinds = None
    if expected is not None and all(n in expected for n in feature.output_columns):
        kinds = [column_kind(expected[n]) for n in feature.output_columns]
    return FeatureSpec(
        name=feature.name,
        family=getattr(feature.family, "value", None) or str(feature.family),
        description=feature.description,
        input_columns=list(feature.input_columns),
        output_columns=list(feature.output_columns),
        status=status,
        expr=expr,
        reason=reason,
        output_kinds=kinds,
    )


def _compile_feature(feature, rebuild, expected) -> FeatureSpec:
    try:
        frozen, outputs = _compiled_expr(feature, rebuild, expected)
        if _identical(outputs, expected):
            json.dumps(frozen)  # plans must round-trip; reject exotic scalars
            return _spec(feature, "compiled", expr=frozen, expected=expected)
        reason = "compiled replay not bit-identical to fitted output"
    except Unliftable as exc:
        reason = f"no expression template for this form: {exc}"
    except ExprError as exc:
        reason = str(exc)
    except (TypeError, ValueError) as exc:
        reason = f"expression not serializable: {exc}"
    return _spec(feature, "omitted", reason=reason)
