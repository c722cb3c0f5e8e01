"""Lift an FM answer's ``def transform(df)`` source to the expression IR.

:func:`lift_source` evaluates the source's ``ast`` symbolically;
nothing is executed.  Each call is looked up in
:data:`~repro.dataframe.expr.SOURCE_FORMS` by (receiver kind, method)
and bound against the form's declared signature, so that table is the
accepted subset.  Any other call, statement or expression raises
:class:`~repro.dataframe.expr.Unliftable` with the reason, and fit
rejects the answer as "not compilable".
"""

from __future__ import annotations

import ast
import operator
import re
from typing import Any

from repro.dataframe.expr import DATE_PARTS, SOURCE_FORMS, Lit, Ref, Unliftable
from repro.dataframe.expr import column_name, is_ref, literal

__all__ = ["lift_source"]

#: Names of the sandbox namespace the lifter follows.
_GLOBALS = {
    "pd": Ref("pd"),
    "np": Ref("np"),
    **{fn.__name__: Lit(fn) for fn in (float, int, len, list, range, tuple)},
}

_ARITH = {
    ast.Add: ("add", operator.add),
    ast.Sub: ("sub", operator.sub),
    ast.Mult: ("mul", operator.mul),
    ast.Div: ("div", operator.truediv),
    ast.Pow: ("pow", operator.pow),
}

#: The split-and-strip loop (as ``ast.unparse`` prints it): loop name,
#: split parts, output frame.
_STRIP_LOOP = re.compile(
    r"for (\w+) in (\w+)\.columns:\n    (\w+)\[\1\] = \2\[\1\]\.str\.strip\(\)"
)


def _operand(value: Any) -> dict:
    return value if isinstance(value, dict) else {"op": "const", "value": literal(value, int, float)}


def _fold(fn: Any, *args: Any) -> Lit:
    """Apply a whitelisted builtin or operator to literals."""
    if not callable(fn):
        raise Unliftable("call of a non-callable literal")
    try:
        return Lit(fn(*args))
    except (TypeError, ValueError, ArithmeticError) as exc:  # the source raises too
        raise Unliftable(f"literal arithmetic failed: {exc}") from None


class _Lifter:
    """Symbolic evaluation of a ``def transform(df)`` body into the IR.

    Straight-line statements only: each name binds to an IR node, a
    :class:`Lit` or a :class:`Ref`, and conditions resolve at lift
    time.  Anything else raises :class:`Unliftable`.
    """

    def __init__(self, frame_name: str) -> None:
        self.env: dict[str, Any] = {frame_name: Ref("frame")}

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
            is_ref(self.env.get(parts), "split")
            and is_ref(self.env.get(out), "empty_frame")
        ):
            raise Unliftable("unsupported loop")
        column, sep, rename = self.env[parts].args
        self.env[out] = {"op": "fit_split_outputs", "column": column, "sep": sep, "rename": rename}
        self.env.pop(name, None)  # bound to a data-dependent column name

    def lift_expr(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Constant):
            return Lit(node.value)
        if isinstance(node, ast.Name):
            value = self.env.get(node.id, _GLOBALS.get(node.id))
            if value is None:
                raise Unliftable(f"unknown name {node.id!r}")
            return value
        if isinstance(node, (ast.List, ast.Tuple)):
            items = [literal(self.lift_expr(e)) for e in node.elts]
            return Lit(items if isinstance(node, ast.List) else tuple(items))
        if isinstance(node, ast.Dict):
            if None in node.keys:
                raise Unliftable("dict unpacking")
            keys = [literal(self.lift_expr(k)) for k in node.keys]
            values = [self.lift_expr(v) for v in node.values]
            if all(isinstance(v, Lit) for v in values):
                return Lit({k: v.value for k, v in zip(keys, values)})
            return Ref("columns", tuple(zip(keys, values)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Lit(-literal(self.lift_expr(node.operand), int, float))
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            name, fn = _ARITH[type(node.op)]
            left, right = self.lift_expr(node.left), self.lift_expr(node.right)
            if isinstance(left, Lit) and isinstance(right, Lit):
                return _fold(fn, left.value, right.value)
            return {"op": name, "left": _operand(left), "right": _operand(right)}
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            if len(node.values) != 2:
                raise Unliftable("unsupported `or`")
            left, right = (self.lift_expr(v) for v in node.values)
            if isinstance(left, Lit):
                return left if left.value else right
            return {"op": "fit_or", "left": _operand(left), "right": _operand(right)}
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, right = self.lift_expr(node.left), self.lift_expr(node.comparators[0])
            return self.compare(node.ops[0], left, right)
        if isinstance(node, ast.IfExp):
            test = literal(self.lift_expr(node.test), bool)
            return self.lift_expr(node.body if test else node.orelse)
        if isinstance(node, ast.Attribute):
            return self.attribute(self.lift_expr(node.value), node.attr)
        if isinstance(node, ast.Subscript):
            base, key = self.lift_expr(node.value), literal(self.lift_expr(node.slice))
            if is_ref(base, "frame") and isinstance(key, str):
                return {"op": "col", "name": key}
            if is_ref(base, "groupby") and isinstance(key, str):
                return Ref("grouped", (*base.args, key))
            raise Unliftable("unsupported subscript")
        if isinstance(node, ast.Call):
            return self.call(node)
        raise Unliftable(f"unsupported expression {type(node).__name__}")

    def compare(self, op: ast.cmpop, left: Any, right: Any) -> Lit | Ref:
        if isinstance(op, (ast.Is, ast.IsNot)) and right == Lit(None):
            # Only a literal can be None; a lifted column never is.
            is_none = isinstance(left, Lit) and left.value is None
            return Lit(is_none == isinstance(op, ast.Is))
        if isinstance(op, ast.NotEq) and isinstance(left, dict) and right == Lit(0):
            return Ref("nonzero", (left,))
        raise Unliftable("unsupported comparison")

    def attribute(self, base: Any, attr: str) -> Ref:
        if is_ref(base, "np"):
            return Ref("ufunc", (attr,))
        if attr in ("str", "dt") and isinstance(base, dict):
            return Ref(attr, (column_name(base),))
        if is_ref(base, "dt") and attr in DATE_PARTS:
            return Ref("date_part", (*base.args, attr))
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
            return _fold(literal(self.lift_expr(node.func)), *(literal(a) for a in args))
        receiver, method = self.lift_expr(node.func.value), node.func.attr
        kind = "series" if isinstance(receiver, dict) else "literal"
        kind = receiver.kind if isinstance(receiver, Ref) else kind
        unsupported = Unliftable(f"unsupported call .{method}() on {kind}")
        if (kind, method) not in SOURCE_FORMS:
            raise unsupported
        signature, build = SOURCE_FORMS[kind, method]
        try:
            bound = signature.bind(*([] if kind == "pd" else [receiver]), *args, **keywords)
        except TypeError as exc:
            raise Unliftable(f".{method}(): {exc}") from None
        bound.apply_defaults()  # defaults are plain values: wrap them as literals
        arguments = bound.arguments.items()
        lifted = build(**{k: v if isinstance(v, (Lit, Ref, dict)) else Lit(v) for k, v in arguments})
        if lifted is None:
            raise unsupported
        return lifted


def lift_source(source: str) -> dict:
    """Lift ``def transform(df)`` source to an IR template, which may hold
    fit nodes for :func:`~repro.dataframe.expr.freeze_expr` to resolve.

    Raises :class:`Unliftable` outside the subset, and for any other
    failure of the lift itself (an unhashable dict-literal key …), so one
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
