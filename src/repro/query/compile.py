"""Query compilation: lowering ``Select`` ASTs into Python closures.

The interpreter in :mod:`repro.query.eval` walks the AST once per
candidate object: every expression evaluation is an ``isinstance``
dispatch over node types, and every row allocates a fresh
:class:`~repro.query.eval.EvalEnv` (copying the bindings dict). For
view re-population and server workloads that re-run the same query
over tens of thousands of objects, that per-row dispatch dominates.

This module performs the lowering *once per query*: each AST node
becomes a closure ``fn(rt, env)`` where ``rt`` is a per-execution
:class:`Runtime` (scope, functions, ``self``, subquery memo) and
``env`` is a plain dict of variable bindings. The per-object inner
loop is then a chain of direct function calls. On top of the plain
lowering the compiler applies:

- **constant folding** — literal subtrees (arithmetic, comparisons,
  short-circuit ``and``/``or`` with a literal left operand) collapse
  to constants at compile time; folds that would *raise* are left as
  runtime closures so errors still surface exactly when the
  interpreter would raise them;
- **loop-invariant subquery hoisting** — closed subqueries (no free
  variables) are evaluated once per execution and memoized in the
  runtime, mirroring the interpreter's ``_eval_closed_subquery``;
- **per-expression specialization** — single-attribute paths, single
  bindings and boolean contexts get dedicated closures with no
  generic dispatch.

Semantics are pinned to the interpreter by the property suite in
``tests/test_query_compile.py``: the compiled closures reuse the
interpreter's value helpers (``_model_equal``, ``_compare``,
``_arith``, ``_truthy``, ``_contains``) so results, errors *and*
recorded read-dependencies match the interpretive path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..engine.objects import ObjectHandle, TupleValue, unwrap, wrap_value
from ..engine.values import canonicalize
from ..errors import NonUniqueResultError, QueryError
from .ast import (
    Binary,
    Call,
    ClassSource,
    Expr,
    ExprSource,
    InClass,
    InExpr,
    InQuery,
    Literal,
    Not,
    Path,
    QueryExpr,
    QuerySource,
    Select,
    SelfExpr,
    SetExpr,
    Source,
    TupleExpr,
    Var,
    free_variables,
)
from .builder import ensure_query
from .eval import (
    BUILTIN_FUNCTIONS,
    _arith,
    _as_collection,
    _as_oid,
    _CachedResult,
    _compare,
    _contains,
    _model_equal,
    _truthy,
)

# Sentinel: "this expression did not fold to a constant".
_NOT_CONST = object()

# Binary operators whose closures already return a plain bool, so a
# boolean context needs no extra _truthy wrapper.
_BOOL_OPS = frozenset({"and", "or", "=", "!=", "<", "<=", ">", ">="})


class Runtime:
    """Per-execution state shared by every closure of one compiled
    query: the scope, the merged function table, the ``self`` value
    and the memo for hoisted (closed) subqueries."""

    __slots__ = ("scope", "functions", "self_value", "memo", "scanned")

    def __init__(self, scope, functions=None, self_value=None):
        self.scope = scope
        merged = dict(functions) if functions else {}
        scope_functions = getattr(scope, "functions", None)
        if scope_functions:
            for name, fn in scope_functions.items():
                merged.setdefault(name, fn)
        for name, fn in BUILTIN_FUNCTIONS.items():
            merged.setdefault(name, fn)
        self.functions = merged
        self.self_value = self_value
        # id(node) -> memoized result for closed subqueries; one memo
        # per execution so mutations between executions are seen.
        self.memo: Dict[int, object] = {}
        # Rows fetched from class extents (what a scan "examines");
        # read by the planner for the statement registry.
        self.scanned = 0


# ----------------------------------------------------------------------
# Expression lowering
# ----------------------------------------------------------------------


def _compile(expr: Expr):
    """Lower one expression to ``(closure, constant)``.

    ``constant`` is the folded value when the expression is a
    compile-time constant, else :data:`_NOT_CONST`. The closure is
    always valid either way.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return (lambda rt, env: value), value
    if isinstance(expr, Var):
        name = expr.name

        def run_var(rt, env):
            try:
                return env[name]
            except KeyError:
                raise QueryError(f"unbound variable: {name!r}") from None

        return run_var, _NOT_CONST
    if isinstance(expr, SelfExpr):

        def run_self(rt, env):
            if rt.self_value is None:
                raise QueryError("'self' used outside an attribute body")
            return rt.self_value

        return run_self, _NOT_CONST
    if isinstance(expr, Path):
        return _compile_path(expr), _NOT_CONST
    if isinstance(expr, TupleExpr):
        fields = [(name, _compile(value)[0]) for name, value in expr.fields]

        def run_tuple(rt, env):
            return TupleValue(
                rt.scope, {name: unwrap(fn(rt, env)) for name, fn in fields}
            )

        return run_tuple, _NOT_CONST
    if isinstance(expr, SetExpr):
        elements = [_compile(item)[0] for item in expr.elements]

        def run_set(rt, env):
            scope = rt.scope
            return frozenset(
                wrap_value(scope, unwrap(fn(rt, env))) for fn in elements
            )

        return run_set, _NOT_CONST
    if isinstance(expr, Binary):
        return _compile_binary(expr)
    if isinstance(expr, Not):
        fn, const = _compile(expr.operand)
        if const is not _NOT_CONST:
            try:
                folded = not _truthy(const)
            except QueryError:
                pass
            else:
                return (lambda rt, env: folded), folded

        def run_not(rt, env):
            return not _truthy(fn(rt, env))

        return run_not, _NOT_CONST
    if isinstance(expr, InClass):
        return _compile_in_class(expr), _NOT_CONST
    if isinstance(expr, InExpr):
        operand = _compile(expr.operand)[0]
        container = _compile(expr.container)[0]

        def run_in(rt, env):
            value = operand(rt, env)
            return _contains(container(rt, env), value)

        return run_in, _NOT_CONST
    if isinstance(expr, InQuery):
        return _compile_in_query(expr), _NOT_CONST
    if isinstance(expr, QueryExpr):
        return _compile_query_expr(expr), _NOT_CONST
    if isinstance(expr, Call):
        name = expr.function
        args = [_compile(arg)[0] for arg in expr.arguments]

        def run_call(rt, env):
            fn = rt.functions.get(name)
            if fn is None:
                raise QueryError(f"unknown function: {name!r}")
            values = [arg(rt, env) for arg in args]
            return wrap_value(rt.scope, unwrap(fn(*values)))

        return run_call, _NOT_CONST
    raise QueryError(f"unknown expression node: {expr!r}")


def _compile_path(path: Path) -> Callable:
    base = _compile(path.base)[0]
    attributes = path.attributes
    if len(attributes) == 1:
        attribute = attributes[0]

        def run_path1(rt, env):
            value = base(rt, env)
            if value is None:
                return None
            if isinstance(value, (ObjectHandle, TupleValue)):
                return getattr(value, attribute)
            if isinstance(value, dict):
                return wrap_value(rt.scope, value.get(attribute))
            raise QueryError(
                f"cannot select attribute {attribute!r} from"
                f" {type(value).__name__}"
            )

        return run_path1

    def run_path(rt, env):
        value = base(rt, env)
        for attribute in attributes:
            if value is None:
                return None
            if isinstance(value, (ObjectHandle, TupleValue)):
                value = getattr(value, attribute)
            elif isinstance(value, dict):
                value = wrap_value(rt.scope, value.get(attribute))
            else:
                raise QueryError(
                    f"cannot select attribute {attribute!r} from"
                    f" {type(value).__name__}"
                )
        return value

    return run_path


def _compile_binary(expr: Binary):
    op = expr.op
    left, left_const = _compile(expr.left)
    right, right_const = _compile(expr.right)
    if op == "and" or op == "or":
        # Fold only through the short-circuit rules: a literal left
        # operand decides whether the right side is ever evaluated, so
        # `false and <error>` must stay `false` — exactly as the
        # interpreter behaves row by row.
        stop = op == "or"  # `or` stops on truthy left, `and` on falsy
        if left_const is not _NOT_CONST:
            try:
                left_truth = _truthy(left_const)
            except QueryError:
                pass
            else:
                if left_truth is stop:
                    return (lambda rt, env: stop), stop
                if right_const is not _NOT_CONST:
                    try:
                        folded = _truthy(right_const)
                    except QueryError:
                        pass
                    else:
                        return (lambda rt, env: folded), folded

                def run_right(rt, env):
                    return _truthy(right(rt, env))

                return run_right, _NOT_CONST
        if op == "and":

            def run_and(rt, env):
                return _truthy(left(rt, env)) and _truthy(right(rt, env))

            return run_and, _NOT_CONST

        def run_or(rt, env):
            return _truthy(left(rt, env)) or _truthy(right(rt, env))

        return run_or, _NOT_CONST

    both_const = (
        left_const is not _NOT_CONST and right_const is not _NOT_CONST
    )
    if op == "=":
        if both_const:
            folded = _model_equal(left_const, right_const)
            return (lambda rt, env: folded), folded

        def run_eq(rt, env):
            return _model_equal(left(rt, env), right(rt, env))

        return run_eq, _NOT_CONST
    if op == "!=":
        if both_const:
            folded = not _model_equal(left_const, right_const)
            return (lambda rt, env: folded), folded

        def run_ne(rt, env):
            return not _model_equal(left(rt, env), right(rt, env))

        return run_ne, _NOT_CONST
    if op in ("<", "<=", ">", ">="):
        if both_const:
            try:
                folded = _compare(op, left_const, right_const)
            except QueryError:
                pass  # raise at evaluation time, like the interpreter
            else:
                return (lambda rt, env: folded), folded

        def run_cmp(rt, env):
            return _compare(op, left(rt, env), right(rt, env))

        return run_cmp, _NOT_CONST
    if op in ("+", "-", "*", "/"):
        if both_const:
            try:
                folded = _arith(op, left_const, right_const)
            except QueryError:
                pass
            else:
                return (lambda rt, env: folded), folded

        def run_arith(rt, env):
            return _arith(op, left(rt, env), right(rt, env))

        return run_arith, _NOT_CONST
    raise QueryError(f"unknown operator: {op!r}")


def _compile_in_class(expr: InClass) -> Callable:
    operand = _compile(expr.operand)[0]
    class_name = expr.class_name
    if expr.class_args:
        args = [_compile(arg)[0] for arg in expr.class_args]

        def run_in_family(rt, env):
            oid = _as_oid(operand(rt, env))
            if oid is None:
                return False
            scope = rt.scope
            values = tuple(unwrap(fn(rt, env)) for fn in args)
            instantiate = getattr(scope, "instantiate_family", None)
            if instantiate is None:
                raise QueryError(
                    "scope does not support parameterized classes"
                )
            return oid in instantiate(class_name, values)

        return run_in_family

    def run_in_class(rt, env):
        oid = _as_oid(operand(rt, env))
        if oid is None:
            return False
        return rt.scope.is_member(oid, class_name)

    return run_in_class


def _compile_in_query(expr: InQuery) -> Callable:
    operand = _compile(expr.operand)[0]
    subquery = compile_select(expr.query)
    key = id(expr)
    if not free_variables(expr.query):
        # Loop-invariant: evaluate once per execution, answer later
        # membership tests from the canonical set.
        def run_in_closed(rt, env):
            value = operand(rt, env)
            cached = rt.memo.get(key)
            if cached is None:
                result = subquery(rt, env)
                canon = {canonicalize(unwrap(item)) for item in result}
                cached = rt.memo[key] = _CachedResult(result, canon)
            return _contains(cached, value)

        return run_in_closed

    def run_in_query(rt, env):
        value = operand(rt, env)
        return _contains(subquery(rt, env), value)

    return run_in_query


def _compile_query_expr(expr: QueryExpr) -> Callable:
    subquery = compile_select(expr.query)
    if not free_variables(expr.query):
        key = id(expr)

        def run_closed(rt, env):
            cached = rt.memo.get(key)
            if cached is None:
                cached = rt.memo[key] = subquery(rt, env)
            return cached

        return run_closed

    return subquery


def compile_test(expr: Expr) -> Callable:
    """Compile an expression for a boolean context (``where``).

    The returned closure yields a plain ``bool``, raising
    :class:`QueryError` exactly where the interpreter's ``_truthy``
    would.
    """
    fn, const = _compile(expr)
    if const is not _NOT_CONST:
        try:
            folded = _truthy(const)
        except QueryError:
            pass
        else:
            return (lambda rt, env: True) if folded else (
                lambda rt, env: False
            )
    if isinstance(expr, (Not, InClass, InExpr, InQuery)) or (
        isinstance(expr, Binary) and expr.op in _BOOL_OPS
    ):
        return fn  # already produces a bool

    def run_test(rt, env):
        return _truthy(fn(rt, env))

    return run_test


def compile_expression(expr: Expr) -> Callable:
    """Compile a bare expression to a closure ``fn(rt, env)``."""
    return _compile(expr)[0]


# ----------------------------------------------------------------------
# Sources and selects
# ----------------------------------------------------------------------


def _compile_source(source: Source) -> Callable:
    """Lower a binding source to ``fn(rt, env) -> list of values``."""
    if isinstance(source, ClassSource):
        class_name = source.class_name
        if source.arguments:
            args = [_compile(arg)[0] for arg in source.arguments]

            def iterate_family(rt, env):
                scope = rt.scope
                values = tuple(unwrap(fn(rt, env)) for fn in args)
                instantiate = getattr(scope, "instantiate_family", None)
                if instantiate is None:
                    raise QueryError(
                        f"scope"
                        f" {getattr(scope, 'scope_name', scope)!r} does"
                        " not support parameterized classes"
                    )
                get = scope.get
                members = [
                    get(oid) for oid in instantiate(class_name, values)
                ]
                rt.scanned += len(members)
                return members

            return iterate_family

        def iterate_class(rt, env):
            scope = rt.scope
            get = scope.get
            members = [get(oid) for oid in scope.extent(class_name)]
            rt.scanned += len(members)
            return members

        return iterate_class
    if isinstance(source, QuerySource):
        subquery = compile_select(source.query)
        closed = not free_variables(source.query)
        key = id(source)

        def iterate_query(rt, env):
            if closed:
                cached = rt.memo.get(key)
                if cached is not None:
                    return cached
            result = subquery(rt, env)
            items = result if isinstance(result, list) else [result]
            if closed:
                rt.memo[key] = items
            return items

        return iterate_query
    if isinstance(source, ExprSource):
        fn = _compile(source.expression)[0]

        def iterate_expr(rt, env):
            return _as_collection(fn(rt, env))

        return iterate_expr
    raise QueryError(f"unknown source node: {source!r}")


def compile_select(select: Select) -> Callable:
    """Lower a ``Select`` to ``fn(rt, outer_env) -> result``.

    The closure copies ``outer_env`` once per execution (not per row),
    so nested subqueries cannot clobber an enclosing query's bindings
    while the hot loop mutates a single dict in place.
    """
    project = _compile(select.projection)[0]
    where = compile_test(select.where) if select.where is not None else None
    binders = [
        (binding.variable, _compile_source(binding.source))
        for binding in select.bindings
    ]
    unique = select.unique

    if len(binders) == 1:
        variable, iterate = binders[0]

        def run_single(rt, outer_env):
            env = dict(outer_env) if outer_env else {}
            results = []
            seen = set()
            add_result = results.append
            mark_seen = seen.add
            for value in iterate(rt, env):
                env[variable] = value
                if where is not None and not where(rt, env):
                    continue
                projected = project(rt, env)
                key = canonicalize(unwrap(projected))
                if key in seen:
                    continue
                mark_seen(key)
                add_result(projected)
            if unique:
                if len(results) != 1:
                    raise NonUniqueResultError(len(results))
                return results[0]
            return results

        return run_single

    def run_select(rt, outer_env):
        env = dict(outer_env) if outer_env else {}
        results = []
        seen = set()

        def loop(index):
            if index == len(binders):
                if where is not None and not where(rt, env):
                    return
                projected = project(rt, env)
                key = canonicalize(unwrap(projected))
                if key in seen:
                    return
                seen.add(key)
                results.append(projected)
                return
            variable, iterate = binders[index]
            for value in iterate(rt, env):
                env[variable] = value
                loop(index + 1)

        loop(0)
        if unique:
            if len(results) != 1:
                raise NonUniqueResultError(len(results))
            return results[0]
        return results

    return run_select


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


class CompiledQuery:
    """A ``Select`` lowered to closures, ready to run repeatedly."""

    __slots__ = ("select", "_run")

    def __init__(self, select: Select):
        self.select = ensure_query(select)
        self._run = compile_select(self.select)

    def run(
        self,
        scope,
        bindings: Optional[Dict[str, object]] = None,
        functions: Optional[Dict[str, object]] = None,
        self_value=None,
    ):
        rt = Runtime(scope, functions, self_value)
        return self._run(rt, bindings)


def compile_query(query) -> CompiledQuery:
    """Compile a query (AST, builder or source text) to closures."""
    return CompiledQuery(ensure_query(query))
