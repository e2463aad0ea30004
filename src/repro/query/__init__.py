"""The O₂-style query language: parser, type checker, evaluator.

Quick use::

    from repro.query import evaluate
    adults = evaluate("select P from Person where P.Age >= 21", db)

or with the fluent builder::

    from repro.query import select, var
    adults = evaluate(select("P").from_("Person")
                      .where(var("P").Age >= 21).build(), db)
"""

from .analysis import guaranteed_classes, source_classes
from .ast import (
    Binary,
    Binding,
    Call,
    ClassSource,
    Expr,
    ExprSource,
    InClass,
    InExpr,
    InQuery,
    Literal,
    Node,
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
    walk,
)
from .builder import (
    SelectBuilder,
    X,
    as_expr,
    call,
    class_,
    ensure_query,
    lit,
    record,
    select,
    select_the,
    self_,
    setof,
    var,
)
from .compile import CompiledQuery, Runtime, compile_query
from .eval import EvalEnv, evaluate, evaluate_expression
from .lexer import Token, TokenStream, tokenize
from .planner import (
    IndexEqPlan,
    IndexRangePlan,
    PlanCache,
    ScanPlan,
    build_plan,
    execute,
    explain_plan,
    plan_cache_of,
)
from .printer import format_expression, format_query
from .parser import parse_expression, parse_query
from .typecheck import (
    TypeEnvironment,
    infer_element_type,
    infer_expr_type,
    infer_query_type,
)

__all__ = [
    "Binary",
    "Binding",
    "Call",
    "ClassSource",
    "CompiledQuery",
    "EvalEnv",
    "Expr",
    "ExprSource",
    "IndexEqPlan",
    "IndexRangePlan",
    "InClass",
    "InExpr",
    "InQuery",
    "Literal",
    "Node",
    "Not",
    "Path",
    "PlanCache",
    "QueryExpr",
    "QuerySource",
    "Runtime",
    "ScanPlan",
    "Select",
    "SelectBuilder",
    "SelfExpr",
    "SetExpr",
    "Source",
    "Token",
    "TokenStream",
    "TupleExpr",
    "TypeEnvironment",
    "Var",
    "X",
    "as_expr",
    "build_plan",
    "call",
    "class_",
    "compile_query",
    "ensure_query",
    "evaluate",
    "evaluate_expression",
    "execute",
    "explain_plan",
    "format_expression",
    "format_query",
    "free_variables",
    "guaranteed_classes",
    "infer_element_type",
    "infer_expr_type",
    "infer_query_type",
    "lit",
    "parse_expression",
    "parse_query",
    "plan_cache_of",
    "record",
    "select",
    "select_the",
    "self_",
    "setof",
    "source_classes",
    "tokenize",
    "var",
    "walk",
]
