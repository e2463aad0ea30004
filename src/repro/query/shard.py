"""Scatter–gather dispatch for the planner.

:func:`try_scatter` is the planner's hook into the sharded execution
engine (:mod:`repro.exec`): given a query about to execute on a scope,
decide whether it can be partitioned across the scope's shard workers,
and if so run it there and merge the per-shard results back into
exactly what serial execution would have produced.

Two shapes scatter:

- **Whole-query scatter** — a single-binding class scan whose
  projection and filter only touch the bound variable, supplied
  bindings, literals and builtin functions. Each worker scans its oid
  slice of the extent; the coordinator concatenates the per-shard rows
  *in shard order* (which reproduces the serial sorted-oid visit
  order), re-applies the global set-semantics dedup, and applies
  ``unique``.
- **Aggregate scatter** — ``count/sum/min/max/avg/exists`` over a
  *closed* shardable subquery anywhere in a larger query. The subquery
  scatters (``count``/``exists`` of a variable projection combine as
  per-shard partial counts — oid slices are disjoint, so no cross-
  shard dedup is needed; every other aggregate gathers the rows,
  dedups, and applies the builtin at the coordinator). The enclosing
  query then runs serially with the aggregate's value bound to a
  synthetic ``__scatterN`` variable.

Everything else — and every scatter that fails (:class:`Unscatterable`,
worker trouble, unencodable values) — falls back to ordinary serial
execution; ``serial_fallbacks`` counts the declines after eligibility.

Eligibility is deliberately conservative; the worker executes against
a *replica database*, so anything whose semantics depend on scope
state the replica does not have must stay serial:

- registered scope functions, ``self``, subqueries / membership-in-
  query, parameterized sources — never shipped;
- dependency tracking active (virtual-class population caching) —
  scatter would bypass read recording, so it declines;
- a :class:`~repro.core.view.View` scatters only when it is a plain
  window onto a single provider database: no virtual or parameterized
  classes, no hides, and class/attribute structure identical to the
  provider's (definition-by-definition), so view evaluation and
  replica evaluation coincide.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..engine.objects import unwrap, wrap_value
from ..engine.tracking import ACTIVE_TRACKERS
from ..engine.values import canonicalize
from ..errors import NonUniqueResultError
from ..exec.coordinator import Unscatterable, executor_of
from ..obs import stats as _stats
from ..obs import trace as _trace
from .ast import (
    Binary,
    Binding,
    Call,
    ClassSource,
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
    TupleExpr,
    Var,
    free_variables,
    walk,
)
from .builder import ensure_query
from .eval import BUILTIN_FUNCTIONS
from .printer import format_query

_AGGREGATES = frozenset(BUILTIN_FUNCTIONS)

# Nodes whose presence anywhere makes a select unshippable: they need
# scope state (``self``), nested query evaluation, or sources the
# worker replica cannot reproduce.
_BANNED_NODES = (SelfExpr, QueryExpr, InQuery, QuerySource, ExprSource)


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------


def _structural_block(select: Select, scope) -> Optional[str]:
    """Why ``select`` cannot ship to shard workers (``None`` if it
    can)."""
    if len(select.bindings) != 1:
        return "multi-binding select"
    source = select.bindings[0].source
    if not isinstance(source, ClassSource):
        return "non-class source"
    if source.arguments:
        return "parameterized class source"
    schema = getattr(scope, "schema", None)
    if schema is None or source.class_name not in schema:
        return "unknown source class"
    scope_functions = getattr(scope, "functions", None) or {}
    for node in walk(select):
        if isinstance(node, _BANNED_NODES):
            return type(node).__name__
        if isinstance(node, InClass):
            if node.class_args:
                return "parameterized membership"
            if node.class_name not in schema:
                return "unknown membership class"
        elif isinstance(node, Call):
            if node.function not in BUILTIN_FUNCTIONS:
                return f"non-builtin function {node.function!r}"
            if node.function in scope_functions:
                return f"scope-registered function {node.function!r}"
    return None


def _view_blocked(view, provider) -> bool:
    """Whether ``view`` is anything more than a plain window onto
    ``provider`` (in which case worker replicas of the provider would
    not reproduce its semantics)."""
    if getattr(view, "_virtuals", None):
        return True
    if getattr(view, "_families", None):
        return True
    hides = getattr(view, "_hides", None)
    if hides is not None and (
        hides.attribute_declarations() or hides.hidden_classes()
    ):
        return True
    view_schema = getattr(view, "schema", None)
    provider_schema = getattr(provider, "schema", None)
    if view_schema is None or provider_schema is None:
        return True
    view_classes = set(view_schema.class_names())
    if view_classes != set(provider_schema.class_names()):
        return True
    for class_name in view_classes:
        ours = view_schema.attributes_of(class_name)
        theirs = provider_schema.attributes_of(class_name)
        if set(ours) != set(theirs):
            return True
        # Identity, not equality: an imported class shares its
        # AttributeDef objects with the provider; a same-named
        # view-level redefinition would not.
        if any(ours[name] is not theirs[name] for name in ours):
            return True
    return False


def _extent_big_enough(executor, provider) -> bool:
    counter = getattr(provider, "object_count", None)
    if callable(counter):
        total = counter()
    else:
        total = len(provider.all_oids())
    return total >= executor.min_scatter_extent


# ----------------------------------------------------------------------
# Aggregate rewrite
# ----------------------------------------------------------------------


def _closed_aggregate(node, scope) -> bool:
    """Is ``node`` an aggregate call over a closed, shippable
    subquery?"""
    return (
        isinstance(node, Call)
        and node.function in _AGGREGATES
        and len(node.arguments) == 1
        and isinstance(node.arguments[0], QueryExpr)
        and not free_variables(node.arguments[0].query)
        and _structural_block(node.arguments[0].query, scope) is None
    )


def _rewrite(node, scope, jobs: List[Tuple[str, str, Select]]):
    """Rebuild ``node`` with every closed shardable aggregate call
    replaced by a synthetic ``__scatterN`` variable, recording
    ``(variable, function, subquery)`` jobs."""
    if _closed_aggregate(node, scope):
        name = f"__scatter{len(jobs)}"
        jobs.append((name, node.function, node.arguments[0].query))
        return Var(name)
    if isinstance(node, (Literal, Var, SelfExpr)):
        return node
    if isinstance(node, Path):
        return dataclasses.replace(node, base=_rewrite(node.base, scope, jobs))
    if isinstance(node, TupleExpr):
        return dataclasses.replace(
            node,
            fields=tuple(
                (name, _rewrite(expr, scope, jobs))
                for name, expr in node.fields
            ),
        )
    if isinstance(node, SetExpr):
        return dataclasses.replace(
            node,
            elements=tuple(
                _rewrite(expr, scope, jobs) for expr in node.elements
            ),
        )
    if isinstance(node, Binary):
        return dataclasses.replace(
            node,
            left=_rewrite(node.left, scope, jobs),
            right=_rewrite(node.right, scope, jobs),
        )
    if isinstance(node, Not):
        return dataclasses.replace(
            node, operand=_rewrite(node.operand, scope, jobs)
        )
    if isinstance(node, InClass):
        return dataclasses.replace(
            node,
            operand=_rewrite(node.operand, scope, jobs),
            class_args=tuple(
                _rewrite(arg, scope, jobs) for arg in node.class_args
            ),
        )
    if isinstance(node, InExpr):
        return dataclasses.replace(
            node,
            operand=_rewrite(node.operand, scope, jobs),
            container=_rewrite(node.container, scope, jobs),
        )
    if isinstance(node, Call):
        return dataclasses.replace(
            node,
            arguments=tuple(
                _rewrite(arg, scope, jobs) for arg in node.arguments
            ),
        )
    if isinstance(node, ClassSource):
        return dataclasses.replace(
            node,
            arguments=tuple(
                _rewrite(arg, scope, jobs) for arg in node.arguments
            ),
        )
    if isinstance(node, ExprSource):
        return dataclasses.replace(
            node, expression=_rewrite(node.expression, scope, jobs)
        )
    if isinstance(node, Binding):
        return dataclasses.replace(
            node, source=_rewrite(node.source, scope, jobs)
        )
    if isinstance(node, Select):
        return dataclasses.replace(
            node,
            projection=_rewrite(node.projection, scope, jobs),
            bindings=tuple(
                _rewrite(binding, scope, jobs)
                for binding in node.bindings
            ),
            where=(
                _rewrite(node.where, scope, jobs)
                if node.where is not None
                else None
            ),
        )
    # InQuery / QueryExpr / QuerySource: the enclosing query runs
    # serially anyway; leave nested selects untouched.
    return node


def _count_mode(function: str, inner: Select) -> bool:
    """Partial-count combining is exact only when the subquery's rows
    are distinct by construction: a variable projection yields one
    distinct object per oid, and shard slices are disjoint oid
    ranges."""
    return (
        function in ("count", "exists")
        and not inner.unique
        and isinstance(inner.projection, Var)
        and inner.projection.name == inner.bindings[0].variable
    )


# ----------------------------------------------------------------------
# Scatter + merge
# ----------------------------------------------------------------------


def _run_scatter(executor, select: Select, bindings, mode: str, pin):
    """One traced scatter of ``select`` (``unique`` already stripped);
    emits per-shard spans — each carrying the worker's shipped span
    subtree — for EXPLAIN ANALYZE and the slow-query log."""
    text = format_query(select)
    if _trace.ENABLED and _trace.current_trace() is not None:
        with _trace.span(
            "scatter", shards=executor.shards, mode=mode
        ) as sp:
            outcome = executor.scatter(
                select, text, bindings, mode, pin, trace=True
            )
            for info in outcome.shard_info:
                _attach_shard_span(info)
            sp.set(
                version=outcome.version,
                gathered=(
                    sum(outcome.counts)
                    if mode == "count"
                    else len(outcome.rows)
                ),
            )
    else:
        outcome = executor.scatter(select, text, bindings, mode, pin)
    if _stats.ENABLED:
        _stats.note_examined(
            sum(info["scanned"] for info in outcome.shard_info),
            scattered=True,
        )
    return outcome


def _oid_range(info: dict) -> str:
    """``lo..hi`` with ``*`` for an open end (the first/last slice)."""
    lo, hi = info.get("lo"), info.get("hi")
    low = "*" if lo is None else str(lo)
    high = "*" if hi is None else str(hi)
    return f"{low}..{high}"


def _attach_shard_span(info: dict) -> None:
    """One ``scatter.shard`` span — worker pid, shard index, oid
    range, wall-vs-CPU time — with the worker's shipped span tree
    re-attached beneath it (failovers ran serially on the coordinator
    and ship none)."""
    attrs = {
        "shard": info["shard"],
        "oids": _oid_range(info),
        "scanned": info["scanned"],
        "returned": info["returned"],
        "plan": "hit" if info["plan_hit"] else "compiled",
        "failover": info["failover"],
    }
    if info.get("pid") is not None:
        attrs["pid"] = info["pid"]
    if info.get("cpu") is not None:
        attrs["cpu_ms"] = round(info["cpu"] * 1e3, 3)
    span = _trace.Span("scatter.shard", attrs)
    span.duration = info["elapsed"]
    shipped = info.get("spans")
    if isinstance(shipped, dict):
        for child in shipped.get("children") or ():
            if isinstance(child, dict):
                span.children.append(_trace.span_from_dict(child))
    _trace.attach_span(span)


def _merge_rows(outcome, scope, unique: bool):
    """Re-apply global set semantics (and ``unique``) to the gathered
    rows. Rows arrive concatenated in shard order — the serial visit
    order — so first-occurrence dedup reproduces serial results
    exactly."""
    if _trace.ENABLED and _trace.current_trace() is not None:
        with _trace.span("scatter.merge", gathered=len(outcome.rows)) as sp:
            results = _dedup_wrapped(outcome.rows, scope)
            sp.set(returned=len(results))
    else:
        results = _dedup_wrapped(outcome.rows, scope)
    if unique:
        if len(results) != 1:
            raise NonUniqueResultError(len(results))
        return results[0]
    return results


def _dedup_wrapped(rows, scope) -> List[object]:
    results: List[object] = []
    seen = set()
    for raw in rows:
        key = canonicalize(raw)
        if key in seen:
            continue
        seen.add(key)
        results.append(wrap_value(scope, raw))
    return results


def _dedup_raw(rows) -> List[object]:
    out: List[object] = []
    seen = set()
    for raw in rows:
        key = canonicalize(raw)
        if key in seen:
            continue
        seen.add(key)
        out.append(raw)
    return out


def _aggregate_value(function: str, outcome) -> object:
    if outcome.mode == "count":
        total = sum(outcome.counts)
        return total > 0 if function == "exists" else total
    values = _dedup_raw(outcome.rows)
    return BUILTIN_FUNCTIONS[function](values)


def _serial_execute(select: Select, scope, bindings):
    from .planner import fetch_plan

    plan, _hit, cache = fetch_plan(select, scope)
    return plan.execute(scope, cache, bindings, None, None)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def try_scatter(
    query,
    scope,
    bindings: Optional[Dict[str, object]] = None,
    functions: Optional[Dict[str, object]] = None,
    self_value=None,
) -> Tuple[bool, object]:
    """Scatter ``query`` if a shard executor serves ``scope`` and the
    query is eligible.

    Returns ``(True, result)`` when the scatter (or aggregate rewrite)
    fully produced the query's result, ``(False, None)`` when the
    caller should execute serially as usual.
    """
    if functions or self_value is not None:
        return False, None
    if ACTIVE_TRACKERS:
        # Scattered execution would bypass dependency-read recording,
        # silently breaking virtual-population invalidation.
        return False, None
    executor, provider = executor_of(scope)
    if executor is None:
        return False, None
    select = ensure_query(query)
    if not _extent_big_enough(executor, provider):
        return False, None
    pin = provider if provider is not executor.db else None
    if scope is not provider and _view_blocked(scope, provider):
        return False, None

    supplied = dict(bindings) if bindings else {}
    if _structural_block(select, scope) is None:
        free = free_variables(select)
        if not free <= set(supplied):
            return False, None  # serial raises the unbound-var error
        shipped = dataclasses.replace(select, unique=False)
        ship_bindings = {name: unwrap(supplied[name]) for name in free}
        try:
            outcome = _run_scatter(
                executor, shipped, ship_bindings, "rows", pin
            )
        except Unscatterable:
            executor.stats.serial_fallbacks += 1
            return False, None
        return True, _merge_rows(outcome, scope, select.unique)

    jobs: List[Tuple[str, str, Select]] = []
    rewritten = _rewrite(select, scope, jobs)
    if not jobs:
        return False, None
    extra: Dict[str, object] = {}
    for name, function, inner in jobs:
        mode = "count" if _count_mode(function, inner) else "rows"
        shipped = dataclasses.replace(inner, unique=False)
        try:
            outcome = _run_scatter(executor, shipped, {}, mode, pin)
        except Unscatterable:
            executor.stats.serial_fallbacks += 1
            return False, None
        extra[name] = _aggregate_value(function, outcome)
    supplied.update(extra)
    return True, _serial_execute(rewritten, scope, supplied)
