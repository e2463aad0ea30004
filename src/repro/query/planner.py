"""Query planning: access-path selection plus a compiled-plan cache.

The planner sits between the callers that used to invoke the
interpreter directly (``Database.query``, ``View.query``, the shell,
virtual-class population, parameterized families) and the closure
compiler in :mod:`repro.query.compile`. For each query it builds one
of three plans:

- :class:`ScanPlan` — the compiled query run over full extents;
- :class:`IndexEqPlan` — an equality probe into a hash (or ordered)
  index plus a compiled residual filter;
- :class:`IndexRangePlan` — a ``bisect`` range scan over an ordered
  index (``<``/``<=``/``>``/``>=`` atoms intersected into one
  interval) plus a compiled residual.

Conjunctive ``where`` clauses are decomposed into indexable atoms and
a residual: among the equality atoms the one whose index has the most
distinct values (i.e. the most selective probe) wins; range atoms are
considered only when no equality atom has an index. Range plans are
additionally gated on the attribute's *declared* type (``integer``,
``real`` or ``string`` matching the literal bounds): the interpreter's
``_compare`` raises on mixed-type or boolean comparisons, and an index
scan that silently skipped such rows would diverge from it. For the
same reason every conjunct the scan would evaluate before the probe's
atom, on every member, must be unable to raise: a comparison of a
declared, stored, visible attribute with a literal of its type,
indexed or not. The first conjunct that may raise shields the rest.

The ``indexes`` a plan probes are the scope's: a database's own
registry, or — for a view — its providers', reached by pushdown
(:mod:`repro.core.pushdown`); the plans are the same.

Plans are cached per scope in a :class:`PlanCache`, keyed on the
canonical query text and validated against a version token combining
the schema version, the view's schema/hide versions and the index
registry version — so server sessions and delta-driven view
re-population share compiled plans until a schema change, a ``hide``
or an index create/drop invalidates them.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ..engine.objects import ObjectHandle, unwrap
from ..engine.tracking import (
    ACTIVE_TRACKERS,
    record_attribute_read,
    record_extent_read,
)
from ..engine.types import INTEGER, REAL, STRING
from ..engine.values import canonicalize
from ..errors import NonUniqueResultError, QueryError
from ..obs import stats as _stats
from ..obs import trace as _trace
from .ast import (
    Binary,
    Binding,
    ClassSource,
    Expr,
    Literal,
    Path,
    Select,
    Var,
)
from .builder import ensure_query
from .compile import (
    Runtime,
    compile_expression,
    compile_select,
    compile_test,
)
from .printer import format_expression, format_query

# A bounded cache: real servers run a finite statement vocabulary, but
# a misbehaving client generating unique query texts must not grow the
# cache without bound.
_PLAN_CACHE_CAP = 1024

# Loaded on first use: the scatter module pulls in the exec package
# (and through it the server wire codec), which must not happen while
# this module is still initializing.
_try_scatter = None


def _scatter_hook(query, scope, bindings, functions, self_value):
    """``repro.query.shard.try_scatter``, imported lazily."""
    global _try_scatter
    if _try_scatter is None:
        from .shard import try_scatter

        _try_scatter = try_scatter
    return _try_scatter(query, scope, bindings, functions, self_value)


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------


class PlanCache:
    """Compiled plans for one scope, keyed on canonical query text.

    Entries carry the version token current when they were compiled;
    a token mismatch on fetch recompiles (schema change, ``hide``,
    index create/drop). Thread-safe: server read requests run
    concurrently under the shared lock.
    """

    def __init__(self, cap: int = _PLAN_CACHE_CAP):
        self._lock = threading.Lock()
        self._cap = cap
        self._plans: Dict[str, Tuple[tuple, "Plan"]] = {}
        self.plans_compiled = 0
        self.plan_cache_hits = 0
        self.invalidations = 0
        self.index_probes = 0
        self.range_probes = 0

    def fetch(self, key: str, token: tuple, build) -> Tuple["Plan", bool]:
        """The cached plan for ``key`` at ``token``, or a fresh one.

        Returns ``(plan, hit)``.
        """
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                if entry[0] == token:
                    self.plan_cache_hits += 1
                    return entry[1], True
                self.invalidations += 1
        plan = build()
        with self._lock:
            self.plans_compiled += 1
            while len(self._plans) >= self._cap:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = (token, plan)
        return plan, False

    def record_probe(self, kind: str) -> None:
        with self._lock:
            if kind == "range":
                self.range_probes += 1
            else:
                self.index_probes += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def reset_counters(self) -> None:
        with self._lock:
            self.plans_compiled = 0
            self.plan_cache_hits = 0
            self.invalidations = 0
            self.index_probes = 0
            self.range_probes = 0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "plans_compiled": self.plans_compiled,
                "plan_cache_hits": self.plan_cache_hits,
                "invalidations": self.invalidations,
                "index_probes": self.index_probes,
                "range_probes": self.range_probes,
                "cached_plans": len(self._plans),
            }

    def describe(self) -> str:
        snap = self.snapshot()
        return "\n".join(
            [
                f"plans compiled:  {snap['plans_compiled']}",
                f"plan cache hits: {snap['plan_cache_hits']}",
                f"plan invalidations: {snap['invalidations']}",
                f"index probes:    {snap['index_probes']}",
                f"range probes:    {snap['range_probes']}",
                f"cached plans:    {snap['cached_plans']}",
            ]
        )


def plan_cache_of(scope) -> PlanCache:
    """The scope's plan cache, attached lazily."""
    cache = getattr(scope, "_plan_cache", None)
    if cache is None:
        cache = PlanCache()
        try:
            scope._plan_cache = cache
        except AttributeError:  # exotic read-only scope: plan per call
            pass
    return cache


def plan_token(scope) -> tuple:
    """The version token compiled plans are validated against."""
    # Database snapshots carry a precomputed token equal to their
    # origin's (they share its plan cache): data mutations never
    # invalidate plans, so live and frozen evaluation trade plans
    # freely until a DDL or index change installs.
    custom = getattr(scope, "plan_version_token", None)
    if custom is not None:
        return custom
    indexes = getattr(scope, "indexes", None)
    return (
        getattr(getattr(scope, "schema", None), "version", 0),
        getattr(scope, "schema_version", 0),
        getattr(scope, "hide_version", 0),
        indexes.version if indexes is not None else -1,
    )


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


class Plan:
    """A compiled access path for one query."""

    kind = "scan"
    # ``[(conjunct text, role)]`` — how each ``where`` conjunct is
    # dispatched (probe vs. residual). Set by the builder; consumed by
    # ``EXPLAIN ANALYZE``.
    conjunct_roles: Optional[List[Tuple[str, str]]] = None

    def execute(self, scope, cache, bindings, functions, self_value):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class ScanPlan(Plan):
    """Run the compiled query over full extents."""

    kind = "scan"

    def __init__(self, select: Select):
        self.select = ensure_query(select)
        self._run = compile_select(self.select)

    def execute(self, scope, cache, bindings, functions, self_value):
        rt = Runtime(scope, functions, self_value)
        result = self._run(rt, bindings)
        _stats.note_examined(rt.scanned)
        return result

    def describe(self) -> str:
        sources = ", ".join(
            b.source.class_name
            if isinstance(b.source, ClassSource)
            else "<expr>"
            for b in self.select.bindings
        )
        return f"compiled scan over {sources}"


class _ProbePlanBase(Plan):
    """Shared candidate-loop machinery for index-backed plans."""

    def __init__(
        self,
        select: Select,
        class_name: str,
        variable: str,
        attribute: str,
        residual: Optional[Expr],
    ):
        self.class_name = class_name
        self.variable = variable
        self.attribute = attribute
        self.residual = (
            compile_test(residual) if residual is not None else None
        )
        self.residual_text = residual is not None
        self.project = compile_expression(select.projection)
        self.unique = select.unique
        # The interpreter is always a valid fallback: used if the
        # index disappears between planning and execution (the version
        # token makes that a one-request race at worst).
        self._fallback = None
        self._select = select
        # Set by the builder when the index belongs to a provider of
        # the scope (a view): the scopes from this one down to the
        # index's owner — ("Top_V", "Mid_V", "Base_V", "db").
        self.route: Tuple[str, ...] = ()

    def _fallback_plan(self) -> ScanPlan:
        if self._fallback is None:
            self._fallback = ScanPlan(self._select)
        return self._fallback

    def _candidates(self, scope):
        """OidSet of candidates, or ``None`` to force a fallback."""
        raise NotImplementedError

    def _suffix(self) -> str:
        suffix = " + residual filter" if self.residual_text else ""
        if self.route:
            *chain, owner = self.route
            suffix += f" [{owner} index via {' > '.join(chain)}]"
        return suffix

    def execute(self, scope, cache, bindings, functions, self_value):
        candidates = self._candidates(scope)
        if candidates is None:
            return self._fallback_plan().execute(
                scope, cache, bindings, functions, self_value
            )
        cache.record_probe(self.kind)
        stats = getattr(scope, "stats", None)
        if stats is not None:
            if self.kind == "range":
                stats.record_range_probe()
            else:
                stats.record_index_probe()
        if ACTIVE_TRACKERS:
            # The probe consults the index instead of walking the
            # extent and reading the attribute per object; record what
            # the scan would have (the class and everything below it),
            # so dependency-tracked callers — cached view populations —
            # still invalidate on any create, delete or update that
            # could change the candidate set.
            below = scope.schema.descendants(self.class_name)
            for name in (self.class_name, *below):
                record_extent_read(name)
                record_attribute_read(name, self.attribute)
        if _trace.ENABLED and _trace.current_trace() is not None:
            with _trace.span(
                "index_probe",
                kind=self.kind,
                attribute=f"{self.class_name}.{self.attribute}",
            ) as sp:
                results, scanned = self._filter(
                    scope, candidates, bindings, functions, self_value
                )
                sp.set(scanned=scanned, returned=len(results))
        else:
            results, scanned = self._filter(
                scope, candidates, bindings, functions, self_value
            )
        _stats.note_examined(scanned)
        if self.unique:
            if len(results) != 1:
                raise NonUniqueResultError(len(results))
            return results[0]
        return results

    def _filter(self, scope, candidates, bindings, functions, self_value):
        """Run residual + projection over the probe's candidate set.

        Returns ``(results, scanned)`` — ``scanned`` counts candidates
        actually visited (probe selectivity, surfaced by EXPLAIN).
        """
        rt = Runtime(scope, functions, self_value)
        env = dict(bindings) if bindings else {}
        variable = self.variable
        residual = self.residual
        project = self.project
        is_member = scope.is_member
        class_name = self.class_name
        results: List[object] = []
        seen = set()
        scanned = 0
        # OidSet iteration is sorted; sort here too so probe results
        # come back in the same deterministic order as a scan.
        # Membership is tested per candidate (is_member) instead of
        # materializing the whole extent: a probe over a demand-paged
        # database streams through its candidates without building an
        # O(extent) set — and the membership test itself is a
        # directory lookup, never an object fault.
        for oid in sorted(candidates.members):
            if not is_member(oid, class_name):
                continue  # the index may cover a superclass
            scanned += 1
            env[variable] = ObjectHandle(scope, oid)
            if residual is not None and not residual(rt, env):
                continue
            value = project(rt, env)
            key = canonicalize(unwrap(value))
            if key in seen:
                continue
            seen.add(key)
            results.append(value)
        return results, scanned


class IndexEqPlan(_ProbePlanBase):
    """Equality probe into a hash or ordered index."""

    kind = "eq"

    def __init__(self, select, class_name, variable, attribute, value,
                 residual):
        super().__init__(select, class_name, variable, attribute, residual)
        self.value = value

    def _candidates(self, scope):
        indexes = getattr(scope, "indexes", None)
        index = (
            indexes.find(self.class_name, self.attribute)
            if indexes is not None
            else None
        )
        if index is None:
            return None
        return index.lookup(self.value)

    def describe(self) -> str:
        return (
            f"index probe {self.class_name}.{self.attribute} ="
            f" {self.value!r}{self._suffix()}"
        )


class IndexRangePlan(_ProbePlanBase):
    """Range scan over an ordered index."""

    kind = "range"

    def __init__(self, select, class_name, variable, attribute, interval,
                 residual):
        super().__init__(select, class_name, variable, attribute, residual)
        self.interval = interval

    def _candidates(self, scope):
        indexes = getattr(scope, "indexes", None)
        index = (
            indexes.find_ordered(self.class_name, self.attribute)
            if indexes is not None and hasattr(indexes, "find_ordered")
            else None
        )
        if index is None:
            return None
        interval = self.interval
        return index.range_lookup(
            low=interval.low,
            high=interval.high,
            low_strict=interval.low_strict,
            high_strict=interval.high_strict,
        )

    def describe(self) -> str:
        return (
            f"range probe {self.class_name}.{self.attribute}"
            f" {self.interval.describe()}{self._suffix()}"
        )


class _Interval:
    """A one-attribute interval: intersection of range atoms."""

    __slots__ = ("low", "high", "low_strict", "high_strict")

    def __init__(self):
        self.low = None
        self.high = None
        self.low_strict = False
        self.high_strict = False

    def add(self, op: str, value) -> None:
        if op in (">", ">="):
            strict = op == ">"
            if (
                self.low is None
                or value > self.low
                or (value == self.low and strict)
            ):
                self.low = value
                self.low_strict = strict
        else:
            strict = op == "<"
            if (
                self.high is None
                or value < self.high
                or (value == self.high and strict)
            ):
                self.high = value
                self.high_strict = strict

    def describe(self) -> str:
        parts = []
        if self.low is not None:
            parts.append(f"{'>' if self.low_strict else '>='} {self.low!r}")
        if self.high is not None:
            parts.append(f"{'<' if self.high_strict else '<='} {self.high!r}")
        return " and ".join(parts)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

_RANGE_OPS = frozenset({"<", "<=", ">", ">="})
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _conjuncts(expr: Expr):
    if isinstance(expr, Binary) and expr.op == "and":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _conjoin(conjuncts: List[Expr]) -> Optional[Expr]:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = Binary("and", result, conjunct)
    return result


def _attribute_atom(expr: Expr, variable: str):
    """Match ``var.Attr <op> literal`` (either orientation).

    Returns ``(attribute, op, value)`` with the attribute on the left
    (the comparison flipped if needed), or ``None``.
    """
    if not isinstance(expr, Binary):
        return None
    if expr.op != "=" and expr.op not in _RANGE_OPS:
        return None
    for lhs, rhs, op in (
        (expr.left, expr.right, expr.op),
        (expr.right, expr.left, _FLIP.get(expr.op, expr.op)),
    ):
        if (
            isinstance(lhs, Path)
            and len(lhs.attributes) == 1
            and isinstance(lhs.base, Var)
            and lhs.base.name == variable
            and isinstance(rhs, Literal)
            # A null literal is not probeable: `= null` matches absent
            # attributes (which indexes do not store) and a null range
            # bound would read as "unbounded".
            and rhs.value is not None
        ):
            return lhs.attributes[0], op, rhs.value
    return None


def _cannot_raise(scope, class_name: str, attribute: str, op, value) -> bool:
    """Whether the atom ``var.attribute <op> value`` evaluates without
    an error on every member of the class — what lets a plan skip it
    on the rows its probe never visits.

    The attribute must be declared, and stored for the class and all
    below it (a computed one runs arbitrary code). Equality then never
    raises. ``_compare`` raises on boolean or mixed-type operands; the
    *declared* type rules that out: ``integer``/``real`` attributes can
    only hold non-bool numbers (see ``values.conforms``), ``string``
    only strings — so a matching literal bound can never hit a type
    error row-by-row. (What a view adds — hides, redefinitions — is
    its ``indexes.route`` refusal, checked by the caller.)
    """
    schema = scope.schema
    try:
        adefs = [
            schema.resolve_attribute(name, attribute)
            for name in (class_name, *schema.descendants(class_name))
        ]
    except Exception:
        return False
    if any(adef.is_computed() for adef in adefs):
        return False
    if op == "=":
        return True
    declared = adefs[0].declared_type
    if declared is INTEGER or declared is REAL:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return declared is STRING and isinstance(value, str)


def build_plan(query, scope) -> Plan:
    """Choose an access path for ``query`` on ``scope``."""
    select = ensure_query(query)
    probe = _probe_plan(select, scope)
    if probe is not None:
        return probe
    plan = ScanPlan(select)
    if select.where is not None:
        plan.conjunct_roles = [
            (
                format_expression(c),
                f"scan filter ({_why_scanned(c, select, scope)})",
            )
            for c in _conjuncts(select.where)
        ]
    return plan


def _probe_target(select: Select) -> Optional[Tuple[str, str]]:
    """``(class, variable)`` of the one plain class binding an index
    probe can serve, or ``None``."""
    if len(select.bindings) != 1:
        return None
    binding: Binding = select.bindings[0]
    source = binding.source
    if not isinstance(source, ClassSource) or source.arguments:
        return None
    return source.class_name, binding.variable


def _why_scanned(conjunct: Expr, select: Select, scope) -> str:
    """Why no index serves ``conjunct`` of a scanned query: a view
    names the rule that refused the pushdown (``Number is computed in
    Mid_V``, ``hidden``); an atom that does have an index may raise, or
    sits behind a conjunct that may (see :func:`_probe_plan`)."""
    indexes = getattr(scope, "indexes", None)
    target = _probe_target(select)
    atom = _attribute_atom(conjunct, target[1]) if target else None
    if indexes is None or atom is None:
        return "no usable index"
    attribute, op, value = atom
    index, _path, refusal = indexes.route(target[0], attribute, op != "=")
    if refusal is not None:
        return refusal
    if index is None:
        return "no usable index"
    if not _cannot_raise(scope, target[0], attribute, op, value):
        return "index unused: the comparison may raise"
    return "index unused: an earlier conjunct may raise"


def _probe_plan(select: Select, scope) -> Optional[Plan]:
    indexes = getattr(scope, "indexes", None)
    target = _probe_target(select)
    if indexes is None or target is None or select.where is None:
        return None
    class_name, variable = target
    conjuncts = list(_conjuncts(select.where))

    # Error equivalence: the scan evaluates the conjuncts left to right
    # on every member, an index plan only on its candidates — so a
    # conjunct the scan reaches before the probe's own atom must be
    # unable to raise. The first conjunct that may — anything but a
    # plain comparison of a declared, visible, stored attribute with a
    # literal of its type — ends the eligible prefix; within it any
    # indexed atom may supply the probe, wherever it stands.
    equalities = []  # (position, attribute, value, index, path)
    # attribute -> (index, path, [(position, op, value)])
    ranges: Dict[str, Tuple[object, tuple, list]] = {}
    for position, conjunct in enumerate(conjuncts):
        atom = _attribute_atom(conjunct, variable)
        if atom is None:
            break
        attribute, op, value = atom
        index, path, refusal = indexes.route(class_name, attribute, op != "=")
        if refusal is not None or not _cannot_raise(
            scope, class_name, attribute, op, value
        ):
            break
        if index is None:
            continue
        if op == "=":
            equalities.append((position, attribute, value, index, path))
        else:
            ranges.setdefault(attribute, (index, path, []))[2].append(
                (position, op, value)
            )

    if equalities:
        # Most distinct values == smallest expected bucket.
        position, attribute, value, _index, path = max(
            equalities, key=lambda entry: entry[3].distinct_values_count()
        )
        residual = _conjoin(
            conjuncts[:position] + conjuncts[position + 1:]
        )
        plan = IndexEqPlan(
            select, class_name, variable, attribute, value, residual
        )
        plan.route = _chain(scope, path)
        plan.conjunct_roles = [
            (
                format_expression(c),
                f"index probe ({class_name}.{attribute} index)"
                if i == position
                else "residual filter",
            )
            for i, c in enumerate(conjuncts)
        ]
        return plan

    if not ranges:
        return None
    attribute, (_index, path, atoms) = max(
        ranges.items(),
        key=lambda entry: entry[1][0].distinct_values_count(),
    )
    interval = _Interval()
    used = set()
    for position, op, value in atoms:
        interval.add(op, value)
        used.add(position)
    residual = _conjoin(
        [c for i, c in enumerate(conjuncts) if i not in used]
    )
    plan = IndexRangePlan(
        select, class_name, variable, attribute, interval, residual
    )
    plan.route = _chain(scope, path)
    plan.conjunct_roles = [
        (
            format_expression(c),
            f"range probe bound ({class_name}.{attribute} ordered index)"
            if i in used
            else "residual filter",
        )
        for i, c in enumerate(conjuncts)
    ]
    return plan


def _chain(scope, path) -> Tuple[str, ...]:
    """The scopes from ``scope`` down to the owner of a provider's
    index, for EXPLAIN; empty when the index is the scope's own."""
    return (scope.scope_name, *path) if path else ()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def fetch_plan(query, scope) -> Tuple[Plan, bool, PlanCache]:
    """The cached-or-compiled plan for ``query`` on ``scope``.

    Returns ``(plan, hit, cache)`` and records the scope's plan-cache
    statistics — the shared front half of :func:`execute`, also used
    by ``EXPLAIN ANALYZE`` (which needs the plan object itself). Under
    an active trace the fetch is wrapped in a ``plan`` span (cache
    verdict, plan text) and a compile in a nested ``compile`` span.
    """
    select = ensure_query(query)
    cache = plan_cache_of(scope)
    key = format_query(select)
    token = plan_token(scope)
    if _trace.ENABLED and _trace.current_trace() is not None:
        with _trace.span("plan") as sp:
            plan, hit = cache.fetch(
                key, token, lambda: _traced_build(select, scope)
            )
            sp.set(
                verdict="hit" if hit else "compiled",
                kind=plan.kind,
                plan=plan.describe(),
            )
    else:
        plan, hit = cache.fetch(
            key, token, lambda: build_plan(select, scope)
        )
    stats = getattr(scope, "stats", None)
    if stats is not None:
        if hit:
            stats.record_plan_hit()
        else:
            stats.record_plan_compiled()
    return plan, hit, cache


def _traced_build(select: Select, scope) -> Plan:
    with _trace.span("compile"):
        return build_plan(select, scope)


def execute(
    query,
    scope,
    bindings: Optional[Dict[str, object]] = None,
    functions: Optional[Dict[str, object]] = None,
    self_value=None,
):
    """Evaluate ``query`` via the plan cache.

    The drop-in replacement for :func:`repro.query.eval.evaluate`:
    same result contract, but the query is compiled to closures once
    per (canonical text, version token) and may run as an index probe
    or range scan — or scatter across shard worker processes when the
    scope has a :class:`~repro.exec.ShardExecutor` attached and the
    query is eligible (see :mod:`repro.query.shard`).
    """
    if _stats.ENABLED:
        return _recorded_execute(
            query, scope, bindings, functions, self_value
        )
    handled, result = _scatter_hook(
        query, scope, bindings, functions, self_value
    )
    if handled:
        return result
    if _trace.ENABLED and _trace.current_trace() is not None:
        plan, _hit, cache = fetch_plan(query, scope)
        with _trace.span("execute", plan=plan.kind) as sp:
            result = plan.execute(
                scope, cache, bindings, functions, self_value
            )
            sp.set(rows=len(result) if isinstance(result, list) else 1)
            return result
    select = ensure_query(query)
    cache = plan_cache_of(scope)
    key = format_query(select)
    token = plan_token(scope)
    plan, hit = cache.fetch(key, token, lambda: build_plan(select, scope))
    stats = getattr(scope, "stats", None)
    if stats is not None:
        if hit:
            stats.record_plan_hit()
        else:
            stats.record_plan_compiled()
    return plan.execute(scope, cache, bindings, functions, self_value)


def _recorded_execute(query, scope, bindings, functions, self_value):
    """:func:`execute` with the statement registry armed: same result
    contract and spans, plus one
    :class:`~repro.obs.stats.StatementRegistry` record per call."""
    select = ensure_query(query)
    text = format_query(select)
    kind = type(scope).__name__
    hit = None
    result = None
    failed = True
    _stats.take_examined()  # drop an unrecorded run's (EXPLAIN) count
    started = time.perf_counter()
    try:
        handled, result = _scatter_hook(
            select, scope, bindings, functions, self_value
        )
        if not handled:
            _stats.take_examined()  # drop partial aggregate scatters
            plan, hit, cache = fetch_plan(select, scope)
            if _trace.ENABLED and _trace.current_trace() is not None:
                with _trace.span("execute", plan=plan.kind) as sp:
                    result = plan.execute(
                        scope, cache, bindings, functions, self_value
                    )
                    sp.set(
                        rows=len(result)
                        if isinstance(result, list)
                        else 1
                    )
            else:
                result = plan.execute(
                    scope, cache, bindings, functions, self_value
                )
        failed = False
        return result
    finally:
        rows = 0
        if not failed:
            rows = len(result) if isinstance(result, list) else 1
        _stats.record_call(text, kind, started, rows, hit, failed)


def explain_plan(query, scope) -> str:
    """A one-line description of the chosen access path."""
    return build_plan(query, scope).describe()


def aggregate_plan_stats(scopes) -> dict:
    """Summed plan-cache counters across ``scopes`` (server `.stats`)."""
    totals = {
        "plans_compiled": 0,
        "plan_cache_hits": 0,
        "invalidations": 0,
        "index_probes": 0,
        "range_probes": 0,
        "cached_plans": 0,
    }
    for scope in scopes:
        cache = getattr(scope, "_plan_cache", None)
        if cache is None:
            continue
        for field, value in cache.snapshot().items():
            totals[field] += value
    return totals
