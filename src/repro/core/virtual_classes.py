"""Virtual classes: population evaluation and membership.

A :class:`VirtualClass` owns the normalized member list of one
``class C includes …`` declaration and computes its population against
the view:

- **generalization** members contribute the (deep) extents of the
  included classes;
- **specialization** members contribute the objects their query
  returns (it is a :class:`~repro.errors.VirtualClassError` for the
  query to return non-objects — tuple-producing queries belong to
  imaginary classes);
- **behavioral** members (``like B``) contribute the extents of every
  class currently matching the spec — matching is dynamic, so classes
  added later join automatically (the paper's ``On_Sale`` vs
  ``On_Sale_Bis`` argument, experiment E4);
- **imaginary** members delegate to the class's
  :class:`~repro.core.imaginary.ImaginaryClass` identity table.

Populations are cached with the *dependency set* the evaluation read
(which extents it iterated, which ``(class, attribute)`` pairs it
consulted) plus a snapshot of the view's version vector over that set.
A cached population is served as long as no recorded dependency has
been bumped — mutations to unrelated classes leave it untouched. When
a dependency *is* bumped, specialization populations whose members all
admit cheap per-object tests are **delta-patched**: only the oids
carried by the buffered mutation events are re-tested against the
member predicates, instead of re-running the defining queries over the
whole extent.

Direct insertion is impossible by construction: the paper notes "it is
not possible for a user to insert an object directly into a virtual
class" — there is simply no API for it; views refuse ``create`` on
virtual classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..engine.events import Event, ObjectDeleted
from ..engine.oid import EMPTY_OID_SET, Oid, OidSet
from ..engine.objects import ObjectHandle
from ..engine.tracking import (
    ACTIVE_TRACKERS,
    DependencySet,
    DependencyTracker,
    FrozenDependencySet,
    replay_dependencies,
)
from ..errors import VirtualClassError
from ..obs import trace as _trace
from ..query.ast import Binding, ClassSource, Select, Var
from ..query.compile import Runtime, compile_test
from ..query.planner import execute as plan_execute
from .imaginary import ImaginaryClass
from .population import (
    ClassMember,
    ImaginaryMember,
    LikeMember,
    Member,
    PredicateMember,
    QueryMember,
)

# A virtual class stops buffering mutation events (and falls back to a
# full recompute on the next stale access) once this many accumulate:
# past that point re-testing the deltas costs as much as re-evaluating.
DELTA_BUFFER_LIMIT = 512


class VirtualClass:
    """One defined virtual (possibly imaginary) class within a view."""

    def __init__(
        self,
        view,
        name: str,
        members: Sequence[Member],
        imaginary: Optional[ImaginaryClass] = None,
    ):
        self._view = view
        self._name = name
        self._members = tuple(members)
        self._imaginary = imaginary
        # Cache: the population, the dependency set its evaluation
        # read, and the version snapshot over that set. ``_cache_deps``
        # is None until the first (untainted) evaluation.
        self._cache: OidSet = EMPTY_OID_SET
        self._cache_deps: Optional[FrozenDependencySet] = None
        self._cache_snapshot: Optional[tuple] = None
        # Mutation events buffered since the cache was filled, for
        # delta patching.
        self._delta_events: List[Event] = []
        self._delta_overflow = False
        self._evaluating = False
        # Compiled per-member where-closures for the quick membership
        # test, keyed by member identity (member ASTs are immutable).
        self._member_tests: Dict[int, object] = {}

    @property
    def name(self) -> str:
        return self._name

    @property
    def members(self) -> Tuple[Member, ...]:
        return self._members

    @property
    def imaginary(self) -> Optional[ImaginaryClass]:
        return self._imaginary

    def is_imaginary(self) -> bool:
        return self._imaginary is not None

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def population(self, use_cache: bool = True) -> OidSet:
        """All members of the virtual class, as an oid set.

        Serving order: a cached population whose dependency snapshot is
        still current is returned as-is (a *hit* — its stored read set
        is replayed into any enclosing tracker); a stale one is
        repaired by :meth:`_try_delta_patch` when every member admits a
        cheap per-object test; otherwise the defining members are
        evaluated from scratch under a fresh
        :class:`~repro.engine.tracking.DependencyTracker`.

        Recursion control: population evaluation may (via deep extents)
        re-enter another virtual class that is itself mid-evaluation.
        The re-entered class yields the empty set to break the cycle,
        and *taints* every evaluation frame currently on the stack —
        tainted frames return their (possibly truncated) value but do
        not cache it, so no caller ever observes a stale truncated
        population on a later call.
        """
        view = self._view
        # A reader pinned to an older database version bypasses the
        # cache entirely: the cache tracks the latest version, the
        # reader must see its own (View.reads_are_current).
        pinned_current = view.reads_are_current()
        if use_cache and pinned_current and self._cache_deps is not None:
            # Currency check and buffer clear are atomic against a
            # provider commit's bump+buffer step (same lock in
            # View._on_provider_event), so an event can never land
            # between "snapshot is current" and "drop the buffer".
            with view.maintenance_lock:
                if self._cache_deps is not None and (
                    view.dependency_snapshot(self._cache_deps)
                    == self._cache_snapshot
                ):
                    view.stats.record_hit()
                    if ACTIVE_TRACKERS:
                        replay_dependencies(self._cache_deps)
                    # Buffered events that left the snapshot intact
                    # cannot concern any dependency; drop them.
                    self._delta_events.clear()
                    self._delta_overflow = False
                    return self._cache
            patched = self._try_delta_patch()
            if patched is not None:
                return patched
        stack = getattr(view, "_population_stack", None)
        if stack is None:
            stack = []
            taint = set()
            view._population_stack = stack
            view._population_taint = taint
        else:
            taint = view._population_taint
        if self._name in stack:
            # Cycle: yield empty (one fixpoint iteration) and taint the
            # frames *above* our own — they consumed a truncated value
            # and must not cache. Our own frame's eventual result is
            # the fixpoint and stays cacheable.
            taint.update(range(stack.index(self._name) + 1, len(stack)))
            return EMPTY_OID_SET
        frame = len(stack)
        stack.append(self._name)
        self._evaluating = True
        # Epoch guard: evaluation runs outside the maintenance lock
        # (it may reach into provider views, whose locks a committing
        # writer acquires in the opposite order). If a commit lands
        # while we evaluate, the result may mix pre- and post-commit
        # reads — return it, but do not cache it.
        epoch0 = view._epoch
        tracker = DependencyTracker()
        try:
            internal = getattr(view, "internal_evaluation", None)
            with _trace.span(
                "population.recompute", **{"class": self._name}
            ) as sp:
                with tracker:
                    if internal is not None:
                        with internal():
                            members = self._collect_members()
                    else:
                        members = self._collect_members()
                sp.set(size=len(members) if members else 0)
        finally:
            self._evaluating = False
            tainted = frame in taint
            taint.discard(frame)
            stack.pop()
        population = OidSet.of(members) if members else EMPTY_OID_SET
        view.stats.record_full_recompute()
        if not tainted and pinned_current:
            deps = tracker.deps.frozen()
            with view.maintenance_lock:
                if view._epoch == epoch0:
                    self._cache = population
                    self._cache_deps = deps
                    self._cache_snapshot = view.dependency_snapshot(deps)
                    self._delta_events.clear()
                    self._delta_overflow = False
        return population

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------

    def note_event(self, event: Event) -> None:
        """Buffer a provider mutation event for later delta patching.

        Called by the view for every ``ObjectCreated`` / ``Updated`` /
        ``Deleted`` it receives. Events are only worth keeping while a
        cached population exists; past :data:`DELTA_BUFFER_LIMIT` the
        buffer is abandoned and the next stale access recomputes.
        """
        if self._cache_deps is None or self._delta_overflow:
            return
        self._delta_events.append(event)
        if len(self._delta_events) > DELTA_BUFFER_LIMIT:
            self._delta_events.clear()
            self._delta_overflow = True

    def _delta_closure(self) -> Optional[Set[str]]:
        """The classes delta candidates can be real in — or ``None``
        when the class cannot be delta-patched at all.

        Patchability requires every member to admit a cheap per-object
        test (``member_test`` never returns ``None``); the closure is
        each member's source class plus its schema descendants, since
        extent membership draws exactly from those.
        """
        view = self._view
        schema = view.schema
        closure: Set[str] = set()

        def add(class_name: str) -> None:
            closure.add(class_name)
            closure.update(schema.descendants(class_name))

        for member in self._members:
            if isinstance(member, ClassMember):
                add(member.class_name)
            elif isinstance(member, PredicateMember):
                add(member.source_class)
            elif isinstance(member, QueryMember):
                simple = _simple_filter(member.query)
                if simple is None:
                    return None
                add(simple[0])
            elif isinstance(member, LikeMember):
                for match in view.like_matches(member.spec_class):
                    add(match)
            else:
                # Imaginary members maintain their own identity tables;
                # their refresh is not a per-object re-test.
                return None
        return closure

    def _try_delta_patch(self) -> Optional[OidSet]:
        """Repair the stale cached population from buffered events.

        Sound only when (a) the schema is structurally unchanged since
        the cache was filled, (b) every member admits a cheap
        per-object test, and (c) every class the cached evaluation read
        from lies inside the members' source closure — i.e. the
        evaluation never reached *other* objects through references, so
        any relevant mutation names a candidate oid that is in the
        buffer. Returns ``None`` when patching is not applicable (the
        caller falls back to a full recompute).
        """
        view = self._view
        # Take the buffer and capture the epoch under the maintenance
        # lock so the swap is atomic against a committing writer's
        # bump+append; the per-object re-tests then run outside it
        # (they may reach into provider views — see population()).
        with view.maintenance_lock:
            if self._delta_overflow or not self._delta_events:
                return None
            if (
                self._cache_snapshot is None
                or self._cache_snapshot[0] != view.schema_version
            ):
                return None
            closure = self._delta_closure()
            if closure is None or not self._cache_deps.classes() <= closure:
                return None
            stack = getattr(view, "_population_stack", None)
            if stack and self._name in stack:
                return None
            events = self._delta_events
            self._delta_events = []
            members = set(self._cache.members)
            cache_deps = self._cache_deps
            epoch0 = view._epoch
        tracker = DependencyTracker()
        internal = getattr(view, "internal_evaluation", None)
        with _trace.span(
            "population.delta_patch",
            events=len(events),
            **{"class": self._name},
        ) as sp:
            with tracker:
                if internal is not None:
                    with internal():
                        ok = self._apply_delta(events, closure, members)
                else:
                    ok = self._apply_delta(events, closure, members)
            sp.set(applied=ok, size=len(members))
        if not ok:
            with view.maintenance_lock:
                self._delta_overflow = True
            return None
        deps = DependencySet(cache_deps.extents, cache_deps.attributes)
        deps.merge(tracker.deps)
        frozen = deps.frozen()
        population = OidSet.of(members) if members else EMPTY_OID_SET
        with view.maintenance_lock:
            if view._epoch != epoch0:
                # A commit landed while we re-tested: the version
                # vector we would store claims currency over events
                # still in (or newly added to) the buffer. Push the
                # consumed events back in order and fall back to a
                # full recompute.
                self._delta_events[:0] = events
                return None
            self._cache = population
            self._cache_deps = frozen
            self._cache_snapshot = view.dependency_snapshot(frozen)
        view.stats.record_delta_patch()
        if ACTIVE_TRACKERS:
            replay_dependencies(frozen)
        return population

    def _apply_delta(
        self, events: List[Event], closure: Set[str], members: Set[Oid]
    ) -> bool:
        """Re-test each event's oid, editing ``members`` in place.

        Returns False if some member unexpectedly refused a cheap test
        (e.g. a behavioral match set changed under us).
        """
        for event in events:
            if isinstance(event, ObjectDeleted):
                members.discard(event.oid)
                continue
            if event.class_name not in closure:
                # Created/updated outside every member's source closure:
                # cannot be (or become) a member.
                continue
            verdict = False
            for member in self._members:
                quick = self.member_test(member, event.oid)
                if quick is None:
                    return False
                if quick:
                    verdict = True
                    break
            if verdict:
                members.add(event.oid)
            else:
                members.discard(event.oid)
        return True

    def _collect_members(self) -> Set[Oid]:
        members: Set[Oid] = set()
        for member in self._members:
            members.update(self._member_population(member).members)
        return members

    def _member_population(self, member: Member) -> OidSet:
        view = self._view
        if isinstance(member, ClassMember):
            return view.extent(member.class_name)
        if isinstance(member, QueryMember):
            results = plan_execute(member.query, view)
            oids: Set[Oid] = set()
            for result in results:
                if not isinstance(result, ObjectHandle):
                    raise VirtualClassError(
                        f"virtual class {self._name!r}: population query"
                        f" must return objects, got"
                        f" {type(result).__name__} (use an imaginary"
                        " class for tuple-producing queries)"
                    )
                oids.add(result.oid)
            return OidSet.of(oids) if oids else EMPTY_OID_SET
        if isinstance(member, PredicateMember):
            oids = {
                oid
                for oid in view.extent(member.source_class)
                if member.predicate(view.get(oid))
            }
            return OidSet.of(oids) if oids else EMPTY_OID_SET
        if isinstance(member, LikeMember):
            oids = set()
            for match in view.like_matches(member.spec_class):
                oids.update(view.extent(match).members)
            return OidSet.of(oids) if oids else EMPTY_OID_SET
        if isinstance(member, ImaginaryMember):
            assert self._imaginary is not None
            return self._imaginary.population()
        raise TypeError(f"unknown member kind: {member!r}")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def contains(self, oid: Oid) -> bool:
        """Membership test; uses per-member shortcuts when possible."""
        view = self._view
        with view.maintenance_lock:
            if (
                self._cache_deps is not None
                and view.dependency_snapshot(self._cache_deps)
                == self._cache_snapshot
                and view.reads_are_current()
            ):
                view.stats.record_hit()
                if ACTIVE_TRACKERS:
                    replay_dependencies(self._cache_deps)
                return oid in self._cache
        for member in self._members:
            quick = self.member_test(member, oid)
            if quick:
                return True
            if quick is None:
                # No cheap test for this member: fall back to the full
                # population (which also fills the cache).
                return oid in self.population()
        return False

    def member_test(self, member: Member, oid: Oid) -> Optional[bool]:
        """Cheap single-object membership test for one member.

        Returns ``None`` when the member admits no cheap test (complex
        queries). Used both by :meth:`contains` and by incremental
        materialization. Runs as view-internal evaluation, like the
        population it stands in for: hides bind the view's users, not
        its class definitions.
        """
        internal = getattr(self._view, "internal_evaluation", None)
        if internal is None:
            return self._member_test(member, oid)
        with internal():
            return self._member_test(member, oid)

    def _member_test(self, member: Member, oid: Oid) -> Optional[bool]:
        view = self._view
        if isinstance(member, ClassMember):
            return view.is_member(oid, member.class_name)
        if isinstance(member, PredicateMember):
            if not view.is_member(oid, member.source_class):
                return False
            return bool(member.predicate(view.get(oid)))
        if isinstance(member, LikeMember):
            try:
                real = view.class_of(oid)
            except Exception:
                return False
            matches = view.like_matches(member.spec_class)
            return any(view.schema.isa(real, match) for match in matches)
        if isinstance(member, QueryMember):
            simple = _simple_filter(member.query)
            if simple is None:
                return None
            source_class, variable, where = simple
            if not view.is_member(oid, source_class):
                return False
            if where is None:
                return True
            test = self._member_tests.get(id(member))
            if test is None:
                test = self._member_tests[id(member)] = compile_test(where)
            return test(Runtime(view), {variable: view.get(oid)})
        if isinstance(member, ImaginaryMember):
            assert self._imaginary is not None
            return self._imaginary.contains(oid)
        raise TypeError(f"unknown member kind: {member!r}")

    def has_cheap_membership(self) -> bool:
        """True when every member admits a single-object test (so a
        materialized copy can be maintained incrementally)."""
        for member in self._members:
            if isinstance(member, QueryMember):
                if _simple_filter(member.query) is None:
                    return False
            elif isinstance(member, ImaginaryMember):
                return False
        return True


def _simple_filter(query: Select):
    """Decompose ``select V from C where φ(V)`` into (C, V, φ).

    Returns ``None`` for joins, nested sources, tuple projections —
    anything whose membership cannot be tested one object at a time.
    """
    if len(query.bindings) != 1:
        return None
    binding: Binding = query.bindings[0]
    if not isinstance(binding.source, ClassSource) or binding.source.arguments:
        return None
    if not isinstance(query.projection, Var):
        return None
    if query.projection.name != binding.variable:
        return None
    from ..query.ast import free_variables

    if query.where is not None:
        # The filter must depend on the bound variable only.
        if free_variables(query.where) - {binding.variable}:
            return None
    return binding.source.class_name, binding.variable, query.where
