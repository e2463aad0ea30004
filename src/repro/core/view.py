"""The view: a database with no proper data of its own.

§3 of the paper: "a view can be thought of as a database that imports
all its data from other databases. That is, a view has a schema, like
all databases, but no proper data of its own", and a view definition
has the general structure::

    create view My_View;
    { import and hide specifications }
    { class and method definitions }
    { hide specifications }

:class:`View` implements that structure over one or more base
databases (or other views — views stack). It is a
:class:`~repro.engine.objects.Scope`, so handles, queries and the DDL
executor all work against it exactly as against a database — the
paper's principle (1): "a view should be treated as a database".
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..engine.events import (
    ClassDefined,
    Event,
    EventBus,
    ObjectCreated,
    ObjectDeleted,
    ObjectUpdated,
)
from ..engine.objects import ObjectHandle, Scope
from ..engine.oid import EMPTY_OID_SET, Oid, OidSet
from ..engine.schema import AttributeDef, ClassKind, Schema
from ..engine.tracking import ACTIVE_TRACKERS, record_extent_read
from ..engine.types import Type, is_subtype, type_from_signature
from ..errors import (
    HiddenAttributeError,
    UnknownAttributeError,
    UnknownClassError,
    UnknownOidError,
    ViewError,
    VirtualClassError,
)
from ..query.eval import evaluate
from .hiding import HideSet
from .imaginary import ImaginaryClass
from .materialize import MaterializedClass
from .parameterized import ClassFamily
from .population import (
    ImaginaryMember,
    LikeMember,
    Member,
    normalize_includes,
)
from .pushdown import ViewIndexes
from .resolution import ConflictPolicy, Resolver
from .stats import ViewStats
from .upward import acquired_attributes
from .hierarchy import apply_placement, infer_placement
from .virtual_attributes import build_virtual_attribute
from .virtual_classes import VirtualClass


class View(Scope):
    """An object-oriented view over one or more base scopes."""

    def __init__(self, name: str):
        self._name = name
        self._schema = Schema()
        self._providers: List[Scope] = []
        self._import_all: set = set()  # indices into _providers
        self._hides = HideSet()
        self._virtuals: Dict[str, VirtualClass] = {}
        self._imaginaries: Dict[str, ImaginaryClass] = {}  # by space
        self._families: Dict[str, ClassFamily] = {}
        self._materialized: Dict[str, MaterializedClass] = {}
        self._resolver = Resolver(self)
        self._indexes = ViewIndexes(self)
        self._events = EventBus()
        # Version vector for dependency-keyed cache invalidation:
        # - _schema_version covers structural change (imports, class
        #   and attribute definitions, class hides) — everything keys
        #   on it;
        # - _extent_versions[C] bumps when C's extent may have changed
        #   (create/delete of a C object or of an object real in a
        #   descendant of C);
        # - _attr_versions[(C, a)] bumps when reads of attribute a on
        #   objects real in C may change (update events bump C and its
        #   ancestors; attribute hides bump the hidden class and its
        #   descendants);
        # - _epoch is the monotone sum of all of the above, kept for
        #   `version` (any-change detection).
        self._schema_version = 0
        # Hides invalidate compiled query plans but deliberately do
        # NOT bump _schema_version (population caches evaluate with
        # hides off and must survive); the plan cache keys on both.
        self._hide_version = 0
        self._extent_versions: Dict[str, int] = {}
        self._attr_versions: Dict[Tuple[str, str], int] = {}
        self._epoch = 0
        self._bump_targets_cache: Dict[str, Tuple[str, ...]] = {}
        # Serializes maintenance against cache validation: a provider
        # commit bumps versions, forwards deltas and republishes under
        # this lock; a reader's currency-check / delta-buffer swap /
        # cache store takes it too, so the version vector and the
        # buffers can never be observed half-updated. Re-entrant
        # because event fanout can trigger a materialized recompute,
        # which evaluates a population, which checks caches — all on
        # the committing thread. Lock order: a thread may take a
        # database commit lock and then this lock, never the reverse
        # (population evaluation pins snapshots without holding it).
        self._maintenance_lock = threading.RLock()
        self.stats = ViewStats()
        self._defining_map: Optional[Dict[str, List[str]]] = None
        self._membership_in_progress: set = set()
        self._internal_depth = 0
        # Population-evaluation recursion control (see VirtualClass).
        self._population_stack: List[str] = []
        self._population_taint: set = set()
        # Ordered record of definition operations, for decompilation
        # back to view-definition language (repro.lang.decompile).
        self.definition_log: List[tuple] = []
        self.functions: Dict[str, Callable] = {}
        self.function_types: Dict[str, Type] = {}

    # ------------------------------------------------------------------
    # Scope protocol
    # ------------------------------------------------------------------

    @property
    def scope_name(self) -> str:
        return self._name

    @property
    def name(self) -> str:
        return self._name

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def events(self) -> EventBus:
        return self._events

    @property
    def version(self) -> int:
        """Monotone counter bumped on every base mutation or view
        redefinition. Caches no longer key on this coarse counter —
        they key on :meth:`dependency_snapshot` — but it remains the
        cheap "did anything at all change" signal."""
        return self._epoch

    @property
    def schema_version(self) -> int:
        """Bumped on every structural change (imports, definitions,
        class hides); all dependency snapshots include it."""
        return self._schema_version

    @property
    def hide_version(self) -> int:
        """Bumped on every hide; cached query plans key on it."""
        return self._hide_version

    @property
    def hides(self) -> HideSet:
        return self._hides

    @property
    def providers(self) -> Tuple[Scope, ...]:
        """The scopes this view imports from, in import order."""
        return tuple(self._providers)

    @property
    def indexes(self) -> ViewIndexes:
        """The planner's ``indexes`` protocol, answered by the
        providers' indexes (see :mod:`repro.core.pushdown`)."""
        return self._indexes

    @property
    def maintenance_lock(self) -> threading.RLock:
        """The lock serializing provider-event maintenance against
        population-cache validation (see ``__init__``)."""
        return self._maintenance_lock

    @property
    def resolver(self) -> Resolver:
        return self._resolver

    # ------------------------------------------------------------------
    # Version vector (dependency-keyed invalidation)
    # ------------------------------------------------------------------

    def extent_version(self, class_name: str) -> int:
        return self._extent_versions.get(class_name, 0)

    def attribute_version(self, class_name: str, attribute: str) -> int:
        return self._attr_versions.get((class_name, attribute), 0)

    def dependency_snapshot(self, deps) -> tuple:
        """The current versions of a frozen dependency set's reads.

        A cached result stored with ``(deps, snapshot)`` is current
        exactly when ``dependency_snapshot(deps) == snapshot`` — i.e.
        no class it read from has seen a relevant mutation and the
        schema is structurally unchanged.
        """
        extent_versions = self._extent_versions
        attr_versions = self._attr_versions
        return (
            self._schema_version,
            tuple(extent_versions.get(c, 0) for c in deps.extents),
            tuple(attr_versions.get(k, 0) for k in deps.attributes),
        )

    def dependencies_current(self, deps, snapshot) -> bool:
        return (
            snapshot is not None
            and snapshot == self.dependency_snapshot(deps)
        )

    def reads_are_current(self) -> bool:
        """False while the calling thread holds a stale snapshot pin
        on any (transitive) provider database.

        Population caches are bypassed for such a reader — a cache
        keyed on the *latest* version vector can neither serve nor be
        filled by an evaluation of an older pinned version.
        """
        for provider in self._providers:
            check = getattr(provider, "reads_are_current", None)
            if check is not None and not check():
                return False
        return True

    def _bump_targets(
        self, class_name: str, provider: Optional[Scope] = None
    ) -> Tuple[str, ...]:
        """The class and every class whose extent covers it.

        Mutation events bump *upward*: an object created in ``Tanker``
        also changes the extent of ``Ship`` (and of any virtual class
        placed above ``Tanker``), so all ancestors' versions move.
        """
        targets = self._bump_targets_cache.get(class_name)
        if targets is not None:
            return targets
        if class_name in self._schema:
            targets = (class_name, *self._schema.ancestors(class_name))
            self._bump_targets_cache[class_name] = targets
            return targets
        if provider is not None and class_name in provider.schema:
            # Not visible in the view, but its objects may surface
            # through imported ancestors; don't cache (provider-local).
            return (class_name, *provider.schema.ancestors(class_name))
        return (class_name,)

    def _bump_extents(self, class_name: str, provider: Optional[Scope]) -> None:
        versions = self._extent_versions
        for target in self._bump_targets(class_name, provider):
            versions[target] = versions.get(target, 0) + 1

    def _bump_attribute(
        self,
        class_name: str,
        attribute: str,
        provider: Optional[Scope] = None,
        targets: Optional[Tuple[str, ...]] = None,
    ) -> None:
        versions = self._attr_versions
        if targets is None:
            targets = self._bump_targets(class_name, provider)
        for target in targets:
            key = (target, attribute)
            versions[key] = versions.get(key, 0) + 1

    def reset_stats(self) -> None:
        self.stats.reset()

    def internal_evaluation(self):
        """Context manager marking view-internal evaluation.

        §3's hide specifications come *last* in a view definition: they
        hide attributes from the view's users, not from the view's own
        class and attribute definitions (Example 5 hides the very
        attributes its imaginary ``Address`` class is built from).
        While this context is active, the resolver ignores hides.
        """
        return _InternalEvaluation(self)

    @property
    def in_internal_evaluation(self) -> bool:
        return self._internal_depth > 0

    # ------------------------------------------------------------------
    # Imports (§3)
    # ------------------------------------------------------------------

    def import_database(self, source: Scope) -> None:
        """``import all classes from database S``."""
        index = self._add_provider(source)
        self._import_all.add(index)
        self._schema.copy_classes_from(source.schema)
        self.definition_log.append(("import_all", source.scope_name))
        self._invalidate_schema()

    def import_class(self, source: Scope, class_name: str) -> None:
        """``import class C from database S``.

        The class becomes visible "together with its subclasses, the
        objects in the classes, their values and behaviors".
        """
        source.schema.require(class_name)
        self._add_provider(source)
        self._schema.copy_classes_from(source.schema, [class_name])
        self.definition_log.append(
            ("import_class", source.scope_name, class_name)
        )
        self._invalidate_schema()

    def _add_provider(self, source: Scope) -> int:
        for index, existing in enumerate(self._providers):
            if existing is source:
                return index
        source_hides = getattr(source, "hides", None)
        if source_hides is not None:
            # Importing from a view: its hides travel with it.
            self._hides.merge(source_hides)
        self._providers.append(source)
        index = len(self._providers) - 1
        source.events.subscribe(
            lambda event, _i=index: self._on_provider_event(event, _i)
        )
        return index

    def _on_provider_event(self, event: Event, provider_index: int) -> None:
        # The whole maintenance step — version bump, delta forwarding,
        # republish to subscribers (materialized classes, stacked
        # views) — is atomic w.r.t. cache validation on reader threads.
        with self._maintenance_lock:
            provider = self._providers[provider_index]
            if isinstance(event, ObjectUpdated):
                # An update changes no extent of a *base* class; only
                # reads of this attribute (on the class or an ancestor)
                # can differ. Virtual-class extents that depend on the
                # attribute recorded it as a dependency and invalidate
                # through the attribute version.
                self.stats.record_invalidation(event.class_name)
                self._bump_attribute(
                    event.class_name, event.attribute, provider
                )
                self._epoch += 1
                self._forward_delta(event)
            elif isinstance(event, (ObjectCreated, ObjectDeleted)):
                self.stats.record_invalidation(event.class_name)
                self._bump_extents(event.class_name, provider)
                self._epoch += 1
                self._forward_delta(event)
            elif isinstance(event, ClassDefined):
                name = event.class_name
                if name not in self._schema and self._covers_new_class(
                    provider_index, provider, name
                ):
                    self._schema.copy_classes_from(provider.schema, [name])
                self._invalidate_schema()
            else:
                # Unknown event kinds are treated as structural so no
                # cache can go stale silently.
                self._invalidate_schema()
            self._events.publish(event)

    def _forward_delta(self, event: Event) -> None:
        """Buffer an object-level event with every virtual class so a
        stale cached population can be delta-patched instead of fully
        recomputed."""
        for vclass in self._virtuals.values():
            vclass.note_event(event)

    def _covers_new_class(
        self, provider_index: int, provider: Scope, name: str
    ) -> bool:
        if provider_index in self._import_all:
            return True
        # Subtree imports: a new subclass of an already-imported class
        # becomes visible too.
        return any(
            parent in self._schema
            for parent in provider.schema.ancestors(name)
        )

    def _invalidate_schema(self) -> None:
        self._defining_map = None
        self._bump_targets_cache.clear()
        self._schema_version += 1
        self._epoch += 1

    # ------------------------------------------------------------------
    # Hiding (§3)
    # ------------------------------------------------------------------

    def hide_attribute(self, class_name: str, attribute: str) -> None:
        """``hide attribute A in class C`` — hides the definitions of A
        in C and all its subclasses.

        Invalidation is *targeted*: hiding an attribute can change only
        how that attribute resolves at C and below (hides bind the
        view's users — populations evaluate with hides off), so only
        the ``(class, attribute)`` versions of that subtree move. A
        cached population that never read the attribute survives.
        """
        self._schema.require(class_name)
        self._hides.hide_attribute(class_name, attribute)
        self.definition_log.append(
            ("hide_attribute", class_name, attribute)
        )
        self._bump_attribute(
            class_name,
            attribute,
            targets=(class_name, *self._schema.descendants(class_name)),
        )
        self._hide_version += 1
        self._epoch += 1

    def hide_attributes(
        self, class_name: str, attributes: Sequence[str]
    ) -> None:
        for attribute in attributes:
            self.hide_attribute(class_name, attribute)

    def hide_class(self, class_name: str) -> None:
        self._schema.require(class_name)
        self._hides.hide_class(class_name)
        self.definition_log.append(("hide_class", class_name))
        self._hide_version += 1
        self._invalidate_schema()

    # ------------------------------------------------------------------
    # Virtual attributes (§2)
    # ------------------------------------------------------------------

    def define_attribute(
        self,
        class_name: str,
        attribute: str,
        declared_type=None,
        value=None,
        arity: int = 0,
        updater=None,
    ) -> AttributeDef:
        """``attribute A {of type T} in class C {has value V}``.

        ``value`` may be a Python callable, expression text, a parsed
        expression, or a query; the attribute is stored when ``value``
        is omitted. The type is inferred when not declared. ``updater``
        makes a computed attribute writable through the view (the
        view-update inverse; see :meth:`update`).
        """
        cdef = self._schema.require(class_name)
        adef = build_virtual_attribute(
            self, class_name, attribute, value, declared_type, arity,
            updater,
        )
        cdef.attributes[attribute] = adef
        self.definition_log.append(
            ("define_attribute", class_name, attribute, adef, value)
        )
        self._invalidate_schema()
        return adef

    def update(self, target, attribute: str, new_value) -> None:
        """Update an attribute *through* the view.

        Stored attributes route to the owning base database; computed
        attributes require an update translator (``updater=`` on
        :meth:`define_attribute`); hidden attributes refuse. §6 of the
        paper defers view updates — this implements the part its
        machinery determines (see :mod:`repro.core.updates`).
        """
        from .updates import update_through_view

        update_through_view(self, target, attribute, new_value)

    # ------------------------------------------------------------------
    # Virtual classes (§4) and imaginary classes (§5)
    # ------------------------------------------------------------------

    def define_virtual_class(
        self,
        name: str,
        includes: Sequence,
        parameters: Sequence[str] = (),
        doc: str = "",
    ):
        """``class C {(parameters)} includes α1, ..., αn``.

        Returns the :class:`VirtualClass` (or :class:`ClassFamily` when
        parameters are given). Hierarchy placement, upward inheritance
        and (for imaginary members) core attributes are inferred here —
        the paper's principle (4): the user specifies the population,
        the system derives type and behaviour.
        """
        members = normalize_includes(includes)
        self.definition_log.append(
            ("define_virtual_class", name, tuple(members), tuple(parameters))
        )
        if parameters:
            family = ClassFamily(self, name, parameters, members)
            self._families[name] = family
            self._invalidate_schema()
            return family
        if name in self._schema:
            raise VirtualClassError(f"class already defined: {name!r}")
        imaginary_members = [
            m for m in members if isinstance(m, ImaginaryMember)
        ]
        if len(imaginary_members) > 1 or (
            imaginary_members and len(members) > 1
        ):
            raise VirtualClassError(
                "an imaginary member must be the only member of its"
                " class"
            )
        kind = ClassKind.IMAGINARY if imaginary_members else ClassKind.VIRTUAL
        cdef = self._schema.define_class(name, (), {}, kind, doc)
        imaginary_class = None
        if imaginary_members:
            imaginary_class = ImaginaryClass(
                self, name, imaginary_members[0].query
            )
            self._imaginaries[imaginary_class.space] = imaginary_class
        vclass = VirtualClass(self, name, members, imaginary_class)
        self._virtuals[name] = vclass
        placement = infer_placement(self._schema, members, self.like_matches)
        apply_placement(self._schema, name, placement)
        core_attrs = (
            imaginary_class.core_attributes() if imaginary_class else None
        )
        acquired = acquired_attributes(
            self._schema, name, members, self.like_matches, core_attrs
        )
        cdef.attributes.update(acquired)
        if core_attrs:
            # Core attributes are genuine stored attributes of the
            # imaginary class (served from the identity table), not
            # merely acquired type information.
            cdef.attributes.update(core_attrs)
        self._invalidate_schema()
        return vclass

    def define_spec_class(
        self, name: str, attributes: Mapping, doc: str = ""
    ):
        """Define a *specification class*: a schema-only class carrying
        the attributes a behavioral ``like`` declaration matches on
        (the paper's ``On_Sale_Spec``). It has no population."""
        cdef = self._schema.define_class(
            name,
            (),
            attributes,
            ClassKind.VIRTUAL,
            doc or "specification class",
        )
        self.definition_log.append(("define_spec_class", name, cdef))
        self._invalidate_schema()
        return cdef

    def define_imaginary_class(self, name: str, query, doc: str = ""):
        """``class C includes imaginary (select [..] from ...)``."""
        from .population import imaginary as imaginary_member

        return self.define_virtual_class(
            name, [imaginary_member(query)], doc=doc
        )

    def virtual_class(self, name: str) -> VirtualClass:
        vclass = self._virtuals.get(name)
        if vclass is None:
            raise UnknownClassError(name)
        return vclass

    def virtual_classes(self) -> List[VirtualClass]:
        """All virtual classes defined in this view (the tier-2 bench
        invariant iterates these to compare maintained populations with
        from-scratch evaluation)."""
        return list(self._virtuals.values())

    def family(self, name: str) -> ClassFamily:
        family = self._families.get(name)
        if family is None:
            raise UnknownClassError(name)
        return family

    def imaginary_class(self, name: str) -> ImaginaryClass:
        vclass = self.virtual_class(name)
        if vclass.imaginary is None:
            raise VirtualClassError(f"class {name!r} is not imaginary")
        return vclass.imaginary

    def materialize(self, name: str) -> MaterializedClass:
        """Keep the population of a virtual class materialized, with
        incremental maintenance where possible."""
        existing = self._materialized.get(name)
        if existing is not None:
            return existing
        materialized = MaterializedClass(self, self.virtual_class(name))
        self._materialized[name] = materialized
        return materialized

    def dematerialize(self, name: str) -> None:
        materialized = self._materialized.pop(name, None)
        if materialized is not None:
            materialized.drop()

    # ------------------------------------------------------------------
    # Behavioral generalization (§4.1/4.2)
    # ------------------------------------------------------------------

    def like_matches(self, spec_class: str) -> List[str]:
        """Classes whose type is at least as specific as the spec's.

        Matching is dynamic: a class imported or defined after the
        ``like`` declaration is matched automatically (the flexibility
        argument of §4.2). Classes themselves defined by ``like`` are
        excluded to keep behavioral definitions well-founded.
        """
        spec_type = self._schema.tuple_type_of(spec_class)
        matches = []
        for cdef in self._schema:
            name = cdef.name
            if name == spec_class:
                continue
            if self._hides.class_hidden(name):
                continue
            if self._is_like_class(name):
                continue
            if is_subtype(
                self._schema.tuple_type_of(name), spec_type, self._schema
            ):
                matches.append(name)
        return sorted(matches)

    def _is_like_class(self, name: str) -> bool:
        vclass = self._virtuals.get(name)
        if vclass is None:
            return False
        return any(isinstance(m, LikeMember) for m in vclass.members)

    # ------------------------------------------------------------------
    # Extents and membership
    # ------------------------------------------------------------------

    def _class_hidden_from_caller(self, class_name: str) -> bool:
        """Class hides, like attribute hides, bind the view's users:
        the view's own class definitions (a generalization including a
        class hidden further down the script) still see the class."""
        return self._internal_depth == 0 and self._hides.class_hidden(
            class_name
        )

    def has_class(self, name: str) -> bool:
        if name in self._families:
            return True
        return name in self._schema and not self._class_hidden_from_caller(
            name
        )

    def extent(self, class_name: str, deep: bool = True) -> OidSet:
        """All members of a class in this view.

        For a base class: the union of the providers' extents over the
        class and its non-virtual descendants. For a virtual class: its
        (possibly materialized) population.

        Virtual *descendants* are deliberately **not** re-evaluated:
        hierarchy inference (rule (1), §4.2) only places a virtual
        class below C when its whole population is guaranteed to lie in
        C's extent already, so their contribution is always redundant —
        and skipping them avoids an exponential cascade of sibling
        population evaluations. The only exception is an imaginary
        class manually edged below C (imaginary populations are new
        objects), which is still included.
        """
        if self._class_hidden_from_caller(class_name):
            raise UnknownClassError(class_name)
        if class_name in self._families:
            raise VirtualClassError(
                f"{class_name!r} is a parameterized class family; supply"
                f" arguments, e.g. extent of {class_name}(x)"
            )
        self._schema.require(class_name)
        if ACTIVE_TRACKERS:
            record_extent_read(class_name)
        members: set = set()
        members.update(self.immediate_members(class_name).members)
        if deep:
            for name in self._schema.descendants(class_name):
                vclass = self._virtuals.get(name)
                if vclass is not None:
                    if vclass.is_imaginary():
                        members.update(self.immediate_members(name).members)
                    continue
                for provider in self._providers:
                    if name in provider.schema:
                        members.update(
                            provider.immediate_members(name).members
                        )
        if not members:
            return EMPTY_OID_SET
        return OidSet.of(members)

    def immediate_members(self, name: str) -> OidSet:
        """The class's own members: a virtual class's population, or
        the providers' immediate members. Unlike the user-facing
        ``extent`` this answers for a class the view hides — "its
        objects remain members of visible superclasses", here and one
        view up."""
        vclass = self._virtuals.get(name)
        if vclass is not None:
            materialized = self._materialized.get(name)
            if materialized is not None and self.reads_are_current():
                # A stale-pinned reader skips the (eagerly maintained,
                # therefore latest-version) copy and evaluates against
                # its own pinned version instead.
                return materialized.population()
            return vclass.population()
        members: set = set()
        for provider in self._providers:
            if name in provider.schema:
                members.update(provider.immediate_members(name).members)
        if not members:
            return EMPTY_OID_SET
        return OidSet.of(members)

    def handles(self, class_name: str, deep: bool = True) -> List[ObjectHandle]:
        return [self.get(oid) for oid in self.extent(class_name, deep)]

    def is_member(self, oid: Oid, class_name: str) -> bool:
        if ACTIVE_TRACKERS:
            record_extent_read(class_name)
        if self._class_hidden_from_caller(class_name):
            return False
        if class_name in self._families:
            raise VirtualClassError(
                f"membership in family {class_name!r} requires arguments"
            )
        if class_name not in self._schema:
            return False
        guard_key = (oid, class_name)
        if guard_key in self._membership_in_progress:
            return False
        self._membership_in_progress.add(guard_key)
        try:
            # Base membership through any provider (the provider's own
            # deep extent covers its subclasses).
            for provider in self._providers:
                if class_name in provider.schema and provider.is_member(
                    oid, class_name
                ):
                    return True
            # Cross-provider descendants reachable only through
            # view-added edges.
            try:
                real = self.class_of(oid)
            except UnknownOidError:
                return False
            if real not in self._virtuals and self._schema.isa(
                real, class_name
            ):
                return True
            # Direct virtual membership.
            vclass = self._virtuals.get(class_name)
            if vclass is not None and vclass.contains(oid):
                return True
            # Rule (1) guarantees the population of every
            # inferred-placement virtual subclass already lies in this
            # class's extent, so those need no re-check; imaginary
            # subclasses (only possible via manual edges) do.
            for name, sub in self._virtuals.items():
                if name == class_name or not sub.is_imaginary():
                    continue
                if self._schema.isa(name, class_name) and sub.contains(oid):
                    return True
            return False
        finally:
            self._membership_in_progress.discard(guard_key)

    def instantiate_family(self, name: str, args: Tuple) -> OidSet:
        """The population of a parameterized class instance."""
        return self.family(name).instantiate(args)

    # ------------------------------------------------------------------
    # Object service
    # ------------------------------------------------------------------

    def class_of(self, oid: Oid) -> str:
        imaginary = self._imaginaries.get(oid.space)
        if imaginary is not None and imaginary.ever_issued(oid):
            return imaginary.name
        for provider in self._providers:
            if provider.contains_oid(oid):
                return provider.class_of(oid)
        raise UnknownOidError(oid)

    def contains_oid(self, oid: Oid) -> bool:
        imaginary = self._imaginaries.get(oid.space)
        if imaginary is not None and imaginary.ever_issued(oid):
            return True
        return any(p.contains_oid(oid) for p in self._providers)

    def raw_value(self, oid: Oid) -> Dict[str, object]:
        imaginary = self._imaginaries.get(oid.space)
        if imaginary is not None and imaginary.ever_issued(oid):
            return imaginary.value(oid)
        for provider in self._providers:
            if provider.contains_oid(oid):
                return provider.raw_value(oid)
        raise UnknownOidError(oid)

    def resolve_attribute_for(self, oid: Oid, attribute: str) -> AttributeDef:
        return self._resolver.resolve(oid, attribute)

    def create(self, class_name: str, *args, **kwargs):
        raise ViewError(
            "views have no proper data of their own (§3); create objects"
            " in a base database"
        )

    # ------------------------------------------------------------------
    # Resolution configuration
    # ------------------------------------------------------------------

    def set_conflict_policy(self, policy) -> None:
        if isinstance(policy, str):
            policy = ConflictPolicy(policy)
        self._resolver.set_policy(policy)

    def set_resolution_priority(self, class_names: Sequence[str]) -> None:
        self._resolver.set_priority(list(class_names))

    @property
    def conflict_log(self):
        return self._resolver.conflict_log

    # ------------------------------------------------------------------
    # Schema-level attribute typing (for the type checker)
    # ------------------------------------------------------------------

    def attribute_type(self, class_name: str, attribute: str):
        """Effective declared type of an attribute, honoring hides."""
        if self._hides.class_hidden(class_name):
            raise UnknownClassError(class_name)
        found_hidden = False
        for cls in self._schema.linearize(class_name):
            adef = self._schema.require(cls).own_attribute(attribute)
            if adef is None:
                continue
            if self._hides.definition_hidden(self._schema, cls, attribute):
                found_hidden = True
                continue
            return adef.declared_type
        if found_hidden or self._hides.attribute_mentioned(attribute):
            raise HiddenAttributeError(class_name, attribute)
        raise UnknownAttributeError(class_name, attribute)

    def attributes_of(self, class_name: str) -> Dict[str, AttributeDef]:
        """The visible effective attributes of a class in this view."""
        result: Dict[str, AttributeDef] = {}
        for cls in reversed(self._schema.linearize(class_name)):
            for name, adef in self._schema.require(cls).attributes.items():
                if self._hides.definition_hidden(self._schema, cls, name):
                    result.pop(name, None)
                    continue
                result[name] = adef
        return result

    # ------------------------------------------------------------------
    # Resolution support
    # ------------------------------------------------------------------

    def classes_defining(self, attribute: str) -> List[str]:
        """Classes writing their own (non-acquired) definition of an
        attribute; cached and invalidated on schema change."""
        if self._defining_map is None:
            defining: Dict[str, List[str]] = {}
            for cdef in self._schema:
                for name, adef in cdef.attributes.items():
                    if adef.acquired:
                        continue
                    defining.setdefault(name, []).append(cdef.name)
            for classes in defining.values():
                classes.sort()
            self._defining_map = defining
        return self._defining_map.get(attribute, [])

    # ------------------------------------------------------------------
    # Functions and queries
    # ------------------------------------------------------------------

    def register_function(
        self, name: str, fn: Callable, result_type=None
    ) -> None:
        """Register a named function usable in queries and attribute
        bodies (the paper's ``gsd(self)``)."""
        self.functions[name] = fn
        if result_type is not None:
            self.function_types[name] = type_from_signature(result_type)

    def query(self, query, **parameters):
        """Evaluate a query against this view (via the plan cache)."""
        from ..query.planner import execute

        return execute(query, self, bindings=parameters or None)


class _InternalEvaluation:
    """Re-entrant marker for view-internal evaluation (hides off)."""

    def __init__(self, view: View):
        self._view = view

    def __enter__(self):
        self._view._internal_depth += 1
        return self._view

    def __exit__(self, *exc):
        self._view._internal_depth -= 1
        return False
