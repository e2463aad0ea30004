"""Attribute indexes.

A hash index over one stored attribute of one class (and its
subclasses). Indexes subscribe to the database's event bus and stay
consistent under creates, updates and deletes. Query evaluation uses
them for equality predicates on indexed attributes; parameterized
classes (§4.2, ``Resident(X)``) use them to enumerate the non-empty
parameter values cheaply.

:class:`OrderedAttributeIndex` extends the hash index with sorted key
lists so the planner can serve ``<``/``<=``/``>``/``>=``/range
predicates with a ``bisect`` scan instead of a full extent walk.
Numeric and string keys are kept in separate sorted lists (the model
does not order values across types); booleans and structured values
stay equality-only.

Every index keeps an oid→key reverse map, so deletes (where the
object's values are already gone) are O(1) instead of a scan over
every bucket.

Indexes participate in the database's MVCC snapshots (see
:mod:`repro.engine.versions`): :meth:`AttributeIndex.publish` marks the
bucket table *shared* and returns a :class:`FrozenAttributeIndex`
referencing it; the next mutating event copies the buckets privately
first (``_ensure_private``), so the frozen view keeps the old contents.
:meth:`IndexManager.publish` captures the whole registry as an
:class:`IndexManagerSnapshot` the planner can probe exactly like the
live manager.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import SchemaError
from .database import Database
from .events import (
    Event,
    ObjectCreated,
    ObjectDeleted,
    ObjectUpdated,
)
from .oid import EMPTY_OID_SET, Oid, OidSet
from .values import canonicalize


class AttributeIndex:
    """Hash index: canonical attribute value → set of member oids."""

    def __init__(self, database: Database, class_name: str, attribute: str):
        adef = database.schema.resolve_attribute(class_name, attribute)
        if adef.is_computed():
            raise SchemaError(
                f"cannot index computed attribute"
                f" {class_name}.{attribute}"
            )
        self._db = database
        self._class_name = class_name
        self._attribute = attribute
        self._entries: Dict[object, Set[Oid]] = {}
        self._oid_keys: Dict[Oid, object] = {}
        self._shared = False
        self._frozen: Optional["FrozenAttributeIndex"] = None
        self._unsubscribe = database.events.subscribe(self._on_event)
        self._rebuild()

    @property
    def class_name(self) -> str:
        return self._class_name

    @property
    def attribute(self) -> str:
        return self._attribute

    def lookup(self, value) -> OidSet:
        """Oids of members whose attribute equals ``value``."""
        members = self._entries.get(canonicalize(value))
        if not members:
            return EMPTY_OID_SET
        return OidSet.of(members)

    def distinct_values_count(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterable[object]:
        return self._entries.keys()

    def drop(self) -> None:
        """Detach the index from the event bus."""
        self._unsubscribe()
        # Rebind rather than clear: a published frozen view may still
        # reference the old bucket table.
        self._entries = {}
        self._oid_keys = {}
        self._shared = False
        self._frozen = None

    def publish(self) -> "FrozenAttributeIndex":
        """An immutable view of the current contents.

        Marks the bucket table shared; the next mutating event copies
        it privately first. Repeated calls between mutations return
        the same frozen object.
        """
        if self._frozen is None:
            self._shared = True
            self._frozen = self._make_frozen()
        return self._frozen

    def _make_frozen(self) -> "FrozenAttributeIndex":
        return FrozenAttributeIndex(
            self._class_name, self._attribute, self._entries
        )

    def _ensure_private(self) -> None:
        """Copy the shared bucket table before the first mutation
        after a publish (copy-on-write-on-share)."""
        if not self._shared:
            return
        self._entries = {
            key: set(bucket) for key, bucket in self._entries.items()
        }
        self._shared = False
        self._frozen = None

    # ------------------------------------------------------------------

    def _covers(self, class_name: str) -> bool:
        return self._db.schema.isa(class_name, self._class_name)

    def _rebuild(self) -> None:
        self._ensure_private()
        self._entries.clear()
        self._oid_keys.clear()
        for oid in self._db.extent(self._class_name, deep=True):
            self._insert(oid)

    def _insert(self, oid: Oid) -> None:
        value = self._db.raw_value(oid).get(self._attribute)
        if value is None:
            return
        self._add(oid, value)

    def _add(self, oid: Oid, value) -> None:
        key = canonicalize(value)
        bucket = self._entries.get(key)
        if bucket is None:
            bucket = self._entries[key] = set()
            self._key_added(key)
        bucket.add(oid)
        self._oid_keys[oid] = key

    def _discard(self, oid: Oid) -> None:
        key = self._oid_keys.pop(oid, None)
        if key is None:
            return
        bucket = self._entries.get(key)
        if bucket is None:
            return
        bucket.discard(oid)
        if not bucket:
            del self._entries[key]
            self._key_removed(key)

    # Hooks for ordered subclasses: called exactly when a bucket is
    # created / becomes empty, with the canonical key.

    def _key_added(self, key) -> None:
        pass

    def _key_removed(self, key) -> None:
        pass

    def _on_event(self, event: Event) -> None:
        if isinstance(event, ObjectCreated) and self._covers(event.class_name):
            self._ensure_private()
            self._insert(event.oid)
        elif isinstance(event, ObjectUpdated):
            if event.attribute != self._attribute:
                return
            if not self._covers(event.class_name):
                return
            self._ensure_private()
            self._discard(event.oid)
            if event.new_value is not None:
                self._add(event.oid, event.new_value)
        elif isinstance(event, ObjectDeleted) and self._covers(event.class_name):
            # The object's values are already gone; the reverse map
            # still knows its key.
            self._ensure_private()
            self._discard(event.oid)


class OrderedAttributeIndex(AttributeIndex):
    """A hash index that also keeps its keys sorted for range scans.

    Canonical keys tag the value's type (``("n", float)`` for numbers,
    ``("a", str)`` for strings, …); the sorted lists hold the bare
    payloads per type so ``bisect`` never compares across types.
    """

    def __init__(self, database: Database, class_name: str, attribute: str):
        self._numeric_keys: List[float] = []
        self._string_keys: List[str] = []
        super().__init__(database, class_name, attribute)

    def _rebuild(self) -> None:
        self._numeric_keys.clear()
        self._string_keys.clear()
        super()._rebuild()

    def _key_added(self, key) -> None:
        tag = key[0]
        if tag == "n":
            insort(self._numeric_keys, key[1])
        elif tag == "a":
            insort(self._string_keys, key[1])

    def _key_removed(self, key) -> None:
        tag = key[0]
        if tag == "n":
            _sorted_discard(self._numeric_keys, key[1])
        elif tag == "a":
            _sorted_discard(self._string_keys, key[1])

    def drop(self) -> None:
        super().drop()
        self._numeric_keys = []
        self._string_keys = []

    def _make_frozen(self) -> "FrozenOrderedIndex":
        return FrozenOrderedIndex(
            self._class_name,
            self._attribute,
            self._entries,
            self._numeric_keys,
            self._string_keys,
        )

    def _ensure_private(self) -> None:
        if not self._shared:
            return
        self._numeric_keys = list(self._numeric_keys)
        self._string_keys = list(self._string_keys)
        super()._ensure_private()

    def range_lookup(
        self,
        low=None,
        high=None,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> OidSet:
        """Oids whose attribute falls in the (half-)open interval.

        Bounds must be both numeric or both strings; ``None`` leaves
        that side unbounded (at least one bound is required).
        """
        return _range_scan(
            self._entries,
            self._numeric_keys,
            self._string_keys,
            low,
            high,
            low_strict,
            high_strict,
        )


def _sorted_discard(keys: list, value) -> None:
    position = bisect_left(keys, value)
    if position < len(keys) and keys[position] == value:
        del keys[position]


def _range_scan(
    entries: Dict[object, Set[Oid]],
    numeric_keys: List[float],
    string_keys: List[str],
    low,
    high,
    low_strict: bool,
    high_strict: bool,
) -> OidSet:
    """The bisect range scan shared by live and frozen ordered
    indexes."""
    bound = low if low is not None else high
    if bound is None:
        raise ValueError("range_lookup needs at least one bound")
    if isinstance(bound, bool):
        return EMPTY_OID_SET  # booleans are not ordered
    if isinstance(bound, (int, float)):
        keys = numeric_keys
        tag = "n"
    elif isinstance(bound, str):
        keys = string_keys
        tag = "a"
    else:
        return EMPTY_OID_SET
    if low is None:
        start = 0
    elif low_strict:
        start = bisect_right(keys, low)
    else:
        start = bisect_left(keys, low)
    if high is None:
        stop = len(keys)
    elif high_strict:
        stop = bisect_left(keys, high)
    else:
        stop = bisect_right(keys, high)
    if start >= stop:
        return EMPTY_OID_SET
    members: Set[Oid] = set()
    for payload in keys[start:stop]:
        members.update(entries[(tag, payload)])
    return OidSet.of(members)


class FrozenAttributeIndex:
    """An immutable hash-index view captured by a database snapshot.

    Shares the publishing index's bucket table by reference; the live
    index copies before its next mutation, so the contents here never
    change. Supports exactly the probes the planner issues.
    """

    __slots__ = ("_class_name", "_attribute", "_entries")

    def __init__(
        self,
        class_name: str,
        attribute: str,
        entries: Dict[object, Set[Oid]],
    ):
        self._class_name = class_name
        self._attribute = attribute
        self._entries = entries

    @property
    def class_name(self) -> str:
        return self._class_name

    @property
    def attribute(self) -> str:
        return self._attribute

    def lookup(self, value) -> OidSet:
        members = self._entries.get(canonicalize(value))
        if not members:
            return EMPTY_OID_SET
        return OidSet.of(members)

    def distinct_values_count(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterable[object]:
        return self._entries.keys()


class FrozenOrderedIndex(FrozenAttributeIndex):
    """An immutable ordered-index view (equality plus range scans)."""

    __slots__ = ("_numeric_keys", "_string_keys")

    def __init__(
        self,
        class_name: str,
        attribute: str,
        entries: Dict[object, Set[Oid]],
        numeric_keys: List[float],
        string_keys: List[str],
    ):
        super().__init__(class_name, attribute, entries)
        self._numeric_keys = numeric_keys
        self._string_keys = string_keys

    def range_lookup(
        self,
        low=None,
        high=None,
        low_strict: bool = False,
        high_strict: bool = False,
    ) -> OidSet:
        return _range_scan(
            self._entries,
            self._numeric_keys,
            self._string_keys,
            low,
            high,
            low_strict,
            high_strict,
        )


def _own_route(self, class_name: str, attribute: str, ordered: bool = False):
    """The planner's one lookup, ``(index, path, refusal)``: the index
    serving the class (or ``None``), the scopes it was reached through
    and why no index *may* serve the attribute. A database owns its
    indexes and puts no rule between them and a class: no path, never
    a refusal — a view's answer (:mod:`repro.core.pushdown`) fills
    both in."""
    find = self.find_ordered if ordered else self.find
    return find(class_name, attribute), (), None


class IndexManager:
    """Registry of attribute indexes for one database.

    Alongside the primary ``(class, attribute)`` map a secondary
    attribute→indexes map is kept, so :meth:`find` touches only the
    indexes that could possibly serve a lookup instead of scanning
    the whole registry per miss. A version counter ticks on every
    create/drop; the query planner's cached plans are validated
    against it.
    """

    def __init__(self, database: Database):
        self._db = database
        self._indexes: Dict[Tuple[str, str], AttributeIndex] = {}
        self._by_attribute: Dict[
            str, Dict[Tuple[str, str], AttributeIndex]
        ] = {}
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def create_index(
        self, class_name: str, attribute: str, kind: str = "hash"
    ) -> AttributeIndex:
        if kind not in ("hash", "ordered"):
            raise SchemaError(f"unknown index kind: {kind!r}")
        key = (class_name, attribute)
        existing = self._indexes.get(key)
        if existing is not None:
            if kind == "hash" or isinstance(existing, OrderedAttributeIndex):
                return existing
            # Upgrade: an ordered index answers everything the hash
            # index does, so replace rather than refuse.
            self.drop_index(class_name, attribute)
        factory = (
            OrderedAttributeIndex if kind == "ordered" else AttributeIndex
        )
        index = factory(self._db, class_name, attribute)
        self._indexes[key] = index
        self._by_attribute.setdefault(attribute, {})[key] = index
        self._version += 1
        return index

    def drop_index(self, class_name: str, attribute: str) -> None:
        index = self._indexes.pop((class_name, attribute), None)
        if index is not None:
            index.drop()
            bucket = self._by_attribute.get(attribute)
            if bucket is not None:
                bucket.pop((class_name, attribute), None)
                if not bucket:
                    del self._by_attribute[attribute]
            self._version += 1

    def find(self, class_name: str, attribute: str) -> Optional[AttributeIndex]:
        """An index usable for equality lookups on the class's extent.

        An index on a superclass covers the subclass's extent too (its
        buckets contain a superset; callers intersect with the extent).
        """
        candidates = self._by_attribute.get(attribute)
        if not candidates:
            return None
        exact = candidates.get((class_name, attribute))
        if exact is not None:
            return exact
        for (indexed_class, _), index in candidates.items():
            if self._db.schema.isa(class_name, indexed_class):
                return index
        return None

    def find_ordered(
        self, class_name: str, attribute: str
    ) -> Optional[OrderedAttributeIndex]:
        """An ordered index covering the class, for range predicates."""
        candidates = self._by_attribute.get(attribute)
        if not candidates:
            return None
        exact = candidates.get((class_name, attribute))
        if isinstance(exact, OrderedAttributeIndex):
            return exact
        for (indexed_class, _), index in candidates.items():
            if isinstance(index, OrderedAttributeIndex) and self._db.schema.isa(
                class_name, indexed_class
            ):
                return index
        return None

    route = _own_route

    def specs(self) -> List[Tuple[str, str, str]]:
        """``(class, attribute, kind)`` of every index — the shape a
        replica needs to recreate the registry."""
        return [
            (
                class_name,
                attribute,
                "ordered"
                if isinstance(index, OrderedAttributeIndex)
                else "hash",
            )
            for (class_name, attribute), index in sorted(
                self._indexes.items()
            )
        ]

    def publish(self) -> "IndexManagerSnapshot":
        """Capture the whole registry for a database snapshot."""
        return IndexManagerSnapshot(
            self._db.schema,
            {key: index.publish() for key, index in self._indexes.items()},
            self._version,
        )

    def __len__(self) -> int:
        return len(self._indexes)


class IndexManagerSnapshot:
    """The frozen index registry carried by a database snapshot.

    Probe-compatible with :class:`IndexManager` (``find`` /
    ``find_ordered`` / ``version``), so compiled plans execute against
    a snapshot unchanged. The schema is shared by reference — index
    DDL bumps the registry version and installs a new database
    version, so a stale registry is never consulted for new plans.
    """

    __slots__ = ("_schema", "_indexes", "_by_attribute", "_version")

    def __init__(
        self,
        schema,
        indexes: Dict[Tuple[str, str], FrozenAttributeIndex],
        version: int,
    ):
        self._schema = schema
        self._indexes = indexes
        self._by_attribute: Dict[
            str, Dict[Tuple[str, str], FrozenAttributeIndex]
        ] = {}
        for key, index in indexes.items():
            self._by_attribute.setdefault(key[1], {})[key] = index
        self._version = version

    @property
    def version(self) -> int:
        return self._version

    def find(
        self, class_name: str, attribute: str
    ) -> Optional[FrozenAttributeIndex]:
        candidates = self._by_attribute.get(attribute)
        if not candidates:
            return None
        exact = candidates.get((class_name, attribute))
        if exact is not None:
            return exact
        for (indexed_class, _), index in candidates.items():
            if self._schema.isa(class_name, indexed_class):
                return index
        return None

    def find_ordered(
        self, class_name: str, attribute: str
    ) -> Optional[FrozenOrderedIndex]:
        candidates = self._by_attribute.get(attribute)
        if not candidates:
            return None
        exact = candidates.get((class_name, attribute))
        if isinstance(exact, FrozenOrderedIndex):
            return exact
        for (indexed_class, _), index in candidates.items():
            if isinstance(index, FrozenOrderedIndex) and self._schema.isa(
                class_name, indexed_class
            ):
                return index
        return None

    route = _own_route

    def __len__(self) -> int:
        return len(self._indexes)
