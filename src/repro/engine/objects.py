"""Objects, handles, and the scope protocol.

A stored object is a :class:`DatabaseObject`: an oid, the single class it
is *real* in (unique-root rule, §4.2), and a tuple value. Application
code never touches these directly; it works with :class:`ObjectHandle`
proxies bound to a *scope* — a database or a view. The handle resolves
attribute access through its scope, so the same object behaves
differently under different views (that is the whole point of the
paper).

Dot notation on handles combines dereferencing and field selection,
exactly like the paper's ``Maggy.Address`` (§2): a stored oid comes back
wrapped in a new handle, a tuple value comes back as a
:class:`TupleValue` supporting further dot access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import ObjectError
from ..obs import trace as _trace
from .oid import Oid
from .schema import AttributeDef
from .tracking import ACTIVE_TRACKERS, record_attribute_read


@dataclass
class DatabaseObject:
    """The stored representation of one object."""

    oid: Oid
    class_name: str
    value: Dict[str, object] = field(default_factory=dict)


class Scope:
    """What a handle needs from its surrounding database or view.

    Concrete scopes: :class:`~repro.engine.database.Database` and
    :class:`~repro.core.view.View`.
    """

    @property
    def scope_name(self) -> str:
        raise NotImplementedError

    @property
    def schema(self):
        raise NotImplementedError

    def class_of(self, oid: Oid) -> str:
        """The class the object is real in."""
        raise NotImplementedError

    def raw_value(self, oid: Oid) -> Dict[str, object]:
        """The stored tuple value (live reference; mutate via update)."""
        raise NotImplementedError

    def resolve_attribute_for(self, oid: Oid, attribute: str) -> AttributeDef:
        """Effective attribute definition for this object in this scope."""
        raise NotImplementedError

    def is_member(self, oid: Oid, class_name: str) -> bool:
        """True if the object belongs to the class *in this scope*."""
        raise NotImplementedError

    def immediate_members(self, class_name: str):
        """The oids placed in exactly this class, subclasses excluded:
        what a view importing the class builds its extents from."""
        return self.extent(class_name, deep=False)

    def get(self, oid: Oid) -> "ObjectHandle":
        return ObjectHandle(self, oid)

    # ------------------------------------------------------------------
    # Attribute access
    # ------------------------------------------------------------------

    def access(self, oid: Oid, attribute: str, *args):
        """Read an attribute (stored or computed) of an object."""
        if ACTIVE_TRACKERS:
            # Key on the real class: mutation events carry it, so a
            # cached read of (class, attribute) is invalidated exactly
            # by updates to that attribute on that class (or an
            # ancestor/descendant, see View bump routing).
            record_attribute_read(self.class_of(oid), attribute)
        adef = self.resolve_attribute_for(oid, attribute)
        if adef.is_computed():
            receiver = self.get(oid)
            if _trace.ENABLED:
                # Coalesces per parent span: a query touching one
                # computed attribute on N objects yields one ×N node.
                with _trace.span(
                    "virtual_attr.eval",
                    attribute=attribute,
                    **{"class": adef.origin},
                ):
                    raw = adef.procedure(receiver, *args)
            else:
                raw = adef.procedure(receiver, *args)
            return wrap_value(self, unwrap(raw))
        if args:
            raise ObjectError(
                f"stored attribute {attribute!r} takes no arguments"
            )
        stored = self.raw_value(oid)
        if attribute not in stored:
            return None
        return wrap_value(self, stored[attribute])


class ObjectHandle:
    """A proxy for one object within one scope.

    Equality and hashing are by oid only: the same object seen through
    two views is still the same object.
    """

    __slots__ = ("_scope", "_oid")

    def __init__(self, scope: Scope, oid: Oid):
        object.__setattr__(self, "_scope", scope)
        object.__setattr__(self, "_oid", oid)

    @property
    def oid(self) -> Oid:
        return self._oid

    @property
    def scope(self) -> Scope:
        return self._scope

    @property
    def real_class(self) -> str:
        return self._scope.class_of(self._oid)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return self._scope.access(self._oid, name)

    def __setattr__(self, name: str, value):
        raise ObjectError(
            "handles are read-only; use Database.update() to mutate"
            " objects"
        )

    def __getitem__(self, name: str):
        return self._scope.access(self._oid, name)

    def invoke(self, attribute: str, *args):
        """Access an attribute that takes arguments beyond the receiver."""
        return self._scope.access(self._oid, attribute, *args)

    def in_class(self, class_name: str) -> bool:
        """Membership test in this scope (real, virtual, or imaginary)."""
        return self._scope.is_member(self._oid, class_name)

    def value(self) -> Dict[str, object]:
        """A copy of the stored tuple value."""
        return dict(self._scope.raw_value(self._oid))

    def __eq__(self, other) -> bool:
        if isinstance(other, ObjectHandle):
            return self._oid == other._oid
        if isinstance(other, Oid):
            return self._oid == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._oid)

    def __lt__(self, other) -> bool:
        if isinstance(other, ObjectHandle):
            return self._oid < other._oid
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        try:
            cls = self.real_class
        except Exception:
            cls = "?"
        return f"Handle({cls}:{self._oid.space}:{self._oid.number})"


class TupleValue:
    """A read-only tuple value supporting dot access.

    Returned when an attribute's value is itself a tuple, so chains like
    ``person.Address.City`` work whether ``Address`` is an object or a
    plain tuple value.
    """

    __slots__ = ("_scope", "_fields")

    def __init__(self, scope: Optional[Scope], fields: Dict[str, object]):
        object.__setattr__(self, "_scope", scope)
        object.__setattr__(self, "_fields", dict(fields))

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in self._fields:
            raise AttributeError(name)
        return wrap_value(self._scope, self._fields[name])

    def __setattr__(self, name: str, value):
        raise ObjectError("tuple values are read-only")

    def __getitem__(self, name: str):
        return wrap_value(self._scope, self._fields[name])

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def keys(self):
        return self._fields.keys()

    def as_dict(self) -> Dict[str, object]:
        return dict(self._fields)

    def __eq__(self, other) -> bool:
        if isinstance(other, TupleValue):
            return self._fields == other._fields
        if isinstance(other, dict):
            return self._fields == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, repr(v)) for k, v in self._fields.items())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{k}: {v!r}" for k, v in sorted(self._fields.items())
        )
        return f"[{inner}]"


def wrap_value(scope: Optional[Scope], value):
    """Wrap a stored value for application use.

    Oids become handles, tuple values become :class:`TupleValue`, and
    collections are wrapped element-wise. Scalars pass through.
    """
    if isinstance(value, Oid) and scope is not None:
        return ObjectHandle(scope, value)
    if isinstance(value, dict):
        return TupleValue(scope, value)
    if isinstance(value, (set, frozenset)):
        return frozenset(wrap_value(scope, item) for item in value)
    if isinstance(value, (list, tuple)):
        return [wrap_value(scope, item) for item in value]
    return value


def unwrap(value):
    """Inverse of :func:`wrap_value`: strip proxies back to model values."""
    if isinstance(value, ObjectHandle):
        return value.oid
    if isinstance(value, TupleValue):
        return {k: unwrap(v) for k, v in value.as_dict().items()}
    if isinstance(value, dict):
        return {k: unwrap(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return {unwrap(item) for item in value}
    if isinstance(value, (list, tuple)):
        return [unwrap(item) for item in value]
    return value
