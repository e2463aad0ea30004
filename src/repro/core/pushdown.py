"""Index pushdown: a view answers the planner's ``indexes`` protocol.

§3's first principle — "a view should be treated as a database" —
includes its access paths. A view stores nothing, so it owns no index;
:class:`ViewIndexes` answers ``find`` / ``find_ordered`` / ``version``
and the ``route`` behind them (the protocol :mod:`repro.query.planner`
consumes from :class:`~repro.engine.indexes.IndexManager`) by
*routing* the request
down the provider chain, ``Top_V → Mid_V → Base_V → db``, always
through ``provider.indexes`` — so a thread holding an MVCC pin reaches
the frozen index of its own version, exactly as it would on the
database itself.

A provider index on class ``P`` may serve view class ``C`` only when
both rules hold in this view (and, by the recursion, in every view
below it):

- **cover** — ``isa(C, P)`` in the view's schema and ``P`` is a class
  of exactly one provider, no other provider contributing objects below
  ``P``. By placement rule (1) of §4.2 (which ``View.extent`` already
  relies on) every member of ``C`` then lies in that provider's extent
  of ``P``, so its index holds every candidate; the planner's
  per-candidate ``is_member`` keeps the right ones.
- **transparency** — the attribute means "the stored value" for every
  object the view can show: each class in ``classes_defining(attr)`` is
  an imported class still carrying its provider's *stored* definition
  (Litwin's stored-and-inherited attributes; a computed or view-written
  definition anywhere could win resolution for some object) and none of
  those definitions is hidden. Hides are honoured unconditionally — a
  cached plan is shared between the view's users and its own population
  queries, and only the scan raises what a user must see.

Imaginary objects are in no base index, and need no rule of their own:
every attribute an imaginary object stores is a core attribute its
class writes itself, so transparency already refuses it — for the
class, and for any class an imaginary one was edged below.

Every refusal is a pure function of the view's schema and hides; the
verdict is memoized against their versions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

# A routing verdict: where to look — [(provider, provider class)],
# nearest class first, empty when no provider covers the class — or
# the reason the attribute is not the providers' stored one here.
_Verdict = Union[List[Tuple[object, str]], str]


class ViewIndexes:
    """The ``indexes`` of one view: provider indexes, reached by
    delegation, gated by the cover and transparency rules."""

    def __init__(self, view):
        self._view = view
        # (schema/hide versions, {(class, attribute): verdict}); one
        # tuple so a racing reset can never pair a dict with the wrong
        # versions.
        self._memo: Tuple[Optional[tuple], dict] = (None, {})

    @property
    def version(self) -> tuple:
        """The providers' index-registry versions, folded: creating or
        dropping an index anywhere below invalidates this view's
        plans."""
        return tuple(
            getattr(getattr(provider, "indexes", None), "version", -1)
            for provider in self._view.providers
        )

    def find(self, class_name: str, attribute: str):
        return self.route(class_name, attribute)[0]

    def find_ordered(self, class_name: str, attribute: str):
        return self.route(class_name, attribute, ordered=True)[0]

    def route(self, class_name: str, attribute: str, ordered: bool = False):
        """``(index, path, refusal)``, the shape a database's registry
        answers in: the provider index serving the class in this view
        with the scopes below this one down to its owner, or no index
        and — when a rule, here or below, forbids one — the reason."""
        verdict = self._verdict(class_name, attribute)
        if isinstance(verdict, str):
            return None, (), verdict
        refusal = None
        for provider, provider_class in verdict:
            indexes = getattr(provider, "indexes", None)
            if indexes is None:
                continue
            index, below, refused = indexes.route(
                provider_class, attribute, ordered
            )
            if index is not None:
                return index, (provider.scope_name, *below), None
            refusal = refusal or refused
        return None, (), refusal

    # ------------------------------------------------------------------

    def _verdict(self, class_name: str, attribute: str) -> _Verdict:
        view = self._view
        token = (view.schema.version, view.schema_version, view.hide_version)
        memo = self._memo
        if memo[0] != token:
            memo = self._memo = (token, {})
        key = (class_name, attribute)
        verdict = memo[1].get(key)
        if verdict is None:
            verdict = memo[1][key] = self._transparent(
                attribute
            ) or self._covers(class_name)
        return verdict

    def _transparent(self, attribute: str) -> Optional[str]:
        """``None`` when the attribute is the providers' stored one for
        every object of the view; otherwise why it is not."""
        view = self._view
        schema = view.schema
        for defining in view.classes_defining(attribute):
            if view.hides.definition_hidden(schema, defining, attribute):
                return "hidden"
            own = schema.require(defining).own_attribute(attribute)
            carrier = next(
                (
                    provider
                    for provider in view.providers
                    if defining in provider.schema
                    and provider.schema.require(defining).own_attribute(
                        attribute
                    )
                    is own
                ),
                None,
            )
            if carrier is None:
                how = "computed" if own.is_computed() else "redefined"
                return f"{attribute} is {how} in {view.scope_name}"
            if own.is_computed():  # imported as such: name who wrote it
                below = getattr(carrier, "indexes", None)
                if isinstance(below, ViewIndexes):
                    return below._transparent(attribute)
                return f"{attribute} is computed in {carrier.scope_name}"
        return None

    def _covers(self, class_name: str) -> List[Tuple[object, str]]:
        """The ``(provider, class)`` pairs whose extent is guaranteed
        to contain every member of ``class_name`` (cover rule)."""
        view = self._view
        schema = view.schema
        if class_name not in schema or view.hides.class_hidden(class_name):
            return []  # the scan raises what it must
        targets: List[Tuple[object, str]] = []
        for candidate in (class_name, *schema.ancestors(class_name)):
            subtree = (candidate, *schema.descendants(candidate))
            owners = [
                provider
                for provider in view.providers
                if any(name in provider.schema for name in subtree)
            ]
            if len(owners) == 1 and candidate in owners[0].schema:
                targets.append((owners[0], candidate))
        return targets
