"""Tests for dependency-tracked, delta-driven view maintenance.

The invalidation contract: a cached population (or resolution, or
family instance) stores the set of reads its computation performed and
is served as long as no read-relevant mutation arrived. Mutations to
classes and attributes a cache never read must leave it untouched;
relevant mutations must be repaired — by delta patch where possible —
to exactly the from-scratch result.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import View
from repro.engine import Database
from repro.engine.tracking import (
    ACTIVE_TRACKERS,
    DependencySet,
    DependencyTracker,
    record_attribute_read,
    record_extent_read,
    replay_dependencies,
)
from repro.errors import HiddenAttributeError
from repro.relational import RelationalDatabase, define_view

ADULT = "select P from Person where P.Age >= 21"


@pytest.fixture
def mixed_db():
    """Persons plus an unrelated Product class."""
    db = Database("D")
    db.define_class(
        "Person", attributes={"Name": "string", "Age": "integer",
                              "Income": "integer"}
    )
    db.define_class(
        "Product", attributes={"Label": "string", "Price": "integer"}
    )
    for index in range(10):
        db.create("Person", Name=f"P{index}", Age=10 * index, Income=1000)
    for index in range(5):
        db.create("Product", Label=f"I{index}", Price=10)
    return db


@pytest.fixture
def adult_view(mixed_db):
    view = View("V")
    view.import_database(mixed_db)
    view.define_virtual_class("Adult", includes=[ADULT])
    return view


def adults_from_scratch(db):
    return {oid for oid in db.extent("Person") if db.get(oid).Age >= 21}


class TestTrackerAPI:
    def test_records_reads_while_active(self):
        with DependencyTracker() as tracker:
            record_extent_read("Person")
            record_attribute_read("Person", "Age")
        assert tracker.deps.extents == {"Person"}
        assert tracker.deps.attributes == {("Person", "Age")}
        assert not ACTIVE_TRACKERS

    def test_nested_trackers_both_record(self):
        with DependencyTracker() as outer:
            with DependencyTracker() as inner:
                record_extent_read("Person")
            record_extent_read("Product")
        assert inner.deps.extents == {"Person"}
        assert outer.deps.extents == {"Person", "Product"}

    def test_replay_feeds_active_trackers(self):
        stored = DependencySet()
        stored.extents.add("Person")
        stored.attributes.add(("Person", "Age"))
        with DependencyTracker() as tracker:
            replay_dependencies(stored.frozen())
        assert tracker.deps.extents == {"Person"}
        assert tracker.deps.attributes == {("Person", "Age")}

    def test_recording_without_tracker_is_noop(self):
        record_extent_read("Person")
        record_attribute_read("Person", "Age")
        assert not ACTIVE_TRACKERS

    def test_frozen_set_classes(self):
        deps = DependencySet()
        deps.extents.add("A")
        deps.attributes.add(("B", "X"))
        assert deps.frozen().classes() == {"A", "B"}


class TestThreadLocalStack:
    def test_tracker_stacks_are_per_thread(self, mixed_db):
        """Concurrent evaluations must not leak reads across threads.

        Two threads each run a tracked computation against a different
        class; a shared (process-wide) stack would merge both read sets
        into both trackers. Barriers force the two tracked sections to
        overlap in time.
        """
        import threading

        ready = threading.Barrier(2, timeout=10)
        recorded = threading.Barrier(2, timeout=10)
        results = {}
        failures = []

        def tracked_read(label, class_name, attribute):
            try:
                with DependencyTracker() as tracker:
                    ready.wait()  # both trackers active before any read
                    record_extent_read(class_name)
                    record_attribute_read(class_name, attribute)
                    for oid in mixed_db.extent(class_name):
                        getattr(mixed_db.get(oid), attribute)
                    recorded.wait()  # both done reading before exit
                results[label] = tracker.deps
            except Exception as error:  # pragma: no cover
                failures.append(error)

        threads = [
            threading.Thread(
                target=tracked_read, args=("a", "Person", "Age")
            ),
            threading.Thread(
                target=tracked_read, args=("b", "Product", "Price")
            ),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not failures
        assert results["a"].extents == {"Person"}
        assert results["a"].attributes == {("Person", "Age")}
        assert results["b"].extents == {"Product"}
        assert results["b"].attributes == {("Product", "Price")}

    def test_other_threads_tracker_invisible_here(self):
        import threading

        started = threading.Event()
        release = threading.Event()

        def hold_tracker():
            with DependencyTracker():
                started.set()
                release.wait(timeout=10)

        t = threading.Thread(target=hold_tracker)
        t.start()
        try:
            assert started.wait(timeout=10)
            # The other thread's active tracker must not make *this*
            # thread record.
            assert not ACTIVE_TRACKERS
            record_extent_read("Person")
        finally:
            release.set()
            t.join(timeout=10)


class TestCacheSurvival:
    def test_cache_survives_unrelated_class_update(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        before = vclass.population()
        adult_view.reset_stats()
        for oid in mixed_db.extent("Product"):
            mixed_db.update(oid, "Price", 99)
        after = vclass.population()
        assert after is before  # the very same cached set
        assert adult_view.stats.full_recomputes == 0
        assert adult_view.stats.hits == 1

    def test_cache_survives_unrelated_class_create(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        vclass.population()
        adult_view.reset_stats()
        mixed_db.create("Product", Label="new", Price=5)
        vclass.population()
        assert adult_view.stats.full_recomputes == 0
        assert adult_view.stats.hits == 1

    def test_cache_survives_unread_attribute_update(self, mixed_db, adult_view):
        """Attribute-level precision: the Adult query reads only Age,
        so Income churn on the *same* class is invisible."""
        vclass = adult_view.virtual_class("Adult")
        vclass.population()
        adult_view.reset_stats()
        for oid in mixed_db.extent("Person"):
            mixed_db.update(oid, "Income", 77)
        vclass.population()
        assert adult_view.stats.full_recomputes == 0
        assert adult_view.stats.delta_patches == 0
        assert adult_view.stats.hits == 1

    def test_relevant_update_changes_population(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        member = next(iter(vclass.population()))
        mixed_db.update(member, "Age", 3)
        assert member not in vclass.population()
        assert set(vclass.population().members) == adults_from_scratch(
            mixed_db
        )

    def test_create_and_delete_maintained(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        vclass.population()
        newcomer = mixed_db.create("Person", Name="new", Age=50, Income=0)
        assert newcomer.oid in vclass.population()
        mixed_db.delete(newcomer.oid)
        assert newcomer.oid not in vclass.population()
        assert set(vclass.population().members) == adults_from_scratch(
            mixed_db
        )

    def test_contains_served_from_current_cache(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        member = next(iter(vclass.population()))
        adult_view.reset_stats()
        mixed_db.update(next(iter(mixed_db.extent("Product"))), "Price", 1)
        assert vclass.contains(member)
        assert adult_view.stats.hits == 1
        assert adult_view.stats.misses == 0

    def test_stats_invariant(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        people = list(mixed_db.extent("Person"))
        for age in (5, 30, 70):
            mixed_db.update(people[0], "Age", age)
            vclass.population()
        stats = adult_view.stats
        assert stats.misses == stats.delta_patches + stats.full_recomputes


class TestDeltaPatching:
    def test_source_update_is_delta_patched(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        vclass.population()
        adult_view.reset_stats()
        person = next(iter(mixed_db.extent("Person")))
        mixed_db.update(person, "Age", 90)
        result = vclass.population()
        assert adult_view.stats.delta_patches == 1
        assert adult_view.stats.full_recomputes == 0
        assert person in result

    ages = st.lists(st.integers(0, 99), min_size=1, max_size=25)
    mutations = st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, 99)), max_size=12
    )

    # Each property runs twice: populated by the scan, and — with an
    # ordered index on the attribute the definition reads — by a range
    # probe pushed down through the view.

    @pytest.mark.parametrize("indexed", [False, True])
    @settings(deadline=None, max_examples=40)
    @given(ages=ages, mutations=mutations)
    def test_delta_patch_equals_full_recompute(
        self, indexed, ages, mutations
    ):
        db = Database("D")
        db.define_class("Person", attributes={"Age": "integer"})
        handles = [db.create("Person", Age=age) for age in ages]
        if indexed:
            db.create_ordered_index("Person", "Age")
        view = View("V")
        view.import_database(db)
        view.define_virtual_class("Adult", includes=[ADULT])
        vclass = view.virtual_class("Adult")
        vclass.population()  # warm: exactly one full recompute
        for index, age in mutations:
            db.update(handles[index % len(handles)], "Age", age)
        maintained = set(vclass.population().members)
        fresh = set(vclass.population(use_cache=False).members)
        assert maintained == fresh
        assert maintained == adults_from_scratch(db)
        # Maintenance never fell back to a recompute (beyond the warm
        # call and the explicit use_cache=False one).
        assert view.stats.full_recomputes == 2
        assert view.stats.range_probes == (2 if indexed else 0)

    @pytest.mark.parametrize("indexed", [False, True])
    @settings(deadline=None, max_examples=25)
    @given(
        ages=ages,
        born=st.lists(st.integers(0, 99), max_size=8),
        doomed=st.sets(st.integers(0, 24), max_size=8),
    )
    def test_churned_population_equals_full_recompute(
        self, indexed, ages, born, doomed
    ):
        db = Database("D")
        db.define_class("Person", attributes={"Age": "integer"})
        handles = [db.create("Person", Age=age) for age in ages]
        if indexed:
            db.create_ordered_index("Person", "Age")
        view = View("V")
        view.import_database(db)
        view.define_virtual_class("Adult", includes=[ADULT])
        vclass = view.virtual_class("Adult")
        vclass.population()
        for age in born:
            db.create("Person", Age=age)
        for index in doomed:
            if index < len(handles):
                db.delete(handles[index].oid)
                handles[index] = None
        maintained = set(vclass.population().members)
        assert maintained == set(
            vclass.population(use_cache=False).members
        )
        assert maintained == adults_from_scratch(db)

    def test_probe_population_reads_what_the_scan_reads(self):
        """A population computed by an index probe must record a read
        set covering the scan's, or maintenance would miss mutations
        the probe never looked at: everything the scan reads of the
        source class and below. (What the scan reads *above* it — the
        class defining the attribute, through the resolver — moves only
        with mutations of objects that are no members of the source
        class, or together with the class's own versions.)"""
        def read_set(indexed):
            db = Database("D")
            db.define_class("Person", attributes={"Income": "integer"})
            db.define_class("Employee", parents=["Person"])
            db.define_class("Manager", parents=["Employee"])
            for index, cls in enumerate(
                ["Person", "Employee", "Manager"] * 3
            ):
                db.create(cls, Income=1000 * index)
            if indexed:
                db.create_ordered_index("Person", "Income")
            low = View("Low")
            low.import_database(db)
            view = View("V")
            view.import_database(low)
            view.define_virtual_class(
                "Rich",
                includes=["select E from Employee where E.Income >= 4000"],
            )
            vclass = view.virtual_class("Rich")
            population = set(vclass.population().members)
            assert view.stats.range_probes == (1 if indexed else 0)
            return population, vclass._cache_deps

        scanned, scan_deps = read_set(indexed=False)
        probed, probe_deps = read_set(indexed=True)
        assert scanned == probed and len(probed) == 4
        above = {"Person"}
        assert set(probe_deps.extents) >= set(scan_deps.extents) - above
        assert set(probe_deps.attributes) >= {
            (cls, attr) for cls, attr in scan_deps.attributes
            if cls not in above
        }
        assert {"Employee", "Manager"} <= set(scan_deps.extents)

    def test_indexed_attribute_update_invalidates_probed_population(
        self, mixed_db
    ):
        mixed_db.create_ordered_index("Person", "Income")
        view = View("V")
        view.import_database(mixed_db)
        view.define_virtual_class(
            "Rich", includes=["select P from Person where P.Income >= 5000"]
        )
        vclass = view.virtual_class("Rich")
        assert len(vclass.population()) == 0  # no candidate at all
        assert view.stats.range_probes == 1
        # The probe visited no object, yet a create must still reach it.
        newcomer = mixed_db.create("Person", Name="n", Age=1, Income=7000)
        assert set(vclass.population().members) == {newcomer.oid}
        person = next(iter(mixed_db.extent("Person")))
        mixed_db.update(person, "Income", 9000)
        assert set(vclass.population().members) == {person, newcomer.oid}
        mixed_db.delete(person)
        assert set(vclass.population().members) == {newcomer.oid}
        # ...while churn the probe's definition never reads is a hit.
        view.reset_stats()
        mixed_db.update(newcomer.oid, "Age", 2)
        vclass.population()
        assert (view.stats.hits, view.stats.misses) == (1, 0)

    def test_buffer_overflow_falls_back_to_recompute(self, mixed_db,
                                                     adult_view):
        from repro.core.virtual_classes import DELTA_BUFFER_LIMIT

        vclass = adult_view.virtual_class("Adult")
        vclass.population()
        adult_view.reset_stats()
        person = next(iter(mixed_db.extent("Person")))
        for step in range(DELTA_BUFFER_LIMIT + 1):
            mixed_db.update(person, "Age", step % 99)
        result = vclass.population()
        assert adult_view.stats.full_recomputes == 1
        assert adult_view.stats.delta_patches == 0
        assert set(result.members) == adults_from_scratch(mixed_db)


class TestHideInvalidation:
    def test_hide_of_unread_attribute_keeps_cache(self, mixed_db,
                                                  adult_view):
        vclass = adult_view.virtual_class("Adult")
        vclass.population()
        adult_view.reset_stats()
        adult_view.hide_attribute("Person", "Income")
        vclass.population()
        assert adult_view.stats.full_recomputes == 0
        assert adult_view.stats.hits == 1

    def test_hide_cannot_change_population(self, mixed_db, adult_view):
        vclass = adult_view.virtual_class("Adult")
        before = set(vclass.population().members)
        adult_view.hide_attribute("Person", "Age")
        assert set(vclass.population().members) == before

    def test_new_hide_reaches_memoized_resolution(self, mixed_db,
                                                  adult_view):
        person = adult_view.handles("Person")[0]
        assert person.Age is not None  # warm the resolver memo
        adult_view.hide_attribute("Person", "Age")
        with pytest.raises(HiddenAttributeError):
            person.Age


class TestResolverMemo:
    def test_memo_survives_unrelated_mutation(self, mixed_db, adult_view):
        person = adult_view.handles("Person")[0]
        assert person.Age == person.Age  # warm
        tests_before = adult_view.resolver.stats.membership_tests
        for oid in mixed_db.extent("Product"):
            mixed_db.update(oid, "Price", 3)
        assert person.Age is not None
        assert (
            adult_view.resolver.stats.membership_tests == tests_before
        )


class TestFamilyCache:
    @pytest.fixture
    def family_view(self, mixed_db):
        view = View("V")
        view.import_database(mixed_db)
        view.define_virtual_class(
            "Older",
            includes=["select P from Person where P.Age >= A"],
            parameters=["A"],
        )
        return view

    def test_instance_survives_unrelated_mutation(self, mixed_db,
                                                  family_view):
        family = family_view.family("Older")
        first = family.instantiate((21,))
        for oid in mixed_db.extent("Product"):
            mixed_db.update(oid, "Price", 2)
        assert family.instantiate((21,)) is first

    def test_instance_recomputes_on_relevant_mutation(self, mixed_db,
                                                      family_view):
        family = family_view.family("Older")
        family.instantiate((21,))
        person = next(iter(mixed_db.extent("Person")))
        mixed_db.update(person, "Age", 99)
        assert person in family.instantiate((21,))
        mixed_db.update(person, "Age", 2)
        assert person not in family.instantiate((21,))


class TestRelationalViewCache:
    @pytest.fixture
    def rel(self):
        rdb = RelationalDatabase("R")
        base = rdb.create_relation("Person", ["Name", "Age"])
        for index in range(20):
            base.insert(f"P{index}", index * 5)
        rel_view = define_view(
            rdb, "Adults", "Person", ["Name"],
            predicate=lambda row: row["Age"] >= 21,
        )
        return base, rel_view

    def test_untouched_base_serves_cache(self, rel):
        base, rel_view = rel
        first = rel_view.rows()
        assert rel_view.rows() is first
        assert rel_view.cache_hits == 1
        assert rel_view.recomputes == 1

    def test_base_mutation_recomputes(self, rel):
        base, rel_view = rel
        assert len(rel_view.rows()) == 15
        base.insert("New", 50)
        assert len(rel_view.rows()) == 16
        assert rel_view.recomputes == 2

    def test_definition_edit_changes_key(self, rel):
        base, rel_view = rel
        rel_view.rows()
        base.add_column("City")
        rel_view.refresh_columns(["Age"])
        assert "City" in rel_view.rows().columns
