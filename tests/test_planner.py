"""Plan cache lifecycle, range indexes, and access-path selection.

The compiled-plan cache (`repro.query.planner.PlanCache`) must serve
repeated queries without recompiling, yet drop stale plans the moment
the world changes under them: a schema edit, an index create/drop, or
a view hiding a class or attribute. These tests pin the invalidation
triggers, the ordered index's maintenance under mutation, and the
planner's choice among competing access paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import View
from repro.engine import Database
from repro.engine.indexes import OrderedAttributeIndex
from repro.engine.objects import unwrap
from repro.engine.values import canonicalize
from repro.errors import (
    HiddenAttributeError,
    QueryError,
    UnknownClassError,
)
from repro.query import evaluate, execute, explain_plan, plan_cache_of
from repro.server import Client, ViewServer
from repro.workloads import build_people_db


@pytest.fixture
def db():
    d = Database("Staff")
    d.define_class(
        "Person",
        attributes={
            "Name": "string",
            "Age": "integer",
            "City": "string",
            "Flag": "boolean",
        },
    )
    d.define_class("Employee", parents=["Person"])
    cities = ["Paris", "Rome", "Oslo"]
    for i in range(30):
        cls = "Employee" if i % 3 == 0 else "Person"
        d.create(
            cls,
            Name=f"P{i}",
            Age=i * 3 % 90,
            City=cities[i % 3],
            Flag=i % 2 == 0,
        )
    return d


# ----------------------------------------------------------------------
# Plan cache: hits and invalidation
# ----------------------------------------------------------------------


QUERY = "select P.Name from Person where P.Age > 40"


def test_repeated_query_hits_the_cache(db):
    cache = plan_cache_of(db)
    first = execute(QUERY, db)
    assert cache.snapshot()["plans_compiled"] == 1
    assert execute(QUERY, db) == first
    assert execute(QUERY, db) == first
    snap = cache.snapshot()
    assert snap["plans_compiled"] == 1
    assert snap["plan_cache_hits"] == 2
    assert snap["cached_plans"] == 1


def test_equivalent_text_shares_one_plan(db):
    # The cache key is the *canonical* text: formatting differences
    # (whitespace, redundant parens) land on the same entry.
    cache = plan_cache_of(db)
    execute("select P.Name   from Person where (P.Age > 40)", db)
    execute("select P.Name from Person where P.Age>40", db)
    snap = cache.snapshot()
    assert snap["plans_compiled"] == 1
    assert snap["plan_cache_hits"] == 1


def test_schema_change_invalidates(db):
    cache = plan_cache_of(db)
    execute(QUERY, db)
    db.define_attribute("Person", "Nickname", declared_type="string")
    execute(QUERY, db)
    snap = cache.snapshot()
    assert snap["plans_compiled"] == 2
    assert snap["invalidations"] == 1


def test_index_create_and_drop_swap_the_plan(db):
    query = "select P from Person where P.City = 'Rome'"
    scan_rows = execute(query, db)
    assert explain_plan(query, db) == "compiled scan over Person"

    db.create_index("Person", "City")
    assert (
        explain_plan(query, db)
        == "index probe Person.City = 'Rome'"
    )
    assert execute(query, db) == scan_rows  # recompiled, same rows
    cache = plan_cache_of(db)
    assert cache.snapshot()["index_probes"] == 1

    db.indexes.drop_index("Person", "City")
    assert explain_plan(query, db) == "compiled scan over Person"
    assert execute(query, db) == scan_rows
    # Two invalidations: one per index-registry version bump.
    assert cache.snapshot()["invalidations"] == 2


def test_view_hide_attribute_invalidates(db):
    view = View("V")
    view.import_database(db)
    query = "select P.Name from Person where P.Age > 40"
    expected = execute(query, db)
    assert execute(query, view) == expected
    cache = plan_cache_of(view)
    compiled_before = cache.snapshot()["plans_compiled"]

    view.hide_attribute("Person", "Age")
    with pytest.raises(HiddenAttributeError):
        execute(query, view)
    assert cache.snapshot()["plans_compiled"] == compiled_before + 1
    assert cache.snapshot()["invalidations"] == 1


def test_view_hide_class_invalidates(db):
    view = View("V")
    view.import_database(db)
    query = "select E.Name from Employee where E.Age >= 0"
    assert len(execute(query, view)) > 0
    view.hide_class("Employee")
    with pytest.raises(UnknownClassError):
        execute(query, view)


def test_stats_surface_plan_counters(db):
    view = View("V")
    view.import_database(db)
    execute(QUERY, view)
    execute(QUERY, view)
    assert view.stats.plans_compiled == 1
    assert view.stats.plan_cache_hits == 1
    described = view.stats.describe()
    assert "plans compiled" in described
    assert "plan cache hits" in described


# ----------------------------------------------------------------------
# Ordered indexes: maintenance and range lookups
# ----------------------------------------------------------------------


def test_ordered_index_tracks_mutations(db):
    index = db.create_ordered_index("Person", "Age")
    assert isinstance(index, OrderedAttributeIndex)

    young = {
        h.oid for h in db.handles("Person") if h.Age is not None and h.Age < 30
    }
    assert set(index.range_lookup(low=0, high=30, high_strict=True)) == young

    # Update moves an object between keys; delete removes it (via the
    # oid→key reverse map — the object's values are already gone).
    mover = db.handles("Person")[0]
    db.update(mover, "Age", 200)
    assert set(index.range_lookup(low=150)) == {mover.oid}
    db.update(mover, "Age", None)
    assert set(index.range_lookup(low=150)) == set()
    victim = next(h for h in db.handles("Person") if h.Age == 3)
    db.delete(victim)
    assert victim.oid not in set(index.range_lookup(low=0))
    born = db.create("Person", Name="New", Age=199)
    assert set(index.range_lookup(low=150)) == {born.oid}


def test_range_lookup_strict_bounds_and_strings(db):
    index = db.create_ordered_index("Person", "City")
    paris = {h.oid for h in db.handles("Person") if h.City == "Paris"}
    rome = {h.oid for h in db.handles("Person") if h.City == "Rome"}
    oslo = {h.oid for h in db.handles("Person") if h.City == "Oslo"}
    # Keys sort Oslo < Paris < Rome.
    assert set(index.range_lookup(low="Paris")) == paris | rome
    assert set(index.range_lookup(low="Paris", low_strict=True)) == rome
    assert set(index.range_lookup(high="Paris")) == oslo | paris
    assert set(index.range_lookup(high="Paris", high_strict=True)) == oslo
    with pytest.raises(ValueError):
        index.range_lookup()


def test_hash_index_upgrades_to_ordered(db):
    hash_index = db.create_index("Person", "Age")
    assert not isinstance(hash_index, OrderedAttributeIndex)
    version = db.indexes.version
    upgraded = db.create_index("Person", "Age", kind="ordered")
    assert isinstance(upgraded, OrderedAttributeIndex)
    assert db.indexes.find("Person", "Age") is upgraded
    assert db.indexes.version > version
    # Asking for a hash index where an ordered one exists keeps it.
    assert db.create_index("Person", "Age") is upgraded


def test_index_manager_secondary_map(db):
    index = db.create_index("Person", "City")
    # A superclass index serves the subclass...
    assert db.indexes.find("Employee", "City") is index
    # ...but not an unrelated attribute or class.
    assert db.indexes.find("Person", "Name") is None
    assert db.indexes.find_ordered("Person", "City") is None
    ordered = db.create_ordered_index("Person", "Age")
    assert db.indexes.find_ordered("Employee", "Age") is ordered
    db.indexes.drop_index("Person", "City")
    assert db.indexes.find("Person", "City") is None
    assert db.indexes.find("Employee", "City") is None
    assert len(db.indexes) == 1


# ----------------------------------------------------------------------
# Access-path selection
# ----------------------------------------------------------------------


def test_planner_prefers_most_selective_equality(db):
    db.create_index("Person", "City")   # 3 distinct values
    db.create_index("Person", "Name")   # 30 distinct values
    query = (
        "select P from Person"
        " where P.City = 'Paris' and P.Name = 'P4'"
    )
    assert (
        explain_plan(query, db)
        == "index probe Person.Name = 'P4' + residual filter"
    )
    assert execute(query, db) == evaluate(query, db)


def test_planner_prefers_equality_over_range(db):
    db.create_index("Person", "City")
    db.create_ordered_index("Person", "Age")
    query = (
        "select P from Person"
        " where P.City = 'Paris' and P.Age > 10"
    )
    assert explain_plan(query, db).startswith("index probe Person.City")


def test_range_atoms_intersect_into_one_interval(db):
    db.create_ordered_index("Person", "Age")
    query = (
        "select P.Name from Person"
        " where P.Age >= 30 and P.Age < 60 and P.Age > 20"
    )
    assert (
        explain_plan(query, db)
        == "range probe Person.Age >= 30 and < 60"
    )
    assert execute(query, db) == evaluate(query, db)
    assert plan_cache_of(db).snapshot()["range_probes"] == 1


def test_range_gate_rejects_boolean_attributes(db):
    # Flag is boolean: `<` on booleans raises in the interpreter, so
    # the planner must not serve it from an index (which would
    # silently skip the error).
    db.create_ordered_index("Person", "Flag")
    query = "select P from Person where P.Flag < true"
    assert explain_plan(query, db) == "compiled scan over Person"
    with pytest.raises(QueryError):
        evaluate(query, db)
    with pytest.raises(QueryError):
        execute(query, db)


def test_range_gate_rejects_user_atom_types(db):
    from repro.engine.types import declare_atom

    declare_atom("dollar")
    db.define_attribute("Person", "Salary", declared_type="dollar")
    for h in db.handles("Person"):
        db.update(h, "Salary", 100)
    db.create_ordered_index("Person", "Salary")
    query = "select P from Person where P.Salary > 50"
    # The declared type is opaque — stay on the scan path.
    assert explain_plan(query, db) == "compiled scan over Person"
    assert execute(query, db) == evaluate(query, db)


def test_probe_plan_falls_back_if_index_vanishes(db):
    # Simulate the one-request race: the plan was built against an
    # index that is gone by execution time.
    from repro.query.planner import build_plan

    db.create_index("Person", "City")
    query = "select P.Name from Person where P.City = 'Oslo'"
    plan = build_plan(query, db)
    db.indexes.drop_index("Person", "City")
    cache = plan_cache_of(db)
    result = plan.execute(db, cache, None, None, None)
    assert result == evaluate(query, db)
    assert cache.snapshot()["index_probes"] == 0  # fell back to scan


# ----------------------------------------------------------------------
# Probe ≡ interpreter (the one index access path)
# ----------------------------------------------------------------------


def _canonical(rows):
    return sorted(repr(canonicalize(unwrap(row))) for row in rows)


PROBED = [
    ("select P from Person where P.City = 'Paris'", "index probe"),
    ("select P from Person where 'Paris' = P.City", "index probe"),
    (
        "select P from Person where P.City = 'Paris' and P.Age >= 30",
        "index probe Person.City = 'Paris' + residual filter",
    ),
    ("select P.Name from Person where P.City = 'Rome'", "index probe"),
    (
        "select [N: P.Name] from P in Person where P.City = 'Oslo'",
        "index probe",
    ),
    # A superclass index serves the subclass...
    ("select E from Employee where E.City = 'Paris'", "index probe"),
    ("select P from Person where P.City = 'Atlantis'", "index probe"),
    # ...and without a usable index the scan answers: no index on the
    # attribute, an inequality, a join.
    ("select P from Person where P.Name = 'P1'", "compiled scan"),
    ("select P from Person where P.Age > 50", "compiled scan"),
    ("select P from Person where P.City != 'Paris'", "compiled scan"),
    (
        "select P from P in Person, Q in Person where P.City = 'Paris'",
        "compiled scan over Person, Person",
    ),
    ("select P from Person", "compiled scan over Person"),
]


@pytest.mark.parametrize("query, path", PROBED)
def test_probe_equals_interpreter(db, query, path):
    db.create_index("Person", "City")
    assert explain_plan(query, db).startswith(path)
    assert _canonical(execute(query, db)) == _canonical(evaluate(query, db))


def test_probe_unique_result_and_subclass_filter(db):
    db.create_index("Person", "City")
    target = db.handles("Person")[0]
    query = (
        f"select the P from Person where P.City = '{target.City}'"
        f" and P.Name = '{target.Name}'"
    )
    assert execute(query, db) == evaluate(query, db) == target
    staff = execute("select E from Employee where E.City = 'Paris'", db)
    assert staff and all(h.real_class == "Employee" for h in staff)


def test_probe_sees_index_maintenance(db):
    db.create_index("Person", "City")
    query = "select P from Person where P.City = 'Paris'"
    mover = next(h for h in db.handles("Person") if h.City != "Paris")
    db.update(mover, "City", "Paris")
    found = {h.oid for h in execute(query, db)}
    assert mover.oid in found
    assert found == {h.oid for h in evaluate(query, db)}


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Paris", "Rome", "Oslo"]), st.integers(0, 90)
        ),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from(["Paris", "Rome", "Oslo", "Atlantis"]),
    st.integers(0, 90),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_probe_equivalence_property(rows, city, cutoff, through_view):
    base = Database("H")
    base.define_class(
        "Person", attributes={"City": "string", "Age": "integer"}
    )
    for c, a in rows:
        base.create("Person", City=c, Age=a)
    base.create_index("Person", "City")
    scope = base
    if through_view:
        scope = View("V")
        scope.import_database(base)
    query = (
        f"select P from Person where P.City = '{city}'"
        f" and P.Age >= {cutoff}"
    )
    assert explain_plan(query, scope).startswith("index probe")
    assert {h.oid for h in execute(query, scope)} == {
        h.oid for h in evaluate(query, scope)
    }


# ----------------------------------------------------------------------
# Server surfaces the shared counters
# ----------------------------------------------------------------------


def test_server_reports_plan_cache_hits():
    srv = ViewServer([build_people_db(20, seed=1)])
    srv.start()
    try:
        host, port = srv.address
        with Client(host, port) as client:
            for _ in range(3):
                client.execute("select P.Name from Person where P.Age > 30")
            stats = client.stats()
            cache = stats["plan_cache"]
            assert cache["plans_compiled"] >= 1
            assert cache["plan_cache_hits"] >= 2
            text = client.execute(".stats")
            assert "plan cache (all scopes):" in text
    finally:
        srv.stop()


# ----------------------------------------------------------------------
# Scatter plans: worker-side caches invalidate like coordinator ones
# ----------------------------------------------------------------------


def _per_shard(executor, key):
    return [row[key] for row in executor.stats.per_shard]


def test_sharded_plan_caches_invalidate_on_ddl(db):
    """Schema and index DDL must invalidate the compiled scatter plan
    on *every* shard, not just the coordinator: each worker validates
    its replica-side plan cache against the replica's schema/index
    versions, which the shipped DDL ops bump."""
    from repro.exec import attach_executor

    executor = attach_executor(db, 2, min_scatter_extent=1)
    try:
        query = "select P from Person where P.Age > 40"
        db.query(query)  # compiled on every shard
        db.query(query)
        assert all(h >= 1 for h in _per_shard(executor, "plan_hits"))

        # Schema DDL: a new attribute bumps every replica's schema
        # version, so each shard recompiles exactly once.
        misses = _per_shard(executor, "plan_misses")
        db.define_attribute("Person", "Nickname",
                            declared_type="string")
        db.query(query)
        after = _per_shard(executor, "plan_misses")
        assert all(b - a == 1 for a, b in zip(misses, after))
        db.query(query)  # and the recompiled plan is cached again
        assert _per_shard(executor, "plan_misses") == after

        # Index DDL ships too: every shard recompiles (to the probe
        # plan) and the scattered answer still matches serial.
        db.create_index("Person", "Age", "ordered")
        result = db.query(query)
        newest = _per_shard(executor, "plan_misses")
        assert all(b - a == 1 for a, b in zip(after, newest))
        assert [h.oid for h in result] == [
            h.oid for h in evaluate(query, db)
        ]
        assert executor.stats.serial_fallbacks == 0
    finally:
        executor.close()


def test_view_hide_makes_scatter_ineligible_but_correct(db):
    """A hide does not invalidate scatter plans — it disqualifies the
    view from scattering entirely (the worker replica knows nothing of
    hides), and the serial answer honors the hide."""
    from repro.exec import attach_executor

    executor = attach_executor(db, 2, min_scatter_extent=1)
    try:
        view = View("V")
        view.import_database(db)
        query = "select P from Person where P.Age > 40"
        view.query(query)
        scattered = executor.stats.scatters
        assert scattered >= 1
        view.hide_attribute("Person", "Flag")
        result = view.query(query)
        assert executor.stats.scatters == scattered  # went serial
        assert len(result) == len(evaluate(query, db))
        with pytest.raises(HiddenAttributeError):
            view.query("select P.Flag from P in Person")
    finally:
        executor.close()
