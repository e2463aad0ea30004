"""Index pushdown through views (``repro.core.pushdown``).

One differential property over random view stacks — the indexed view
answers exactly what the same view answers with every index dropped,
and what the interpreter answers, errors included — plus targeted
regressions: every refusal gate, plan-token invalidation in both
directions, MVCC pins, demand-paged probes, and the standing
benchmark's point/range statements examining only what they return.
"""

import re
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import Session
from repro.core import View
from repro.engine import Database
from repro.engine.objects import unwrap
from repro.engine.values import canonicalize
from repro.errors import HiddenAttributeError
from repro.obs.explain import explain_analyze
from repro.query import evaluate, execute, explain_plan, plan_cache_of
from repro.query.planner import build_plan

# ----------------------------------------------------------------------
# The differential property
# ----------------------------------------------------------------------

CLASSES_A = ["Person", "Employee", "Manager"]
CLASSES_B = ["Person", "Droid"]
TAGS = ["a", "b", "c"]

# (database, class, attribute, kind)
INDEXES = [
    ("A", "Person", "Age", "ordered"),
    ("A", "Person", "Score", "hash"),
    ("A", "Person", "Tag", "ordered"),
    ("A", "Employee", "Salary", "ordered"),
    ("A", "Employee", "Age", "hash"),
    ("B", "Person", "Age", "ordered"),
    ("B", "Droid", "Score", "ordered"),
]


def _define(db, classes):
    db.define_class(
        "Person",
        attributes={
            "Name": "string", "Age": "integer", "Score": "integer",
            "Tag": "string",
        },
    )
    if "Employee" in classes:
        db.define_class(
            "Employee", parents=["Person"], attributes={"Salary": "integer"}
        )
        db.define_class("Manager", parents=["Employee"])
    if "Droid" in classes:
        db.define_class("Droid", parents=["Person"])


rows = st.lists(
    st.tuples(
        st.integers(0, 2),            # class slot
        st.integers(0, 9),            # Age
        st.integers(0, 4),            # Score
        st.sampled_from(TAGS),        # Tag
        st.integers(0, 9),            # Salary
    ),
    min_size=3,
    max_size=24,
)

# One level's definitions, as view-definition statements. ``{below}``
# is the scope the level imports from.
IMPORTS_BOTTOM = [
    ["import all classes from database A;"],
    ["import class Employee from database A;"],
    ["import all classes from database A;",
     "import all classes from database B;"],
    ["import all classes from database B;",
     "import class Employee from database A;"],
]
IMPORTS_ABOVE = [
    ["import all classes from database {below};"],
    ["import class Person from database {below};"],
]
DEFINITIONS = [
    # virtual attributes shadowing a probed attribute: at the class, a
    # superclass, a virtual subclass
    "attribute Age in class Employee has value self.Score;",
    "attribute Age in class Person has value self.Score + 1;",
    "attribute Score in class Senior has value 3;",
    "attribute Salary in class Manager has value 7;",
    "attribute Extra in class Person has value self.Age * 2;",
    # hides
    "hide attribute Age in class Person;",
    "hide attribute Score in class Employee;",
    "hide attribute Salary in class Manager;",
    "hide class Manager;",
    "hide class Person;",
    # virtual classes: specialization, generalization, like,
    # imaginary, parameterized
    "class Senior includes (select P from Person where P.Age >= 5);",
    "class Rich includes (select E from Employee where E.Salary > 4);",
    "class Tagged includes (select P from Person where P.Tag = 'a');",
    "class Staff includes Employee, Droid;",
    "class Crew includes Manager, Senior;",
    "class Paid_Spec has attribute Salary of type integer;",
    "class Paid includes like Paid_Spec;",
    "class Pair includes imaginary"
    " (select [Age: P.Age, Score: P.Score] from P in Person);",
    "class Older(X) includes (select P from Person where P.Age >= X);",
]

# Class hides starve most queries of a source; keep them rare.
_WEIGHTED = [d for d in DEFINITIONS if not d.startswith("hide class")] * 3
levels = st.lists(
    st.lists(
        st.sampled_from(_WEIGHTED + DEFINITIONS), max_size=6, unique=True
    ),
    min_size=1,
    max_size=3,
)

# Sources are drawn by position from the classes the top view actually
# has (plus these), so most queries range over something.
EXTRA_SOURCES = ["Older(4)", "Nowhere"]
# (attribute, literals): mostly well-typed, sometimes not.
ATTRIBUTES = [
    ("Age", [0, 3, 5, 7]), ("Age", [2, 4, "b"]), ("Score", [0, 1, 3]),
    ("Score", [2, True]), ("Salary", [0, 4, 7]), ("Tag", ["a", "b", "c"]),
    ("Tag", ["b", 3]), ("Extra", [6, 10]), ("Missing", [0]),
]

atoms = st.sampled_from(ATTRIBUTES).flatmap(
    lambda entry: st.tuples(
        st.just(entry[0]),
        st.sampled_from(["=", "=", "<", "<=", ">", ">="]),
        st.sampled_from(entry[1]),
        st.booleans(),  # literal on the left
    )
)


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"'{value}'" if isinstance(value, str) else str(value)


def _query(sources, pick, conjuncts, projection, the) -> str:
    source = sources[pick % len(sources)]
    parts = []
    for attribute, op, value, flipped in conjuncts:
        left, right = f"X.{attribute}", _literal(value)
        if flipped:
            left, right = right, left
        parts.append(f"{left} {op} {right}")
    head = "select the" if the else "select"
    return (
        f"{head} {projection} from X in {source}"
        f" where {' and '.join(parts)}"
    )


queries = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.lists(atoms, min_size=1, max_size=3),
        st.sampled_from(["X", "X.Name", "X.Age"]),
        st.sampled_from([False, False, False, True]),
    ),
    min_size=1,
    max_size=6,
)


def _outcome(run):
    """A comparable verdict: the canonical answer, or the error type."""
    try:
        result = run()
    except Exception as error:  # noqa: BLE001 - the type is the verdict
        return ("raised", type(error).__name__)
    if not isinstance(result, list):
        return ("one", repr(canonicalize(unwrap(result))))
    return ("rows", sorted(repr(canonicalize(unwrap(r))) for r in result))


def _build_stack(rows_a, rows_b, bottom, above, level_defs):
    a, b = Database("A"), Database("B")
    _define(a, CLASSES_A)
    _define(b, CLASSES_B)
    for db, data, classes in ((a, rows_a, CLASSES_A), (b, rows_b, CLASSES_B)):
        for i, (slot, age, score, tag, salary) in enumerate(data):
            cls = classes[slot % len(classes)]
            value = {"Name": f"{db.name}{i}", "Age": age, "Score": score,
                     "Tag": tag}
            if cls in ("Employee", "Manager"):
                value["Salary"] = salary
            db.create(cls, value)
    session = Session([a, b])
    below = None
    for depth, definitions in enumerate(level_defs):
        name = f"V{depth}"
        session.execute(f"create view {name};")
        imports = IMPORTS_BOTTOM[bottom] if below is None else (
            IMPORTS_ABOVE[above]
        )
        for line in imports + definitions:
            session.execute(line.format(below=below))  # errors: no-ops
        below = name
    return a, b, session.current


@given(
    rows, rows, st.integers(0, 3), st.integers(0, 1), levels,
    st.sets(st.sampled_from(INDEXES)), queries,
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_indexed_view_equals_unindexed_view_equals_interpreter(
    rows_a, rows_b, bottom, above, level_defs, index_set, shapes
):
    a, b, top = _build_stack(rows_a, rows_b, bottom, above, level_defs)
    sources = sorted(top.schema.class_names()) * 3 + EXTRA_SOURCES
    texts = [_query(sources, *shape) for shape in shapes]
    owners = {"A": a, "B": b}
    for db_name, class_name, attribute, kind in sorted(index_set):
        owners[db_name].create_index(class_name, attribute, kind)
    indexed = [_outcome(lambda: execute(text, top)) for text in texts]
    oracle = [_outcome(lambda: evaluate(text, top)) for text in texts]
    for db_name, class_name, attribute, _kind in index_set:
        owners[db_name].indexes.drop_index(class_name, attribute)
    for text in texts:
        assert "probe" not in explain_plan(text, top)
    unindexed = [_outcome(lambda: execute(text, top)) for text in texts]
    for text, fast, slow, plain in zip(texts, indexed, unindexed, oracle):
        assert fast == slow == plain, text


# ----------------------------------------------------------------------
# The standing stack: counts, EXPLAIN text
# ----------------------------------------------------------------------


def _standing_data():
    """``benchmarks/standing/data.py`` — the standing benchmark's
    schema, view stack and statement texts, loaded from its file (the
    directory is not a package)."""
    import importlib.util
    import pathlib

    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks" / "standing" / "data.py"
    )
    spec = importlib.util.spec_from_file_location("standing_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def standing():
    data = _standing_data()
    db = Database("db")
    data.define_schema(db)
    data.load(db, data.generate(1000, seed=7))
    data.create_indexes(db)
    session = Session([db])
    for line in data.STACK:
        assert not session.execute(line).startswith("error"), line
    return data, db, session.current


def _probe_counts(report: str):
    """``(scanned, returned)`` of every index-probe span of a report."""
    return [
        (int(scanned), int(returned))
        for returned, scanned in re.findall(
            r"index_probe .*returned=(\d+), scanned=(\d+)", report
        )
    ]


def test_standing_point_and_range_examine_only_what_they_return(standing):
    """The CI guard for the standing benchmark's claim, as a count: the
    point and range statements through ``Top_V`` visit exactly the rows
    they return (parent: the whole ``Employee`` extent)."""
    data, db, top = standing
    employees = [
        value for cls, value in data.generate(1000, seed=7)
        if cls in ("Employee", "Manager")
    ]
    low = employees[3]["Salary"]
    for text in (data.q_point(17), data.q_range(low)):
        report = explain_analyze(text, top)
        counts = _probe_counts(report)
        assert counts, report
        assert all(scanned == returned for scanned, returned in counts)
        assert counts[0][1] >= 1
        assert execute(text, top) == execute(text, db)


def test_explain_names_the_index_and_the_chain(standing):
    data, _db, top = standing
    report = explain_analyze(data.q_point(17), top)
    assert (
        "plan:  index probe Employee.Number = 17"
        " [db index via Top_V > Mid_V > Base_V]" in report
    )
    report = explain_analyze(data.q_range(50_000), top)
    assert "[db index via Top_V > Mid_V > Base_V]" in report
    # Well_Paid is defined in Mid_V: its population query is a range
    # probe too, one level down.
    mid = top.providers[0]
    well_paid = mid.virtual_class("Well_Paid").members[0].query
    assert explain_plan(well_paid, mid) == (
        "range probe Employee.Salary >= 70000"
        " [db index via Mid_V > Base_V]"
    )
    # ...and a query *over* Well_Paid is covered through Employee.
    assert "range probe Well_Paid.Salary" in explain_plan(
        "select W from W in Well_Paid where W.Salary >= 90000", top
    )


def test_explain_says_why_pushdown_was_refused(standing):
    data, db, _top = standing
    session = Session([db])
    for line in data.BASE_V + data.MID_V + [
        "attribute Number in class Employee has value self.Salary;",
    ] + data.TOP_V:
        assert not session.execute(line).startswith("error"), line
    top = session.current

    def roles(text):
        return [role for _, role in build_plan(text, top).conjunct_roles]

    assert roles(data.q_point(17)) == [
        "scan filter (Number is computed in Mid_V)"
    ]
    assert "-> scan filter (Number is computed in Mid_V)" in (
        explain_analyze(data.q_point(17), top)
    )
    assert roles("select M.Name from M in Manager where M.Budget = 5") == [
        "scan filter (hidden)"
    ]
    assert roles(data.q_scan("1 Main St", 30)) == [
        "scan filter (no usable index)"
    ] * 2
    # An unindexed conjunct that cannot raise does not stand in the way
    # of the probe; one that may, or a bound of the wrong type, does.
    assert roles(
        "select E.Name from E in Employee"
        " where E.Age = 30 and E.Salary >= 70000"
    ) == [
        "residual filter",
        "range probe bound (Employee.Salary ordered index)",
    ]
    assert roles(
        "select E.Name from E in Employee"
        " where E.Age + 0 = 30 and E.Salary >= 70000"
    ) == [
        "scan filter (no usable index)",
        "scan filter (index unused: an earlier conjunct may raise)",
    ]
    assert roles(
        "select E.Name from E in Employee where E.Salary >= 'much'"
    ) == ["scan filter (index unused: the comparison may raise)"]


# ----------------------------------------------------------------------
# Every refusal gate: a probe here would answer wrongly
# ----------------------------------------------------------------------


@pytest.fixture
def staff():
    db = Database("Staff")
    db.define_class(
        "Person", attributes={"Name": "string", "Age": "integer"}
    )
    db.define_class(
        "Employee",
        parents=["Person"],
        attributes={"Number": "integer", "Salary": "integer"},
    )
    for i in range(12):
        db.create(
            "Employee", Name=f"E{i}", Age=20 + 5 * i, Number=i, Salary=i + 1
        )
    db.create_index("Employee", "Number")
    db.create_ordered_index("Person", "Age")
    return db


def _view_over(*providers, name="V"):
    view = View(name)
    for provider in providers:
        view.import_database(provider)
    return view


NUMBER_3 = "select E.Name from E in Employee where E.Number = 3"


def _assert_scanned_and_right(text, view):
    assert explain_plan(text, view).startswith("compiled scan"), text
    assert _outcome(lambda: execute(text, view)) == _outcome(
        lambda: evaluate(text, view)
    )
    return execute(text, view)


def test_pushdown_serves_a_plain_stack(staff):
    top = _view_over(_view_over(staff, name="Low"), name="High")
    assert explain_plan(NUMBER_3, top) == (
        "index probe Employee.Number = 3 [Staff index via High > Low]"
    )
    assert execute(NUMBER_3, top) == ["E3"]


def test_virtual_attribute_at_the_class_refuses(staff):
    view = _view_over(staff)
    view.define_attribute("Employee", "Number", value="self.Salary")
    # Number now reads Salary (= stored Number + 1): the index would
    # name E3, the view's answer is E2.
    assert _assert_scanned_and_right(NUMBER_3, view) == ["E2"]


def test_virtual_attribute_in_a_lower_view_refuses(staff):
    low = _view_over(staff, name="Low")
    low.define_attribute("Employee", "Number", value="self.Salary")
    high = _view_over(low, name="High")
    assert _assert_scanned_and_right(NUMBER_3, high) == ["E2"]
    assert high.indexes.route("Employee", "Number") == (
        None, (), "Number is computed in Low"
    )


def test_virtual_attribute_on_a_superclass_refuses(staff):
    view = _view_over(staff)
    view.define_attribute("Person", "Salary", value="0")
    staff.create_index("Employee", "Salary")
    # Employee's own stored Salary still wins for employees — but the
    # rule is decided per attribute, not per object.
    text = "select E.Name from E in Employee where E.Salary = 4"
    assert _assert_scanned_and_right(text, view) == ["E3"]


def test_virtual_attribute_in_a_virtual_subclass_refuses(staff):
    view = _view_over(staff)
    view.define_virtual_class(
        "Aged", ["select P from Person where P.Age >= 60"]
    )
    view.define_attribute("Aged", "Number", value="3")
    # The aged (E8..E11) belong to two classes defining Number; the
    # default policy picks Aged's, so they all answer 3 now.
    assert _assert_scanned_and_right(NUMBER_3, view) == [
        "E3", "E8", "E9", "E10", "E11",
    ]


def test_hidden_attribute_raises_what_the_scan_raises(staff):
    view = _view_over(staff)
    view.hide_attribute("Employee", "Number")
    assert explain_plan(NUMBER_3, view).startswith("compiled scan")
    with pytest.raises(HiddenAttributeError):
        execute(NUMBER_3, view)
    # The hide travels with the view.
    high = _view_over(view, name="High")
    with pytest.raises(HiddenAttributeError):
        execute(NUMBER_3, high)


def test_imaginary_class_is_never_served_by_a_base_index(staff):
    view = _view_over(staff)
    view.define_imaginary_class(
        "Badge", "select [Number: E.Number] from E in Employee"
    )
    text = "select B.Number from B in Badge where B.Number = 3"
    assert _assert_scanned_and_right(text, view) == [3]
    # Whatever an imaginary object stores, its class wrote: Badge's
    # Number makes Number opaque — for Employee as well.
    assert view.indexes.route("Badge", "Number") == (
        None, (), "Number is redefined in V"
    )
    assert _assert_scanned_and_right(NUMBER_3, view) == ["E3"]


def test_imaginary_class_below_the_indexed_class_refuses(staff):
    view = _view_over(staff)
    view.define_imaginary_class(
        "Ghost", "select [Age: P.Age] from P in Person where P.Age = 30"
    )
    view.schema.add_parent("Ghost", "Person")  # a manual edge
    text = "select P from P in Person where P.Age = 30"
    found = _assert_scanned_and_right(text, view)
    # The employee aged 30 and the ghost made from it: the base index
    # knows only the first.
    assert len(found) == 2
    high = _view_over(view, name="High")
    assert len(_assert_scanned_and_right(text, high)) == 2


def test_computed_override_in_a_base_subclass_refuses(staff):
    from repro.engine.schema import Computed

    staff.define_class(
        "Manager",
        parents=["Employee"],
        attributes={"Number": Computed(lambda self: 3, "integer")},
    )
    staff.create("Manager", Name="M", Age=50, Salary=9)
    view = _view_over(staff)
    assert view.indexes.route("Employee", "Number") == (
        None, (), "Number is computed in Staff"
    )
    assert _assert_scanned_and_right(NUMBER_3, view) == ["E3", "M"]


def test_hidden_class_raises_what_the_scan_raises(staff):
    from repro.errors import UnknownClassError

    view = _view_over(staff)
    view.hide_class("Employee")
    assert explain_plan(NUMBER_3, view).startswith("compiled scan")
    with pytest.raises(UnknownClassError):
        execute(NUMBER_3, view)


def test_class_owned_by_two_providers_refuses(staff):
    other = Database("Other")
    other.define_class(
        "Person", attributes={"Name": "string", "Age": "integer"}
    )
    other.create("Person", Name="Elsewhere", Age=30)
    view = _view_over(staff, other)
    text = "select P.Name from P in Person where P.Age = 30"
    assert sorted(_assert_scanned_and_right(text, view)) == [
        "E2", "Elsewhere",
    ]
    # Employee lives in one provider only: still served.
    assert explain_plan(NUMBER_3, view).startswith("index probe")


def test_conjunct_that_may_raise_before_the_probe_refuses(staff):
    # The scan evaluates E.Bonus on the first employee and raises; a
    # probe on Number = 99 would find no candidate and answer [].
    text = (
        "select E.Name from E in Employee"
        " where E.Bonus = 1 and E.Number = 99"
    )
    for scope in (staff, _view_over(staff)):
        assert explain_plan(text, scope).startswith("compiled scan")
        assert _outcome(lambda: execute(text, scope)) == (
            "raised", "UnknownAttributeError",
        )
        # ...and so does a conjunct that is no plain comparison.
        opaque = text.replace("E.Bonus = 1", "E.Bonus + 1 = 2")
        assert explain_plan(opaque, scope).startswith("compiled scan")
        assert _outcome(lambda: execute(opaque, scope)) == (
            "raised", "UnknownAttributeError",
        )
    # The other way round the probe's own atom shields the rest.
    text = (
        "select E.Name from E in Employee"
        " where E.Number = 99 and E.Bonus = 1"
    )
    assert explain_plan(text, staff).startswith("index probe")
    assert execute(text, staff) == evaluate(text, staff) == []
    # A view's own refusal — a hidden attribute — ends the prefix too.
    view = _view_over(staff)
    view.hide_attribute("Employee", "Salary")
    text = (
        "select E.Name from E in Employee"
        " where E.Salary = 1 and E.Number = 99"
    )
    assert explain_plan(text, view).startswith("compiled scan")
    assert _outcome(lambda: execute(text, view)) == (
        "raised", "HiddenAttributeError",
    )


def test_conjunct_that_cannot_raise_does_not_hide_the_probe(staff):
    # Probe selection is order-independent among conjuncts that cannot
    # raise: a declared, stored attribute against a literal of its
    # type, indexed or not. A bound of the wrong type can raise.
    for scope in (staff, _view_over(staff)):
        for lead in ("E.Salary >= 0", "E.Salary = 4", "E.Name = 'E3'"):
            text = (
                f"select E.Name from E in Employee"
                f" where {lead} and E.Number = 3"
            )
            assert explain_plan(text, scope).startswith(
                "index probe Employee.Number = 3 + residual filter"
            ), text
            assert execute(text, scope) == evaluate(text, scope)
        text = (
            "select E.Name from E in Employee"
            " where E.Salary >= 'x' and E.Number = 99"
        )
        assert explain_plan(text, scope).startswith("compiled scan")
        assert _outcome(lambda: execute(text, scope)) == (
            "raised", "QueryError",
        )


def test_class_hidden_in_a_lower_view_still_counts_above(staff):
    """Found by the differential: a provider view that hides a class
    still contributes its objects to visible superclasses one view up
    (the scan used to raise UnknownClassError from the provider)."""
    staff.define_class("Manager", parents=["Employee"])
    staff.create("Manager", Name="M", Age=50, Number=100, Salary=9)
    low = _view_over(staff, name="Low")
    low.hide_class("Manager")
    high = _view_over(low, name="High")
    text = "select E.Name from E in Employee where E.Salary = 9"
    assert execute(text, high) == evaluate(text, high) == ["E8", "M"]


def test_generalization_keeps_a_class_hidden_after_it(staff):
    """Found by the differential: hides come last and bind users, so a
    generalization still includes a class the view hides."""
    staff.define_class("Manager", parents=["Employee"])
    staff.create("Manager", Name="M", Age=50, Number=100, Salary=9)
    view = _view_over(staff)
    view.define_virtual_class("Crew", ["Manager"])
    view.hide_class("Manager")
    text = "select C.Name from C in Crew where C.Number = 100"
    assert execute(text, view) == evaluate(text, view) == ["M"]
    # has_class, extent and is_member agree on who the hide binds.
    (oid,) = view.extent("Crew")
    assert not view.has_class("Manager")
    assert not view.is_member(oid, "Manager")
    with view.internal_evaluation():
        assert view.has_class("Manager")
        assert view.is_member(oid, "Manager")
        assert list(view.extent("Manager")) == [oid]


# ----------------------------------------------------------------------
# Plan token, MVCC pins, demand paging
# ----------------------------------------------------------------------


def test_base_index_ddl_invalidates_view_plans_both_ways(staff):
    top = _view_over(_view_over(staff, name="Low"), name="High")
    text = "select E.Name from E in Employee where E.Salary = 4"
    cache = plan_cache_of(top)
    assert execute(text, top) == ["E3"]  # scan plan cached
    assert cache.snapshot()["index_probes"] == 0

    staff.create_index("Employee", "Salary")
    assert execute(text, top) == ["E3"]
    snap = cache.snapshot()
    assert (snap["invalidations"], snap["index_probes"]) == (1, 1)

    staff.indexes.drop_index("Employee", "Salary")
    assert execute(text, top) == ["E3"]
    snap = cache.snapshot()
    assert (snap["invalidations"], snap["index_probes"]) == (2, 1)
    assert snap["plans_compiled"] == 3


def test_pinned_reader_probes_the_index_of_its_own_version(staff):
    top = _view_over(_view_over(staff, name="Low"), name="High")
    mover = execute("select the E from E in Employee where E.Number = 3", top)
    at_3, at_77 = NUMBER_3, NUMBER_3.replace("= 3", "= 77")
    pinned = threading.Event()
    moved = threading.Event()
    seen = {}

    def reader():
        with staff.read_view():
            seen["before"] = (execute(at_3, top), execute(at_77, top))
            pinned.set()
            moved.wait(10)
            # The writer has moved E3 across the probed key; this
            # thread still reads the frozen index of its version.
            seen["pinned"] = (execute(at_3, top), execute(at_77, top))
        seen["after"] = (execute(at_3, top), execute(at_77, top))

    thread = threading.Thread(target=reader)
    thread.start()
    assert pinned.wait(10)
    staff.update(mover.oid, "Number", 77)
    moved.set()
    thread.join(10)
    assert seen["before"] == seen["pinned"] == (["E3"], [])
    assert seen["after"] == ([], ["E3"])
    # All seven statements were probes — none fell back to a scan.
    assert plan_cache_of(top).snapshot()["index_probes"] == 7


def test_probe_through_views_faults_candidates_not_the_extent(tmp_path):
    from repro.storage.checkpoint import PagedDatabase

    def setup(db):
        db.define_class(
            "Employee",
            attributes={"Name": "string", "Number": "integer"},
        )

    path = str(tmp_path / "staff.pages")
    with PagedDatabase(path, "Staff", setup, sync_on_commit=False) as pg:
        pg.db.apply_batch(
            [
                {"op": "create", "class": "Employee",
                 "value": {"Name": f"E{i}", "Number": i}}
                for i in range(3000)
            ]
        )
        pg.checkpoint(full=True)
    with PagedDatabase(path, resident_limit=300) as pg:
        db = pg.db
        db.create_index("Employee", "Number")  # reads every object once
        top = _view_over(_view_over(db, name="Low"), name="High")
        text = "select E.Name from E in Employee where E.Number = 1500"

        def faults(run):
            before = pg.storage_stats()["table"]["faults"]
            assert run() == ["E1500"]
            return pg.storage_stats()["table"]["faults"] - before

        segments = 3000 // 256
        assert faults(lambda: execute(text, top)) <= 1
        db.indexes.drop_index("Employee", "Number")
        assert faults(lambda: execute(text, top)) >= segments
