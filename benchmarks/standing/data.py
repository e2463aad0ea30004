"""Seeded data, the view stack, the statement texts and the oracle.

Everything a workload sends to the server is generated here from the
seed, and everything it gets back is checked against :class:`Shadow`,
a plain-Python model of the same data that never touches the engine.
The engine sees the generated rows only through its public mutation
calls (:func:`load`) and the wire.
"""

from __future__ import annotations

import ast
import random
from typing import Dict, Iterable, List, Optional, Tuple

CITIES = [
    "Paris", "London", "Rome", "Berlin", "Madrid", "Vienna", "Lisbon",
    "Dublin", "Oslo", "Athens",
]
STREETS = ["Main St", "High St", "Rue X", "Downing St", "Elm St"]
DEPTS = [f"D{i:02d}" for i in range(40)]

ADULT_AGE = 21
SENIOR_AGE = 65
WELL_PAID = 70_000
RANGE_WIDTH = 100

# Per 50 generated rows: 40 Person, 5 Customer, 4 Employee, 1 Manager
# (the 48,000 / 6,000 / 4,800 / 1,200 split of db60k).
_EMPLOYEE_CLASSES = ("Employee", "Manager")


def class_of_row(index: int) -> str:
    slot = index % 50
    if slot < 40:
        return "Person"
    if slot < 45:
        return "Customer"
    if slot < 49:
        return "Employee"
    return "Manager"


def define_schema(db) -> None:
    db.define_class(
        "Person",
        attributes={
            "Name": "string",
            "Age": "integer",
            "Income": "integer",
            "City": "string",
            "Street": "string",
            "Zip_Code": "string",
        },
    )
    db.define_class(
        "Customer", parents=["Person"], attributes={"Credit": "integer"}
    )
    db.define_class(
        "Employee",
        parents=["Person"],
        attributes={
            "Number": "integer",
            "Salary": "integer",
            "Dept": "string",
        },
    )
    db.define_class(
        "Manager", parents=["Employee"], attributes={"Budget": "integer"}
    )


def person_value(rng: random.Random, name: str) -> dict:
    return {
        "Name": name,
        "Age": rng.randrange(0, 95),
        "Income": rng.randrange(0, 100_000),
        "City": rng.choice(CITIES),
        "Street": f"{rng.randrange(1, 200)} {rng.choice(STREETS)}",
        "Zip_Code": str(rng.randrange(10_000, 99_999)),
    }


def generate(count: int, seed: int) -> List[Tuple[str, dict]]:
    """``count`` rows ``(class, value)``; employee ``Number`` is the
    employee's ordinal, so keys are dense in ``range(employees)``."""
    rng = random.Random(seed)
    rows: List[Tuple[str, dict]] = []
    number = 0
    for index in range(count):
        cls = class_of_row(index)
        value = person_value(rng, f"N{index}")
        if cls == "Customer":
            value["Credit"] = rng.randrange(0, 1_000)
        elif cls in _EMPLOYEE_CLASSES:
            value["Number"] = number
            number += 1
            value["Dept"] = rng.choice(DEPTS)
            if cls == "Manager":
                value["Salary"] = rng.randrange(60_000, 200_000)
                value["Budget"] = rng.randrange(100_000, 5_000_000)
            else:
                value["Salary"] = rng.randrange(20_000, 90_000)
        rows.append((cls, value))
    return rows


def load(db, rows: Iterable[Tuple[str, dict]]) -> None:
    """Create the rows in ``db`` as one batch. Row ``i`` gets oid
    number ``i + 1`` (checked), which is what lets the shadow model
    address objects without asking the engine."""
    db.begin_batch()
    try:
        for index, (cls, value) in enumerate(rows):
            handle = db.create(cls, dict(value))
            if handle.oid.number != index + 1:
                raise RuntimeError(
                    f"row {index} got oid {handle.oid}, expected"
                    f" number {index + 1}"
                )
    finally:
        db.end_batch()


def create_indexes(db) -> None:
    db.create_index("Employee", "Number")
    db.create_ordered_index("Employee", "Salary")
    db.create_ordered_index("Person", "Income")


# ----------------------------------------------------------------------
# The view stack (ADE's composed-view shape: import -> hide ->
# specialize -> generalize -> imaginary, three views deep).

BASE_V = [
    "create view Base_V;",
    "import all classes from database db;",
    "attribute Address in class Person has value"
    " [City: self.City, Street: self.Street, Zip_Code: self.Zip_Code];",
    "hide attribute Income in class Person;",
]
MID_V = [
    "create view Mid_V;",
    "import all classes from database Base_V;",
    "class Adult includes"
    f" (select P from Person where P.Age >= {ADULT_AGE});",
    "class Senior includes"
    f" (select A from Adult where A.Age >= {SENIOR_AGE});",
    "class Well_Paid includes"
    f" (select E from Employee where E.Salary >= {WELL_PAID});",
]
TOP_V = [
    "create view Top_V;",
    "import all classes from database Mid_V;",
    "class Client_Or_Staff includes Customer, Employee;",
    "class Dept_Obj includes imaginary"
    " (select [Dept: E.Dept] from E in Employee);",
    "class Resident(X) includes (select P from Person where P.City = X);",
    "hide attribute Budget in class Manager;",
]
STACK = BASE_V + MID_V + TOP_V

# The session workload's 18 statements: the same three levels (13
# statements, Senior and the Budget hide left out), a behavioural
# ``like`` class (2), a second generalization whose placement gives
# Manager three parents (1) and two more specializations (2).
SESSION_DDL = (
    BASE_V
    + [MID_V[0], MID_V[1], MID_V[2], MID_V[4]]
    + TOP_V[:5]
    + [
        "class Paid_Spec has attribute Salary of type integer;",
        "class Paid includes like Paid_Spec;",
        "class Payroll includes Well_Paid, Manager;",
        MID_V[3],
        "class Minor includes (select P from Person where P.Age < 18);",
    ]
)
assert len(SESSION_DDL) == 18


# ----------------------------------------------------------------------
# Statement texts. Every kind is a function of one parameter tuple so
# that a pool of parameters is a pool of distinct plan-cache keys.

def q_point(number: int) -> str:
    return f"select E.Name from E in Employee where E.Number = {number}"


def q_range(low: int) -> str:
    return (
        "select E.Number from E in Employee"
        f" where E.Salary >= {low} and E.Salary < {low + RANGE_WIDTH}"
    )


def q_income(low: int, width: int) -> str:
    return (
        "select P.Name from P in Person"
        f" where P.Income >= {low} and P.Income < {low + width}"
    )


def q_scan(street: str, age: int) -> str:
    return (
        "select P.Name from P in Person"
        f" where P.Street = '{street}' and P.Age = {age}"
    )


def q_agg(city: str, age: int) -> str:
    # ``select the`` needs an outer binding; Dept_Obj is the smallest
    # class of the stack and the closed subquery is evaluated once.
    return (
        "select the count((select A from A in Adult"
        f" where A.City = '{city}' and A.Age >= {age}))"
        " from D in Dept_Obj"
    )


def q_vattr(dept: str) -> str:
    return (
        "select W.Address.City from W in Well_Paid"
        f" where W.Dept = '{dept}'"
    )


def q_imag() -> str:
    return "select D.Dept from D in Dept_Obj"


def q_general(city: str, age: int) -> str:
    return (
        "select C.Name from C in Client_Or_Staff"
        f" where C.Age = {age} and C.City = '{city}'"
    )


def q_resident(city: str, age: int) -> str:
    return f"select R.Name from R in Resident('{city}') where R.Age = {age}"


def q_like(low: int) -> str:
    return (
        "select X.Name from X in Paid"
        f" where X.Salary >= {low} and X.Salary < {low + RANGE_WIDTH}"
    )


def q_firstq(age: int) -> str:
    return f"select A.Address.City from A in Adult where A.Age = {age}"


# ----------------------------------------------------------------------
# The shadow model and the oracle.


class Shadow:
    """Plain-Python copy of the database: ``number -> [class, value]``
    where ``number`` is the oid's serial in space ``db``."""

    def __init__(self, rows: Iterable[Tuple[str, dict]]):
        self.objects: Dict[int, list] = {
            index + 1: [cls, dict(value)]
            for index, (cls, value) in enumerate(rows)
        }

    def create(self, number: int, cls: str, value: dict) -> None:
        self.objects[number] = [cls, dict(value)]

    def update(self, number: int, attribute: str, value) -> None:
        self.objects[number][1][attribute] = value

    def delete(self, number: int) -> None:
        del self.objects[number]

    def user_bytes(self) -> int:
        """Size of the user's data: attribute names and values as
        text, the denominator of the space metrics."""
        return sum(
            len(name) + len(str(item))
            for _cls, value in self.objects.values()
            for name, item in value.items()
        )

    # -- populations ---------------------------------------------------

    def _each(self, classes: Optional[tuple] = None):
        for cls, value in self.objects.values():
            if classes is None or cls in classes:
                yield value

    def employees(self):
        return self._each(_EMPLOYEE_CLASSES)

    # -- expected answers, one per statement kind ----------------------

    def point(self, number):
        return {v["Name"] for v in self.employees() if v["Number"] == number}

    def range(self, low):
        return {
            v["Number"]
            for v in self.employees()
            if low <= v["Salary"] < low + RANGE_WIDTH
        }

    def income(self, low, width):
        return {
            v["Name"] for v in self._each() if low <= v["Income"] < low + width
        }

    def scan(self, street, age):
        return {
            v["Name"]
            for v in self._each()
            if v["Street"] == street and v["Age"] == age
        }

    def agg(self, city, age):
        return sum(
            1
            for v in self._each()
            if v["Age"] >= max(ADULT_AGE, age) and v["City"] == city
        )

    def vattr(self, dept):
        return {
            v["City"]
            for v in self.employees()
            if v["Salary"] >= WELL_PAID and v["Dept"] == dept
        }

    def imag(self):
        return {v["Dept"] for v in self.employees()}

    def general(self, city, age):
        return {
            v["Name"]
            for v in self._each(("Customer",) + _EMPLOYEE_CLASSES)
            if v["Age"] == age and v["City"] == city
        }

    def resident(self, city, age):
        return {
            v["Name"]
            for v in self._each()
            if v["City"] == city and v["Age"] == age
        }

    def like(self, low):
        return {
            v["Name"]
            for v in self.employees()
            if low <= v["Salary"] < low + RANGE_WIDTH
        }

    def firstq(self, age):
        return {
            v["City"]
            for v in self._each()
            if v["Age"] == age and age >= ADULT_AGE
        }


def parse_output(output: str):
    """The value a shell output denotes: an ``int`` for ``select the``
    of a count, otherwise the set of printed rows. Raises
    ``ValueError`` for an ``error:`` line or anything unparseable."""
    if output.startswith("error:"):
        raise ValueError(output)
    if output == "(no results)":
        return set()
    lines = output.split("\n")
    if lines[-1].endswith("result(s))"):
        return {ast.literal_eval(line) for line in lines[:-1]}
    if len(lines) == 1:
        return ast.literal_eval(lines[0])
    raise ValueError(f"unrecognised output: {output[:80]!r}")
