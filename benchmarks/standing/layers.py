"""The traced pass: per-layer numbers and the bill.

Layers are measured from outside, by timing calls into their public
functions, and by reading the counters the server already exports.
Three places supply the numbers:

- a **served** window, half untraced and half with the benchmark's
  own span recording on (``bench.trace_overhead_ratio``), around
  which the server's counters are read twice and subtracted;
- **served probes**, one connection, one statement at a time: the
  wire floor, the ``Client.call`` end of every bill, and the same
  probes against a child started with ``tracing=False``;
- **in-process probes** on the page file the killed server left
  behind, opened with the workload's own storage options: every
  deeper entry point of the bill and the single-layer timings.

The bill of a statement kind replays it at successively deeper entry
points, which take turns round by round (the machine's speed changes
between rounds by more than the small layers are worth); a layer is
the difference of two medians:

    wire    = Client.call over TCP       - ServerSession.handle
    session = ServerSession.handle       - planner.execute on Top_V
    plan    = planner.fetch_plan on Top_V
    view    = planner.execute on Top_V   - plan - the same query on db
    storage = the same query on paged db - on an in-memory Database
    engine  = the same query on an in-memory Database

A layer is reported as measured, so it can be negative: the view
layer is when a cached population beats the hand-written query's
index probe, the storage layer is when the paged database's objects
scan faster than the in-memory copy's. The six add up to the median
of ``Client.call`` (``call_ms``) by construction; the test suite
checks that the chain has no gap.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import re
import shutil
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

import data
import harness
import serve

BILL_LAYERS = ("wire", "session", "plan", "view", "engine", "storage")

# A probe repeats until it has MAX_REPS samples or has used its time
# slice, whichever is first (but at least once): the traced pass has
# to fit the same run-time cap on every workload, and a scan through
# the views of a database that does not fit its resident limit takes
# a thousand times longer than a ping.
MAX_REPS = 15
SLICE_S = 0.4


class Probe:
    """Times calls, keeps medians, records one span per call."""

    def __init__(self, spans: harness.Spans):
        self.spans = spans
        self.group: Optional[int] = None

    def median(self, name: str, call: Callable, reps: int = MAX_REPS,
               before: Optional[Callable] = None,
               budget: float = SLICE_S) -> float:
        """Median seconds of ``call``, repeated until ``reps`` samples
        or ``budget`` seconds, at least once. A call that returns a
        float is reporting the seconds of its own inner region."""
        samples: List[float] = []
        began = time.perf_counter()
        while len(samples) < reps:
            if before is not None:
                before()
            started = time.perf_counter()
            inner = call()
            ended = time.perf_counter()
            samples.append(
                inner if isinstance(inner, float) else ended - started
            )
            self.spans.add(name, started, ended, parent=self.group)
            if ended - began > budget:
                break
        return statistics.median(samples)

    def interleaved(
        self, calls: Dict[str, Callable], budget: float = 4 * SLICE_S
    ) -> Dict[str, List[float]]:
        """Seconds of each call, round by round, the calls taking
        turns: round ``i`` runs every call once, so a machine that
        speeds up or slows down between rounds moves all of them
        together and the differences within a round stay meaningful.
        A call may return the seconds of its own inner region."""
        samples: Dict[str, List[float]] = {name: [] for name in calls}
        began = time.perf_counter()
        for _ in range(MAX_REPS):
            for name, call in calls.items():
                started = time.perf_counter()
                inner = call()
                ended = time.perf_counter()
                samples[name].append(
                    inner if isinstance(inner, float) else ended - started
                )
                self.spans.add(name, started, ended, parent=self.group)
            if time.perf_counter() - began > budget:
                break
        return samples

    @contextlib.contextmanager
    def grouped(self, name: str):
        """Spans recorded inside become children of one ``name`` span."""
        with self.spans.group(name) as self.group:
            try:
                yield
            finally:
                self.group = None


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# The statements the bill replays, as texts for the view stack and
# their hand-written equivalents on the base database.


class BillStatements:
    def __init__(self, workload):
        rng = workload.rng
        shadow = workload.shadow
        staff = [
            (number, value) for number, (cls, value)
            in shadow.objects.items() if cls in ("Employee", "Manager")
        ]
        number, employee = rng.choice(staff)
        person = rng.choice(list(shadow.objects.values()))[1]
        dept = rng.choice(data.DEPTS)
        self.target = number  # the object the write kind updates
        self.view = {
            "point": data.q_point(employee["Number"]),
            "range": data.q_range(employee["Salary"] - 50),
            "scan": data.q_scan(person["Street"], person["Age"]),
            "vattr": data.q_vattr(dept),
        }
        self.base = dict(
            self.view,
            vattr=(
                "select E.City from E in Employee"
                f" where E.Salary >= {data.WELL_PAID}"
                f" and E.Dept = '{dept}'"
            ),
        )
        self.ages = iter(range(21, 10_000))

    def firstq_view(self, age: int) -> str:
        return data.q_firstq(age)

    def firstq_base(self, age: int) -> str:
        # What Adult and Address mean, written against db by hand; a
        # new literal every time keeps the plan cold, as a first
        # query's plan is.
        return (
            "select P.City from P in Person"
            f" where P.Age >= {data.ADULT_AGE} and P.Age = {age}"
        )


# ----------------------------------------------------------------------
# Served measurements


class Sampler(threading.Thread):
    """Polls a gauge of the server while a window runs."""

    def __init__(self, client, read: Callable, every: float = 0.25):
        super().__init__(daemon=True)
        self.client = client
        self.read = read
        self.every = every
        self.peak = 0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.every):
            self.peak = max(self.peak, self.read(self.client.stats()))

    def finish(self) -> int:
        self._done.set()
        self.join()
        return self.peak


def _counters(stats: dict) -> Dict[str, float]:
    """The server counters the traced pass subtracts, flattened."""
    storage = stats["storage"]["db"]
    views = stats["views"].values()
    return {
        "faults": storage["table"]["faults"],
        "buffer_hits": storage["buffer"]["hits"],
        "buffer_misses": storage["buffer"]["misses"],
        "buffer_evictions": storage["buffer"]["evictions"],
        "group_batches": stats["mvcc"]["group_batches"],
        "group_ops": stats["mvcc"]["group_batched_ops"],
        "delta_patches": sum(v["delta_patches"] for v in views),
        "full_recomputes": sum(v["full_recomputes"] for v in views),
        "errors": sum(stats["errors"].values()),
    }


def served_windows(workload, server, clients, seconds, spans, total):
    """Untraced then traced half-windows; returns the metrics read
    from the windows and from the server's counters around them."""
    admin = server.connect()
    try:
        before = _counters(clients[0].stats())
        if not workload.count_plans:
            for client in clients:
                workload.note_plans(client, -1)
        sampler = Sampler(
            admin, lambda stats: stats["versions"]["versions_live"]
        )
        sampler.start()
        schedules = [workload.schedule(i) for i in range(len(clients))]
        plain, plain_s = harness.closed_loop(clients, schedules, seconds / 2)
        traced, traced_s = harness.closed_loop(
            clients, schedules, seconds / 2, spans=spans
        )
        versions_live_max = sampler.finish()
        total.merge(plain)
        total.merge(traced)
        workload.verify(clients, total)
        if not workload.count_plans:
            for client in clients:
                workload.note_plans(client)
        after = _counters(clients[0].stats())
    finally:
        admin.close()
    delta = {key: after[key] - before[key] for key in after}
    statements = plain.attempted + traced.attempted
    hits, compiled = workload.plans
    return {
        "bench.trace_overhead_ratio": (
            _ratio(traced.attempted / traced_s, plain.attempted / plain_s),
            "ratio", traced.attempted, "traced / untraced stmt_per_s"),
        "engine.versions_live_max": (
            versions_live_max, "count", statements, "polled every 0.25 s"),
        "storage.table_faults_per_stmt": (
            _ratio(delta["faults"], statements), "1/stmt", statements, ""),
        "storage.buffer_hit_ratio": (
            _ratio(delta["buffer_hits"],
                   delta["buffer_hits"] + delta["buffer_misses"]),
            "ratio", delta["buffer_hits"] + delta["buffer_misses"], ""),
        "storage.buffer_evictions": (
            delta["buffer_evictions"], "count", statements, ""),
        "server.group_commit_batch_mean": (
            _ratio(delta["group_ops"], delta["group_batches"]), "ops",
            delta["group_batches"], ""),
        "server.errors": (delta["errors"], "count", statements, ""),
        "core.maint_delta_patches": (
            delta["delta_patches"], "count", statements,
            "views of connection 0"),
        "core.maint_full_recomputes": (
            delta["full_recomputes"], "count", statements,
            "views of connection 0"),
        "core.maint_delta_share": (
            _ratio(delta["delta_patches"],
                   delta["delta_patches"] + delta["full_recomputes"]),
            "ratio", delta["delta_patches"] + delta["full_recomputes"], ""),
        "query.plan_cache_hit_ratio": (
            _ratio(hits, hits + compiled), "ratio", hits + compiled,
            "plan caches of the generator's connections"),
    }


def _stack_client(connect: Callable, tally):
    """A new connection with the three-level stack defined."""
    client = connect()
    for line in data.STACK:
        harness.run_statement(
            client, ("ddl", lambda c, l=line: c.execute(l), None), tally,
            timed=False,
        )
    return client


def served_probes(server, bill, probe, tally) -> dict:
    """The wire floor and what a closed session leaves behind, one
    connection against the child."""
    from repro.server import Client

    out = {}
    with server.connect() as client:
        out["server.ping_rt_ms"] = (
            _ms(probe.median("client.ping", client.ping, reps=200)), "ms",
            200, "")
        out["storage.replayed_ops"] = (
            client.stats()["storage"]["db"]["checkpoint"]["replayed_on_open"],
            "ops", 1, "journal ops replayed reopening the window's files")

    def connect():
        with Client("127.0.0.1", server.port) as fresh:
            fresh.ping()

    out["server.connect_ms"] = (
        _ms(probe.median("client.connect", connect, reps=30)), "ms", 30,
        "connect, ping, close")

    def session():
        with _stack_client(server.connect, tally) as fresh:
            fresh.execute(bill.firstq_view(next(bill.ages)))

    def rss_kb() -> int:
        return harness.proc_status_kb(server.process.pid, "VmRSS")

    sessions = 2
    session()  # count growth per session, not the first touch
    before = rss_kb()
    for _ in range(sessions):
        session()
    out["core.session_retained_kb"] = (
        (rss_kb() - before) / sessions, "kB", sessions,
        "server RSS growth per closed session")
    return out


HOT_PROBES = 300


def hot_point_rate(server, bill, tally) -> float:
    """Seconds per hot base-scope point probe, one connection."""
    text = bill.base["point"]
    with server.connect() as client:
        client.execute(".use db")
        client.execute(text)
        started = time.perf_counter()
        for _ in range(HOT_PROBES):
            harness.run_statement(
                client, ("point", lambda c: c.execute(text), None), tally,
                timed=False,
            )
        return (time.perf_counter() - started) / HOT_PROBES


# ----------------------------------------------------------------------
# In-process measurements


class InProcess:
    """Everything below the wire, on the file the server left: the
    workload's page file opened with its own storage options, an
    in-memory copy of the same objects, and a view stack on the paged
    database defined through each of the session layers."""

    def __init__(self, workload, path, bill, probe, out):
        from repro.engine.database import Database
        from repro.engine.oid import Oid

        self.workload = workload
        self.path = path
        self.bill = bill
        self.probe = probe
        options = workload.server_options()
        started = time.perf_counter()
        self.paged = serve.open_database(
            path, options.get("pool-pages"), options.get("resident-limit"),
            None,
        )
        out["storage.open_ms"] = (
            _ms(time.perf_counter() - started), "ms", 1,
            "PagedDatabase(path)")
        out["storage.open_pages_read"] = (
            self.paged.pages_read_on_open, "pages", 1, "")
        self.db = self.paged.db
        data.create_indexes(self.db)
        # Oids need not match the paged database's: the in-memory
        # copy only answers value queries.
        self.memory = Database("db")
        data.define_schema(self.memory)
        self.memory.begin_batch()
        for _number, (cls, value) in sorted(workload.shadow.objects.items()):
            self.memory.create(cls, dict(value))
        self.memory.end_batch()
        data.create_indexes(self.memory)
        self.session = self.stack_session()
        self.top = self.session.current
        self.wire_session = self.server_session()
        self.oid = Oid("db", bill.target)
        self.age = workload.shadow.objects[bill.target][1]["Age"]
        self.memory_oid = next(iter(self.memory.extent("Employee").members))

    def close(self) -> None:
        self.paged.close()

    def stack_session(self):
        from repro.cli import Session

        session = Session([self.db])
        for line in data.STACK:
            session.execute(line)
        return session

    def server_session(self):
        from repro.server import ServerSession

        session = ServerSession([self.db])
        for line in data.STACK:
            session.handle({"op": "execute", "line": line})
        return session

    # -- the bill ------------------------------------------------------

    def bill_levels(self, tally) -> Dict[str, Dict[str, List[float]]]:
        """Seconds at every entry point, round by round, per bill
        kind.

        The outermost entry point is a real ``Client`` over TCP, but
        to a ``ViewServer`` started here, over the same database
        object the deeper entry points use: measured against the
        child, the same statement ran 10-15% faster there than in this
        process (a property of the two processes, not of any layer),
        which no difference of medians survives."""
        from repro.server import Client, ViewServer

        with ViewServer([self.db], port=0) as live:
            host, port = live.address
            return self._bill_levels(
                lambda: Client(host, port, timeout=120.0), tally
            )

    def _bill_levels(self, connect: Callable, tally):
        from repro.query import planner
        from repro.server.protocol import wire_encode

        probe, bill = self.probe, self.bill
        db, memory, top = self.db, self.memory, self.top
        session, wire_session = self.session, self.wire_session
        levels: Dict[str, Dict[str, List[float]]] = {}
        with _stack_client(connect, tally) as client:
            for kind in ("point", "scan", "vattr"):
                view_text, base_text = bill.view[kind], bill.base[kind]
                request = {"op": "execute", "line": view_text}
                calls = {
                    "call": lambda: client.execute(view_text),
                    "handle": lambda: wire_session.handle(request),
                    "execute": lambda: session.execute(view_text),
                    "view": lambda: planner.execute(view_text, top),
                    "plan": lambda: planner.fetch_plan(view_text, top),
                    "paged": lambda: planner.execute(base_text, db),
                    "memory": lambda: planner.execute(base_text, memory),
                }
                for call in calls.values():
                    call()  # plans and populations warm at every level
                with probe.grouped("bill." + kind):
                    levels[kind] = probe.interleaved(calls)

            oid, age = self.oid, self.age
            update = {
                "op": "update", "database": "Top_V",
                "oid": wire_encode(oid), "attribute": "Age", "value": age,
            }
            with probe.grouped("bill.write"):
                levels["write"] = probe.interleaved(
                    {
                        "call": lambda: client.update(
                            "Top_V", oid, "Age", age),
                        "handle": lambda: wire_session.handle(update),
                        "view": lambda: top.update(oid, "Age", age),
                        "paged": lambda: db.update(oid, "Age", age),
                        "memory": lambda: memory.update(
                            self.memory_oid, "Age", age),
                    }
                )

        def cold(make, run) -> Callable:
            """``run`` on a newly defined stack; times only ``run``."""

            def once() -> float:
                target = make()
                text = bill.firstq_view(next(bill.ages))
                started = time.perf_counter()
                run(target, text)
                elapsed = time.perf_counter() - started
                close = getattr(target, "close", None)
                if close is not None:
                    close()
                return elapsed

            return once

        def base(scope) -> Callable:
            return lambda: planner.execute(
                bill.firstq_base(next(bill.ages)), scope
            )

        with probe.grouped("bill.firstq"):
            levels["firstq"] = probe.interleaved(
                {
                    "call": cold(
                        lambda: _stack_client(connect, tally),
                        lambda c, text: c.execute(text)),
                    "handle": cold(
                        self.server_session,
                        lambda s, text: s.handle(
                            {"op": "execute", "line": text})),
                    "view": cold(
                        self.stack_session,
                        lambda s, text: planner.execute(text, s.current)),
                    "plan": cold(
                        self.stack_session,
                        lambda s, text: planner.fetch_plan(text, s.current)),
                    "paged": base(db),
                    "memory": base(memory),
                },
            )
        return levels

    def bill_metrics(self, rounds, out) -> Dict[str, Dict[str, float]]:
        """Emit the bill; returns the median seconds per entry point.
        A layer is a difference of medians along the chain, so the
        six add up to the median of ``Client.call`` exactly."""
        levels = {}
        for kind, samples in rounds.items():
            level = levels[kind] = {
                name: statistics.median(values)
                for name, values in samples.items()
            }
            plan = level.get("plan", 0.0)  # a write is not planned
            layers = {
                "wire": level["call"] - level["handle"],
                "session": level["handle"] - level["view"],
                "plan": plan,
                "view": level["view"] - plan - level["paged"],
                "storage": level["paged"] - level["memory"],
                "engine": level["memory"],
            }
            rounds_run = len(samples["call"])
            for layer in BILL_LAYERS:
                if layer == "plan" and "plan" not in level:
                    continue
                out[f"bill.{kind}.{layer}_ms"] = (
                    _ms(layers[layer]), "ms", rounds_run, "")
            out[f"bill.{kind}.call_ms"] = (
                _ms(level["call"]), "ms", rounds_run, "Client.call median")
        return levels

    # -- single layers -------------------------------------------------

    def front_layers(self, levels, out) -> None:
        """server, lang and query."""
        from repro.lang.executor import Catalog, run_script
        from repro.lang.parser import parse_script
        from repro.query import planner
        from repro.query.parser import parse_query
        from repro.server.protocol import (
            recv_frame, send_frame, wire_decode, wire_encode,
        )

        probe, bill = self.probe, self.bill
        point = levels["point"]
        out["server.session_overhead_ms"] = (
            _ms(point["handle"] - point["execute"]), "ms", 1,
            "ServerSession.handle - cli.Session.execute, point")
        left, right = socket.socketpair()
        try:
            frame = {
                "id": 1, "ok": True,
                "result": {
                    "output": self.session.execute(bill.view["vattr"])
                },
            }
            value = {
                "Name": "N1", "Age": 30, "Tags": {1, 2, 3}, "Ref": self.oid,
            }

            def codec():
                send_frame(left, frame)
                recv_frame(right, 1 << 20)
                wire_decode(wire_encode(value))

            out["server.frame_codec_us"] = (
                _us(probe.median("frame codec", codec, reps=200)), "us", 200,
                "send_frame + recv_frame + wire_encode + wire_decode")
        finally:
            left.close()
            right.close()

        script = "\n".join(data.SESSION_DDL)
        out["lang.script_ms"] = (
            _ms(probe.median(
                "run_script", lambda: run_script(script, Catalog(self.db)))),
            "ms", 1, "the 18-statement session stack")
        out["lang.parse_us_per_stmt"] = (
            _us(probe.median("parse_script", lambda: parse_script(script)))
            / len(data.SESSION_DDL), "us", 1, "")

        out["query.parse_us"] = (
            _us(probe.median(
                "parse_query", lambda: parse_query(bill.view["point"]))),
            "us", 1, "")
        numbers = iter(range(10**6, 10**7))
        out["query.plan_cold_ms"] = (
            _ms(probe.median(
                "fetch_plan cold",
                lambda: planner.fetch_plan(
                    data.q_point(next(numbers)), self.top))),
            "ms", 1, "a text the cache has not seen")
        out["query.plan_warm_us"] = (_us(point["plan"]), "us", 1, "")
        for kind, source in (
            ("point", "Employee"), ("range", "Employee"),
            ("scan", "Person"), ("vattr", "Well_Paid"),
        ):
            scanned, returned = self.rows_examined(bill.view[kind], source)
            out[f"query.rows_scanned_per_returned.{kind}"] = (
                scanned / max(1, returned), "ratio", 1,
                f"{scanned} examined, {returned} returned, through Top_V")

    def rows_examined(self, text: str, source: str):
        """``(examined, returned)`` of one statement on the stack.

        The statement registry counts examined rows only for
        scattered queries, so this reads EXPLAIN ANALYZE: the
        candidates its index probes fetched, or, for a plan that
        probes nothing, the whole extent it ranges over."""
        from repro.obs.explain import explain_analyze

        report = explain_analyze(text, self.top)
        returned = int(re.search(r"^rows: (\d+)", report, re.M).group(1))
        probes = re.findall(r"index_probe .*scanned=(\d+)", report)
        if probes:
            return sum(int(n) for n in probes), returned
        return len(self.top.extent(source).members), returned

    def core_layer(self, levels, out) -> None:
        from repro.cli import Session
        from repro.query import planner

        probe, bill, top = self.probe, self.bill, self.top
        for kind in ("point", "scan"):
            out[f"core.view_tax.{kind}"] = (
                _ratio(levels[kind]["view"], levels[kind]["paged"]),
                "ratio", 1, "planner.execute on Top_V / on db")
        out["core.view_tax.range"] = (
            _ratio(
                probe.median(
                    "planner.execute(view)",
                    lambda: planner.execute(bill.view["range"], top)),
                probe.median(
                    "planner.execute(db)",
                    lambda: planner.execute(bill.base["range"], self.db)),
            ),
            "ratio", 1, "")

        def recompute() -> float:
            view = self.stack_session().current
            started = time.perf_counter()
            view.extent("Adult")
            return time.perf_counter() - started

        out["core.population_recompute_ms"] = (
            _ms(probe.median(
                "extent cold", recompute, reps=5, budget=2 * SLICE_S)),
            "ms", 1, "extent('Adult') on a newly defined stack")
        out["core.population_cached_us"] = (
            _us(probe.median("extent cached", lambda: top.extent("Adult"))),
            "us", 1, "")
        out["core.resolve_us_per_attr"] = (
            _us(probe.median(
                "resolve",
                lambda: top.resolve_attribute_for(self.oid, "Address"))),
            "us", 1, "")
        handle = top.get(self.oid)
        out["core.vattr_eval_us"] = (
            _us(probe.median("vattr eval", lambda: handle.Address)), "us", 1,
            "")
        imaginary = top.get(next(iter(top.extent("Dept_Obj").members)))
        out["core.imaginary_lookup_us"] = (
            _us(probe.median("imaginary", lambda: imaginary.Dept)), "us", 1,
            "")

        def infer() -> float:
            session = Session([self.db])
            spent = 0.0
            for line in data.SESSION_DDL:
                started = time.perf_counter()
                session.execute(line)
                if line.startswith("class "):
                    spent += time.perf_counter() - started
            return spent

        out["core.hierarchy_infer_ms"] = (
            _ms(probe.median("class statements", infer, reps=5)), "ms", 1,
            "the class statements of the session stack")

    def engine_layer(self, levels, out) -> None:
        from repro.query import planner

        probe, memory = self.probe, self.memory
        oid, age = self.memory_oid, self.age
        out["engine.scan_us_per_obj"] = (
            _us(levels["scan"]["memory"]) / memory.object_count(), "us", 1,
            "")
        out["engine.index_probe_us"] = (
            _us(levels["point"]["memory"]), "us", 1, "")
        out["engine.range_probe_us"] = (
            _us(probe.median(
                "range probe",
                lambda: planner.execute(self.bill.base["range"], memory))),
            "us", 1, "")
        out["engine.commit_us"] = (
            _us(levels["write"]["memory"]), "us", 1, "Database.update")
        batch = [
            {"op": "update", "oid": oid, "attribute": "Age", "value": age}
        ] * 10
        out["engine.batch_commit_us_per_op"] = (
            _us(probe.median("apply_batch", lambda: memory.apply_batch(batch)))
            / 10, "us", 1, "")

        def pin():
            with memory.read_view():
                pass

        out["engine.snapshot_pin_us"] = (
            _us(probe.median(
                "read_view", pin,
                before=lambda: memory.update(oid, "Age", age))),
            "us", 1, "first pin after a commit")

    def storage_layer(self, levels, out) -> None:
        """Write cost, space and read cost together: lowering one
        usually raises another."""
        from repro.engine.oid import Oid

        paged, db, workload = self.paged, self.db, self.workload
        out["storage.journal_fsync_ms"] = (
            _ms(levels["write"]["paged"] - levels["write"]["memory"]), "ms",
            1, "paged update - in-memory update")
        journal = self.path + ".journal"
        writes = 40
        batches = paged.journal.batches_written
        size = os.path.getsize(journal)
        user_bytes = 0
        people = sorted(workload.shadow.objects)[:writes]
        for index, number in enumerate(people):
            db.update(Oid("db", number), "Age", index % 90)
            user_bytes += len("Age") + len(str(index % 90))
        db.apply_batch(
            [
                {"op": "update", "oid": Oid("db", number),
                 "attribute": "Age", "value": 33}
                for number in people[:10]
            ]
        )
        user_bytes += 10 * (len("Age") + 2)
        out["storage.fsyncs_per_write"] = (
            (paged.journal.batches_written - batches) / (writes + 1),
            "1/write", writes + 1, "40 updates and one 10-op batch")
        out["storage.journal_bytes_per_user_byte"] = (
            (os.path.getsize(journal) - size) / user_bytes, "ratio", 1, "")
        started = time.perf_counter()
        info = paged.checkpoint(full=False)
        out["storage.checkpoint_incr_ms"] = (
            _ms(time.perf_counter() - started), "ms", 1, info["kind"])
        out["storage.checkpoint_incr_pages"] = (
            info["pages"], "pages", 1, "")
        out["storage.checkpoint_bytes_per_user_byte"] = (
            info["bytes"] / user_bytes, "ratio", 1, "")
        started = time.perf_counter()
        paged.checkpoint(full=True)
        out["storage.checkpoint_full_ms"] = (
            _ms(time.perf_counter() - started), "ms", 1, "")


def fault_cost(workload, path) -> dict:
    """What a fault costs and how much of it is useful, on this
    workload's data under a fixed paging configuration (a resident
    limit of a tenth of the objects), whether or not the workload
    itself pages: ``storage.table_faults_per_stmt`` says whether it
    does. Uniform point probes each need one object; what they fault
    in beyond that is wasted work."""
    from repro.query import planner

    paged = serve.open_database(
        path, None, max(200, workload.count // 10), None
    )
    try:
        db = paged.db
        data.create_indexes(db)
        probes = 60
        key = workload.rng.randrange(workload.keys)
        planner.execute(data.q_point(key), db)
        started = time.perf_counter()
        for _ in range(probes):
            planner.execute(data.q_point(key), db)
        hot = time.perf_counter() - started
        before = paged.storage_stats()["table"]
        started = time.perf_counter()
        for _ in range(probes):
            planner.execute(
                data.q_point(workload.rng.randrange(workload.keys)), db
            )
        cold = time.perf_counter() - started
        after = paged.storage_stats()["table"]
    finally:
        paged.close()
    faults = after["faults"] - before["faults"]
    faulted = after["faulted_objects"] - before["faulted_objects"]
    return {
        "storage.objects_used_per_faulted": (
            _ratio(probes, faulted), "ratio", faulted,
            f"{probes} objects needed"),
        "storage.segment_fault_ms": (
            _ms(_ratio(cold - hot, faults)), "ms", faults,
            "cold minus hot probes, per fault"),
    }


def scatter(memory, bill, probe):
    """``exec`` is on no standing workload; two numbers only."""
    from repro.exec import attach_executor
    from repro.query import planner

    text = bill.base["scan"]
    serial = probe.median(
        "scan serial", lambda: planner.execute(text, memory), reps=5)
    executor = attach_executor(memory, 2, min_scatter_extent=100)
    try:
        planner.execute(text, memory)  # bootstraps the workers
        wall = probe.median(
            "scan scattered", lambda: planner.execute(text, memory), reps=5)
        rss = [
            harness.proc_status_kb(child.pid, "VmRSS") / 1024.0
            for child in multiprocessing.active_children()
        ]
        scattered = executor.stats.snapshot()["scatters"]
    finally:
        executor.close()
    return {
        "exec.scatter2_wall_over_serial": (
            _ratio(wall, serial), "ratio", scattered,
            "n = scatters that ran"),
        "exec.worker_rss_mb": (
            statistics.median(rss) if rss else 0.0, "MB", len(rss), ""),
    }


# ----------------------------------------------------------------------


def measure(workload, seconds: float, path: str):
    """The traced run. Returns ``(metrics, cells, tally)``."""
    harness.build_database(path, workload.rows)
    spans = harness.Spans()
    probe = Probe(spans)
    bill = BillStatements(workload)
    total = harness.Tally()
    metrics: dict = {}
    workload.count_plans = workload.name == "session_ddl"
    server = bench = None
    try:
        server, clients, warmup, _ = harness.set_up(workload, path)
        total.merge(warmup)
        metrics.update(
            served_windows(workload, server, clients, seconds, spans, total)
        )
        for client in clients:
            client.close()
        workload.count_plans = False
        server.kill()

        # The in-process probes write; they get their own copy of what
        # the crash left, so that a live child can serve the original
        # while the bill takes turns between the two.
        copy = path + ".copy"
        shutil.copy(path, copy)
        shutil.copy(path + ".journal", copy + ".journal")
        server = harness.Server(path, workload.server_options())
        # First thing on a fresh child, as the tracing=False child
        # below is measured: sessions that came and went slow both.
        traced_rate = hot_point_rate(server, bill, total)
        metrics.update(served_probes(server, bill, probe, total))
        server.kill()
        bench = InProcess(workload, copy, bill, probe, metrics)
        levels = bench.bill_levels(total)
        server = harness.Server(
            path, workload.server_options(), tracing=False
        )
        untraced_rate = hot_point_rate(server, bill, total)
        metrics["obs.tracing_on_over_off"] = (
            _ratio(traced_rate, untraced_rate), "ratio", HOT_PROBES,
            "hot base-scope point probe, server tracing=True / False")
        server.kill()
        server = None

        levels = bench.bill_metrics(levels, metrics)
        bench.front_layers(levels, metrics)
        bench.core_layer(levels, metrics)
        bench.engine_layer(levels, metrics)
        bench.storage_layer(levels, metrics)
        metrics.update(scatter(bench.memory, bill, probe))
        bench.close()
        bench = None
        metrics.update(fault_cost(workload, copy))
    finally:
        if server is not None:
            server.kill()
        if bench is not None:
            bench.close()
        spans.dump(
            os.path.join(harness.OUT, f"trace_{workload.name}.json")
        )
    cells = {
        "failed_share": (
            total.failed / total.attempted, "ratio", total.attempted, ""),
    }
    return metrics, cells, total
