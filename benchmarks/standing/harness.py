"""Processes, connections and the closed loop.

The benchmark process is the load generator. It builds the page file
in-process (that is input generation, not the system under test),
starts ``serve.py`` as a child, and drives it from ``CONNECTIONS``
threads, each with its own blocking ``repro.server.Client``: a closed
loop, so a slower server receives less load.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT = os.path.join(HERE, "out")

# nproc is 2: one core for the server child, one for the generator.
CONNECTIONS = 2


def require_source() -> None:
    """Fail early, without a result line, when the program under test
    is not in the checkout (the driver checks that this happens)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"standing benchmark: no program to measure at {SRC}"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# The page file


def build_database(path: str, rows) -> float:
    """Write ``rows`` to a fresh page file at ``path`` (one full
    checkpoint) and close it; returns the seconds it took."""
    from repro.storage.checkpoint import PagedDatabase

    import data

    for stale in (path, path + ".journal"):
        if os.path.exists(stale):
            os.remove(stale)
    os.makedirs(os.path.dirname(path), exist_ok=True)

    def setup(db) -> None:
        data.define_schema(db)
        data.load(db, rows)

    started = time.perf_counter()
    PagedDatabase(path, "db", setup).close()
    return time.perf_counter() - started


def disk_bytes(path: str) -> int:
    return os.path.getsize(path) + os.path.getsize(path + ".journal")


def proc_status_kb(pid: int, field: str) -> int:
    """A kB field (``VmHWM``, ``VmRSS``) of a process, from the kernel."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} line in /proc/{pid}/status")


# ----------------------------------------------------------------------
# The server child


class Server:
    """One ``serve.py`` child over ``path``."""

    def __init__(self, path: str, options: Dict[str, Optional[int]],
                 tracing: bool = True):
        argv = [sys.executable, os.path.join(HERE, "serve.py"), path]
        for flag, value in options.items():
            if value is not None:
                argv += [f"--{flag}", str(value)]
        if not tracing:
            argv.append("--no-tracing")
        self.process = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.kill()
            raise RuntimeError(f"server child did not come up: {line!r}")
        self.port = int(line[1])

    def connect(self):
        from repro.server import Client

        return Client("127.0.0.1", self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set."""
        return proc_status_kb(self.process.pid, "VmHWM") / 1024.0

    def kill(self) -> None:
        """SIGKILL, as a crash would; waits until the child is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


# ----------------------------------------------------------------------
# The closed loop

# One statement of a schedule: its kind, a callable that sends it on a
# client and returns what came back, and a check of that answer (or
# None where a concurrent writer makes the answer unknowable).
Statement = Tuple[str, Callable, Optional[Callable]]


class Tally:
    """Latencies per kind plus the attempted/failed counts of one
    generator thread."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def merge(self, other: "Tally") -> None:
        for kind, values in other.samples.items():
            self.samples.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(note)


def run_statement(client, statement: Statement, tally: Tally,
                  timed: bool = True, spans: Optional["Spans"] = None) -> None:
    """Send one statement, time it, check it. An exception, an
    ``error:`` output, a refused frame or a wrong answer all count as
    one failed statement."""
    kind, send, check = statement
    tally.attempted += 1
    started = time.perf_counter()
    try:
        answer = send(client)
    except Exception as error:  # the failure is the measurement
        tally.fail(f"{kind}: {type(error).__name__}: {error}")
        return
    ended = time.perf_counter()
    if timed:
        tally.samples.setdefault(kind, []).append(ended - started)
    if isinstance(answer, str) and answer.startswith("error:"):
        tally.fail(f"{kind}: {answer[:200]}")
    elif check is not None:
        problem = check(answer)
        if problem:
            tally.fail(f"{kind}: {problem}")
    if spans is not None:
        root = spans.add("statement", started, time.perf_counter(), kind=kind)
        spans.add("client.call", started, ended, parent=root, kind=kind)


def closed_loop(
    clients: List,
    schedules: List[Iterator[Statement]],
    seconds: float,
    spans: Optional["Spans"] = None,
    at_count: Optional[int] = None,
    at_count_do: Optional[Callable] = None,
) -> Tuple[Tally, float]:
    """Run one schedule per client until ``seconds`` have passed; each
    thread sends its next statement only after the previous answer.
    ``at_count_do`` is called once, by whichever thread completes the
    window's ``at_count``-th statement: a fixed amount of work at
    which to read a gauge, so that a faster server is not charged for
    the extra work it fits into the same window. Returns the merged
    tally and the window's true length."""
    tallies = [Tally() for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)
    deadline = [0.0]
    completed = itertools.count(1)

    def work(client, schedule, tally) -> None:
        barrier.wait()
        while time.perf_counter() < deadline[0]:
            run_statement(client, next(schedule), tally, spans=spans)
            if next(completed) == at_count:
                at_count_do()

    threads = [
        threading.Thread(target=work, args=(c, s, t), daemon=True)
        for c, s, t in zip(clients, schedules, tallies)
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline[0] = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    merged = Tally()
    for tally in tallies:
        merged.merge(tally)
    return merged, elapsed


class Spans:
    """Benchmark-owned spans, kept in memory until :meth:`dump`.

    A span is ``(id, name, start, end, parent, attrs)``; spans of one
    statement share their root's id as ``statement``. Appending to a
    list is atomic, so generator threads share one recorder."""

    def __init__(self):
        self._spans: List[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> int:
        span_id = next(self._ids)
        self._spans.append((span_id, name, start, end, parent, attrs))
        return span_id

    @contextlib.contextmanager
    def group(self, name: str, **attrs) -> Iterator[int]:
        """A span around a block; yields its id for use as the
        ``parent`` of the spans added inside."""
        span_id = next(self._ids)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            self._spans.append(
                (span_id, name, started, time.perf_counter(), None, attrs)
            )

    def dump(self, path: str) -> None:
        """Write every span with its self time: its duration minus
        the part of it that child spans cover."""
        covered: Dict[int, float] = {}
        for _id, _name, start, end, parent, _attrs in self._spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        origin = min((s[2] for s in self._spans), default=0.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump(
                [
                    {
                        "id": span_id,
                        "name": name,
                        "start_ms": (start - origin) * 1e3,
                        "end_ms": (end - origin) * 1e3,
                        "self_ms": (end - start - covered.get(span_id, 0.0))
                        * 1e3,
                        "parent": parent,
                        "statement": parent if parent is not None else span_id,
                        **attrs,
                    }
                    for span_id, name, start, end, parent, attrs
                    in self._spans
                ],
                out,
            )


def in_parallel(jobs: List[Callable]) -> None:
    """Run the jobs on one thread each and re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(job) -> None:
        try:
            job()
        except BaseException as error:  # re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(job,), daemon=True)
        for job in jobs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def set_up(workload, path, tracing: bool = True):
    """Start a server on ``path`` and bring ``CONNECTIONS`` clients to
    the point where the next statement would be timed. Returns
    ``(server, clients, tally, seconds)``."""
    started = time.perf_counter()
    server = Server(path, workload.server_options(), tracing)
    try:
        clients = [server.connect() for _ in range(CONNECTIONS)]
        tallies = [Tally() for _ in clients]
        in_parallel(
            [
                (lambda c=c, i=i, t=t: workload.prepare(c, i, t))
                for i, (c, t) in enumerate(zip(clients, tallies))
            ]
        )
    except BaseException:
        server.kill()
        raise
    tally = Tally()
    for each in tallies:
        tally.merge(each)
    tally.samples.clear()  # warm-up is checked, not timed
    workload.server = server
    return server, clients, tally, time.perf_counter() - started


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3
