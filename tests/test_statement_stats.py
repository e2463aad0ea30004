"""The statement-statistics registry and its four surfaces.

Registry semantics first (accumulation, eviction, percentiles, the
scatter observation channel), then the integration points: the planner
hook, the ``statements`` wire op on both servers, the shell's
``.statements`` dot-command, the ``repro_statement_*`` Prometheus
series, and the metrics endpoint's ``/health`` liveness probe.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import __version__
from repro.cli import Session
from repro.engine import Database
from repro.exec import attach_executor
from repro.obs import stats as _stats
from repro.obs.export import render_prometheus
from repro.server import (
    AsyncViewServer,
    Client,
    PipelinedClient,
    ViewServer,
)
from repro.workloads import build_people_db


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with an empty global registry."""
    _stats.REGISTRY.reset()
    yield
    _stats.REGISTRY.reset()


@pytest.fixture
def enabled():
    _stats.enable()
    yield
    _stats.disable()


class TestRegistry:
    def test_record_accumulates_per_shape(self):
        registry = _stats.StatementRegistry()
        registry.record(
            "q", "Database", 0.002, rows=3, scanned=10, plan_hit=False
        )
        registry.record(
            "q", "Database", 0.004, rows=5, scanned=10, plan_hit=True
        )
        [entry] = registry.snapshot()
        assert entry["calls"] == 2 and entry["errors"] == 0
        assert entry["rows_returned"] == 8
        assert entry["rows_scanned"] == 20
        assert entry["total_ms"] == pytest.approx(6.0)
        assert entry["mean_ms"] == pytest.approx(3.0)
        assert entry["max_ms"] == pytest.approx(4.0)
        assert entry["plan_hits"] == 1
        assert entry["plans_compiled"] == 1
        assert entry["serial"] == 2 and entry["scattered"] == 0

    def test_same_text_different_scope_kind_stays_distinct(self):
        registry = _stats.StatementRegistry()
        registry.record("q", "Database", 0.001)
        registry.record("q", "View", 0.001)
        assert len(registry) == 2

    def test_snapshot_sorts_by_total_time_and_honors_top(self):
        registry = _stats.StatementRegistry()
        for i in range(5):
            registry.record(f"q{i}", "Database", 0.001 * (i + 1))
        snapshot = registry.snapshot()
        assert [e["text"] for e in snapshot] == [
            "q4", "q3", "q2", "q1", "q0"
        ]
        assert [e["text"] for e in registry.snapshot(top=2)] == [
            "q4", "q3"
        ]

    def test_cap_evicts_the_cheapest_shape(self):
        registry = _stats.StatementRegistry(cap=3)
        registry.record("cheap", "Database", 0.001)
        registry.record("mid", "Database", 0.010)
        registry.record("hot", "Database", 0.100)
        registry.record("new", "Database", 0.050)
        assert len(registry) == 3
        assert registry.evictions == 1
        texts = {e["text"] for e in registry.snapshot()}
        assert "cheap" not in texts
        assert {"hot", "new", "mid"} == texts

    def test_percentiles_from_the_reservoir(self):
        registry = _stats.StatementRegistry()
        for ms in range(1, 101):
            registry.record("q", "Database", ms / 1e3)
        [entry] = registry.snapshot()
        assert 40.0 <= entry["p50_ms"] <= 60.0
        assert entry["p99_ms"] >= 95.0
        assert entry["p99_ms"] <= entry["max_ms"] == pytest.approx(100.0)

    def test_errors_are_counted_as_calls(self):
        registry = _stats.StatementRegistry()
        registry.record("q", "Database", 0.001, error=True)
        [entry] = registry.snapshot()
        assert entry["calls"] == 1 and entry["errors"] == 1

    def test_reset_clears_entries_and_eviction_count(self):
        registry = _stats.StatementRegistry(cap=1)
        registry.record("a", "Database", 0.001)
        registry.record("b", "Database", 0.002)
        assert registry.evictions == 1
        registry.reset()
        assert len(registry) == 0 and registry.evictions == 0

    def test_describe_renders_a_table(self):
        registry = _stats.StatementRegistry()
        registry.record(
            "select P from P in Person", "Database", 0.004,
            rows=2, plan_hit=True,
        )
        out = registry.describe()
        assert "select P from P in Person [Database]" in out
        assert "1h/0c" in out
        assert out.splitlines()[0].lstrip().startswith("calls")

    def test_describe_explains_an_empty_registry(self, enabled):
        assert _stats.REGISTRY.describe() == "(no statements recorded)"

    def test_describe_points_at_enable_when_disabled(self):
        assert "disabled" in _stats.REGISTRY.describe()


class TestEnablement:
    def test_enable_disable_reference_count(self):
        before = _stats.ENABLED
        assert not before
        _stats.enable()
        _stats.enable()
        assert _stats.ENABLED
        _stats.disable()
        assert _stats.ENABLED  # one holder left
        _stats.disable()
        assert not _stats.ENABLED
        _stats.disable()  # underflow is harmless
        assert not _stats.ENABLED

    def test_scatter_channel_accumulates_then_clears(self, enabled):
        _stats.note_examined(100, scattered=True)
        # aggregate rewrite: a second scatter, then the serial rest
        _stats.note_examined(50, scattered=True)
        _stats.note_examined(7)
        assert _stats.take_examined() == (157, True)
        assert _stats.take_examined() == (0, False)

    def test_serial_count_replaces_a_serial_count(self, enabled):
        _stats.note_examined(40)  # e.g. an unrecorded EXPLAIN run
        _stats.note_examined(3)
        assert _stats.take_examined() == (3, False)

    def test_scatter_channel_dark_when_disabled(self):
        _stats.note_examined(10, scattered=True)
        assert _stats.take_examined() == (0, False)


class TestPlannerIntegration:
    def test_query_records_one_canonical_shape(self, tiny_db, enabled):
        rows = len(tiny_db.query("select P from Person where P.Age >= 21"))
        tiny_db.query("select  P  from  Person where P.Age >= 21")
        [entry] = _stats.REGISTRY.snapshot()
        # Both spellings fold into the planner's canonical text.
        assert entry["text"] == (
            "select P from P in Person where P.Age >= 21"
        )
        assert entry["kind"] == "Database"
        assert entry["calls"] == 2
        assert entry["rows_returned"] == 2 * rows
        assert entry["plan_hits"] + entry["plans_compiled"] == 2
        assert entry["serial"] == 2 and entry["scattered"] == 0

    def test_runtime_error_is_recorded(self, tiny_db, enabled):
        tiny_db.register_function("boom", lambda h: {}["missing"])
        with pytest.raises(Exception):
            tiny_db.query("select P from Person where boom(P) = 1")
        [entry] = _stats.REGISTRY.snapshot()
        assert entry["calls"] == 1 and entry["errors"] == 1
        assert entry["rows_returned"] == 0

    def test_disabled_registry_records_nothing(self, tiny_db):
        tiny_db.query("select P from Person")
        assert len(_stats.REGISTRY) == 0

    def test_scattered_statement_counts_shard_scans(self, enabled):
        db = Database("Shardtest")
        db.define_class(
            "Person", attributes={"Name": "string", "Age": "integer"}
        )
        for i in range(60):
            db.create("Person", Name=f"p{i}", Age=i % 50)
        executor = attach_executor(
            db, 2, min_scatter_extent=1, gather_timeout=30.0
        )
        try:
            db.query("select P from Person where P.Age >= 25")
            assert executor.stats.scatters >= 1
        finally:
            executor.close()
        [entry] = _stats.REGISTRY.snapshot()
        assert entry["scattered"] == 1 and entry["serial"] == 0
        # Shards report what they scanned; the whole extent was read.
        assert entry["rows_scanned"] == 60


class TestStatementsOp:
    def test_sync_server_statements_op(self):
        srv = ViewServer([build_people_db(20, seed=11)])
        host, port = srv.start()
        try:
            with Client(host, port) as c:
                c.execute("select P from Person where P.Age >= 30")
                c.execute("select P from Person where P.Age >= 30")
                out = c.call("statements")
                assert out["enabled"] is True
                assert out["tracked"] >= 1
                assert out["evictions"] == 0
                entry = next(
                    e for e in out["statements"]
                    if "P.Age >= 30" in e["text"]
                )
                assert entry["calls"] == 2
                # Sorted by total time, bounded by limit.
                totals = [e["total_ms"] for e in out["statements"]]
                assert totals == sorted(totals, reverse=True)
                assert len(c.call("statements", limit=1)["statements"]) == 1
                # reset snapshots first, then clears.
                final = c.call("statements", reset=True)
                assert any(
                    "P.Age >= 30" in e["text"]
                    for e in final["statements"]
                )
                assert not any(
                    "P.Age >= 30" in e["text"]
                    for e in c.call("statements")["statements"]
                )
        finally:
            srv.stop()

    def test_async_server_statements_op(self):
        srv = AsyncViewServer([build_people_db(20, seed=12)])
        srv.start()
        try:
            host, port = srv.address
            with PipelinedClient(host, port, binary=True) as c:
                c.execute("select P from Person where P.Age >= 40")
                out = c.call("statements")
                assert out["enabled"] is True
                assert any(
                    "P.Age >= 40" in e["text"]
                    for e in out["statements"]
                )
        finally:
            srv.stop()

    def test_servers_hold_an_enablement_for_their_lifetime(self):
        before = _stats.ENABLED
        srv = ViewServer([build_people_db(10, seed=13)])
        host, port = srv.start()
        try:
            assert _stats.ENABLED
            with Client(host, port) as c:
                c.ping()  # fully up before we tear it down
        finally:
            srv.stop()
        assert _stats.ENABLED == before


class TestShellCommand:
    def test_statements_command_surfaces(self, tiny_db, enabled):
        session = Session([tiny_db])
        session.execute("select P from Person where P.Age >= 21")
        out = session.execute(".statements")
        assert "P.Age >= 21" in out
        assert "P.Age >= 21" in session.execute(".statements 5")
        assert "usage" in session.execute(".statements bogus")
        assert "reset" in session.execute(".statements reset")
        assert len(_stats.REGISTRY) == 0

    def test_statements_command_when_disabled(self, tiny_db):
        assert "disabled" in Session([tiny_db]).execute(".statements")


class TestPrometheusSeries:
    def test_statement_series_render(self):
        _stats.REGISTRY.record(
            "select P from P in Person", "Database", 0.004,
            rows=2, scanned=60, plan_hit=True, scattered=True,
        )
        text = render_prometheus()
        # Prometheus labels sort alphabetically inside the braces.
        assert (
            'repro_statement_seconds_total{kind="Database",'
            'statement="select P from P in Person"} 0.004' in text
        ), text
        assert "# TYPE repro_statement_calls_total counter" in text
        assert 'direction="returned"' in text
        assert 'direction="scanned"' in text
        assert 'quantile="0.5"' in text and 'quantile="0.99"' in text
        assert 'mode="scattered"' in text and 'mode="serial"' in text

    def test_idle_registry_adds_no_series(self):
        assert "repro_statement_" not in render_prometheus()

    def test_long_statement_text_is_truncated(self):
        _stats.REGISTRY.record("x" * 200, "Database", 0.001)
        text = render_prometheus()
        assert 'statement="' + "x" * 117 + '..."' in text
        assert "x" * 118 not in text


class TestHealthEndpoint:
    def test_health_and_metrics_over_http(self):
        srv = ViewServer([build_people_db(10, seed=14)], metrics_port=0)
        srv.start()
        try:
            host, port = srv._metrics_http.address
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(
                f"{base}/health", timeout=5
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == (
                    "application/json"
                )
                body = json.loads(response.read().decode("utf-8"))
            assert body["status"] == "ok"
            assert body["uptime_s"] >= 0
            assert body["version"] == __version__
            # Trailing slash tolerated; /metrics unaffected; anything
            # else still a 404.
            with urllib.request.urlopen(
                f"{base}/health/", timeout=5
            ) as response:
                assert response.status == 200
            with urllib.request.urlopen(
                f"{base}/metrics", timeout=5
            ) as response:
                assert response.status == 200
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/healthz", timeout=5)
        finally:
            srv.stop()


class TestSerialRowsScanned:
    """Serial plans report examined rows too (they used to read 0):
    the extent for a scan, the candidates visited for a probe — on a
    database and, by pushdown, through a view stack."""

    @pytest.fixture
    def staff(self):
        db = Database("Staff")
        db.define_class(
            "Person", attributes={"Name": "string", "Age": "integer"}
        )
        db.define_class(
            "Employee", parents=["Person"], attributes={"Number": "integer"}
        )
        for i in range(40):
            db.create("Person", Name=f"p{i}", Age=i)
        for i in range(10):
            db.create("Employee", Name=f"e{i}", Age=30 + i, Number=i)
        return db

    @staticmethod
    def _entry(fragment):
        [entry] = [
            e for e in _stats.REGISTRY.snapshot() if fragment in e["text"]
        ]
        return entry

    def test_scan_counts_the_extent(self, staff, enabled):
        staff.query("select E.Name from E in Employee where E.Number = 3")
        staff.query("select E.Name from E in Employee where E.Number = 3")
        entry = self._entry("E.Number = 3")
        assert entry["rows_returned"] == 2
        assert entry["rows_scanned"] == 2 * 10
        assert entry["serial"] == 2 and entry["scattered"] == 0

    def test_probe_counts_its_candidates(self, staff, enabled):
        staff.create_index("Employee", "Number")
        staff.create_ordered_index("Person", "Age")
        staff.query("select E.Name from E in Employee where E.Number = 3")
        assert self._entry("E.Number = 3")["rows_scanned"] == 1
        # A superclass index: only candidates that are members count.
        staff.query("select E.Name from E in Employee where E.Age >= 38")
        entry = self._entry("E.Age >= 38")
        assert (entry["rows_returned"], entry["rows_scanned"]) == (2, 2)

    def test_view_stack_scans_then_probes(self, staff, enabled):
        from repro.core import View

        low, top = View("Low"), View("Top")
        low.import_database(staff)
        top.import_database(low)
        text = "select E.Name from E in Employee where E.Number = 3"
        assert top.query(text) == ["e3"]
        assert self._entry("E.Number = 3")["rows_scanned"] == 10
        staff.create_index("Employee", "Number")
        assert top.query(text) == ["e3"]
        entry = self._entry("E.Number = 3")
        assert entry["kind"] == "View"
        assert (entry["rows_returned"], entry["rows_scanned"]) == (2, 11)

    def test_nested_population_query_keeps_its_own_count(
        self, staff, enabled
    ):
        from repro.core import View

        view = View("V")
        view.import_database(staff)
        view.define_virtual_class(
            "Senior", includes=["select P from Person where P.Age >= 35"]
        )
        assert len(view.query("select S.Name from S in Senior")) == 10
        # The population query is a statement of its own (50 persons
        # examined); the outer one examined Senior's 10 members.
        assert self._entry("P.Age >= 35")["rows_scanned"] == 50
        assert self._entry("S in Senior")["rows_scanned"] == 10

    def test_explain_leaves_nothing_behind(self, staff, enabled):
        from repro.obs.explain import explain_analyze

        explain_analyze("select P from P in Person", staff)  # unrecorded
        staff.query("select E from E in Employee")
        assert self._entry("E in Employee")["rows_scanned"] == 10

    def test_statements_report_shows_scanned(self, staff, enabled):
        staff.query("select E.Name from E in Employee where E.Number = 3")
        report = _stats.REGISTRY.describe()
        assert "scanned" in report.splitlines()[0]
        row = report.splitlines()[2].split()
        assert row[4:6] == ["1", "10"]  # rows returned, rows scanned

    def test_wire_op_and_prometheus_carry_scanned(self):
        srv = ViewServer([build_people_db(20, seed=13)])
        host, port = srv.start()
        try:
            with Client(host, port) as c:
                c.execute("select P.Name from P in Person where P.Age >= 0")
                entry = next(
                    e for e in c.call("statements")["statements"]
                    if "P.Age >= 0" in e["text"]
                )
                assert entry["rows_scanned"] == entry["rows_returned"] == 20
                text = c.metrics_text()
        finally:
            srv.stop()
        [line] = [
            line for line in text.splitlines()
            if line.startswith("repro_statement_rows_total")
            and 'direction="scanned"' in line and "P.Age >= 0" in line
        ]
        assert line.endswith(" 20")
