"""Tests for the async pipelined server (repro.server.aio).

The contract under test: many in-flight requests per connection,
responses matched by request id (arriving out of order), barrier
semantics giving read-your-writes through group commit, both wire
formats, and backpressure that pauses instead of dropping.
"""

import socket
import struct
import threading
import time

import pytest

from repro.bench.harness import server_metrics_table
from repro.engine.oid import Oid
from repro.server import (
    AsyncViewServer,
    Client,
    PipelinedClient,
    ServerError,
    ViewServer,
)
from repro.server.aio import framing
from repro.server.protocol import (
    ConnectionClosed,
    ProtocolError,
    recv_frame,
)
from repro.workloads import build_people_db


@pytest.fixture
def aserver():
    srv = AsyncViewServer([build_people_db(20, seed=1)])
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture(params=[False, True], ids=["json", "binary"])
def pclient(request, aserver):
    host, port = aserver.address
    with PipelinedClient(host, port, binary=request.param) as c:
        yield c


def _recv_exact(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, "connection closed mid-frame"
        data += chunk
    return data


def _recv_binary_frame(sock):
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    return framing.decode_response(_recv_exact(sock, length))


class TestBinaryValueCodec:
    def test_roundtrips_every_wire_type(self):
        value = {
            "none": None,
            "flags": [True, False],
            "small": 7,
            "negative": -1234,
            "big": 2**77,  # arbitrary precision survives
            "float": 3.25,
            "text": "héllo wörld",
            "oid": Oid("Staff", 7),
            "kids": {Oid("Staff", 1), Oid("Staff", 2)},
            "nested": [1, "two", None, {"x": 3.5, "y": [{"z": -1}]}],
        }
        assert framing.decode_value(framing.encode_value(value)) == value

    def test_rejects_opaque_values(self):
        with pytest.raises(ProtocolError):
            framing.encode_value(object())

    def test_trailing_bytes_are_an_error(self):
        data = framing.encode_value(42) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            framing.decode_value(data)

    def test_depth_cap_on_encode(self):
        value = []
        for _ in range(framing.MAX_DEPTH + 5):
            value = [value]
        with pytest.raises(ProtocolError, match="nests deeper"):
            framing.encode_value(value)

    def test_depth_cap_on_decode_no_recursion_error(self):
        # 200 hand-built nested single-element lists around a none.
        data = (b"l\x01" * 200) + b"N"
        with pytest.raises(ProtocolError, match="nests deeper"):
            framing.decode_value(data)


class TestBinaryFrames:
    def test_request_roundtrip(self):
        request = {"id": 9, "op": "execute", "line": "select 1"}
        frame = framing.encode_request(request)
        (length,) = framing.LENGTH.unpack(frame[:4])
        assert length == len(frame) - 4
        assert framing.decode_request(frame[4:]) == request

    def test_request_id_must_be_positive(self):
        with pytest.raises(ProtocolError, match="id"):
            framing.encode_request({"op": "ping"})
        with pytest.raises(ProtocolError, match="id"):
            framing.encode_request({"id": 0, "op": "ping"})

    def test_response_roundtrips_result_and_error(self):
        ok = {"id": 3, "ok": True, "result": {"output": "x"}}
        err = {
            "id": 4,
            "ok": False,
            "error": {"code": "timeout", "message": "too slow"},
        }
        for frame in (ok, err):
            data = framing.encode_response(frame)
            assert framing.decode_response(data[4:]) == frame

    def test_short_body_is_an_error(self):
        with pytest.raises(ProtocolError, match="shorter"):
            framing.decode_header(b"\x01")


class TestBasicOps:
    def test_ping_and_databases(self, pclient):
        assert pclient.ping() == "pong"
        assert pclient.databases() == ["Staff"]

    def test_execute_select(self, pclient):
        out = pclient.execute("select P from Person where P.Age >= 0")
        assert "result(s)" in out

    def test_mutation_wrappers(self, pclient):
        oid = pclient.create("Staff", "Person", {"Name": "Zed", "Age": 50})
        assert isinstance(oid, Oid)
        pclient.update("Staff", oid, "Age", 51)
        out = pclient.execute("select P.Age from P in Person where P.Name = 'Zed'")
        assert "51" in out
        pclient.delete("Staff", oid)
        out = pclient.execute("select P from Person where P.Name = 'Zed'")
        assert out == "(no results)"

    def test_stats_carries_pipeline_block(self, pclient):
        stats = pclient.stats()
        pipeline = stats["pipeline"]
        assert set(pipeline) == {
            "inflight_current",
            "inflight_peak_connection",
            "backpressure_pauses",
        }
        assert pipeline["inflight_current"] >= 1  # this stats request

    def test_error_frame_keeps_connection(self, pclient):
        with pytest.raises(ServerError) as info:
            pclient.call("frobnicate")
        assert info.value.code == "unknown_op"
        assert pclient.ping() == "pong"

    def test_engine_error_maps_to_stable_code(self, pclient):
        with pytest.raises(ServerError) as info:
            pclient.create("Staff", "NoSuchClass", {})
        assert info.value.code == "unknown_class_error"
        assert pclient.ping() == "pong"

    def test_traces_and_metrics_ops(self, pclient):
        pclient.execute("select P from Person where P.Age > 10")
        assert isinstance(pclient.traces(5), list)
        text = pclient.metrics_text()
        assert "repro_server_inflight_requests" in text


class TestPipelining:
    def test_responses_matched_by_request_id(self, pclient):
        # Distinct queries submitted together, collected in reverse
        # submission order: each reply must carry *its* answer.
        names = [f"{n}_{i}" for i, n in enumerate(
            ["Alice", "Bob", "Carol", "Dan", "Eve", "Frank"]
        )]
        replies = [
            pclient.submit(
                "execute",
                line=f"select P.Name from P in Person where P.Name = '{name}'",
            )
            for name in names
        ]
        for name, reply in reversed(list(zip(names, replies))):
            assert name in reply.result(10)["output"]

    def test_cheap_requests_overtake_expensive_ones(self, monkeypatch):
        # The reader thread resolves replies in arrival order; record
        # it. The slow request is slow by construction, not by size: a
        # query function that blocks until the five pings behind it
        # have been answered — so the order cannot depend on timing.
        from repro.server.aio.client import PendingReply

        arrival = []
        original = PendingReply._resolve

        def recording(self, result=None, error=None):
            arrival.append(self.request_id)
            original(self, result=result, error=error)

        monkeypatch.setattr(PendingReply, "_resolve", recording)
        gate = threading.Event()
        entered = threading.Event()

        def held(_person):
            entered.set()
            assert gate.wait(10), "the pings never overtook the query"
            return 1

        db = build_people_db(5, seed=1)
        db.register_function("held", held)
        srv = AsyncViewServer([db])
        host, port = srv.start()
        try:
            with PipelinedClient(host, port) as c:
                c.ping()  # warm the executor
                slow = c.submit(
                    "execute",
                    line="select P.Name from P in Person where held(P) = 0",
                )
                assert entered.wait(10)  # the query is running, and stuck
                fast = [c.submit("ping") for _ in range(5)]
                for reply in fast:
                    assert reply.result(10) == "pong"
                assert not slow.done()
                gate.set()
                assert slow.result(10)["output"] == "(no results)"
            assert arrival[-6:] == [r.request_id for r in fast] + [
                slow.request_id
            ]
        finally:
            gate.set()
            srv.stop()

    def test_read_your_writes_through_group_commit(self, pclient, aserver):
        # Writes are barriers: a read pipelined *behind* a write on the
        # same connection (no waiting in between) must see it.
        for index in range(5):
            write = pclient.submit(
                "create",
                database="Staff",
                **{"class": "Person"},
                value={"Name": f"W{index}", "Age": 40 + index},
            )
            read = pclient.submit(
                "execute",
                line=(
                    "select P.Age from P in Person"
                    f" where P.Name = 'W{index}'"
                ),
            )
            assert write.result(10)["oid"]
            assert str(40 + index) in read.result(10)["output"]
        snap = aserver.metrics.snapshot()
        assert snap["mvcc"]["group_batches"] >= 1
        assert snap["pipeline"]["inflight_peak_connection"] >= 2

    def test_interleaved_update_then_select(self, pclient):
        oid = pclient.create("Staff", "Person", {"Name": "Mut", "Age": 1})
        write = pclient.submit(
            "update",
            database="Staff",
            oid={"$oid": [oid.space, oid.number]},
            attribute="Age",
            value=2,
        )
        read = pclient.submit(
            "execute",
            line="select P.Age from P in Person where P.Name = 'Mut'",
        )
        write.result(10)
        assert "2" in read.result(10)["output"]

    def test_harness_table_reports_pipelining(self, pclient, aserver):
        replies = [pclient.submit("ping") for _ in range(8)]
        for reply in replies:
            reply.result(10)
        rendered = server_metrics_table(aserver.metrics).render()
        assert "pipelining: peak" in rendered

    def test_client_side_inflight_cap(self, aserver):
        host, port = aserver.address
        with PipelinedClient(host, port, max_inflight=4) as c:
            replies = [c.submit("ping") for _ in range(20)]
            assert all(r.result(10) == "pong" for r in replies)
            assert c.inflight == 0


class TestBackpressure:
    def test_inflight_cap_pauses_reading_not_failing(self):
        srv = AsyncViewServer(
            [build_people_db(100, seed=1)], max_inflight=2
        )
        host, port = srv.start()
        try:
            with PipelinedClient(host, port) as c:
                replies = [
                    c.submit(
                        "execute",
                        line="select P from Person where P.Age >= 0",
                    )
                    for _ in range(12)
                ]
                for reply in replies:
                    assert "result(s)" in reply.result(30)["output"]
            snap = srv.metrics.snapshot()
            pauses = snap["pipeline"]["backpressure_pauses"]
            assert pauses.get("inflight", 0) >= 1
            assert sum(snap["errors"].values()) == 0
        finally:
            srv.stop()

    def test_write_high_water_counts_pauses(self):
        # Unit-level: a connection whose outbound buffer sits above the
        # high-water mark must count a "write" pause when answered (the
        # kernel's TCP buffer autotuning makes the real condition
        # impractical to provoke deterministically from a test).
        import asyncio

        from repro.server.aio.server import _Connection

        srv = AsyncViewServer(
            [build_people_db(5, seed=1)], write_high_water=64
        )

        class SwollenTransport:
            def is_closing(self):
                return False

            def get_write_buffer_size(self):
                return 1 << 20

        class FakeWriter:
            transport = SwollenTransport()
            written = b""

            def write(self, data):
                self.written += data

            async def drain(self):
                pass

        async def scenario():
            conn = _Connection(None, FakeWriter(), None)
            await srv._send(conn, b"x" * 100)
            await srv._send(conn, b"y" * 100)

        asyncio.run(scenario())
        pauses = srv.metrics.snapshot()["pipeline"]["backpressure_pauses"]
        assert pauses.get("write", 0) == 2

    def test_connection_limit_refuses_with_busy_frame(self):
        srv = AsyncViewServer(
            [build_people_db(5, seed=1)], max_connections=1
        )
        host, port = srv.start()
        try:
            with PipelinedClient(host, port) as c:
                c.ping()  # the one allowed connection, registered
                raw = socket.create_connection((host, port), timeout=5)
                try:
                    # Refusals arrive before codec negotiation: JSON.
                    frame = recv_frame(raw)
                    assert frame["ok"] is False
                    assert frame["error"]["code"] == "server_busy"
                finally:
                    raw.close()
            assert srv.metrics.snapshot()["connections"]["rejected"] >= 1
        finally:
            srv.stop()


class TestCodecNegotiation:
    def test_plain_client_speaks_json_to_async_server(self, aserver):
        host, port = aserver.address
        with Client(host, port) as c:
            assert c.ping() == "pong"
            assert "result(s)" in c.execute(
                "select P from Person where P.Age >= 21"
            )

    def test_threaded_server_refuses_binary_magic(self):
        srv = ViewServer([build_people_db(5, seed=1)])
        host, port = srv.start()
        raw = socket.create_connection((host, port), timeout=5)
        try:
            raw.sendall(framing.MAGIC)
            frame = recv_frame(raw)
            assert frame["ok"] is False
            assert "binary framing" in frame["error"]["message"]
        finally:
            raw.close()
            srv.stop()

    def test_async_server_can_disable_binary(self):
        srv = AsyncViewServer([build_people_db(5, seed=1)], binary=False)
        host, port = srv.start()
        raw = socket.create_connection((host, port), timeout=5)
        try:
            raw.sendall(framing.MAGIC)
            frame = recv_frame(raw)
            assert frame["ok"] is False
            assert "disabled" in frame["error"]["message"]
        finally:
            raw.close()
            srv.stop()

    def test_sessions_are_private_per_connection(self, aserver):
        host, port = aserver.address
        with PipelinedClient(host, port) as first:
            first.execute("create view V;")
            first.execute("import all classes from database Staff;")
            with PipelinedClient(host, port, binary=True) as second:
                assert second.databases() == ["Staff"]
            assert "V" in first.databases()


class TestShutdown:
    def test_stop_is_idempotent_and_drains(self):
        srv = AsyncViewServer([build_people_db(5, seed=1)])
        host, port = srv.start()
        c = PipelinedClient(host, port)
        assert c.ping() == "pong"
        srv.stop()
        srv.stop()
        with pytest.raises((ConnectionClosed, ServerError, OSError)):
            for _ in range(5):
                c.ping()
                time.sleep(0.05)
        c.close()

    def test_context_manager_lifecycle(self):
        with AsyncViewServer([build_people_db(5, seed=1)]) as srv:
            host, port = srv.address
            with PipelinedClient(host, port, binary=True) as c:
                assert c.ping() == "pong"
