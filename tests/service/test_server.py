"""Tests for the NDJSON socket server and its reference client."""

import json
import socket
import time

import pytest

from repro.service import (
    FillService,
    ServiceError,
    ServiceServer,
    SocketClient,
)

from .conftest import CONFIG_MAPPING, RULES_MAPPING


@pytest.fixture
def server(tmp_path):
    with FillService() as svc:
        with ServiceServer(svc, socket_path=str(tmp_path / "repro.sock")) as srv:
            yield srv


def open_session(client, gds_bytes):
    return client.request(
        "open_session",
        gds=gds_bytes,
        windows=4,
        rules=RULES_MAPPING,
        config=CONFIG_MAPPING,
    )["session"]


class TestUnixSocket:
    def test_full_roundtrip(self, server, gds_bytes):
        with SocketClient(**server.client_args()) as client:
            assert client.request("ping")["pong"] is True
            sid = open_session(client, gds_bytes)
            filled = client.request("fill", session=sid)
            assert isinstance(filled["gds"], bytes)
            assert filled["gds"][:2] == b"\x00\x06"
            assert filled["num_fills"] > 0

    def test_batch_over_socket(self, server, gds_bytes):
        with SocketClient(**server.client_args()) as client:
            sid = open_session(client, gds_bytes)
            responses = client.batch(
                [
                    {"op": "fill", "session": sid},
                    {"op": "eco_delta", "session": sid,
                     "wires": {"1": [[50, 50, 250, 90]]}},
                    {"op": "drc_audit", "session": sid},
                ]
            )
            assert [r["ok"] for r in responses] == [True, True, True]
            assert responses[1]["result"]["new_wires"] == 1

    def test_error_response_raises(self, server):
        with SocketClient(**server.client_args()) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.request("fill", session="s404")
            assert exc_info.value.error_type == "UnknownSessionError"

    def test_two_clients_interleave(self, server, gds_bytes):
        with SocketClient(**server.client_args()) as a:
            with SocketClient(**server.client_args()) as b:
                sid_a = open_session(a, gds_bytes)
                sid_b = open_session(b, gds_bytes)
                assert sid_a != sid_b
                fill_a = a.request("fill", session=sid_a)
                fill_b = b.request("fill", session=sid_b)
                # identical inputs, independent sessions: identical bytes
                assert fill_a["gds"] == fill_b["gds"]

    def test_malformed_line_gets_protocol_error(self, server):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10.0)
        raw.connect(server.socket_path)
        try:
            raw.sendall(b"this is not json\n")
            response = raw.makefile("rb").readline()
            assert b'"ProtocolError"' in response
            assert b'"ok":false' in response
        finally:
            raw.close()

    def test_oversized_line_is_answered_once(self, server, monkeypatch):
        # the server reads a line in chunks of the limit + 1 bytes; the
        # tail of an oversized line must not count as more requests
        monkeypatch.setattr("repro.service.server.MAX_LINE_BYTES", 64)
        monkeypatch.setattr("repro.service.protocol.MAX_LINE_BYTES", 64)
        long_ping = json.dumps({"id": 1, "op": "ping", "pad": "x" * 170}).encode()
        assert len(long_ping) > 3 * 65
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10.0)
            raw.connect(server.socket_path)
            with raw.makefile("rb") as replies:
                raw.sendall(long_ping + b"\n" + b'{"id": 2, "op": "ping"}\n')
                first = json.loads(replies.readline())
                assert first["id"] is None
                assert first["error"]["type"] == "ProtocolError"
                assert json.loads(replies.readline())["id"] == 2
                raw.sendall(b'{"id": 3, "op": "ping"}\n')
                assert json.loads(replies.readline())["id"] == 3

    def test_finished_connections_are_forgotten(self, server):
        for _ in range(20):
            with SocketClient(**server.client_args()) as client:
                assert client.request("ping")["pong"] is True
        deadline = time.monotonic() + 10.0
        while server._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._conns == {}

    def test_shutdown_op_signals_serve_loop(self, server):
        with SocketClient(**server.client_args()) as client:
            assert client.shutdown() == {"stopping": True}
        assert server.wait_shutdown(10.0)

    def test_stop_with_open_client_returns_at_once(self, tmp_path):
        # closing a socket wakes neither accept() nor readline(): stop()
        # shuts them down, so it needs no join timeout to return
        with FillService() as svc:
            server = ServiceServer(svc, socket_path=str(tmp_path / "repro.sock")).start()
            with SocketClient(**server.client_args()) as client:
                assert client.request("ping")["pong"] is True
                start = time.perf_counter()
                server.stop()
                assert time.perf_counter() - start < 1.0


class TestTcpSocket:
    def test_roundtrip_on_ephemeral_port(self, gds_bytes):
        with FillService() as svc:
            with ServiceServer(svc, port=0) as server:
                assert server.port not in (None, 0)
                with SocketClient(port=server.port) as client:
                    sid = open_session(client, gds_bytes)
                    assert client.request("drc_audit", session=sid)["count"] == 0


class TestConstruction:
    def test_exactly_one_transport(self):
        svc = FillService()
        with pytest.raises(ValueError):
            ServiceServer(svc)
        with pytest.raises(ValueError):
            ServiceServer(svc, socket_path="a.sock", port=1234)

    def test_client_needs_exactly_one_transport(self):
        with pytest.raises(ValueError):
            SocketClient()
        with pytest.raises(ValueError):
            SocketClient(socket_path="a.sock", port=1234)

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = tmp_path / "stale.sock"
        path.write_bytes(b"")  # a dead socket from a previous run
        with FillService() as svc:
            with ServiceServer(svc, socket_path=str(path)) as server:
                with SocketClient(**server.client_args()) as client:
                    assert client.request("ping")["pong"] is True
