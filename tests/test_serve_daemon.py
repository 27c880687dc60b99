"""The daemon's HTTP handler writes each response in a single write.

A response split into a header write and a body write stalls keep-alive
clients: Nagle's algorithm holds the small body segment until the
client's delayed ACK.  The test drives the real handler over in-memory
streams and counts writes, so it asserts the mechanism without timing
anything.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

from repro.serve.daemon import _Handler


class RecordingWriter:
    """A ``wfile`` stand-in that keeps every ``write`` call separately."""

    def __init__(self):
        self.writes: list = []

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


class StubService:
    def stats(self) -> dict:
        return {"jobs": {}}


def serve(raw: bytes) -> list:
    """Run the handler's keep-alive loop over *raw*; the recorded writes."""
    handler = _Handler.__new__(_Handler)
    handler.server = SimpleNamespace(service=StubService(), verbose=False)
    handler.client_address = ("127.0.0.1", 0)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = RecordingWriter()
    handler.close_connection = True
    handler.handle()
    return handler.wfile.writes


def split_response(data: bytes) -> tuple:
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode().split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return status_line, headers, body


class TestOneWritePerResponse:
    def test_each_keep_alive_response_is_one_write(self):
        writes = serve(
            b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert len(writes) == 2
        for data, expected in zip(writes, ({"ok": True}, {"jobs": {}})):
            status_line, headers, body = split_response(data)
            assert status_line == "HTTP/1.1 200 OK"
            assert int(headers["Content-Length"]) == len(body)
            assert json.loads(body) == expected

    def test_error_responses_are_one_write_too(self):
        (data,) = serve(b"GET /v1/nowhere HTTP/1.1\r\nHost: t\r\n\r\n")
        status_line, headers, body = split_response(data)
        assert status_line.startswith("HTTP/1.1 400")
        assert int(headers["Content-Length"]) == len(body)
        assert json.loads(body)["error_kind"] == "config"
