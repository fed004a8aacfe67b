"""Shared fixtures: canned traces and a scriptable local HTTP server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from treeprm.synthetic import trace_from_values


@pytest.fixture
def clean_trace():
    return trace_from_values([50, 80, 80], problem_id="demo-clean")


@pytest.fixture
def corrupted_trace():
    # Planted -60 at step 2: 50, 70 (should be 130), 150 (should be 210).
    return trace_from_values([50, 80, 80], error_plan=((2, -60),), problem_id="demo-bad")


class _FakeState:
    """Mutable behavior knobs for the fake endpoint."""

    def __init__(self):
        self.lock = threading.Lock()
        self.request_count = 0
        self.chat_requests: list[dict] = []
        self.tool_requests: list[str] = []
        self.fail_next = 0
        self.chat_responder = lambda body: "Objective: do nothing\nAction: nothing"
        self.tool_responder = lambda query: f"evaluated({query})"
        self.raw_tool_responder = None  # overrides tool_responder with the whole reply text
        self.raw_chat_responder = None  # overrides chat_responder with a full JSON body


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep test output quiet
        pass

    def _respond(self, payload: bytes, status: int = 200):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _maybe_fail(self, state) -> bool:
        with state.lock:
            if state.fail_next > 0:
                state.fail_next -= 1
                self._respond(b'{"error": "injected"}', status=500)
                return True
        return False

    def do_POST(self):
        state = self.server.state
        with state.lock:
            state.request_count += 1
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        with state.lock:
            state.chat_requests.append(
                {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
            )
        if self._maybe_fail(state):
            return
        if state.raw_chat_responder is not None:
            self._respond(json.dumps(state.raw_chat_responder(body)).encode("utf-8"))
            return
        content = state.chat_responder(body)
        payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        self._respond(json.dumps(payload).encode("utf-8"))

    def do_GET(self):
        state = self.server.state
        with state.lock:
            state.request_count += 1
        query = parse_qs(urlparse(self.path).query).get("query", [""])[0]
        with state.lock:
            state.tool_requests.append(query)
        if self._maybe_fail(state):
            return
        if state.raw_tool_responder is not None:
            self._respond(state.raw_tool_responder(query).encode("utf-8"))
            return
        self._respond(json.dumps({"result": state.tool_responder(query)}).encode("utf-8"))


class FakeServer:
    def __init__(self):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.httpd.state = _FakeState()
        self.thread = threading.Thread(
            target=lambda: self.httpd.serve_forever(poll_interval=0.02), daemon=True
        )
        self.thread.start()

    @property
    def state(self) -> _FakeState:
        return self.httpd.state

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def shutdown(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def fake_server():
    server = FakeServer()
    yield server
    server.shutdown()


@pytest.fixture
def other_fake_server():
    """A second server on its own port, for runs that differ only in URL."""
    server = FakeServer()
    yield server
    server.shutdown()
