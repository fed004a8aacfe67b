"""Shared fixtures: canned traces and a scriptable local HTTP server."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock
from urllib.parse import parse_qs, urlparse

import pytest

from treeprm.dataset import STAGE_THREAD_NAME
from treeprm.mcts import SearchResult
from treeprm.synthetic import trace_from_values


@pytest.fixture(autouse=True)
def no_stage_thread_left():
    """Fails a test that leaves a stage thread running: a stage joins its
    threads before it returns."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith(STAGE_THREAD_NAME)]
    assert not alive, f"stage threads still running: {alive}"


@pytest.fixture
def all_rounds():
    """A context manager that takes the early stop out of `run_search`: inside
    it `open_nodes` always reads 1, so every search runs all R rounds. This is
    the reference that the stopped search must match."""
    return mock.patch.object(SearchResult, "open_nodes",
                             property(lambda self: 1, lambda self, value: None))


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
        self.tool_paths: list[str] = []
        self.fail_next = 0
        self.fail_when = lambda body: False  # a POST body answered with HTTP 500
        self.close_after_reply = False  # drop each connection without `Connection: close`
        self.protocol_version = "HTTP/1.1"  # "HTTP/1.0" ends each connection after its reply
        self.chat_responder = lambda body: "Objective: do nothing\nAction: nothing"
        self.tool_responder = lambda query: f"evaluated({query})"
        self.raw_tool_responder = None  # overrides tool_responder with the whole reply text
        self.raw_chat_responder = None  # overrides chat_responder with a full JSON body
        # Given the reply body, the pieces of a hand-framed reply that replaces
        # the handler's own; each goes out in its own write after a pause.
        self.raw_reply = None


class _Handler(BaseHTTPRequestHandler):
    disable_nagle_algorithm = True  # headers and body go in two sends

    @property
    def protocol_version(self) -> str:  # HTTP/1.1 keeps alive unless a reply says otherwise
        return self.server.state.protocol_version

    def log_message(self, *args):  # keep test output quiet
        pass

    def _respond(self, payload: bytes, status: int = 200):
        if self.server.state.raw_reply is not None:
            for piece in self.server.state.raw_reply(payload):
                time.sleep(0.002)
                self.wfile.write(piece)
        else:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        if self.server.state.close_after_reply:
            self.close_connection = True

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
        raw = self.rfile.read(length)
        body = json.loads(raw or b"{}")
        with state.lock:
            state.chat_requests.append({"path": self.path, "body": body, "raw": raw,
                                        "auth": self.headers.get("Authorization"),
                                        "client": self.client_address})
        if self._maybe_fail(state):
            return
        if state.fail_when(body):
            self._respond(b'{"error": "injected"}', status=500)
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
            state.tool_paths.append(self.path)
        if self._maybe_fail(state):
            return
        if state.raw_tool_responder is not None:
            self._respond(state.raw_tool_responder(query).encode("utf-8"))
            return
        self._respond(json.dumps({"result": state.tool_responder(query)}).encode("utf-8"))


class _ShortBacklogServer(ThreadingHTTPServer):
    """Listens with a backlog of 1, so a burst of connects overflows it and
    the dropped ones wait about 1 s for a SYN retransmit."""

    request_queue_size = 1


class FakeServer:
    def __init__(self, server_class=ThreadingHTTPServer):
        self.httpd = server_class(("127.0.0.1", 0), _Handler)
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


@pytest.fixture
def short_backlog_server():
    """The fake endpoint behind a listen backlog of 1."""
    server = FakeServer(_ShortBacklogServer)
    yield server
    server.shutdown()
