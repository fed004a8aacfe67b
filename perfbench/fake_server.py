"""Fake remote endpoints for the remote workloads, run as a separate process.

Serves the four remote roles of a treeprm run on one port:

  POST /generator  chat completion proposing the next running-sum step
  GET  /tool       echoes the query back as {"result": query}
  POST /judger     chat completion with the correct \\boxed{+/-} verdict
  POST /scorer     chat completion with the correct \\boxed{+/-} verdict

Answers come from the running-sum domain: the addends are parsed from the
problem statement and the last running total from the rendered prior steps.
The k-th generator request for a given body returns variant k, a
deterministic function of the body and k, so expansions branch and some
steps are wrong. Every request sleeps LATENCY_S (2 ms) before answering and
is counted per role. Two control paths are not counted: GET /_stats returns
the counts, POST /_reset zeroes them and the per-body variant counters.

Each response is written with one send. Writing the headers and the body in
two sends on a keep-alive connection lets delayed ACK stall every request by
tens of milliseconds, far above the injected latency.

Usage: python3 fake_server.py [--port N]
The server binds port N on 127.0.0.1, an ephemeral one when N is 0 (the
default), and the first line on stdout is "PORT <n>". A run's outputs depend
on the endpoint URLs, through the config hash, so a server that replaces
another one passes the port of the first.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

ROLES = ("generator", "tool", "judger", "scorer")
LATENCY_S = 0.002

# Every WRONG_EVERY-th generator variant states a wrong running total, offset
# by one of WRONG_DELTAS. The pattern depends only on the variant number and
# the step position, so a tree's shape depends on the problem's size and not
# on its addends.
WRONG_EVERY = 4
WRONG_DELTAS = (7, -7, 13)

_ADDENDS_RE = re.compile(r"after each addition: ([-\d, ]+)\. What is the final total\?")
_STEP_RE = re.compile(r"^Step (\d+): .*? -- running total = (-?\d+)", re.MULTILINE)


def parse_addends(text: str) -> list[int]:
    match = _ADDENDS_RE.search(text)
    if match is None:
        raise ValueError("prompt has no running-sum problem statement")
    return [int(value) for value in match.group(1).split(",")]


def rendered_steps(text: str) -> list[tuple[int, int]]:
    """(index, stated running total) for every rendered step, in prompt order."""
    return [(int(index), int(total)) for index, total in _STEP_RE.findall(text)]


def next_step(body: str, variant: int) -> str:
    """Variant `variant` of the step that continues the prior steps in `body`."""
    addends = parse_addends(body)
    prior = rendered_steps(body)
    position = len(prior) + 1
    if position > len(addends):
        raise ValueError("no addend left to continue with")
    addend = addends[position - 1]
    total = (prior[-1][1] if prior else 0) + addend
    if (variant + position) % WRONG_EVERY == WRONG_EVERY - 1:
        total += WRONG_DELTAS[variant // WRONG_EVERY % len(WRONG_DELTAS)]
    action = f"running total = {total}"
    if position == len(addends):
        action += f"; final answer = {total}"
    return f"Objective: Add {addend} to the running total\nAction: {action}"


def verdict(body: str) -> str:
    """Correct verdict on the last rendered step, the one under review."""
    addends = parse_addends(body)
    steps = rendered_steps(body)
    if not steps:
        raise ValueError("prompt has no step under review")
    index, stated = steps[-1]
    previous = steps[-2][1] if len(steps) > 1 and steps[-2][0] == index - 1 else 0
    expected = previous + addends[index - 1]
    mark = "+" if stated == expected else "-"
    return (f"Recomputed the running total: {previous} + {addends[index - 1]} = {expected}; "
            f"the step states {stated}. The step is: \\boxed{{{mark}}}")


class FakeState:
    def __init__(self, latency_s: float):
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.counts = dict.fromkeys(ROLES, 0)
        self.variants: dict[str, int] = {}

    def count(self, role: str) -> None:
        with self.lock:
            self.counts[role] += 1

    def next_variant(self, body: str) -> int:
        with self.lock:
            variant = self.variants.get(body, 0)
            self.variants[body] = variant + 1
        return variant

    def reset(self) -> dict:
        with self.lock:
            counts = dict(self.counts)
            self.counts = dict.fromkeys(ROLES, 0)
            self.variants.clear()
        return counts


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, *args):
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def _serve(self, role: str, answer) -> None:
        state = self.server.state
        state.count(role)
        time.sleep(state.latency_s)
        try:
            payload = answer()
        except (ValueError, KeyError, IndexError, TypeError) as err:
            self._send(400, {"error": str(err)})
            return
        self._send(200, payload)

    def do_GET(self):
        url = urlparse(self.path)
        if url.path == "/_stats":
            with self.server.state.lock:
                counts = dict(self.server.state.counts)
            self._send(200, counts)
        elif url.path == "/tool":
            query = parse_qs(url.query).get("query", [""])[0]
            self._serve("tool", lambda: {"result": query})
        else:
            self._send(404, {"error": f"unknown path {url.path}"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        state = self.server.state
        role = self.path.strip("/")
        if role == "_reset":
            self._send(200, state.reset())
            return
        if role not in ("generator", "judger", "scorer"):
            self._send(404, {"error": f"unknown path {self.path}"})
            return

        def answer() -> dict:
            body = json.loads(raw)["messages"][-1]["content"]
            if role == "generator":
                content = next_step(body, state.next_variant(body))
            else:
                content = verdict(body)
            return {"choices": [{"message": {"role": "assistant", "content": content}}]}

        self._serve(role, answer)


class FakeServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, latency_s: float, port: int = 0):
        super().__init__(("127.0.0.1", port), Handler)
        self.state = FakeState(latency_s)

    def handle_error(self, request, client_address):
        # A client that was stopped mid-request is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    server = FakeServer(LATENCY_S, parser.parse_args().port)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
