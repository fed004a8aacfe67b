"""The remote wire format: exact request bodies and response-cache file names.

One `generate`, one `verify` and one `score` in each scorer mode run against
the local fake server with one cache directory. The cache names were recorded
when the key came to cover the prompt a request sends (its reader's kind, its
sample index and the fields on the wire) rather than a hand-picked part of
it; every name moved then, on purpose. A later change to what a key holds
(which would silently invalidate every warm cache) fails here. So does a key
that again leaves out part of the prompt: two prompts that differ only in a
step objective, a statement or a system preamble each get their own entry.

The client's connection handling is pinned here too: the raw body bytes, a
tool URL that carries a query, one pool of connections per origin that runs
one connect at a time, a kept-alive connection the server dropped, and
TLS failures. So is its HTTP/1.1: the
exact head lines of a GET and a POST (recorded from the standard library's
`http.client`, which the client replaced), one write per request, each way
a reply is framed and when it ends the connection, and broken replies.
"""

import json
import math
import socket
import sys
import tempfile
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeprm.backends.base import BackendConfig, BackendError
from treeprm.backends.remote import (
    ChatCompletionGenerator,
    ServedPrmScorer,
    ToolVerifier,
    _Connection,
    _Endpoint,
)
from treeprm.backends.templates import PromptTemplate
from treeprm.backends.transport import FileResponseCache, cache_key, host_origins
from treeprm.domain import Problem, ReasoningStep, parse_verdict_marker

PROBLEM = Problem(id="q1", statement="Add 2 and 3.", gold_answer="5")
STATE = (ReasoningStep(index=1, objective="add", action="2 + 3 = 5"),)
CANDIDATE = ReasoningStep(index=2, objective="finish", action="Final Answer: 5", is_final=True)

GENERATOR_T = PromptTemplate("gen-role", "P: {problem}\nS: {prior_steps}")
JUDGER_T = PromptTemplate(
    "judge-role", "P: {problem}\nS: {prior_steps}\nC: {candidate_step}\nT: {tool_response}"
)
SCORER_T = PromptTemplate("score-role", "P: {problem}\nS: {prior_steps}\nC: {candidate_step}")

GENERATOR_USER = "P: Add 2 and 3.\nS: Step 1: add -- 2 + 3 = 5"
JUDGER_USER = (
    "P: Add 2 and 3.\nS: Step 1: add -- 2 + 3 = 5\nC: Step 2: finish -- Final Answer: 5\n"
    "T: evaluated(Final Answer: 5)"
)
SCORER_USER = "P: Add 2 and 3.\nS: Step 1: add -- 2 + 3 = 5\nC: Step 2: finish -- Final Answer: 5"

# sha256 cache keys of the chat requests below, in request order.
GENERATOR_KEYS = [
    "04a0393fcd2d8c74f19cdaf59858e928af689c1be9ef94e885fdbd2eef3547c7",
    "c6390d11ebb1aa04e60a765c864628474563eb8c57f71afdf74c9823d6f9a7cb",
]
JUDGER_KEY = "2a01acb2c8bdac51d69546cb9850670dd21f7a6bc9891efd0ab37900fcb33ab7"
SCORER_LABEL_KEY = "5d000187c1ac6e634759fda38c70bb488dd091069791458fd7b53918a66a09e9"
SCORER_LIKELIHOOD_KEY = "5279c47e046c8f9b46aacb4d1baf3144d0e72b309344898afa465570265caec0"


def _cfg(url, **overrides):
    values = dict(endpoint_url=url, model_name="test-model", temperature=0.7, timeout_s=5.0,
                  max_retries=0, rate_limit_rps=1000.0)
    values.update(overrides)
    return BackendConfig(**values)


def _reply(body):
    choice = {"message": {"role": "assistant",
                          "content": "Objective: add\nAction: 2 + 3 = 5 \\boxed{+}"}}
    if body.get("logprobs"):
        choice["logprobs"] = {"content": [{
            "token": "+",
            "logprob": math.log(0.6),
            "top_logprobs": [{"token": "+", "logprob": math.log(0.6)},
                             {"token": "-", "logprob": math.log(0.2)}],
        }]}
    return {"choices": [choice]}


def _run_all_roles(url, cache_dir):
    chat = f"{url}/v1/chat/completions"
    cache = FileResponseCache(cache_dir)
    generator = ChatCompletionGenerator(_cfg(chat), GENERATOR_T, cache=cache)
    verifier = ToolVerifier(
        _cfg(f"{url}/tool"),
        _cfg(chat, model_name="judge-model", temperature=0.0),
        JUDGER_T,
        cache=cache,
    )
    label = ServedPrmScorer(_cfg(chat, model_name="prm"), SCORER_T, cache=cache, mode="label")
    likelihood = ServedPrmScorer(_cfg(chat, model_name="prm"), SCORER_T, cache=cache,
                                 mode="likelihood")
    return (
        generator.generate(PROBLEM, STATE, 2),
        verifier.verify(PROBLEM, CANDIDATE, STATE),
        label.score(PROBLEM, STATE, CANDIDATE),
        likelihood.score(PROBLEM, STATE, CANDIDATE),
    )


def _chat_body(model, system, user, temperature, **extra):
    return {
        "model": model,
        "messages": [{"role": "system", "content": system}, {"role": "user", "content": user}],
        "temperature": temperature,
        "n": 1,
        **extra,
    }


def test_request_bodies_and_cache_names_are_pinned(fake_server, tmp_path):
    fake_server.state.raw_chat_responder = _reply
    cache_dir = tmp_path / "cache"
    steps, verdict, label_score, likelihood_score = _run_all_roles(fake_server.url, str(cache_dir))

    assert [s.action for s in steps] == ["2 + 3 = 5 \\boxed{+}"] * 2
    assert verdict.label == 1
    assert label_score == 1.0
    assert math.isclose(likelihood_score, 0.5)

    generator_body = _chat_body("test-model", "gen-role", GENERATOR_USER, 0.7)
    scorer_body = _chat_body("prm", "score-role", SCORER_USER, 0.7, logprobs=False)
    expected = [
        generator_body,
        generator_body,
        _chat_body("judge-model", "judge-role", JUDGER_USER, 0.0),
        scorer_body,
        {**scorer_body, "logprobs": True},
    ]
    bodies = [request["body"] for request in fake_server.state.chat_requests]
    assert bodies == expected
    # Key order on the wire, not only equal content.
    assert [list(body) for body in bodies] == [list(body) for body in expected]
    assert [request["path"] for request in fake_server.state.chat_requests] == \
        ["/v1/chat/completions"] * 5
    assert fake_server.state.tool_requests == ["Final Answer: 5"]

    tool_key = cache_key(("tool", 0, "/tool", "Final Answer: 5"))
    keys = GENERATOR_KEYS + [tool_key, JUDGER_KEY, SCORER_LABEL_KEY, SCORER_LIKELIHOOD_KEY]
    (log,) = cache_dir.iterdir()
    assert log.suffix == ".log"
    assert sorted(FileResponseCache(cache_dir)._index) == sorted(keys)


def test_warm_cache_replays_every_role_without_requests(fake_server, tmp_path):
    fake_server.state.raw_chat_responder = _reply
    cache_dir = str(tmp_path / "cache")
    cold = _run_all_roles(fake_server.url, cache_dir)
    sent = fake_server.state.request_count
    assert sent == 6
    assert _run_all_roles(fake_server.url, cache_dir) == cold
    assert fake_server.state.request_count == sent


ROLES = ["generate", "verify", "score-label", "score-likelihood"]
BASE_CALL = {"id": "q1", "statement": "Add 2 and 3.", "objective": "add",
             "action": "2 + 3 = 5", "preamble": "role-a", "count": 1}


def _call(role, url, cache, call):
    """One call of `role` on the prompt parts in `call`. The drawn step is the
    prior step of `generate` and the candidate of the other roles."""
    chat = _cfg(f"{url}/v1/chat/completions")
    problem = Problem(id=call["id"], statement=call["statement"], gold_answer="5")
    step = ReasoningStep(index=1, objective=call["objective"], action=call["action"])
    if role == "generate":
        template = replace(GENERATOR_T, role_preamble=call["preamble"])
        generator = ChatCompletionGenerator(chat, template, cache=cache)
        return generator.generate(problem, (step,), call["count"])
    if role == "verify":
        template = replace(JUDGER_T, role_preamble=call["preamble"])
        return ToolVerifier(_cfg(f"{url}/tool"), chat, template, cache=cache).verify(
            problem, step, ())
    template = replace(SCORER_T, role_preamble=call["preamble"])
    scorer = ServedPrmScorer(chat, template, cache=cache, mode=role.removeprefix("score-"))
    return scorer.score(problem, (), step)


def _verdict(role, result):
    if role == "generate":
        return parse_verdict_marker(result[0].action)
    return result.label if role == "verify" else result


@pytest.mark.parametrize("role", ["generate", "verify", "score-label"])
@pytest.mark.parametrize("first, second", [
    ({"objective": "guess"}, {"objective": "check"}),
    ({"statement": "Add 2 and 3."}, {"statement": "Add 2 and 3, then stop."}),
    ({"preamble": "role-a"}, {"preamble": "role-b"}),
], ids=["step-objective", "statement-under-one-id", "system-preamble"])
def test_prompts_that_differ_anywhere_keep_their_own_replies(
        fake_server, tmp_path, role, first, second):
    """The server gives its first chat request a `+` verdict and every later
    one a `-`, so a second prompt served from the first one's entry would
    come back `+`."""
    answered = []

    def respond(body):
        answered.append(body)
        return f"Objective: o\nAction: \\boxed{{{'+' if len(answered) == 1 else '-'}}}"

    fake_server.state.chat_responder = respond
    calls = [{**BASE_CALL, **first}, {**BASE_CALL, **second}]
    cold = [_verdict(role, _call(role, fake_server.url, FileResponseCache(tmp_path), call))
            for call in calls]
    assert cold == [1, -1]
    assert len(answered) == 2 and answered[0] != answered[1]
    tool_entries = 1 if role == "verify" else 0
    assert len(FileResponseCache(tmp_path)._index) == 2 + tool_entries

    warm = [_verdict(role, _call(role, fake_server.url, FileResponseCache(tmp_path), call))
            for call in calls]
    assert warm == cold
    assert len(answered) == 2


prompt_parts = st.fixed_dictionaries({
    "id": st.sampled_from(["q1", "q2"]),
    "statement": st.sampled_from(["Add 2 and 3.", "Add 3 and 2."]),
    "objective": st.sampled_from(["add", "check"]),
    "action": st.sampled_from(["2 + 3 = 5", "3 + 2 = 5"]),
    "preamble": st.sampled_from(["role-a", "role-b"]),
    "count": st.sampled_from([1, 2]),
})


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(ROLES), prompt_parts, prompt_parts)
def test_two_calls_share_an_entry_exactly_when_they_send_the_same_bytes(
        fake_server, role, first, second):
    """Each call runs once without a cache, which records the raw body of
    every request it sends, then both run over one empty cache. A chat entry
    is one (body bytes, sample index) of the role; the tool's is its query."""
    fake_server.state.raw_chat_responder = _reply
    sent = fake_server.state.chat_requests
    calls = [first, second]
    if role != "generate":
        calls = [{**call, "count": 1} for call in calls]
    chat_entries = set()
    for call in calls:
        start = len(sent)
        _call(role, fake_server.url, None, call)
        chat_entries |= {(request["raw"], index)
                         for index, request in enumerate(sent[start:])}
    tool_entries = {call["action"] for call in calls} if role == "verify" else set()
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = FileResponseCache(cache_dir)
        for call in calls:
            _call(role, fake_server.url, cache, call)
        assert len(FileResponseCache(cache_dir)._index) == len(chat_entries) + len(tool_entries)


def test_post_body_is_json_dumps_without_nan_as_utf8(fake_server):
    fake_server.state.raw_chat_responder = _reply
    problem = Problem(id="q2", statement="Add 2 and 3 — in €.", gold_answer="5")
    generator = ChatCompletionGenerator(_cfg(f"{fake_server.url}/v1/chat/completions"),
                                        GENERATOR_T)
    generator.generate(problem, (), 1)
    body = _chat_body("test-model", "gen-role", "P: Add 2 and 3 — in €.\nS: (none yet)", 0.7)
    (request,) = fake_server.state.chat_requests
    assert request["raw"] == json.dumps(body, allow_nan=False).encode()


def test_tool_query_is_appended_to_a_query_in_the_endpoint_url(fake_server):
    fake_server.state.raw_chat_responder = _reply
    chat = f"{fake_server.url}/v1/chat/completions"
    verifier = ToolVerifier(_cfg(f"{fake_server.url}/tool?key=k1"), _cfg(chat), JUDGER_T)
    verifier.verify(PROBLEM, CANDIDATE, STATE)
    assert fake_server.state.tool_paths == ["/tool?key=k1&query=Final+Answer%3A+5"]


def test_a_connection_the_server_dropped_is_resent_without_a_retry(fake_server):
    """The server closes each connection after its reply without saying so,
    so every request after the first meets a dead kept-alive connection."""
    fake_server.state.raw_chat_responder = _reply
    fake_server.state.close_after_reply = True
    sleeps = []
    generator = ChatCompletionGenerator(
        _cfg(f"{fake_server.url}/v1/chat/completions", rate_limit_rps=1e6), GENERATOR_T,
        sleep_fn=sleeps.append,
    )
    for _ in range(3):
        assert len(generator.generate(PROBLEM, STATE, 2)) == 2
    assert fake_server.state.request_count == 6
    assert sleeps == []


def test_https_to_a_plain_http_server_is_a_retryable_request_failure(fake_server):
    sleeps = []
    url = fake_server.url.replace("http://", "https://") + "/v1/chat/completions"
    generator = ChatCompletionGenerator(
        _cfg(url, max_retries=1, timeout_s=0.5, rate_limit_rps=1e6), GENERATOR_T,
        sleep_fn=sleeps.append,
    )
    with pytest.raises(BackendError, match="exhausted 2 attempts; last error: request failed"):
        generator.generate(PROBLEM, STATE, 1)
    assert sleeps == [0.5]
    assert fake_server.state.request_count == 0


def _record_connects(monkeypatch) -> list:
    """The address of every `socket.create_connection` from now on."""
    connects = []
    connect = socket.create_connection

    def recording_connect(address, *args, **kwargs):
        connects.append(address)
        return connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", recording_connect)
    return connects


def _under_fast_switching(threads: list[threading.Thread]) -> None:
    """Start and join `threads` with the interpreter switching threads every
    few microseconds, and check that each ended."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_the_connections_to_an_origin_never_outnumber_the_exchanges_in_flight(
        fake_server, monkeypatch):
    """Six threads generate and verify, through one generator and one verifier
    whose three endpoints share an origin. No more connections open than the
    most exchanges that were ever in flight at once, which a connection per
    endpoint and thread would exceed."""
    fake_server.state.raw_chat_responder = _reply
    chat = _cfg(f"{fake_server.url}/v1/chat/completions", rate_limit_rps=1e6)
    tool = _cfg(f"{fake_server.url}/tool", rate_limit_rps=1e6)
    origins = host_origins([chat, tool])
    generator = ChatCompletionGenerator(chat, GENERATOR_T, origins=origins)
    verifier = ToolVerifier(tool, chat, JUDGER_T, origins=origins)
    connects = _record_connects(monkeypatch)
    lock = threading.Lock()
    in_flight, peak = [0], [0]
    send = _Endpoint._send

    def counted_send(endpoint, *args):
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        try:
            return send(endpoint, *args)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(_Endpoint, "_send", counted_send)
    answers = []

    def work():
        steps = generator.generate(PROBLEM, STATE, 5)
        answers.append((len(steps), verifier.verify(PROBLEM, CANDIDATE, STATE).label))

    _under_fast_switching([threading.Thread(target=work) for _ in range(6)])
    assert answers == [(5, 1)] * 6
    assert fake_server.state.request_count == 6 * (5 + 2)
    assert 1 <= len(connects) <= peak[0] <= 6


def _peak_unanswered(monkeypatch) -> list:
    """[the most connections that were ever open at once and had not yet
    read a reply], counted from now on."""
    lock = threading.Lock()
    unanswered, peak = set(), [0]
    connect, reply = socket.create_connection, _Connection.reply

    def counted_connect(*args, **kwargs):
        sock = connect(*args, **kwargs)
        with lock:
            unanswered.add(sock.getsockname())
            peak[0] = max(peak[0], len(unanswered))
        return sock

    def counted_reply(connection, line):
        name = connection.sock.getsockname()
        try:
            return reply(connection, line)
        finally:
            with lock:
                unanswered.discard(name)

    monkeypatch.setattr(socket, "create_connection", counted_connect)
    monkeypatch.setattr(_Connection, "reply", counted_reply)
    return peak


def test_one_new_connection_at_a_time_waits_for_its_first_reply(fake_server, monkeypatch):
    """Eight threads send to one origin at once, whose server keeps
    connections alive; at no moment are two connections open that have not
    yet read a reply."""
    fake_server.state.raw_chat_responder = _reply
    generator = ChatCompletionGenerator(
        _cfg(f"{fake_server.url}/v1/chat/completions", rate_limit_rps=1e6), GENERATOR_T)
    peak = _peak_unanswered(monkeypatch)
    answers = []
    _under_fast_switching([
        threading.Thread(target=lambda: answers.append(len(generator.generate(PROBLEM, STATE, 3))))
        for _ in range(8)])
    assert answers == [3] * 8
    assert fake_server.state.request_count == 24
    assert peak[0] == 1


def test_a_server_that_ends_each_connection_gets_at_most_six_unanswered(
        fake_server, monkeypatch):
    """Eight threads send to one origin at once, whose HTTP/1.0 server ends
    each connection after its reply, so every exchange connects: more than
    one connection waits for its reply at some moment, never more than six."""
    fake_server.state.protocol_version = "HTTP/1.0"
    fake_server.state.raw_chat_responder = lambda body: time.sleep(0.01) or _reply(body)
    generator = ChatCompletionGenerator(
        _cfg(f"{fake_server.url}/v1/chat/completions", rate_limit_rps=1e6), GENERATOR_T)
    peak = _peak_unanswered(monkeypatch)
    answers = []
    _under_fast_switching([
        threading.Thread(target=lambda: answers.append(len(generator.generate(PROBLEM, STATE, 3))))
        for _ in range(8)])
    assert answers == [3] * 8
    assert fake_server.state.request_count == 24
    assert 1 < peak[0] <= 6


@pytest.mark.parametrize("failure", ["refused", "dropped"])
def test_a_new_connection_that_fails_lets_the_next_request_connect(
        fake_server, monkeypatch, failure):
    """The first connect is refused, or the server closes the first
    connection without a reply. Either failure ends that connect's turn, so
    the retry opens another connection rather than waiting for ever."""
    fake_server.state.raw_chat_responder = _reply
    fake_server.state.close_after_reply = True
    dropped = []
    if failure == "refused":
        connect = socket.create_connection

        def refuse_the_first(*args, **kwargs):
            if not dropped:
                dropped.append(args)
                raise ConnectionRefusedError("refused")
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", refuse_the_first)
    else:
        def drop_the_first(payload):
            if not dropped:
                dropped.append(payload)
                return []
            return _sized(b"HTTP/1.1 200 OK")(payload)

        fake_server.state.raw_reply = drop_the_first
    sleeps, answers = [], []
    generator = ChatCompletionGenerator(
        _cfg(f"{fake_server.url}/v1/chat/completions", max_retries=1, rate_limit_rps=1e6),
        GENERATOR_T, sleep_fn=sleeps.append)
    thread = threading.Thread(target=lambda: answers.append(generator.generate(PROBLEM, STATE, 1)),
                              daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [[step.action for step in steps] for steps in answers] == [["2 + 3 = 5 \\boxed{+}"]]
    assert sleeps == [0.5] and dropped
    assert fake_server.state.request_count == {"refused": 1, "dropped": 2}[failure]


def test_a_verifier_whose_tool_and_judger_share_an_origin_uses_one_connection(
        fake_server, monkeypatch):
    fake_server.state.raw_chat_responder = _reply
    connects = _record_connects(monkeypatch)
    tool = _cfg(f"{fake_server.url}/tool")
    judger = _cfg(f"{fake_server.url}/v1/chat/completions")
    verifier = ToolVerifier(tool, judger, JUDGER_T, origins=host_origins([tool, judger]))
    for _ in range(2):
        assert verifier.verify(PROBLEM, CANDIDATE, STATE).label == 1
    assert fake_server.state.request_count == 4
    assert len(connects) == 1


def test_each_endpoint_keeps_its_timeout_on_a_shared_connection(fake_server, monkeypatch):
    """The tool (5 s) opens the origin's one connection; the judger's request
    on it still times out after the judger's 0.1 s."""
    fake_server.state.raw_chat_responder = lambda body: time.sleep(0.3) or _reply(body)
    connects = _record_connects(monkeypatch)
    tool = _cfg(f"{fake_server.url}/tool", timeout_s=5.0)
    judger = _cfg(f"{fake_server.url}/v1/chat/completions", timeout_s=0.1)
    verifier = ToolVerifier(tool, judger, JUDGER_T, origins=host_origins([tool, judger]))
    with pytest.raises(BackendError, match="last error: request failed: timed out"):
        verifier.verify(PROBLEM, CANDIDATE, STATE)
    assert fake_server.state.tool_requests == ["Final Answer: 5"]
    assert len(connects) == 1


class _RawServer:
    """A bare socket server that records each request as it arrives: its
    head lines and its body. It serves each connection on its own thread and
    answers every request with one canned reply framed by `Content-Length`,
    which serves as the tool's reply and as a chat reply."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.requests: list[tuple[list[str], bytes]] = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        reply = json.dumps({"result": "evaluated(Final Answer: 5)", **_reply({})}).encode()
        reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                 b"Content-Length: %d\r\n\r\n" % len(reply) + reply)
        with conn, conn.makefile("rb") as reader:
            while request_line := reader.readline():
                lines = [request_line.decode("latin-1").rstrip("\r\n")]
                while field := reader.readline().decode("latin-1").rstrip("\r\n"):
                    lines.append(field)
                length = [int(h.split(":")[1]) for h in lines if h.startswith("Content-Length:")]
                self.requests.append((lines, reader.read(length[0]) if length else b""))
                conn.sendall(reply)

    def close(self):
        self.listener.close()


@pytest.fixture
def raw_server():
    server = _RawServer()
    yield server
    server.close()


@pytest.fixture
def client_writes(monkeypatch, raw_server):
    """Every `sendall` that a socket connected to `raw_server` makes."""
    writes = []
    real = socket.socket.sendall

    def recording(sock, data, *args):
        if sock.getpeername()[1] == raw_server.port:
            writes.append(bytes(data))
        return real(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    return writes


def _verify_with_token(url, monkeypatch):
    monkeypatch.setenv("TREEPRM_TEST_TOKEN", "secret-token")
    token = {"auth_token_env_var": "TREEPRM_TEST_TOKEN"}
    chat = _cfg(f"{url}/v1/chat/completions", **token)
    ToolVerifier(_cfg(f"{url}/tool", **token), chat, JUDGER_T).verify(PROBLEM, CANDIDATE, STATE)


def test_request_heads_are_pinned(raw_server, monkeypatch):
    """The exact head lines of a GET and a POST, in order, with a token."""
    _verify_with_token(raw_server.url, monkeypatch)
    host = f"Host: 127.0.0.1:{raw_server.port}"
    (tool_head, tool_body), (judge_head, judge_body) = raw_server.requests
    assert tool_head == [
        "GET /tool?query=Final+Answer%3A+5 HTTP/1.1",
        host,
        "Accept-Encoding: identity",
        "Content-Type: application/json",
        "Authorization: Bearer secret-token",
    ]
    assert tool_body == b""
    assert judge_head == [
        "POST /v1/chat/completions HTTP/1.1",
        host,
        "Accept-Encoding: identity",
        f"Content-Length: {len(judge_body)}",
        "Content-Type: application/json",
        "Authorization: Bearer secret-token",
    ]
    assert json.loads(judge_body) == _chat_body("test-model", "judge-role", JUDGER_USER, 0.7)


@pytest.mark.parametrize("url, host", [
    ("http://example.com/v1", "example.com"),
    ("http://example.com:80/v1", "example.com"),
    ("https://example.com/v1", "example.com"),
    ("https://example.com:8443/v1", "example.com:8443"),
    ("http://[::1]:8000/v1", "[::1]:8000"),
])
def test_the_host_line_names_a_port_only_off_the_scheme_default(url, host):
    head = _Endpoint(_cfg(url))._request("GET", "/v1", None).decode().split("\r\n")
    assert head[1] == f"Host: {host}"


def test_a_token_or_url_that_would_break_the_head_is_refused(monkeypatch):
    monkeypatch.setenv("TREEPRM_TEST_TOKEN", "secret\r\nX-Injected: 1")
    endpoint = _Endpoint(_cfg("http://127.0.0.1:1/v1", auth_token_env_var="TREEPRM_TEST_TOKEN"))
    with pytest.raises(ValueError, match="TREEPRM_TEST_TOKEN holds a line break"):
        endpoint._request("POST", "/v1", {"n": 1})
    with pytest.raises(ValueError, match="space or control character"):
        _Endpoint(_cfg("http://127.0.0.1:1/v1/chat completions"))


def test_each_request_goes_out_in_one_write(raw_server, client_writes, monkeypatch):
    for _ in range(2):
        _verify_with_token(raw_server.url, monkeypatch)
    assert len(raw_server.requests) == 4
    assert len(client_writes) == 4
    for write, (head, body) in zip(client_writes, raw_server.requests):
        assert write == "\r\n".join([*head, "", ""]).encode() + body


def _pieces(wire: bytes, size: int = 7) -> list[bytes]:
    """`wire` cut every `size` bytes, so that lines, chunk sizes, chunk data
    and CRLFs each straddle the client's reads."""
    return [wire[start:start + size] for start in range(0, len(wire), size)]


def _chunked(payload: bytes) -> list[bytes]:
    first, rest = payload[:10], payload[10:]
    return _pieces(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   + b"%x;name=value\r\n%s\r\n" % (len(first), first)
                   + b"%X\r\n%s\r\n" % (len(rest), rest)
                   + b"0\r\nX-Trailer: t\r\n\r\n")


def _sized(head: bytes, extra: int = 0):
    """A reply with `head` (the status line and any fields) framed by a
    `Content-Length` `extra` bytes longer than the body."""
    return lambda payload: [head + b"\r\nContent-Length: %d\r\n\r\n" % (len(payload) + extra),
                            payload]


def _generate_twice(fake_server, sleeps, **overrides):
    """Two samples on one thread, with any backoff's sleeps put in `sleeps`."""
    fake_server.state.raw_chat_responder = _reply
    generator = ChatCompletionGenerator(
        _cfg(f"{fake_server.url}/v1/chat/completions", rate_limit_rps=1e6, **overrides),
        GENERATOR_T, sleep_fn=sleeps.append,
    )
    return generator.generate(PROBLEM, STATE, 2)


def _connections(fake_server) -> int:
    return len({request["client"] for request in fake_server.state.chat_requests})


@pytest.mark.parametrize("raw_reply", [
    _chunked,
    _sized(b"HTTP/1.1 200 OK"),
    _sized(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Type: application/json"),
], ids=["chunked-straddling-reads", "content-length", "after-interim-100"])
def test_a_framed_reply_keeps_the_connection(fake_server, raw_reply):
    fake_server.state.raw_reply = raw_reply
    sleeps = []
    steps = _generate_twice(fake_server, sleeps)
    assert [step.action for step in steps] == ["2 + 3 = 5 \\boxed{+}"] * 2
    assert fake_server.state.request_count == 2 and sleeps == []
    assert _connections(fake_server) == 1


@pytest.mark.parametrize("raw_reply, server_closes", [
    (_sized(b"HTTP/1.1 200 OK\r\nConnection: close"), False),
    (_sized(b"HTTP/1.0 200 OK"), False),
    (lambda payload: [b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n", payload],
     True),
], ids=["connection-close", "http-1.0", "close-delimited"])
def test_a_reply_that_ends_the_connection_is_read_whole_and_the_next_opens_a_new_one(
        fake_server, raw_reply, server_closes):
    """The server keeps the first two kinds open, so a client that kept them
    would send its second request on the first connection."""
    fake_server.state.raw_reply = raw_reply
    fake_server.state.close_after_reply = server_closes
    sleeps = []
    steps = _generate_twice(fake_server, sleeps)
    assert [step.action for step in steps] == ["2 + 3 = 5 \\boxed{+}"] * 2
    assert fake_server.state.request_count == 2 and sleeps == []
    assert _connections(fake_server) == 2


@pytest.mark.parametrize("raw_reply, fault", [
    (lambda payload: [b"garbage\r\n\r\n"], "bad status line"),
    (_sized(b"HTTP/1.1 200 OK", extra=10), "reply cut short"),
    (lambda payload: [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"],
     "bad length"),
], ids=["garbage-status-line", "body-cut-short", "bad-chunk-size"])
def test_a_broken_reply_is_a_retryable_request_failure(fake_server, raw_reply, fault):
    fake_server.state.raw_reply = raw_reply
    fake_server.state.close_after_reply = True
    sleeps = []
    with pytest.raises(BackendError,
                       match=f"exhausted 2 attempts; last error: request failed: {fault}"):
        _generate_twice(fake_server, sleeps, max_retries=1)
    assert sleeps == [0.5]
    assert fake_server.state.request_count == 2
