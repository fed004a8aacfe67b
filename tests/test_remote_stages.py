"""A stage with a remote backend runs eight times `--workers` problems at once.

Each problem's calls run in order on its own stage thread, and the fake
endpoints below vary a reply only by how many times its body has arrived, so
the files, the per-role request counts and the error records of a stage do
not depend on how many problems run at once. One test holds each problem's
first generator call until eight problems have made theirs at `--workers 1`,
which a stage that runs fewer problems at once runs into the hold's time
bound. A stage joins its threads and sends nothing after it returns. Its
threads share the connections of each origin, which a later stage of the
command reuses and which are all closed when the command returns. They
connect one at a time, so a server with a listen backlog of 1 stalls none
of them, and a server that closes every connection after its reply still
serves many of them at once.
"""

import json
import re
import socket
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from treeprm import cli
from treeprm.backends import remote
from treeprm.cli import main
from treeprm.dataset import STAGE_THREAD_NAME

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth.json"
HOLD_S = 10.0  # how long a held call waits at most for the other problems
ADDENDS = {"r1": (4, 7, 9, 5), "r2": (12, 3, 8)}
FOUR_PROBLEMS = {**ADDENDS, "r3": (6, 2), "r4": (3, 5, 1)}
NINE_PROBLEMS = {**FOUR_PROBLEMS, **{f"r{n}": (n, 2, n + 1) for n in range(5, 10)}}
ROLE_PREAMBLES = {"generator": "You are a careful", "judger": "You are a strict",
                  "scorer": "You are a process reward model"}

_STEP_RE = re.compile(r"^Step (\d+): .* -- running total = (-?\d+)", re.MULTILINE)


def _section(user: str, title: str) -> str:
    """The text under `title:` in a rendered prompt, up to the next blank line."""
    return user.split(f"{title}:\n", 1)[1].split("\n\n", 1)[0]


def _role(body: dict) -> str:
    system = body["messages"][0]["content"]
    return next(role for role, preamble in ROLE_PREAMBLES.items() if system.startswith(preamble))


def _addends(statement: str) -> list[int]:
    return [int(value) for value in re.findall(r"\d+", statement.split(" one at")[0])]


def _statement(addends: tuple[int, ...]) -> str:
    return f"Add {', '.join(map(str, addends))} one at a time, keeping a running total."


def _mark(statement: str, prior: str, candidate: str) -> str:
    """+ when the candidate states the right running total after `prior`."""
    addends = _addends(statement)
    steps = _STEP_RE.findall(prior)
    index, total = _STEP_RE.match(candidate).groups()
    expected = (int(steps[-1][1]) if steps else 0) + addends[int(index) - 1]
    return "+" if int(total) == expected else "-"


class RunningSums:
    """Chat endpoints on the fake server for the running-sum problems above.

    Step k adds the k-th addend and states the running total, and the last
    step also states the final answer. With `branching`, the second ask of
    one generator prompt states a total one too high, so each position of a
    decode with N=2 has two distinct candidates; without it every ask gets
    the right step. The judger and the scorer check the stated total, and
    `unreadable(candidate)` makes the scorer reply with no verdict.
    """

    def __init__(self, state, branching=False, unreadable=lambda candidate: False):
        self.branching = branching
        self.unreadable = unreadable
        self.lock = threading.Lock()
        self.asked = Counter()  # (statement, prior steps) -> generator asks
        state.chat_responder = self.respond

    def respond(self, body: dict) -> str:
        user = body["messages"][1]["content"]
        statement = _section(user, "Problem")
        role = _role(body)
        if role == "generator":
            return self._next_step(statement, _section(user, "Steps taken so far"))
        if role == "judger":
            prior, candidate = (_section(user, "Steps accepted so far"),
                                _section(user, "Step under review"))
            mark = _mark(statement, prior, candidate)
            return f"Rechecked the total. The step is: \\boxed{{{mark}}}"
        prior = _section(user, "Steps taken so far")
        candidate = _section(user, "Candidate next step")
        if self.unreadable(candidate):
            return "No verdict today."
        return f"\\boxed{{{_mark(statement, prior, candidate)}}}"

    def _next_step(self, statement: str, prior: str) -> str:
        addends = _addends(statement)
        steps = _STEP_RE.findall(prior)
        position = len(steps) + 1
        with self.lock:
            wrong = self.branching and self.asked[(statement, prior)] % 2
            self.asked[(statement, prior)] += 1
        total = (int(steps[-1][1]) if steps else 0) + addends[position - 1] + wrong
        objective, action = f"add {addends[position - 1]}", f"running total = {total}"
        if position == len(addends):
            action += f"\nFinal Answer: {total}"
        return f"Objective: {objective}\nAction: {action}"


class ProblemHold:
    """Holds the first generator call of each problem in the client, before
    any connection is taken, for at most HOLD_S, until `count` distinct
    problems have made theirs. A wait that runs out is recorded in
    `timeouts`, and nothing is held after it, so a stage that runs fewer
    problems at once still ends.

    The hold sits in the client because an origin of a server that keeps
    connections alive lets in a new connection only after the last one's
    first reply: a server that held first replies until `count` problems
    asked would never see them.
    """

    def __init__(self, monkeypatch, count: int):
        self.count = count
        self.condition = threading.Condition()
        self.problems = set()  # statements the generator has been asked about
        self.held = 0
        self.timeouts = []
        samples = remote.ChatCompletionGenerator.samples

        def held_samples(generator, problem, state, indices):
            self._hold(problem.statement)
            yield from samples(generator, problem, state, indices)

        monkeypatch.setattr(remote.ChatCompletionGenerator, "samples", held_samples)

    def _hold(self, statement: str) -> None:
        with self.condition:
            if statement in self.problems or self.timeouts:
                return
            self.problems.add(statement)
            self.condition.notify_all()
            self.held += 1
            if not self.condition.wait_for(
                    lambda: len(self.problems) >= self.count or self.timeouts, timeout=HOLD_S):
                self.timeouts.append(statement)
                self.condition.notify_all()


def _config(tmp_path: Path, url: str, judger_retries: int = 0,
            generator_retries: int = 0, problems: dict = ADDENDS, cache: bool = True) -> Path:
    problems_file = tmp_path / "problems.jsonl"
    problems_file.write_text("".join(
        json.dumps({"id": problem_id, "statement": _statement(addends),
                    "gold_answer": str(sum(addends))}) + "\n"
        for problem_id, addends in problems.items()), encoding="utf-8")
    chat = {"endpoint_url": f"{url}/v1/chat/completions", "model_name": "fake",
            "max_retries": 0, "rate_limit_rps": 10000}
    tool = {"endpoint_url": f"{url}/tool", "max_retries": 0, "rate_limit_rps": 10000}
    config = {
        "search": {"exploration_c": 1.4142135623730951, "branch_K": 3, "decay_gamma": 0.9,
                   "outcome_beta": 0.5, "max_rounds_R": 6, "max_depth": 10, "rng_seed": 7},
        "decode": {"candidates_N": 2, "max_steps": 10, "pass_n": 2, "rng_seed": 7},
        "paths": {"output_dir": str(tmp_path / "out"), "problems_file": str(problems_file),
                  "cache_dir": str(tmp_path / "cache")},
        "backends": {
            "generator": dict(chat, kind="http", max_retries=generator_retries),
            "verifier": {"kind": "http", "tool": tool,
                         "judger": dict(chat, max_retries=judger_retries)},
            "scorer": {"kind": "http", **chat},
        },
        "workers": 2,
    }
    if not cache:
        del config["paths"]["cache_dir"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _files(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _role_counts(state) -> dict:
    counts = Counter(_role(request["body"]) for request in state.chat_requests)
    return dict(counts, tool=len(state.tool_requests))


def _bodies(state, *roles: str) -> Counter:
    """How many times each user message of `roles` went out."""
    return Counter((_role(request["body"]), request["body"]["messages"][1]["content"])
                   for request in state.chat_requests if _role(request["body"]) in roles)


def _tool_queries_per_problem(state) -> Counter:
    """Each tool query once per problem whose judger requests review a step
    with that action: what a run that asks each question once per problem
    sends to the tool."""
    asked = set()
    for _, user in _bodies(state, "judger"):
        candidate = _section(user, "Step under review")
        asked.add((_section(user, "Problem"), candidate.split(" -- ", 1)[1]))
    return Counter(query for _, query in asked)


@pytest.mark.parametrize("command", ["generate", "decode"])
def test_a_remote_stage_runs_eight_times_workers_problems_at_once(
        tmp_path, fake_server, monkeypatch, command):
    """At `--workers 1` a cold remote stage has eight problems in flight: the
    first generator call of each is held until eight have made theirs. It
    sends the requests and writes the files of a stage that runs one problem
    at a time, and a warm rerun writes the same files with no request."""
    state = fake_server.state
    RunningSums(state, branching=True)
    one = tmp_path / "one"
    one.mkdir()
    with monkeypatch.context() as sequential:
        sequential.setattr(cli, "_stage_threads", lambda cfg, roles, problems: 1)
        assert main([command, "--config",
                     str(_config(one, fake_server.url, problems=NINE_PROBLEMS)),
                     "--output", str(one / "out")]) == 0
    sent = _role_counts(state)
    state.chat_requests.clear()
    state.tool_requests.clear()

    RunningSums(state, branching=True)
    hold = ProblemHold(monkeypatch, 8)
    config = _config(tmp_path, fake_server.url, problems=NINE_PROBLEMS)
    assert main([command, "--config", str(config), "--workers", "1",
                 "--output", str(tmp_path / "cold")]) == 0
    assert hold.timeouts == []
    assert hold.held == len(NINE_PROBLEMS)
    assert _role_counts(state) == sent
    assert _files(tmp_path / "cold") == _files(one / "out")

    cold_requests = state.request_count
    assert main([command, "--config", str(config), "--workers", "1",
                 "--output", str(tmp_path / "warm")]) == 0
    assert state.request_count == cold_requests
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


def test_a_synth_stage_runs_workers_problems_at_once(tmp_path, monkeypatch):
    """No role of `synth` is remote, so each of its two stages starts
    exactly `--workers` threads."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    synth = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    synth["synthetic"]["count"] = 6
    (tmp_path / "synth.json").write_text(json.dumps(synth), encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--workers", "2",
                 "--output", str(tmp_path / "synth")]) == 0
    stage_threads = [f"{STAGE_THREAD_NAME}-{number}" for number in (0, 1)]
    assert started == stage_threads * 2  # generate's, then decode's


@pytest.mark.parametrize("problems, workers, threads", [
    (NINE_PROBLEMS, "1", 8),
    (FOUR_PROBLEMS, "2", 4),
], ids=["eight-times-workers", "one-per-problem"])
def test_a_remote_stage_starts_eight_times_workers_threads_cold_and_warm(
        tmp_path, fake_server, monkeypatch, problems, workers, threads):
    """Every role of these stages is remote, so each starts `8 * --workers`
    threads, but no more than it has problems, also when a warm cache
    answers all of its calls."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        if thread.name.startswith(STAGE_THREAD_NAME):
            started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    RunningSums(fake_server.state, branching=True)
    config = _config(tmp_path, fake_server.url, problems=problems)
    stage_threads = [f"{STAGE_THREAD_NAME}-{number}" for number in range(threads)]

    def run(output: str) -> int:
        for command in ("generate", "decode"):
            assert main([command, "--config", str(config), "--workers", workers,
                         "--output", str(tmp_path / output)]) == 0
            assert started == stage_threads
            started.clear()
        return fake_server.state.request_count

    cold_requests = run("cold")
    assert cold_requests > 0
    assert run("warm") == cold_requests
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


def test_a_warm_cache_replays_generate_against_a_server_on_another_port(
        tmp_path, fake_server, other_fake_server):
    """No cache key holds a host or a port, so a cache filled against one
    server answers every role of a run against another with no request."""
    RunningSums(fake_server.state, branching=True)
    config = _config(tmp_path, fake_server.url)
    assert main(["generate", "--config", str(config), "--output", str(tmp_path / "cold")]) == 0
    assert _role_counts(fake_server.state)["tool"] > 0
    config.write_text(config.read_text(encoding="utf-8").replace(
        fake_server.url, other_fake_server.url), encoding="utf-8")
    assert main(["generate", "--config", str(config), "--output", str(tmp_path / "warm")]) == 0
    assert _role_counts(other_fake_server.state) == {"tool": 0}
    assert other_fake_server.state.request_count == 0
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


def _record_connects(monkeypatch) -> list:
    """Every socket that `socket.create_connection` opens from now on."""
    opened = []
    connect = socket.create_connection

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(socket, "create_connection", recording_connect)
    return opened


def test_decode_reuses_generates_idle_connections_and_all_close_when_the_command_returns(
        tmp_path, fake_server, monkeypatch):
    """`synth` with a remote generator and scorer runs both stages over one
    origin; the connections that generate opened are still open when decode
    starts, decode sends on them, and every socket is closed once `main`
    returns."""
    fake_server.state.chat_responder = lambda body: (
        "Objective: guess\nAction: Final Answer: 0\n\\boxed{+}")
    opened = _record_connects(monkeypatch)
    at_decode = []
    decode = cli._decode

    def recording_decode(*args):
        at_decode.append(([sock.fileno() for sock in opened],
                          len(fake_server.state.chat_requests)))
        return decode(*args)

    monkeypatch.setattr(cli, "_decode", recording_decode)
    synth = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    synth["synthetic"]["count"] = 6
    chat = {"kind": "http", "endpoint_url": f"{fake_server.url}/v1/chat/completions",
            "model_name": "fake", "max_retries": 0, "rate_limit_rps": 10000}
    synth["backends"] = {"generator": chat, "scorer": chat}
    (tmp_path / "synth.json").write_text(json.dumps(synth), encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--workers", "1",
                 "--output", str(tmp_path / "synth")]) == 0
    ((generate_sockets, generate_requests),) = at_decode
    assert generate_sockets and -1 not in generate_sockets
    requests = fake_server.state.chat_requests
    clients = [{request["client"] for request in part}
               for part in (requests[:generate_requests], requests[generate_requests:])]
    assert clients[1] and clients[0] & clients[1]
    assert {sock.fileno() for sock in opened} == {-1}


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_every_socket_is_closed_when_main_returns(tmp_path, fake_server, monkeypatch, fails):
    """Also when the command raises: here a decode whose scorer cannot read
    a reply."""
    RunningSums(fake_server.state, branching=True, unreadable=lambda candidate: fails)
    opened = _record_connects(monkeypatch)
    config = _config(tmp_path, fake_server.url, problems=FOUR_PROBLEMS)
    for command, code in (("generate", 0), ("decode", int(fails))):
        assert main([command, "--config", str(config), "--workers", "2",
                     "--output", str(tmp_path / "out")]) == code
        assert opened and {sock.fileno() for sock in opened} == {-1}


def test_a_short_listen_backlog_stalls_no_request(tmp_path, short_backlog_server, monkeypatch):
    """Nine problems at `--workers 2` run on nine threads that all start at
    once, against a server whose listen backlog holds 2 connects: no
    exchange takes anywhere near the 1 s of a SYN retransmit, and generate
    and decode write the files of `--workers 1`."""
    durations = []
    send = remote._Endpoint._send

    def timed_send(endpoint, *args):
        started = time.perf_counter()
        try:
            return send(endpoint, *args)
        finally:
            durations.append(time.perf_counter() - started)

    monkeypatch.setattr(remote._Endpoint, "_send", timed_send)
    runs = []
    for workers in ("1", "2"):
        RunningSums(short_backlog_server.state, branching=True)
        root = tmp_path / workers
        root.mkdir()
        config = _config(root, short_backlog_server.url, problems=NINE_PROBLEMS)
        for command in ("generate", "decode"):
            assert main([command, "--config", str(config), "--workers", workers,
                         "--output", str(root / "out")]) == 0
        runs.append(_files(root / "out"))
    assert durations and max(durations) < 0.5
    assert runs[0] == runs[1]


@pytest.mark.parametrize("closing", ["http-1.0", "without-notice"])
def test_a_server_that_closes_each_connection_serves_many_exchanges_at_once(
        tmp_path, fake_server, closing):
    """Every exchange needs a connect of its own when the server closes each
    connection after its reply, as an HTTP/1.0 server does, or as one does
    that drops it without notice. The connects still come one at a time, but
    the exchanges overlap: at `--workers 2` the server has more than one
    chat request in hand at some moment."""
    state = fake_server.state
    if closing == "http-1.0":
        state.protocol_version = "HTTP/1.0"
    else:
        state.close_after_reply = True
    respond = RunningSums(state, branching=True).respond
    lock = threading.Lock()
    in_hand, peak = [0], [0]

    def counted_respond(body):
        with lock:
            in_hand[0] += 1
            peak[0] = max(peak[0], in_hand[0])
        try:
            time.sleep(0.01)
            return respond(body)
        finally:
            with lock:
                in_hand[0] -= 1

    state.chat_responder = counted_respond
    config = _config(tmp_path, fake_server.url, problems=NINE_PROBLEMS)
    for command in ("generate", "decode"):
        assert main([command, "--config", str(config), "--workers", "2",
                     "--output", str(tmp_path / "out")]) == 0
    assert peak[0] > 1


def _no_stage_thread_and_no_late_request(state) -> None:
    assert not [t for t in threading.enumerate() if t.name.startswith(STAGE_THREAD_NAME)]
    sent = state.request_count
    time.sleep(0.2)
    assert state.request_count == sent


def test_failures_give_the_records_of_the_sequential_stages(
        tmp_path, fake_server, monkeypatch, capsys):
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.0)
    state = fake_server.state
    RunningSums(state, branching=True,
                unreadable=lambda candidate: candidate == "Step 1: add 4 -- running total = 5")
    # Every attempt to judge step 2 of r1 fails; that step is first judged in
    # round 1's simulation.
    failing = "Step under review:\nStep 2: add 7 -- running total = 11\n"
    state.fail_when = lambda body: (_role(body) == "judger"
                                    and failing in body["messages"][1]["content"])
    config = _config(tmp_path, fake_server.url, judger_retries=1)

    assert main(["generate", "--config", str(config), "--output", str(tmp_path / "g")]) == 0
    error = (f"{fake_server.url}/v1/chat/completions: exhausted 2 attempts; "
             "last error: transient HTTP 500")
    summary = json.loads((tmp_path / "g" / "summary.json").read_text(encoding="utf-8"))
    assert summary["problem_errors"] == [
        {"problem_id": "r1", "round": round_index, "error": error} for round_index in range(1, 7)]
    _no_stage_thread_and_no_late_request(state)

    capsys.readouterr()
    assert main(["decode", "--config", str(config), "--output", str(tmp_path / "d")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DecodeError",
        "message": "scorer failed on problem r1 at step 1, distinct candidate 2 of 2: "
                   "unparseable PRM output for sample r1@1"}
    assert (tmp_path / "d" / "decode_results.jsonl").read_text(encoding="utf-8") == ""
    _no_stage_thread_and_no_late_request(state)


def test_a_generator_failing_on_the_root_state_is_sent_for_once(
        tmp_path, fake_server, monkeypatch, capsys):
    """The guided decode and every sample of r1 start from its root state;
    its failing request is sent max_retries + 1 times in all, and the record
    is the sequential stage's."""
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.0)
    state = fake_server.state
    RunningSums(state, branching=True)
    root = f"Problem:\n{_statement(ADDENDS['r1'])}\n\nSteps taken so far:\n(none yet)\n"
    state.fail_when = lambda body: (_role(body) == "generator"
                                    and root in body["messages"][1]["content"])
    config = _config(tmp_path, fake_server.url, generator_retries=1)

    assert main(["decode", "--config", str(config), "--output", str(tmp_path / "d")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "BackendError",
        "message": f"{fake_server.url}/v1/chat/completions: exhausted 2 attempts; "
                   "last error: transient HTTP 500"}
    assert sum(state.fail_when(request["body"]) for request in state.chat_requests) == 2
    assert (tmp_path / "d" / "decode_results.jsonl").read_text(encoding="utf-8") == ""
    _no_stage_thread_and_no_late_request(state)


def test_outputs_and_requests_do_not_depend_on_workers_under_fast_switching(
        tmp_path, fake_server):
    """More stage threads than cores, with the interpreter switching threads
    every few microseconds: the files and the per-role request counts of a
    cold generate and decode equal those of one worker."""
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in ("1", "3"):
            fake_server.state.chat_requests.clear()
            fake_server.state.tool_requests.clear()
            RunningSums(fake_server.state, branching=True)
            root = tmp_path / workers
            root.mkdir()
            config = _config(root, fake_server.url)
            for command in ("generate", "decode"):
                assert main([command, "--config", str(config), "--workers", workers,
                             "--output", str(root / "out")]) == 0
            runs.append((_files(root / "out"), _role_counts(fake_server.state)))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]


def test_a_cold_decode_writes_the_sequential_reference_under_fast_switching(
        tmp_path, fake_server):
    """A cold decode at one and three workers, with the interpreter switching
    threads every few microseconds, writes the files and sends the per-role
    requests of a one-worker run at the default switch interval; each
    generator body goes out exactly candidates_N times."""
    def cold_decode(name: str, workers: str):
        fake_server.state.chat_requests.clear()
        RunningSums(fake_server.state, branching=True)
        root = tmp_path / name
        root.mkdir()
        config = _config(root, fake_server.url)
        assert main(["decode", "--config", str(config), "--workers", workers,
                     "--output", str(root / "out")]) == 0
        bodies = Counter(request["body"]["messages"][1]["content"]
                         for request in fake_server.state.chat_requests
                         if _role(request["body"]) == "generator")
        assert set(bodies.values()) == {2}
        return _files(root / "out"), _role_counts(fake_server.state)

    reference = cold_decode("sequential", "1")
    assert reference[1] == {"generator": 26, "scorer": 14, "tool": 0}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [cold_decode(workers, workers) for workers in ("1", "3")]
    finally:
        sys.setswitchinterval(interval)
    assert runs == [reference, reference]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_cacheless_generate_writes_and_asks_what_a_cold_cached_one_does(
        tmp_path, fake_server, workers):
    """Each problem's task asks each distinct question once, with or without a
    cache. So with distinct statements a generate without `paths.cache_dir`
    writes the dataset and summary of a cold cached one and sends the same
    generator and judger requests. Its tool sends each query once per problem
    that asks it, where the cache answers a query that another problem sent
    before."""
    state = fake_server.state
    runs = {}
    for name, cache in (("cached", True), ("cacheless", False)):
        state.chat_requests.clear()
        state.tool_requests.clear()
        RunningSums(state, branching=True)
        root = tmp_path / name
        root.mkdir()
        config = _config(root, fake_server.url, problems=FOUR_PROBLEMS, cache=cache)
        assert main(["generate", "--config", str(config), "--workers", workers,
                     "--output", str(root / "out")]) == 0
        assert (root / "cache").exists() == cache
        files = {name: (root / "out" / name).read_bytes()
                 for name in ("dataset.jsonl", "summary.json")}
        runs[name] = files, _bodies(state, "generator", "judger"), Counter(state.tool_requests)
        if not cache:
            assert Counter(state.tool_requests) == _tool_queries_per_problem(state)
    (cached_files, cached_bodies, cached_tool), (files, bodies, tool) = runs.values()
    assert files == cached_files
    assert bodies == cached_bodies
    assert cached_tool == Counter(set(tool))


@pytest.mark.parametrize("command", ["generate", "decode"])
def test_a_repeat_within_a_problem_renders_no_prompt_and_computes_no_cache_key(
        tmp_path, fake_server, monkeypatch, command):
    """In a cold cached run no prompt is rendered more often than it goes out
    (a generator prompt goes out once per sample index, and is rendered once
    for the samples asked together), every chat cache key that is computed
    goes out as a request, and a tool key is computed once per problem that
    asks its query: a question repeated within a problem reaches neither
    `PromptTemplate.render` nor `cache_key`."""
    rendered, keys = [], []
    render, cache_key = remote.PromptTemplate.render, remote.cache_key

    def recording_render(template, **values):
        rendered.append(render(template, **values))
        return rendered[-1]

    def recording_cache_key(fields):
        keys.append(fields)
        return cache_key(fields)

    monkeypatch.setattr(remote.PromptTemplate, "render", recording_render)
    monkeypatch.setattr(remote, "cache_key", recording_cache_key)
    state = fake_server.state
    RunningSums(state, branching=True)
    config = _config(tmp_path, fake_server.url, problems=FOUR_PROBLEMS)
    assert main([command, "--config", str(config), "--output", str(tmp_path / "out")]) == 0
    sent = Counter(user for _, user in _bodies(state, *ROLE_PREAMBLES).elements())
    assert sent and set(rendered) == set(sent) and not Counter(rendered) - sent
    chat_keys = Counter(repr(fields) for fields in keys if fields[0] != "tool")
    assert set(chat_keys.values()) == {1} and len(chat_keys) == sent.total()
    assert len(rendered) < sent.total()
    tool_keys = Counter(fields[-1] for fields in keys if fields[0] == "tool")
    assert tool_keys == _tool_queries_per_problem(state)
    assert Counter(state.tool_requests) == Counter(set(tool_keys))
