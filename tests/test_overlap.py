"""Remote requests overlap a problem's next requests.

Inside the generate and decode stages, a call that the response cache cannot
answer is sent from a helper thread while the problem's worker goes on:
`simulate` samples step j+1 while step j is verified, `expand` and
`greedy_step` start the calls of their distinct candidates together, and
decode draws a problem's pass@n samples beside its guided decode. The fake
endpoints below hold such a request until the request it should overlap has
arrived, so stages that send them one after another run into the hold's time
bound. Outputs, per-role request counts and error records stay those of the
sequential stages, and a cached or synthetic call never leaves its worker.
"""

import json
import re
import sys
import threading
import time
from collections import Counter, defaultdict
from itertools import accumulate
from pathlib import Path

import pytest

from treeprm import dataset
from treeprm.backends import ExactVerifier, OracleScorer, remote
from treeprm.backends.transport import HELPER_THREAD_NAME, CacheMiss, Overlap, cache_only
from treeprm.cli import main
from treeprm.dataset import run_in_order

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth.json"
HOLD_S = 10.0  # how long a held request waits at most for its partner
ADDENDS = {"r1": (4, 7, 9, 5), "r2": (12, 3, 8)}
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


def _statement(problem_id: str) -> str:
    return f"Add {', '.join(map(str, ADDENDS[problem_id]))} one at a time, keeping a running total."


def _on_path(statement: str, prior: str) -> bool:
    """Whether every step in `prior` states the right running total: the
    guided decode's path, since the scorer marks only those steps +."""
    totals = [int(total) for _, total in _STEP_RE.findall(prior)]
    return totals == list(accumulate(_addends(statement)))[:len(totals)]


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

    `hold` makes requests wait, at most HOLD_S, for the request they should
    overlap:
      "judger" -- a judger request for a step past the first that is not
                  final, until the generator is asked to continue from that
                  step (with one distinct candidate per state, only the
                  simulation sends these; an expansion waits for its own);
      "scorer" -- a scorer request, until the scorer has been asked about
                  every distinct candidate of the same position;
      "generator" -- the generator request for the last position of the
                  guided decode's path, until a pass@n sample has asked for
                  a state of the same problem off that path (at the config's
                  seed every sample leaves that path before its end).
    A wait that runs out is recorded in `timeouts`, and nothing is held after
    it, so a stage that does not overlap still ends.
    """

    def __init__(self, state, hold=None, branching=False, unreadable=lambda candidate: False):
        self.hold = hold
        self.branching = branching
        self.unreadable = unreadable
        self.condition = threading.Condition()
        self.asked = Counter()  # (statement, prior steps) -> generator asks
        self.candidates = defaultdict(set)  # (statement, prior steps) -> steps generated
        self.scored = defaultdict(set)  # (statement, prior steps) -> candidates scored
        self.held = 0
        self.timeouts = []
        state.chat_responder = self.respond

    def respond(self, body: dict) -> str:
        user = body["messages"][1]["content"]
        statement = _section(user, "Problem")
        role = _role(body)
        if role == "generator":
            prior = _section(user, "Steps taken so far")
            if self.hold == "generator" and _on_path(statement, prior) \
                    and len(_STEP_RE.findall(prior)) == len(_addends(statement)) - 1:
                self._wait(lambda: any(asked == statement and not _on_path(asked, before)
                                       for asked, before in self.asked), prior)
            return self._next_step(statement, prior)
        if role == "judger":
            prior, candidate = (_section(user, "Steps accepted so far"),
                                _section(user, "Step under review"))
            continued = (statement, candidate if prior == "(none yet)" else f"{prior}\n{candidate}")
            if self.hold == "judger" and not candidate.startswith("Step 1:") \
                    and "Final Answer" not in candidate:
                self._wait(lambda: continued in self.asked, candidate)
            mark = _mark(statement, prior, candidate)
            return f"Rechecked the total. The step is: \\boxed{{{mark}}}"
        prior = _section(user, "Steps taken so far")
        candidate = _section(user, "Candidate next step")
        position = (statement, prior)
        with self.condition:
            self.scored[position].add(candidate)
            self.condition.notify_all()
        if self.hold == "scorer":
            self._wait(lambda: self.scored[position] >= self.candidates[position], candidate)
        if self.unreadable(candidate):
            return "No verdict today."
        return f"\\boxed{{{_mark(statement, prior, candidate)}}}"

    def _next_step(self, statement: str, prior: str) -> str:
        addends = _addends(statement)
        steps = _STEP_RE.findall(prior)
        position = len(steps) + 1
        with self.condition:
            wrong = self.branching and self.asked[(statement, prior)] % 2
            total = (int(steps[-1][1]) if steps else 0) + addends[position - 1] + wrong
            objective, action = f"add {addends[position - 1]}", f"running total = {total}"
            if position == len(addends):
                action += f"\nFinal Answer: {total}"
            self.asked[(statement, prior)] += 1
            self.candidates[(statement, prior)].add(f"Step {position}: {objective} -- {action}")
            self.condition.notify_all()
        return f"Objective: {objective}\nAction: {action}"

    def _wait(self, ready, request: str) -> None:
        with self.condition:
            if self.timeouts:
                return
            self.held += 1
            if not self.condition.wait_for(ready, timeout=HOLD_S):
                self.timeouts.append(request)


def _config(tmp_path: Path, url: str, judger_retries: int = 0,
            generator_retries: int = 0) -> Path:
    problems = tmp_path / "problems.jsonl"
    problems.write_text("".join(
        json.dumps({"id": problem_id, "statement": _statement(problem_id),
                    "gold_answer": str(sum(addends))}) + "\n"
        for problem_id, addends in ADDENDS.items()), encoding="utf-8")
    chat = {"endpoint_url": f"{url}/v1/chat/completions", "model_name": "fake",
            "max_retries": 0, "rate_limit_rps": 10000}
    tool = {"endpoint_url": f"{url}/tool", "max_retries": 0, "rate_limit_rps": 10000}
    config = {
        "search": {"exploration_c": 1.4142135623730951, "branch_K": 3, "decay_gamma": 0.9,
                   "outcome_beta": 0.5, "max_rounds_R": 6, "max_depth": 10, "rng_seed": 7},
        "decode": {"candidates_N": 2, "max_steps": 10, "pass_n": 2, "rng_seed": 7},
        "paths": {"output_dir": str(tmp_path / "out"), "problems_file": str(problems),
                  "cache_dir": str(tmp_path / "cache")},
        "backends": {
            "generator": dict(chat, kind="http", max_retries=generator_retries),
            "verifier": {"kind": "http", "tool": tool,
                         "judger": dict(chat, max_retries=judger_retries)},
            "scorer": {"kind": "http", **chat},
        },
        "workers": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _files(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _role_counts(state) -> dict:
    counts = Counter(_role(request["body"]) for request in state.chat_requests)
    return dict(counts, tool=len(state.tool_requests))


@pytest.mark.parametrize("command, hold, branching, sent", [
    ("generate", "judger", False, {"generator": 21, "judger": 7, "tool": 7}),
    ("decode", "scorer", True, {"generator": 26, "scorer": 14, "tool": 0}),
    ("decode", "generator", True, {"generator": 26, "scorer": 14, "tool": 0}),
], ids=["generate", "decode", "decode-samples"])
def test_a_stage_overlaps_what_it_sends_and_writes_what_a_warm_rerun_writes(
        tmp_path, fake_server, command, hold, branching, sent):
    endpoints = RunningSums(fake_server.state, hold=hold, branching=branching)
    config = _config(tmp_path, fake_server.url)
    assert main([command, "--config", str(config), "--output", str(tmp_path / "cold")]) == 0
    assert endpoints.timeouts == []
    assert endpoints.held > 0
    # The counts of the sequential stages, which send one request at a time.
    assert _role_counts(fake_server.state) == sent

    cold_requests = fake_server.state.request_count
    assert main([command, "--config", str(config), "--output", str(tmp_path / "warm")]) == 0
    assert fake_server.state.request_count == cold_requests
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


def test_synth_and_warm_remote_stages_start_no_helper_thread(tmp_path, fake_server, monkeypatch):
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)

    def helpers_started():
        names = [name for name in started if name.startswith(HELPER_THREAD_NAME)]
        started.clear()
        return names

    synth = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    synth["synthetic"]["count"] = 6
    (tmp_path / "synth.json").write_text(json.dumps(synth), encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--workers", "2",
                 "--output", str(tmp_path / "synth")]) == 0
    assert helpers_started() == []

    RunningSums(fake_server.state, branching=True)
    config = _config(tmp_path, fake_server.url)
    for command in ("generate", "decode"):
        assert main([command, "--config", str(config), "--output", str(tmp_path / "cold")]) == 0
    assert helpers_started()  # the cold pass sends from helpers
    cold_requests = fake_server.state.request_count
    for command in ("generate", "decode"):
        assert main([command, "--config", str(config), "--output", str(tmp_path / "warm")]) == 0
    assert helpers_started() == []
    assert fake_server.state.request_count == cold_requests


def test_a_synth_stage_tries_no_call_on_the_cache_alone(tmp_path, monkeypatch):
    """No role of `synth` is remote, so its stage workers get no helpers and
    every verifier and scorer call runs as a plain call, not first as a
    cache-only try."""
    tried = []
    for backend, name in ((ExactVerifier, "verify"), (OracleScorer, "score")):
        def recording(self, *args, _call=getattr(backend, name)):
            tried.append(cache_only())
            return _call(self, *args)
        monkeypatch.setattr(backend, name, recording)
    synth = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    synth["synthetic"]["count"] = 4
    (tmp_path / "synth.json").write_text(json.dumps(synth), encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--workers", "2",
                 "--output", str(tmp_path / "synth")]) == 0
    assert tried and not any(tried)


def _no_helper_and_no_late_request(state) -> None:
    assert not [t for t in threading.enumerate() if t.name.startswith(HELPER_THREAD_NAME)]
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
    _no_helper_and_no_late_request(state)

    capsys.readouterr()
    assert main(["decode", "--config", str(config), "--output", str(tmp_path / "d")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DecodeError",
        "message": "scorer failed on problem r1 at step 1, distinct candidate 2 of 2: "
                   "unparseable PRM output for sample r1@1"}
    assert (tmp_path / "d" / "decode_results.jsonl").read_text(encoding="utf-8") == ""
    _no_helper_and_no_late_request(state)


def test_a_generator_failing_on_the_root_state_is_sent_for_once(
        tmp_path, fake_server, monkeypatch, capsys):
    """The guided decode and every sample of r1 start from its root state;
    its failing request is sent max_retries + 1 times in all, and the record
    is the sequential stage's."""
    monkeypatch.setattr(remote, "_BACKOFF_BASE_S", 0.0)
    state = fake_server.state
    RunningSums(state, branching=True)
    root = f"Problem:\n{_statement('r1')}\n\nSteps taken so far:\n(none yet)\n"
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
    _no_helper_and_no_late_request(state)


def _call(name: str, seconds: float = 0.0, error: Exception | None = None):
    """A backend call that misses the cache: in cache-only mode it raises
    CacheMiss; otherwise it sleeps, then fails with `error` or returns `name`."""
    if cache_only():
        raise CacheMiss
    time.sleep(seconds)
    if error is not None:
        raise error
    return name


def _in_a_stage(task):
    """`task()` run as the one task of a two-worker stage; its result, or its error."""
    results = []
    run_in_order(lambda _: task(), [None], results.append, 2)
    return results[0]


def test_results_and_the_first_error_come_in_call_order():
    def reversed_finish():
        with Overlap() as calls:
            calls.start(_call, "slow", 0.2)
            calls.start(_call, "fast")
            calls.start(lambda: "cached")
        return calls.results

    assert _in_a_stage(reversed_finish) == ["slow", "fast", "cached"]

    def two_failures():
        with Overlap() as calls:
            calls.start(_call, "a", 0.2, ValueError("first"))
            calls.start(_call, "b", 0.0, ValueError("second"))

    with pytest.raises(ValueError, match="first"):
        _in_a_stage(two_failures)

    def failure_then_error_in_the_block():
        with Overlap() as calls:
            calls.start(_call, "a", 0.1, ValueError("call"))
            raise KeyError("block")

    with pytest.raises(ValueError, match="call"):
        _in_a_stage(failure_then_error_in_the_block)


def test_only_a_call_that_misses_the_cache_leaves_the_worker():
    def task():
        sent = threading.Event()

        def miss():
            if cache_only():
                raise CacheMiss
            sent.set()
            return threading.current_thread().name

        with Overlap() as calls:
            calls.start(lambda: threading.current_thread().name)
            calls.start(miss)
            assert sent.wait(timeout=10)  # sent while the worker is still in the block
        return threading.current_thread().name, calls.results

    worker, (answered, sent_from) = _in_a_stage(task)
    assert answered == worker
    assert sent_from.startswith(HELPER_THREAD_NAME)

    # Outside a stage every call runs where it is made, cached or not.
    with Overlap() as calls:
        calls.start(lambda: threading.current_thread().name)
        calls.start(_call, "plain")
    assert calls.results == [threading.current_thread().name, "plain"]


def test_a_call_no_helper_has_taken_runs_on_the_worker():
    """Both helpers of a two-worker stage are busy until the third call runs,
    so leaving the block must run that call on the worker itself."""
    def task():
        taken = threading.Semaphore(0)
        release = threading.Event()

        def blocker():
            if cache_only():
                raise CacheMiss
            taken.release()
            assert release.wait(timeout=10)
            return "blocker"

        def releaser():
            if cache_only():
                raise CacheMiss
            release.set()
            return threading.current_thread().name

        with Overlap() as calls:
            calls.start(blocker)
            calls.start(blocker)
            assert taken.acquire(timeout=10) and taken.acquire(timeout=10)
            calls.start(releaser)
        return threading.current_thread().name, calls.results

    worker, results = _in_a_stage(task)
    assert results == ["blocker", "blocker", worker]


def test_a_block_begun_in_a_cache_only_try_sends_nothing_from_it():
    """A call that opens its own block runs that block's calls as plain calls
    while it is tried on the cache alone: a miss there ends the outer try,
    and the whole call goes to a helper. A block of hits keeps the try in
    cache-only mode after it."""
    sent = []

    def send(name):
        if cache_only():
            raise CacheMiss
        sent.append((name, threading.current_thread().name))
        return name

    def nested():
        with Overlap() as inner:
            inner.start(send, "inner")
        return inner.results[0], send("after")

    def hits():
        with Overlap() as inner:
            inner.start(lambda: "cached")
        return inner.results[0], cache_only()

    def task():
        with Overlap() as calls:
            calls.start(nested)
            calls.start(hits)
        return calls.results, cache_only()

    results, mode_after = _in_a_stage(task)
    assert results == [("inner", "after"), ("cached", True)]
    assert not mode_after
    assert [name for name, _ in sent] == ["inner", "after"]
    assert all(thread.startswith(HELPER_THREAD_NAME) for _, thread in sent)


def test_outputs_and_requests_do_not_depend_on_workers_under_fast_switching(
        tmp_path, fake_server):
    """More workers (and helpers) than cores, with the interpreter switching
    threads every few microseconds: the files and the per-role request counts
    of a cold generate and decode equal those of one worker."""
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
        tmp_path, fake_server, monkeypatch):
    """A cold decode at one and three workers, with the interpreter switching
    threads every few microseconds, writes the files and sends the per-role
    requests of a run with no helper threads and one worker; each generator
    body goes out exactly candidates_N times."""
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

    with monkeypatch.context() as sequential:
        sequential.setattr(dataset, "use_helpers", lambda helpers: None)
        reference = cold_decode("sequential", "1")
    assert reference[1] == {"generator": 26, "scorer": 14, "tool": 0}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [cold_decode(workers, workers) for workers in ("1", "3")]
    finally:
        sys.setswitchinterval(interval)
    assert runs == [reference, reference]
