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
tool URL that carries a query, one connection per thread, a kept-alive
connection the server dropped, and TLS failures.
"""

import json
import math
import sys
import tempfile
import threading
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeprm.backends.base import BackendConfig, BackendError
from treeprm.backends.remote import ChatCompletionGenerator, ServedPrmScorer, ToolVerifier
from treeprm.backends.templates import PromptTemplate
from treeprm.backends.transport import FileResponseCache, cache_key
from treeprm.domain import Problem, ReasoningStep, parse_verdict_marker

PROBLEM = Problem(id="q1", statement="Add 2 and 3.", gold_answer="5")
STATE = (ReasoningStep(index=1, objective="add", action="2 + 3 = 5"),)
CANDIDATE = ReasoningStep(index=2, objective="finish", action="Final Answer: 5", is_final=True)

GENERATOR_T = PromptTemplate("gen-role", "P: {problem}\nS: {prior_steps}", "o")
JUDGER_T = PromptTemplate(
    "judge-role", "P: {problem}\nS: {prior_steps}\nC: {candidate_step}\nT: {tool_response}", "o"
)
SCORER_T = PromptTemplate("score-role", "P: {problem}\nS: {prior_steps}\nC: {candidate_step}", "o")

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
    assert verdict.label == 1 and verdict.tool_query == "Final Answer: 5"
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

    tool_key = cache_key(("tool", 0, f"{fake_server.url}/tool", "Final Answer: 5"))
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


def test_each_thread_keeps_one_connection_per_endpoint(fake_server):
    fake_server.state.raw_chat_responder = _reply
    generator = ChatCompletionGenerator(
        _cfg(f"{fake_server.url}/v1/chat/completions", rate_limit_rps=1e6), GENERATOR_T
    )
    answers = []

    def work():
        answers.append(len(generator.generate(PROBLEM, STATE, 5)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [5] * 6
    assert fake_server.state.request_count == 30
    assert len({request["client"] for request in fake_server.state.chat_requests}) == 6
