"""The remote wire format: exact request bodies and response-cache file names.

One `generate`, one `verify` and one `score` in each scorer mode run against
the local fake server with one cache directory. The chat cache names were
recorded from the implementation that filled the caches in use, so a change
to a key payload (which would silently invalidate every warm cache) fails
here.
"""

import math

from treeprm.backends.base import BackendConfig
from treeprm.backends.remote import ChatCompletionGenerator, ServedPrmScorer, ToolVerifier
from treeprm.backends.templates import PromptTemplate
from treeprm.backends.transport import FileResponseCache, cache_key
from treeprm.domain import Problem, ReasoningStep

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
    "6a6266c14b9eb89aad0f0982ee37f1275dbf4a6712aa9ee648d6a9693796c2a4",
    "2e9fe116e0c562988864d91c973705aba70a5d32d29d456e3a37db10e37cd153",
]
JUDGER_KEY = "614eb48ef8d98f226d11316665a89a42d198666e4b2481bd02153a51a84d8004"
SCORER_LABEL_KEY = "59875cef87aa99d8de86229cd9f87b6688bdb5ebe71ecd9ba1f01930dd00ed7a"
SCORER_LIKELIHOOD_KEY = "4da5372b20fd1cbed1469d52d292dde321a4c4605482d5a9da6b386efc67ebf4"


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

    tool_key = cache_key({"kind": "tool", "endpoint": f"{fake_server.url}/tool",
                          "query": "Final Answer: 5"})
    keys = GENERATOR_KEYS + [tool_key, JUDGER_KEY, SCORER_LABEL_KEY, SCORER_LIKELIHOOD_KEY]
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(f"{k}.bin" for k in keys)


def test_warm_cache_replays_every_role_without_requests(fake_server, tmp_path):
    fake_server.state.raw_chat_responder = _reply
    cache_dir = str(tmp_path / "cache")
    cold = _run_all_roles(fake_server.url, cache_dir)
    sent = fake_server.state.request_count
    assert sent == 6
    assert _run_all_roles(fake_server.url, cache_dir) == cold
    assert fake_server.state.request_count == sent
