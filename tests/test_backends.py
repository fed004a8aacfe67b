"""Transport plumbing and the remote HTTP backends against a local fake server."""

import math
import multiprocessing
import threading
import time

import pytest

from treeprm.backends.base import BackendConfig, BackendError
from treeprm.backends.remote import (
    ChatCompletionGenerator,
    ServedPrmScorer,
    ToolVerifier,
    parse_step_completion,
)
from treeprm.backends.synthetic import ExactVerifier, OracleScorer, ScriptedGenerator
from treeprm.backends.templates import PromptTemplate, builtin_template, parse_template
from treeprm.backends.transport import FileResponseCache, RateLimiter, cache_key
from treeprm.domain import Problem, ReasoningStep
from treeprm.synthetic import trace_from_values

PROBLEM = Problem(id="q1", statement="Add 2 and 3.", gold_answer="5")


def backend_cfg(url, **overrides):
    values = dict(endpoint_url=url, model_name="test-model", temperature=1.0,
                  timeout_s=5.0, max_retries=2, rate_limit_rps=1000.0)
    values.update(overrides)
    return BackendConfig(**values)


class TestTemplates:
    def test_parse_sections(self):
        template = parse_template(
            "=== role ===\nbe exact\n=== body ===\nsolve {problem}\n=== output ===\nanswer"
        )
        assert template.role_preamble == "be exact"
        assert template.slots() == {"problem"}
        assert template.render(problem="x + 1") == "solve x + 1"

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError, match="output"):
            parse_template("=== role ===\nr\n=== body ===\nb")

    def test_repeated_slot_rejected(self):
        with pytest.raises(ValueError, match="exactly once"):
            PromptTemplate(role_preamble="r", body_template="{a} and {a}", output_grammar="o")

    def test_render_requires_exact_slot_cover(self):
        template = PromptTemplate(role_preamble="r", body_template="{a} {b}", output_grammar="o")
        with pytest.raises(ValueError, match="missing slots: b"):
            template.render(a="1")
        with pytest.raises(ValueError, match="unknown slots: c"):
            template.render(a="1", b="2", c="3")

    def test_builtin_templates_load(self):
        assert builtin_template("generator").slots() == {"problem", "prior_steps"}
        assert builtin_template("judger").slots() == {
            "problem", "prior_steps", "candidate_step", "tool_response"
        }
        assert builtin_template("scorer").slots() == {
            "problem", "prior_steps", "candidate_step"
        }
        assert builtin_template("scorer_label_only").slots() == {
            "problem", "prior_steps", "candidate_step"
        }


class TestParseStepCompletion:
    def test_parses_objective_and_action(self):
        step = parse_step_completion("Objective: add\nAction: 2 + 3 = 5", 1)
        assert step.objective == "add"
        assert step.action == "2 + 3 = 5"
        assert not step.is_final

    def test_final_marker_detected(self):
        step = parse_step_completion(
            "Objective: finish\nAction: 2 + 3 = 5\nFinal Answer: 5", 2
        )
        assert step.is_final
        assert step.index == 2

    def test_unparseable_is_none(self):
        assert parse_step_completion("I refuse.", 1) is None
        assert parse_step_completion("Objective: only half", 1) is None


_TORN_PAYLOADS = (b"a" * (1 << 18), b"b" * (1 << 19))
# Each worker does at least this much however late it starts, so a slow
# worker start-up cannot leave a side with nothing to check.
_MIN_OPS = 50


def _put_until(cache_dir, key, payload, deadline):
    cache, puts = FileResponseCache(cache_dir), 0
    while puts < _MIN_OPS or time.time() < deadline:
        cache.put(key, payload)
        puts += 1
    return puts


def _read_until(cache_dir, key, deadline):
    cache, reads, torn = FileResponseCache(cache_dir), 0, 0
    while reads < _MIN_OPS or time.time() < deadline:
        data = cache.get(key)
        if data is not None:
            reads += 1
            torn += data not in _TORN_PAYLOADS
    return reads, torn


class TestCache:
    def test_concurrent_writer_processes_never_publish_a_torn_entry(self, tmp_path):
        key = cache_key({"shared": True})
        deadline = time.time() + 2.0
        with multiprocessing.get_context("spawn").Pool(3) as pool:
            writers = [pool.apply_async(_put_until, (tmp_path, key, payload, deadline))
                       for payload in _TORN_PAYLOADS]
            reader = pool.apply_async(_read_until, (tmp_path, key, deadline))
            for writer in writers:
                writer.get(timeout=30)
            reads, torn = reader.get(timeout=30)
        assert torn == 0, f"{torn} of {reads} reads returned a torn entry"
        assert FileResponseCache(tmp_path).get(key) in _TORN_PAYLOADS
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.bin"]

    def test_round_trip(self, tmp_path):
        cache = FileResponseCache(tmp_path)
        key = cache_key({"a": 1})
        assert cache.get(key) is None
        cache.put(key, b"payload")
        assert cache.get(key) == b"payload"

    def test_key_is_content_addressed(self):
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})
        assert cache_key({"a": 1}) != cache_key({"a": 2})

    def test_inflight_dedup_single_fetch(self, tmp_path):
        cache = FileResponseCache(tmp_path)
        calls = []
        gate = threading.Event()

        def fetch():
            calls.append(1)
            gate.wait(timeout=5)
            return b"once"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get_or_fetch("k", fetch)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)
        gate.set()
        for t in threads:
            t.join(timeout=5)
        assert results == [b"once"] * 8
        assert len(calls) == 1


class TestRateLimiter:
    def test_spacing_with_fake_clock(self):
        clock = [0.0]
        sleeps = []

        def time_fn():
            return clock[0]

        def sleep_fn(duration):
            sleeps.append(duration)
            clock[0] += duration

        limiter = RateLimiter(2.0, time_fn=time_fn, sleep_fn=sleep_fn)
        stamps = []
        for _ in range(21):
            limiter.acquire()
            stamps.append(clock[0])
        # No 10-second window may contain more than rate * 10 = 20 requests.
        for i in range(len(stamps)):
            in_window = [s for s in stamps if stamps[i] <= s < stamps[i] + 10.0]
            assert len(in_window) <= 20
        assert stamps[1] - stamps[0] == pytest.approx(0.5)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0)


class TestChatCompletionGenerator:
    def _generator(self, server, tmp_path, **cfg_overrides):
        cfg = backend_cfg(f"{server.url}/v1/chat/completions",
                          cache_dir=str(tmp_path / "cache"), **cfg_overrides)
        return ChatCompletionGenerator(cfg, builtin_template("generator"),
                                       sleep_fn=lambda s: None)

    def test_samples_count_independent_requests(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "Objective: add\nAction: 2 + 3 = 5"
        generator = self._generator(fake_server, tmp_path)
        steps = generator.generate(PROBLEM, (), 3)
        assert len(steps) == 3
        assert fake_server.state.request_count == 3
        assert all(s.index == 1 for s in steps)

    def test_unparseable_completions_dropped_not_padded(self, fake_server, tmp_path):
        replies = iter(["Objective: a\nAction: 1", "garbage", "Objective: c\nAction: 3"])
        fake_server.state.chat_responder = lambda body: next(replies)
        generator = self._generator(fake_server, tmp_path)
        steps = generator.generate(PROBLEM, (), 3)
        assert len(steps) == 2

    def test_retry_then_success(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "Objective: a\nAction: 1"
        fake_server.state.fail_next = 2
        generator = self._generator(fake_server, tmp_path, max_retries=2)
        steps = generator.generate(PROBLEM, (), 1)
        assert len(steps) == 1
        assert fake_server.state.request_count == 3

    def test_retries_exhausted_raises_with_status(self, fake_server, tmp_path):
        fake_server.state.fail_next = 10
        generator = self._generator(fake_server, tmp_path, max_retries=2)
        with pytest.raises(BackendError, match="3 attempts") as excinfo:
            generator.generate(PROBLEM, (), 1)
        assert excinfo.value.status == 500
        assert fake_server.state.request_count == 3

    def test_warm_cache_issues_zero_network_calls(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "Objective: a\nAction: 2 + 3 = 5"
        generator = self._generator(fake_server, tmp_path)
        first = generator.generate(PROBLEM, (), 3)
        count_after_first = fake_server.state.request_count
        # New client instance pointing at a dead endpoint, same cache dir.
        dead_cfg = backend_cfg("http://127.0.0.1:1/unreachable", max_retries=0,
                               cache_dir=str(tmp_path / "cache"))
        warm = ChatCompletionGenerator(dead_cfg, builtin_template("generator"),
                                       sleep_fn=lambda s: None)
        second = warm.generate(PROBLEM, (), 3)
        assert second == first
        assert fake_server.state.request_count == count_after_first

    def test_auth_header_resolved_from_env(self, fake_server, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_BACKEND_TOKEN", "sekret")
        fake_server.state.chat_responder = lambda body: "Objective: a\nAction: 1"
        cfg = backend_cfg(f"{fake_server.url}/v1/chat/completions",
                          auth_token_env_var="TEST_BACKEND_TOKEN")
        generator = ChatCompletionGenerator(cfg, builtin_template("generator"),
                                            sleep_fn=lambda s: None)
        generator.generate(PROBLEM, (), 1)
        assert fake_server.state.chat_requests[-1]["auth"] == "Bearer sekret"


class TestToolVerifier:
    def _verifier(self, server, tmp_path):
        tool_cfg = backend_cfg(f"{server.url}/tool")
        judger_cfg = backend_cfg(f"{server.url}/v1/chat/completions",
                                 cache_dir=str(tmp_path / "cache"))
        return ToolVerifier(tool_cfg, judger_cfg, builtin_template("judger"),
                            sleep_fn=lambda s: None)

    def test_positive_verdict(self, fake_server, tmp_path):
        fake_server.state.chat_responder = (
            lambda body: "Recomputed: adding 80 gives 130. The step is: \\boxed{+}"
        )
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="add", action="50 + 80 = 130")
        result = verifier.verify(PROBLEM, step, ())
        assert result.label == 1
        assert result.verifiable
        assert result.tool_query == "50 + 80 = 130"
        assert fake_server.state.tool_requests == ["50 + 80 = 130"]
        assert "adding 80 gives 130" in result.rationale

    def test_negative_verdict_with_rationale(self, fake_server, tmp_path):
        fake_server.state.chat_responder = (
            lambda body: "The correct total should be 630, not 570. \\boxed{-}"
        )
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="total", action="total = 570")
        result = verifier.verify(PROBLEM, step, ())
        assert result.label == -1
        assert "630" in result.rationale

    def test_no_marker_means_unverifiable(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "I cannot decide."
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="a")
        result = verifier.verify(PROBLEM, step, ())
        assert not result.verifiable
        assert result.label == -1

    def test_tool_response_fed_to_judger(self, fake_server, tmp_path):
        fake_server.state.tool_responder = lambda query: "tool says 130"
        fake_server.state.chat_responder = lambda body: "ok \\boxed{+}"
        verifier = self._verifier(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="50 + 80")
        verifier.verify(PROBLEM, step, ())
        judger_body = fake_server.state.chat_requests[-1]["body"]
        assert "tool says 130" in judger_body["messages"][1]["content"]


class TestServedPrmScorer:
    def _scorer(self, server, tmp_path, mode="label"):
        cfg = backend_cfg(f"{server.url}/v1/chat/completions",
                          cache_dir=str(tmp_path / "cache"))
        return ServedPrmScorer(cfg, builtin_template("scorer"), mode=mode,
                               sleep_fn=lambda s: None)

    def test_boxed_plus_scores_one(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "looks right \\boxed{+}"
        scorer = self._scorer(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="a")
        assert scorer.score(PROBLEM, (), step) == 1.0

    def test_boxed_minus_scores_minus_one(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "wrong \\boxed{-}"
        scorer = self._scorer(fake_server, tmp_path)
        step = ReasoningStep(index=1, objective="o", action="a")
        assert scorer.score(PROBLEM, (), step) == -1.0

    def test_unparseable_output_is_error_naming_sample(self, fake_server, tmp_path):
        fake_server.state.chat_responder = lambda body: "shrug"
        scorer = self._scorer(fake_server, tmp_path)
        step = ReasoningStep(index=4, objective="o", action="a")
        with pytest.raises(BackendError, match="q1@4"):
            scorer.score(PROBLEM, (), step)

    def test_likelihood_mode(self, fake_server, tmp_path):
        def raw(body):
            return {
                "choices": [{
                    "message": {"role": "assistant", "content": "\\boxed{+}"},
                    "logprobs": {"content": [{
                        "token": "+",
                        "logprob": math.log(0.6),
                        "top_logprobs": [
                            {"token": "+", "logprob": math.log(0.6)},
                            {"token": "-", "logprob": math.log(0.2)},
                        ],
                    }]},
                }]
            }

        fake_server.state.raw_chat_responder = raw
        scorer = self._scorer(fake_server, tmp_path, mode="likelihood")
        step = ReasoningStep(index=1, objective="o", action="a")
        assert scorer.score(PROBLEM, (), step) == pytest.approx(0.5)


class TestSyntheticBackends:
    def test_registry_miss_is_backend_error(self):
        trace = trace_from_values([1, 2], problem_id="known")
        generator = ScriptedGenerator([trace])
        with pytest.raises(BackendError, match="no synthetic trace"):
            generator.generate(PROBLEM, (), 1)

    def test_oracle_backends_agree_with_domain_oracles(self):
        trace = trace_from_values([50, 80, 80], problem_id="t1")
        verifier = ExactVerifier([trace])
        scorer = OracleScorer([trace])
        steps = trace.trajectory.steps
        assert verifier.verify(trace.problem, steps[1], steps[:1]).label == 1
        assert scorer.score(trace.problem, steps[:1], steps[1]) == 1.0

    def test_generation_order_independent(self):
        trace = trace_from_values([50, 80, 80], problem_id="t2")
        a = ScriptedGenerator([trace], branch_noise=0.5, seed=9)
        b = ScriptedGenerator([trace], branch_noise=0.5, seed=9)
        state = trace.trajectory.steps[:1]
        # Different call histories, same per-call results.
        a.generate(trace.problem, (), 3)
        assert a.generate(trace.problem, state, 3) == b.generate(trace.problem, state, 3)


class TestRemoteSearchIntegration:
    """The full search loop driven end to end by the HTTP backends."""

    @staticmethod
    def _responder(counter):
        def respond(body):
            user_message = body["messages"][1]["content"]
            if "Tool response:" in user_message:
                if "wrong guess" in user_message:
                    return "That quantity is off. The step is: \\boxed{-}"
                return "Checks out. The step is: \\boxed{+}"
            depth = user_message.count("Step ")
            if depth == 0:
                counter[0] += 1
                if counter[0] % 3 == 0:
                    return "Objective: try something\nAction: wrong guess 9 + 9 = 18"
                return "Objective: add the numbers\nAction: 2 + 3 = 5"
            return "Objective: state the result\nAction: done\nFinal Answer: 5"

        return respond

    def test_multi_step_search_over_http(self, fake_server, tmp_path):
        import math

        from treeprm.mcts import SearchConfig, run_search

        fake_server.state.chat_responder = self._responder([0])
        cache = FileResponseCache(tmp_path / "cache")
        chat_cfg = backend_cfg(f"{fake_server.url}/v1/chat/completions")
        tool_cfg = backend_cfg(f"{fake_server.url}/tool")
        generator = ChatCompletionGenerator(chat_cfg, builtin_template("generator"),
                                            cache=cache, sleep_fn=lambda s: None)
        verifier = ToolVerifier(tool_cfg, chat_cfg, builtin_template("judger"),
                                cache=cache, sleep_fn=lambda s: None)
        cfg = SearchConfig(exploration_c=math.sqrt(2), branch_K=3, decay_gamma=0.9,
                           outcome_beta=0.5, max_rounds_R=4, max_depth=6, rng_seed=1)
        result = run_search(PROBLEM, generator, verifier, cfg)

        assert all(record.error is None for record in result.rounds)
        assert len(result.rollouts) == 4
        assert all(rollout.complete for rollout in result.rollouts)
        # The root saw both the correct and the wrong first step.
        assert len(result.root.children) == 2
        labels = sorted(c.step_verification.label for c in result.root.children)
        assert labels == [-1, 1]
        # Every complete rollout ends in the declared final answer.
        for rollout in result.rollouts:
            assert rollout.final_answer == "5"
            assert rollout.final_flag == 1


class TestBackendConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            BackendConfig(endpoint_url="http://x", timeout_s=0)
        with pytest.raises(ValueError, match="rate_limit"):
            BackendConfig(endpoint_url="http://x", rate_limit_rps=0)
        with pytest.raises(ValueError, match="max_retries"):
            BackendConfig(endpoint_url="http://x", max_retries=-1)

    def test_token_resolution_lazy(self, monkeypatch):
        cfg = BackendConfig(endpoint_url="http://x", auth_token_env_var="LATER_TOKEN")
        assert cfg.auth_token() is None
        monkeypatch.setenv("LATER_TOKEN", "now")
        assert cfg.auth_token() == "now"
