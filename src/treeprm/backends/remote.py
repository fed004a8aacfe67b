"""Remote HTTP backends: chat-completion generator, tool+judger verifier,
served-PRM scorer.

Wire format is the widespread chat-completion schema: POST a JSON body with
``model``, ``messages`` (system + user), ``temperature`` and ``n``; read
``choices[0].message.content`` from the response. The math tool is a GET
endpoint taking the query as a ``query`` parameter. Exact shapes are pinned
in the README.

Every request goes through the shared rate limiter, retries transient
failures (connection errors, 429, 5xx) with exponential backoff, and is
served from the content-addressed cache when warm.
"""

from __future__ import annotations

import json
import math
import re
import time
from typing import Callable

import requests

from ..domain import Problem, ReasoningStep, StepSequence, VerificationResult, parse_verdict_marker
from ..jsonio import canonical_json
from .base import SCORE_MODES, BackendConfig, BackendError
from .templates import PromptTemplate
from .transport import FileResponseCache, RateLimiter, cache_key

_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
_BACKOFF_BASE_S = 0.5

_OBJECTIVE_RE = re.compile(r"^objective\s*:\s*(.+)$", re.IGNORECASE | re.MULTILINE)
_ACTION_RE = re.compile(r"^action\s*:\s*(.*)$", re.IGNORECASE | re.MULTILINE)
_FINAL_MARKER_RE = re.compile(r"final answer\s*[:=]", re.IGNORECASE)


def render_prior_steps(state: StepSequence) -> str:
    if not state:
        return "(none yet)"
    return "\n".join(f"Step {s.index}: {s.objective} -- {s.action}" for s in state)


def render_candidate(step: ReasoningStep) -> str:
    return f"Step {step.index}: {step.objective} -- {step.action}"


def parse_step_completion(text: str, index: int) -> ReasoningStep | None:
    """Parse an Objective:/Action: completion into a step; None on failure."""
    objective_match = _OBJECTIVE_RE.search(text)
    action_match = _ACTION_RE.search(text)
    if not objective_match or not action_match:
        return None
    action = text[action_match.start(1):].strip()
    objective = objective_match.group(1).strip()
    if not objective or not action:
        return None
    return ReasoningStep(
        index=index,
        objective=objective,
        action=action,
        is_final=bool(_FINAL_MARKER_RE.search(action)),
    )


class _Endpoint:
    """One remote endpoint with its limiter, retry policy, and cache."""

    def __init__(
        self,
        cfg: BackendConfig,
        cache: FileResponseCache | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.cache = cache
        self._session = requests.Session()
        self._limiter = RateLimiter(cfg.rate_limit_rps, sleep_fn=sleep_fn)
        self._sleep = sleep_fn

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = self.cfg.auth_token()
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _fetch(self, method: str, payload: dict | None, params: dict | None) -> bytes:
        last_error: str = "no attempt made"
        last_status: int | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep(_BACKOFF_BASE_S * (2 ** (attempt - 1)))
            self._limiter.acquire()
            try:
                response = self._session.request(
                    method,
                    self.cfg.endpoint_url,
                    json=payload,
                    params=params,
                    headers=self._headers(),
                    timeout=self.cfg.timeout_s,
                )
            except requests.RequestException as err:
                last_error = f"request failed: {err}"
                continue
            if response.status_code in _RETRYABLE_STATUSES:
                last_error = f"transient HTTP {response.status_code}"
                last_status = response.status_code
                continue
            if response.status_code != 200:
                raise BackendError(
                    f"HTTP {response.status_code} from {self.cfg.endpoint_url}",
                    status=response.status_code,
                )
            return response.content
        raise BackendError(
            f"{self.cfg.endpoint_url}: exhausted {self.cfg.max_retries + 1} attempts; "
            f"last error: {last_error}",
            status=last_status,
        )

    def request(self, key_payload: dict, method: str = "POST",
                payload: dict | None = None, params: dict | None = None) -> bytes:
        key = cache_key(key_payload)
        if self.cache is not None:
            return self.cache.get_or_fetch(key, lambda: self._fetch(method, payload, params))
        return self._fetch(method, payload, params)

    def chat(self, key_payload: dict, template: PromptTemplate, body: str, **extra) -> bytes:
        """One chat completion: the template's preamble as the system message
        and `body` as the user message. The cache key adds the template, the
        temperature and the model to `key_payload`; `extra` joins the POST."""
        cfg = self.cfg
        return self.request(
            {**key_payload, "template": template.body_template,
             "temperature": cfg.temperature, "model": cfg.model_name},
            payload={
                "model": cfg.model_name,
                "messages": [
                    {"role": "system", "content": template.role_preamble},
                    {"role": "user", "content": body},
                ],
                "temperature": cfg.temperature,
                "n": 1,
                **extra,
            },
        )


def _chat_content(raw: bytes, endpoint: str) -> str:
    try:
        body = json.loads(raw.decode("utf-8"))
        return body["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as err:
        raise BackendError(f"malformed chat response from {endpoint}: {err}") from err


class ChatCompletionGenerator:
    """Samples candidate steps from a chat-completion endpoint.

    Each of the `count` samples is an independent request so the cache can
    key on (template, problem, state, sample index, temperature, model).
    Completions that do not parse into a step are dropped, never padded.
    """

    def __init__(
        self,
        cfg: BackendConfig,
        template: PromptTemplate,
        cache: FileResponseCache | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        self._endpoint = _Endpoint(cfg, cache, sleep_fn)
        self._template = template

    def generate(self, problem: Problem, state: StepSequence, count: int) -> list[ReasoningStep]:
        body = self._template.render(
            problem=problem.statement, prior_steps=render_prior_steps(state)
        )
        actions = [s.action for s in state]
        steps = []
        for sample_index in range(count):
            raw = self._endpoint.chat(
                {"kind": "chat-step", "problem": problem.id, "state": actions,
                 "sample_index": sample_index},
                self._template,
                body,
            )
            step = parse_step_completion(
                _chat_content(raw, self._endpoint.cfg.endpoint_url), len(state) + 1
            )
            if step is not None:
                steps.append(step)
        return steps


def _tool_result(text: str) -> str:
    """The tool's answer: the `result` of a JSON object reply (a non-string
    result as its canonical JSON), else the reply text as it came."""
    try:
        reply = json.loads(text)
    except ValueError:
        return text
    if not isinstance(reply, dict) or "result" not in reply:
        return text
    result = reply["result"]
    return result if isinstance(result, str) else canonical_json(result)


class ToolVerifier:
    """Two-stage verifier: query the external math tool, then have the judger
    model fuse the step text with the tool response into a boxed verdict.

    A judger response without a parseable boxed marker is not an error; the
    step comes back verifiable=False and the trace is filtered downstream.
    """

    def __init__(
        self,
        tool_cfg: BackendConfig,
        judger_cfg: BackendConfig,
        template: PromptTemplate,
        cache: FileResponseCache | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        self._tool = _Endpoint(tool_cfg, cache, sleep_fn)
        self._judger = _Endpoint(judger_cfg, cache, sleep_fn)
        self._template = template

    def verify(
        self, problem: Problem, step: ReasoningStep, context: StepSequence
    ) -> VerificationResult:
        query = step.action
        tool_raw = self._tool.request(
            {"kind": "tool", "endpoint": self._tool.cfg.endpoint_url, "query": query},
            method="GET",
            params={"query": query},
        )
        tool_text = _tool_result(tool_raw.decode("utf-8", errors="replace"))
        body = self._template.render(
            problem=problem.statement,
            prior_steps=render_prior_steps(context),
            candidate_step=render_candidate(step),
            tool_response=tool_text,
        )
        raw = self._judger.chat(
            {"kind": "judge-step", "problem": problem.id,
             "state": [s.action for s in context], "candidate": step.action,
             "tool_response": tool_text},
            self._template,
            body,
        )
        content = _chat_content(raw, self._judger.cfg.endpoint_url)
        verdict = parse_verdict_marker(content)
        return VerificationResult(
            label=-1 if verdict is None else verdict,
            rationale=content,
            tool_query=query,
            raw_response=raw.decode("utf-8", errors="replace"),
            verifiable=verdict is not None,
        )


class ServedPrmScorer:
    """Scores a candidate step with a served generative PRM.

    In "label" mode the scalar is the parsed boxed verdict (+1/-1); an output
    with no marker is an error naming the sample, because greedy search must
    not guess. In "likelihood" mode the endpoint's token logprobs for the
    verdict position map to a scalar in [-1, 1].
    """

    def __init__(
        self,
        cfg: BackendConfig,
        template: PromptTemplate,
        cache: FileResponseCache | None = None,
        mode: str = "label",
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        if mode not in SCORE_MODES:
            raise ValueError(f"unknown scorer mode: {mode!r}")
        self._endpoint = _Endpoint(cfg, cache, sleep_fn)
        self._template = template
        self._mode = mode

    def score(self, problem: Problem, state: StepSequence, candidate: ReasoningStep) -> float:
        body = self._template.render(
            problem=problem.statement,
            prior_steps=render_prior_steps(state),
            candidate_step=render_candidate(candidate),
        )
        sample_name = f"{problem.id}@{candidate.index}"
        raw = self._endpoint.chat(
            {"kind": "score-step", "problem": problem.id,
             "state": [s.action for s in state], "candidate": candidate.action,
             "mode": self._mode},
            self._template,
            body,
            logprobs=self._mode == "likelihood",
        )
        if self._mode == "likelihood":
            return self._likelihood_score(raw, sample_name)
        content = _chat_content(raw, self._endpoint.cfg.endpoint_url)
        verdict = parse_verdict_marker(content)
        if verdict is None:
            raise BackendError(f"unparseable PRM output for sample {sample_name}")
        return float(verdict)

    @staticmethod
    def _likelihood_score(raw: bytes, sample_name: str) -> float:
        try:
            body = json.loads(raw.decode("utf-8"))
            entries = body["choices"][0]["logprobs"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise BackendError(
                f"PRM response for sample {sample_name} lacks logprobs: {err}"
            ) from err
        def canonical(token: str) -> str:
            return token.strip().replace("−", "-")

        verdict_entry = None
        for entry in entries:
            if canonical(entry.get("token", "")) in ("+", "-"):
                verdict_entry = entry
        if verdict_entry is None:
            raise BackendError(f"no verdict token logprobs for sample {sample_name}")
        probs = {"+": 0.0, "-": 0.0}
        for alt in verdict_entry.get("top_logprobs", []):
            token = canonical(alt.get("token", ""))
            if token in probs:
                probs[token] = math.exp(alt["logprob"])
        total = probs["+"] + probs["-"]
        if total <= 0:
            raise BackendError(f"degenerate verdict likelihoods for sample {sample_name}")
        return (probs["+"] - probs["-"]) / total
