"""Backend interfaces: step generation, step verification, step scoring.

Two families implement these: remote HTTP clients (chat-completion generator,
math-tool verifier, served-PRM scorer) and the exact synthetic oracles.
Credentials are only ever named by environment variable, never stored in
config files, and are resolved lazily at request time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Protocol
from urllib.parse import urlsplit

from ..domain import Problem, ReasoningStep, StepSequence, VerificationResult


SCORE_MODES = ("label", "likelihood")  # what a served PRM's score is read from


class BackendError(RuntimeError):
    """A backend call failed after exhausting its retry budget."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for one remote endpoint."""

    endpoint_url: str
    model_name: str = ""
    auth_token_env_var: str | None = None
    temperature: float = 1.0
    timeout_s: float = 30.0
    max_retries: int = 2
    rate_limit_rps: float = 10.0

    def __post_init__(self):
        url = urlsplit(self.endpoint_url if isinstance(self.endpoint_url, str) else "")
        if url.username is not None or url.password is not None:  # every error names the URL
            raise ValueError("endpoint_url must not hold credentials; name them with "
                             "auth_token_env_var")
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint_url must be an http:// or https:// URL with a host, "
                             f"got {self.endpoint_url!r}")
        url.port  # a port that is no number in 0-65535 raises ValueError
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.rate_limit_rps <= 0:
            raise ValueError("rate_limit_rps must be > 0")

    def auth_token(self) -> str | None:
        """Resolve the credential from the environment, lazily."""
        if not self.auth_token_env_var:
            return None
        return os.environ.get(self.auth_token_env_var)


class StepGenerator(Protocol):
    def generate(
        self, problem: Problem, state: StepSequence, count: int
    ) -> list[ReasoningStep]:
        """Sample `count` candidate next steps for the given partial state."""
        ...


class StepVerifier(Protocol):
    def verify(
        self, problem: Problem, step: ReasoningStep, context: StepSequence
    ) -> VerificationResult:
        """Judge one step against its context; never raises for bad steps,
        only for backend failures (unjudgeable steps come back
        verifiable=False)."""
        ...


class StepScorer(Protocol):
    def score(
        self, problem: Problem, state: StepSequence, candidate: ReasoningStep
    ) -> float:
        """Predicted reward for taking `candidate` from `state`."""
        ...


class ProblemMemo:
    """One problem's view of a generator or verifier: each distinct question
    reaches `backend` once, and a repeat gets the first answer with no prompt
    rendered and no cache key computed. `mcts.run_search` wraps its generator
    and verifier, and `decoding.decode_problem` its generator; each drops the
    memo when it returns, so the memo holds one problem's answers and leaves
    the problem out of its keys. A key is what the reply depends on:
    (state, sample index) for a generator with a per-sample `samples` call,
    whose samples of a state are kept in index order, so sample 0 of a K-way
    expansion is a one-sample simulation's; (state, count) for any other,
    whose count may seed its randomness; (step, context) for a verifier, and
    the query for one with a `tool(query)` call. A scorer is asked directly:
    the guided decode visits each state once and scores each distinct
    candidate of it once, so none of its questions repeat. An ask that
    raised is asked again. Only one thread asks, so no lock is taken."""

    def __init__(self, backend):
        self._backend = backend
        self._samples = getattr(backend, "samples", None)
        self._tool = getattr(backend, "tool", None)
        self._answers: dict = {}

    def _ask(self, key, ask, *args):
        answer = self._answers.get(key)  # no backend answers None
        if answer is None:
            answer = self._answers[key] = ask(*args)
        return answer

    def generate(self, problem: Problem, state: StepSequence, count: int) -> list[ReasoningStep]:
        if self._samples is None:
            return self._ask((state, count), self._backend.generate, problem, state, count)
        known = self._answers.setdefault(state, [])
        if len(known) < count:  # a sample's step is kept as it comes, before the next is asked
            known.extend(self._samples(problem, state, range(len(known), count)))
        return [step for step in known[:count] if step is not None]

    def verify(self, problem: Problem, step: ReasoningStep,
               context: StepSequence) -> VerificationResult:
        verify = self._backend.verify if self._tool is None else self._judge
        return self._ask((step, context), verify, problem, step, context)

    def _judge(self, problem: Problem, step: ReasoningStep,
               context: StepSequence) -> VerificationResult:
        tool_text = self._ask(step.action, self._tool, step.action)
        return self._backend.judge(problem, step, context, tool_text)
