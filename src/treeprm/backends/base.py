"""Backend interfaces: step generation, step verification, step scoring.

Two families implement these: remote HTTP clients (chat-completion generator,
math-tool verifier, served-PRM scorer) and the exact synthetic oracles.
Credentials are only ever named by environment variable, never stored in
config files, and are resolved lazily at request time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Protocol, runtime_checkable
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


@runtime_checkable
class StepGenerator(Protocol):
    def generate(
        self, problem: Problem, state: StepSequence, count: int
    ) -> list[ReasoningStep]:
        """Sample `count` candidate next steps for the given partial state."""
        ...


@runtime_checkable
class StepVerifier(Protocol):
    def verify(
        self, problem: Problem, step: ReasoningStep, context: StepSequence
    ) -> VerificationResult:
        """Judge one step against its context; never raises for bad steps,
        only for backend failures (unjudgeable steps come back
        verifiable=False)."""
        ...


@runtime_checkable
class StepScorer(Protocol):
    def score(
        self, problem: Problem, state: StepSequence, candidate: ReasoningStep
    ) -> float:
        """Predicted reward for taking `candidate` from `state`."""
        ...
