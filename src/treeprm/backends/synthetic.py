"""Oracle-backed backends over the synthetic running-sum domain.

Each backend holds a registry of traces keyed by problem id. Generation
randomness derives from a stable per-call sub-seed (root seed, problem id,
prefix content, sample count), so results are identical regardless of call
order or worker count.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable

from ..domain import Problem, ReasoningStep, StepSequence, VerificationResult
from ..synthetic import (
    DEFAULT_NOISE_DELTAS,
    SyntheticTrace,
    exact_verify,
    oracle_score,
    scripted_generate,
)
from .base import BackendError


def _registry(traces: Iterable[SyntheticTrace]) -> dict[str, SyntheticTrace]:
    return {trace.problem.id: trace for trace in traces}


def derive_subseed(root_seed: int, problem_id: str, state: StepSequence, count: int) -> int:
    material = "|".join(
        [str(root_seed), problem_id, str(count), str(len(state))]
        + [step.action for step in state]
    )
    return int.from_bytes(hashlib.sha256(material.encode("utf-8")).digest()[:8], "big")


class _TraceBacked:
    def __init__(self, traces: Iterable[SyntheticTrace]):
        self._traces = _registry(traces)

    def _trace(self, problem: Problem) -> SyntheticTrace:
        trace = self._traces.get(problem.id)
        if trace is None:
            raise BackendError(f"no synthetic trace registered for problem {problem.id}")
        return trace


class ScriptedGenerator(_TraceBacked):
    """Deterministic scripted stand-in for the LLM step generator."""

    def __init__(
        self,
        traces: Iterable[SyntheticTrace],
        branch_noise: float = 0.0,
        noise_deltas: tuple[int, ...] = DEFAULT_NOISE_DELTAS,
        seed: int = 0,
    ):
        super().__init__(traces)
        self.branch_noise = branch_noise
        self.noise_deltas = noise_deltas
        self.seed = seed

    def generate(self, problem: Problem, state: StepSequence, count: int) -> list[ReasoningStep]:
        trace = self._trace(problem)
        rng = None
        if count > 1:  # one candidate draws nothing
            rng = random.Random(derive_subseed(self.seed, problem.id, state, count))
        return scripted_generate(state, trace, count, self.branch_noise, rng, self.noise_deltas)


class ExactVerifier(_TraceBacked):
    """Never-wrong step verifier backed by the trace's true arithmetic."""

    def verify(
        self, problem: Problem, step: ReasoningStep, context: StepSequence
    ) -> VerificationResult:
        return exact_verify(step, context, self._trace(problem))


class OracleScorer(_TraceBacked):
    """Perfect PRM stand-in: +1 for the true continuation, -1 otherwise."""

    def score(self, problem: Problem, state: StepSequence, candidate: ReasoningStep) -> float:
        return oracle_score(state, candidate, self._trace(problem))
