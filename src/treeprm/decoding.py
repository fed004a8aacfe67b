"""Reward-guided greedy decoding and pass@n.

At each position the policy samples N candidate steps, the scorer rates each
one, and the argmax is taken (ties to the lowest candidate index, which for
generative +/-1 scorers is part of the external contract). Every decision is
logged with its full candidate/score lists so the argmax can be re-verified
from the logs alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .backends.base import StepGenerator, StepScorer
from .domain import Problem, ReasoningStep, Trajectory, answers_equal, extract_final_answer
from .mcts import best_index


class DecodeError(RuntimeError):
    """Decoding could not proceed (scorer failure, no candidates)."""


@dataclass(frozen=True)
class DecodeConfig:
    candidates_N: int
    temperature: float
    max_steps: int
    pass_n: int
    rng_seed: int

    def __post_init__(self):
        if self.candidates_N < 1:
            raise ValueError("candidates_N must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.pass_n < 1:
            raise ValueError("pass_n must be >= 1")


@dataclass(frozen=True)
class StepDecision:
    """One logged greedy choice: all candidates, all scores, the pick."""

    step_index: int
    candidates: tuple[str, ...]
    scores: tuple[float, ...]
    chosen_index: int


@dataclass(frozen=True)
class DecodeResult:
    problem_id: str
    trajectory: Trajectory
    complete: bool
    correct: bool
    decisions: tuple[StepDecision, ...]


def greedy_step(
    state: tuple[ReasoningStep, ...],
    problem: Problem,
    policy: StepGenerator,
    scorer: StepScorer,
    cfg: DecodeConfig,
) -> tuple[ReasoningStep, StepDecision]:
    """Sample N candidates, score each, return the argmax and its log record."""
    candidates = policy.generate(problem, state, cfg.candidates_N)
    if not candidates:
        raise DecodeError(f"policy produced no candidates for problem {problem.id}")
    try:
        scores = [scorer.score(problem, state, candidate) for candidate in candidates]
    except Exception as err:
        raise DecodeError(f"scorer failed on problem {problem.id}: {err}") from err
    best = best_index(scores)
    decision = StepDecision(
        step_index=len(state) + 1,
        candidates=tuple(c.action for c in candidates),
        scores=tuple(float(s) for s in scores),
        chosen_index=best,
    )
    return candidates[best], decision


def decode(
    problem: Problem,
    policy: StepGenerator,
    scorer: StepScorer,
    cfg: DecodeConfig,
) -> DecodeResult:
    """Apply greedy_step until a final step or max_steps.

    Hitting max_steps without a final answer flags the result incomplete and
    incorrect.
    """
    state: tuple[ReasoningStep, ...] = ()
    decisions = []
    while len(state) < cfg.max_steps:
        step, decision = greedy_step(state, problem, policy, scorer, cfg)
        decisions.append(decision)
        state = state + (step,)
        if step.is_final:
            final_answer = extract_final_answer(step)
            trajectory = Trajectory(problem.id, state, final_answer)
            return DecodeResult(
                problem_id=problem.id,
                trajectory=trajectory,
                complete=True,
                correct=answers_equal(final_answer, problem.gold_answer),
                decisions=tuple(decisions),
            )
    return DecodeResult(
        problem_id=problem.id,
        trajectory=Trajectory(problem.id, state, None),
        complete=False,
        correct=False,
        decisions=tuple(decisions),
    )


def sample_rollout(
    problem: Problem,
    policy: StepGenerator,
    cfg: DecodeConfig,
    sample_index: int,
) -> tuple[Trajectory, bool]:
    """One unguided sampled solution: at each position draw uniformly among
    the N sampled candidates. Used for pass@n baselines."""
    rng = random.Random((cfg.rng_seed, problem.id, sample_index).__repr__())
    state: tuple[ReasoningStep, ...] = ()
    while len(state) < cfg.max_steps:
        candidates = policy.generate(problem, state, cfg.candidates_N)
        if not candidates:
            raise DecodeError(f"policy produced no candidates for problem {problem.id}")
        step = candidates[rng.randrange(len(candidates))]
        state = state + (step,)
        if step.is_final:
            final_answer = extract_final_answer(step)
            correct = answers_equal(final_answer, problem.gold_answer)
            return Trajectory(problem.id, state, final_answer), correct
    return Trajectory(problem.id, state, None), False


def pass_at_n(per_sample_correctness: Sequence[Sequence[bool]], n: int) -> float:
    """Fraction of problems where any of the first n samples is correct."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not per_sample_correctness:
        raise ValueError("need at least one problem")
    hits = 0
    for row_index, row in enumerate(per_sample_correctness):
        if len(row) < n:
            raise ValueError(f"problem {row_index} has only {len(row)} samples, need {n}")
        if any(row[:n]):
            hits += 1
    return hits / len(per_sample_correctness)


def write_decode_log(path: str | Path, results: Sequence[DecodeResult]) -> None:
    """Line-delimited audit log: one record per decoded step."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for result in results:
            for decision in result.decisions:
                record = {
                    "problem_id": result.problem_id,
                    "step_index": decision.step_index,
                    "candidates": decision.candidates,
                    "scores": decision.scores,
                    "chosen_index": decision.chosen_index,
                }
                handle.write(
                    json.dumps(record, sort_keys=True, ensure_ascii=True,
                               separators=(",", ":")) + "\n"
                )


def read_decode_log(path: str | Path) -> list[dict]:
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
