"""Reward-guided greedy decoding and pass@n.

At each position the policy samples N candidate steps, the scorer rates each
distinct one, and the argmax is taken (ties to the lowest candidate index,
which for generative +/-1 scorers is part of the external contract). Every
decision is logged with its full candidate/score lists so the argmax can be
re-verified from the logs alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .backends.base import StepGenerator, StepScorer
from .backends.transport import CacheMiss, Overlap
from .domain import Problem, ReasoningStep, Trajectory, answers_equal, extract_final_answer
from .jsonio import read_jsonl, write_jsonl
from .mcts import best_index


class DecodeError(RuntimeError):
    """Decoding could not proceed (scorer failure, no candidates)."""


@dataclass(frozen=True)
class DecodeConfig:
    candidates_N: int
    max_steps: int
    pass_n: int
    rng_seed: int

    def __post_init__(self):
        if self.candidates_N < 1:
            raise ValueError("candidates_N must be >= 1")
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
    """Sample N candidates, score each distinct one once, return the argmax and
    its log record. Every slot carries its candidate's score, so equal
    candidates tie and the lowest index among them wins. The scores start
    together (`Overlap`), and the first failure in candidate order is the
    one reported, naming its candidate's position among the distinct ones."""
    candidates = policy.generate(problem, state, cfg.candidates_N)
    if not candidates:
        raise DecodeError(f"policy produced no candidates for problem {problem.id}")
    distinct = dict.fromkeys(candidates)
    with Overlap() as scoring:
        for position, candidate in enumerate(distinct, 1):
            scoring.start(_score, scorer, problem, state, candidate, position, len(distinct))
    scored = dict(zip(distinct, scoring.results))
    scores = [scored[candidate] for candidate in candidates]
    best = best_index(scores)
    decision = StepDecision(
        step_index=len(state) + 1,
        candidates=tuple(c.action for c in candidates),
        scores=tuple(float(s) for s in scores),
        chosen_index=best,
    )
    return candidates[best], decision


def _score(scorer: StepScorer, problem: Problem, state: tuple[ReasoningStep, ...],
           candidate: ReasoningStep, position: int, distinct: int) -> float:
    """The score of the `position`-th of a step's `distinct` candidates."""
    try:
        return scorer.score(problem, state, candidate)
    except CacheMiss:  # not a failure: `Overlap` sends the call from a helper
        raise
    except Exception as err:
        raise DecodeError(f"scorer failed on problem {problem.id} at step {len(state) + 1}, "
                          f"distinct candidate {position} of {distinct}: {err}") from err


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


def decode_log_records(result: DecodeResult) -> Iterator[dict]:
    """The decode log records of one result: one per decoded step."""
    for decision in result.decisions:
        yield {
            "problem_id": result.problem_id,
            "step_index": decision.step_index,
            "candidates": decision.candidates,
            "scores": decision.scores,
            "chosen_index": decision.chosen_index,
        }


def write_decode_log(path: str | Path, results: Sequence[DecodeResult]) -> None:
    """Line-delimited audit log: one record per decoded step."""
    write_jsonl(path, (record for result in results for record in decode_log_records(result)))


def read_decode_log(path: str | Path) -> list[dict]:
    return [record for _, record in read_jsonl(path)]
