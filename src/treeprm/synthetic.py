"""Fully observable synthetic reasoning domain: running-sum arithmetic.

Problems ask for the sum of a few sampled values; reference solutions state
the running total after each addition. Corruptions can be planted at chosen
step indices, poisoning the running value from that point on. Because the
whole domain is scripted, it ships exact stand-ins for every backend: a step
generator, a never-wrong verifier, and a perfect scorer. All of them are
deterministic given (seed, sub-seed), so search and dataset builds are
reproducible bit for bit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .domain import (
    Problem,
    ReasoningStep,
    StepSequence,
    Trajectory,
    VerificationResult,
    format_verdict_marker,
)

DEFAULT_NOISE_DELTAS = (10, -10, 25)

_INT_RE = re.compile(r"[-+]?\d+")


class TrajectoryExhausted(RuntimeError):
    """Raised when generation is requested past the end of a trace."""


@dataclass(frozen=True)
class SyntheticTrace:
    """A reference solution with per-step ground-truth labels.

    Labels follow the first-error inheritance convention: a step is +1 exactly
    when its stated running value equals the true running value, so every step
    downstream of an uncancelled corruption is -1.
    """

    problem: Problem
    addends: tuple[int, ...]
    trajectory: Trajectory
    ground_truth_labels: tuple[int, ...]
    first_error_index: int | None
    error_plan: tuple[tuple[int, int], ...]


def render_step(index: int, addend: int, stated_total: int, is_final: bool) -> ReasoningStep:
    """Render a running-sum step in the fixed textual format the oracles parse."""
    if is_final:
        return ReasoningStep(
            index=index,
            objective=f"Add {addend} to the running total and report the final sum",
            action=f"running total = {stated_total}; final answer = {stated_total}",
            is_final=True,
        )
    return ReasoningStep(
        index=index,
        objective=f"Add {addend} to the running total",
        action=f"running total = {stated_total}",
        is_final=False,
    )


def trace_from_values(
    values: list[int] | tuple[int, ...],
    error_plan: tuple[tuple[int, int], ...] = (),
    problem_id: str = "synth-manual",
) -> SyntheticTrace:
    """Build a trace from explicit addends; each planted (index, delta)
    corrupts the running total from that 1-based step on."""
    addends = tuple(values)
    if not addends:
        raise ValueError("a trace needs at least one addend")
    deltas = {}
    for index, delta in error_plan:
        if not 1 <= index <= len(addends):
            raise ValueError(f"error_plan index {index} outside [1, {len(addends)}]")
        if index in deltas:
            raise ValueError(f"error_plan indices must be distinct; {index} repeats")
        if delta == 0:
            raise ValueError("error_plan corruption_delta must be nonzero")
        deltas[index] = delta
    steps = []
    labels = []
    true_total = 0
    stated_total = 0
    for position, addend in enumerate(addends, start=1):
        true_total += addend
        stated_total += addend + deltas.get(position, 0)
        steps.append(render_step(position, addend, stated_total, position == len(addends)))
        labels.append(1 if stated_total == true_total else -1)
    first_error = next((i for i, label in enumerate(labels, start=1) if label == -1), None)
    statement = (
        "Starting from 0, add the following numbers one at a time and state the "
        f"running total after each addition: {', '.join(str(v) for v in addends)}. "
        "What is the final total?"
    )
    problem = Problem(
        id=problem_id,
        statement=statement,
        gold_answer=str(true_total),
        source="synthetic",
    )
    trajectory = Trajectory(steps=tuple(steps), final_answer=str(stated_total))
    return SyntheticTrace(
        problem=problem,
        addends=addends,
        trajectory=trajectory,
        ground_truth_labels=tuple(labels),
        first_error_index=first_error,
        error_plan=tuple(error_plan),
    )


def stated_value(step: ReasoningStep) -> int | None:
    """The running value a step states, or None when the text has no integer."""
    matches = _INT_RE.findall(step.action)
    if not matches:
        return None
    return int(matches[-1])


def prefix_value(context: StepSequence) -> int | None:
    """Running value stated by the last step of a prefix (0 for the empty prefix)."""
    if not context:
        return 0
    return stated_value(context[-1])


def exact_verify(
    step: ReasoningStep, context: StepSequence, trace: SyntheticTrace
) -> VerificationResult:
    """Oracle verifier: checks the step against the true continuation of its
    stated prefix. Never mislabels a parseable step. Unparseable steps come
    back label -1 and verifiable=False, mirroring tool-unverifiable handling.
    """
    position = len(context) + 1
    if step.index != position:
        raise ValueError(f"step index {step.index} does not extend a length-{len(context)} prefix")
    if position > len(trace.addends):
        return VerificationResult(
            label=-1,
            rationale=f"no reference addend for step {position}",
            verifiable=False,
        )
    previous = prefix_value(context)
    stated = stated_value(step)
    if previous is None or stated is None:
        return VerificationResult(
            label=-1,
            rationale="unparseable step text",
            verifiable=False,
        )
    addend = trace.addends[position - 1]
    expected = previous + addend
    label = 1 if stated == expected else -1
    if label == 1:
        verdict_text = f"the stated total {stated} is correct"
    else:
        verdict_text = f"the stated total {stated} is wrong; it should be {expected}"
    rationale = (
        f"Recomputed the running total: {previous} + {addend} = {expected}; "
        f"{verdict_text}. The step is: {format_verdict_marker(label)}"
    )
    return VerificationResult(label=label, rationale=rationale)


def oracle_score(state: StepSequence, candidate: ReasoningStep, trace: SyntheticTrace) -> float:
    """Perfect scorer: +1 for the true continuation of the stated prefix, else -1."""
    position = len(state) + 1
    if position > len(trace.addends):
        return -1.0
    previous = prefix_value(state)
    stated = stated_value(candidate)
    if previous is None or stated is None:
        return -1.0
    return 1.0 if stated == previous + trace.addends[position - 1] else -1.0


def scripted_generate(
    state: StepSequence,
    trace: SyntheticTrace,
    count: int,
    branch_noise: float,
    rng: random.Random | None,
    noise_deltas: tuple[int, ...] = DEFAULT_NOISE_DELTAS,
) -> list[ReasoningStep]:
    """Scripted stand-in for an LLM step generator.

    The first candidate always continues the stated prefix (including any
    planted corruption at this index: the scripted model reliably makes that
    mistake on every path). Each remaining candidate is independently
    perturbed with probability branch_noise, taking its delta from the
    configured pool in rotation. Candidates that state the same total are the
    same (frozen) step object. A single candidate draws nothing, so `rng` may
    then be None.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= branch_noise <= 1.0:
        raise ValueError("branch_noise must be a probability")
    if any(delta == 0 for delta in noise_deltas):
        raise ValueError("noise deltas must be nonzero")
    position = len(state) + 1
    if position > len(trace.addends):
        raise TrajectoryExhausted("trajectory exhausted")
    previous = prefix_value(state)
    if previous is None:
        raise ValueError("state prefix has no parseable running value")
    planted = dict(trace.error_plan).get(position, 0)
    base = previous + trace.addends[position - 1] + planted
    is_final = position == len(trace.addends)
    addend = trace.addends[position - 1]
    rendered = {0: render_step(position, addend, base, is_final)}
    candidates = [rendered[0]]
    for slot in range(1, count):
        delta = 0
        if rng.random() < branch_noise:
            delta = noise_deltas[(slot - 1) % len(noise_deltas)]
        if delta not in rendered:
            rendered[delta] = render_step(position, addend, base + delta, is_final)
        candidates.append(rendered[delta])
    return candidates


def oracle_labels(steps: StepSequence, trace: SyntheticTrace) -> list[int]:
    """Exact-verifier labels for every step of an arbitrary trajectory."""
    return [
        exact_verify(step, steps[:position], trace).label
        for position, step in enumerate(steps)
    ]


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Recipe for a whole corpus of synthetic problems."""

    count: int
    num_terms: tuple[int, int]
    value_range: tuple[int, int]
    seed: int
    error_rate: float = 0.0
    max_planted_errors: int = 1
    planted_deltas: tuple[int, ...] = (10, -30, 60)
    branch_noise: float = 0.0
    noise_deltas: tuple[int, ...] = DEFAULT_NOISE_DELTAS

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        low, high = self.num_terms
        if low < 2 or low > high:
            raise ValueError("num_terms range must satisfy 2 <= low <= high")
        low, high = self.value_range
        if low > high:
            raise ValueError("value_range low must not exceed high")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be a probability")
        if self.max_planted_errors < 1:
            raise ValueError("max_planted_errors must be >= 1")
        if any(d == 0 for d in self.planted_deltas):
            raise ValueError("planted deltas must be nonzero")
        if not 0.0 <= self.branch_noise <= 1.0:
            raise ValueError("branch_noise must be a probability")
        if any(d == 0 for d in self.noise_deltas):
            raise ValueError("noise deltas must be nonzero")


def build_corpus(cfg: SyntheticCorpusConfig) -> list[SyntheticTrace]:
    """Deterministically generate `count` traces from the corpus seed. Trace
    `index` draws its addends from its own seed, seed * 1_000_003 + index,
    which also names it."""
    rng = random.Random(cfg.seed)
    traces = []
    for index in range(cfg.count):
        terms = rng.randint(*cfg.num_terms)
        error_plan: tuple[tuple[int, int], ...] = ()
        if rng.random() < cfg.error_rate:
            planted = rng.randint(1, min(cfg.max_planted_errors, terms))
            positions = rng.sample(range(1, terms + 1), planted)
            error_plan = tuple(
                sorted((pos, rng.choice(cfg.planted_deltas)) for pos in positions)
            )
        seed = cfg.seed * 1_000_003 + index
        values_rng = random.Random(seed)
        values = [values_rng.randint(*cfg.value_range) for _ in range(terms)]
        traces.append(trace_from_values(values, error_plan, problem_id=f"synth-{seed}"))
    return traces
