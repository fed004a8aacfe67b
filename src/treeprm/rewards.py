"""Hybrid reward aggregation and per-step training labels.

A rollout simulated from the node at depth i yields verification labels
v_j for the intermediate steps j = i+1..T-1 and an outcome flag F for the
final answer. They fuse into one scalar:

    u_i = (1 / (T-1-i)) * sum_j gamma^(j-i) * v_j  +  beta * F

with the sum term defined as 0 when the verification window is empty. The
node's own value is Q = u_i + v_i, and that same quantity is what gets
decayed along the ancestor path during backpropagation.

Per-step training labels re-aggregate at each index j over its own suffix:
label_j = sign(u_j + v_j), with sign(0) = -1 (conservative). The final step
has no tool verification; its label is F itself, consistent with the formula
since an empty window gives sign((1 + beta) * F) = F.

`labelled_steps` computes every step's label and u_j + v_j in one pass over a
completed trajectory. It evaluates `aggregate`'s expression, summed in the
same order, so each value equals the one `step_label` would compute bit for
bit; `aggregate` and `step_label` remain the per-index reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class UnlabeledStepError(ValueError):
    """A step required a verification label that is missing."""


def _check_sign(name: str, value: int) -> None:
    if value not in (-1, 1):
        raise ValueError(f"{name} must be -1 or +1, got {value!r}")


def _check_weights(beta: float, gamma: float) -> None:
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")


@dataclass(frozen=True)
class AggregatedReward:
    """One evaluated rollout window: u plus everything that produced it."""

    u_value: float
    expansion_index: int
    length: int
    step_weights: tuple[float, ...]
    step_labels: tuple[int, ...]
    final_flag: int
    beta: float


def aggregate(
    step_labels: Sequence[int],
    final_flag: int,
    beta: float,
    gamma: float,
    expansion_index: int,
    length: int,
) -> AggregatedReward:
    """Fuse the verification window j = i+1..length-1 with the outcome flag."""
    _check_weights(beta, gamma)
    _check_sign("final_flag", final_flag)
    window = max(length - 1 - expansion_index, 0)
    if len(step_labels) != window:
        raise ValueError(
            f"expected {window} step labels for i={expansion_index}, T={length}; "
            f"got {len(step_labels)}"
        )
    weights = tuple(gamma ** (offset + 1) for offset in range(window))
    for label in step_labels:
        _check_sign("step label", label)
    if window:
        u = sum(w * v for w, v in zip(weights, step_labels)) / window + beta * final_flag
    else:
        u = beta * final_flag
    return AggregatedReward(
        u_value=u,
        expansion_index=expansion_index,
        length=length,
        step_weights=weights,
        step_labels=tuple(step_labels),
        final_flag=final_flag,
        beta=beta,
    )


def node_value(u: float, v: int) -> float:
    """Value assigned to the simulated-from node: Q = u + v."""
    _check_sign("v", v)
    return u + v


def step_label(
    index: int,
    labels: Sequence[int | None],
    final_flag: int,
    beta: float,
    gamma: float,
) -> int:
    """Training label for step `index` of a length-(len(labels)+1) trajectory.

    `labels` holds verification labels for steps 1..T-1; the trajectory's
    final step is index T. A None entry means the step was tool-unverifiable,
    which is an error here: such traces are filtered before labeling.
    """
    length = len(labels) + 1
    if not 1 <= index <= length:
        raise ValueError(f"step index {index} outside [1, {length}]")
    if index == length:
        _check_sign("final_flag", final_flag)
        return final_flag
    own = labels[index - 1]
    if own is None:
        raise UnlabeledStepError(f"unlabeled step at index {index}")
    suffix = list(labels[index:])
    if any(v is None for v in suffix):
        raise UnlabeledStepError("unlabeled step in aggregation window")
    u = aggregate(suffix, final_flag, beta, gamma, index, length).u_value
    return 1 if u + own > 0 else -1


def labelled_steps(
    labels: Sequence[int | None],
    final_flag: int,
    beta: float,
    gamma: float,
) -> list[tuple[int, float]]:
    """(label_j, u_j + v_j) for the verified steps j = 1..T-1 of a completed
    trajectory; the final step T is labeled F and has no v_T.

    Inputs are validated once, with `step_label`'s exception types (v_1 is
    sign-checked too, which `step_label` skips). Each u_j is
    `aggregate`'s expression over the suffix v_{j+1..T-1}, summed front to
    back, so every value equals `aggregate(...).u_value + v_j` exactly.
    """
    for index, label in enumerate(labels, start=1):
        if label is None:
            raise UnlabeledStepError(f"unlabeled step at index {index}")
    _check_sign("final_flag", final_flag)
    if not labels:
        return []
    _check_weights(beta, gamma)
    for label in labels:
        _check_sign("step label", label)
    weights = [gamma ** (offset + 1) for offset in range(len(labels) - 1)]
    outcome = beta * final_flag
    steps = []
    for j, own in enumerate(labels, start=1):
        suffix = labels[j:]
        window = len(suffix)
        if window:
            u = sum(w * v for w, v in zip(weights, suffix)) / window + outcome
        else:
            u = outcome
        steps.append((1 if u + own > 0 else -1, u + own))
    return steps


def trajectory_labels(
    labels: Sequence[int | None],
    final_flag: int,
    beta: float,
    gamma: float,
) -> list[int]:
    """Labels for all T steps of a completed trajectory (final label is F)."""
    return [label for label, _ in labelled_steps(labels, final_flag, beta, gamma)] + [final_flag]
