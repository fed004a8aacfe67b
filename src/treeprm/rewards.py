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

`_u` is the one place the formula is written. `aggregate` evaluates it for
one window; `labelled_steps` evaluates it for every suffix of a completed
trajectory in one pass, so each of its values equals the one `step_label`
would compute bit for bit. `step_label` remains the per-index reference.
"""

from __future__ import annotations

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


def _u(window: Sequence[int], weights: Sequence[float], outcome: float) -> float:
    """u for the verification labels in `window`: their mean weighted by
    `weights` (0 for an empty window) plus the outcome term beta * F."""
    if window:
        return sum(w * v for w, v in zip(weights, window)) / len(window) + outcome
    return outcome


def aggregate(
    step_labels: Sequence[int],
    final_flag: int,
    beta: float,
    gamma: float,
    expansion_index: int,
    length: int,
) -> float:
    """u for the verification window j = i+1..length-1 and the outcome flag."""
    _check_weights(beta, gamma)
    _check_sign("final_flag", final_flag)
    window = max(length - 1 - expansion_index, 0)
    if len(step_labels) != window:
        raise ValueError(
            f"expected {window} step labels for i={expansion_index}, T={length}; "
            f"got {len(step_labels)}"
        )
    for label in step_labels:
        _check_sign("step label", label)
    weights = [gamma ** (offset + 1) for offset in range(window)]
    return _u(step_labels, weights, beta * final_flag)


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
    _check_sign("step label", own)
    u = aggregate(suffix, final_flag, beta, gamma, index, length)
    return 1 if u + own > 0 else -1


def labelled_steps(
    labels: Sequence[int | None],
    final_flag: int,
    beta: float,
    gamma: float,
) -> list[tuple[int, float]]:
    """(label_j, u_j + v_j) for the verified steps j = 1..T-1 of a completed
    trajectory; the final step T is labeled F and has no v_T.

    Inputs are validated once, with `step_label`'s exception types. Each u_j is
    `_u` over the suffix v_{j+1..T-1}, as in `aggregate`, so every value
    equals `aggregate(...) + v_j` exactly.
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
        u = _u(labels[j:], weights, outcome)
        steps.append((1 if u + own > 0 else -1, u + own))
    return steps

