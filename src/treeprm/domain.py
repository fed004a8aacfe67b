"""Shared vocabulary: problems, reasoning steps, trajectories, and answer equality.

Everything here is immutable after construction and safe to share across
workers. Answer comparison is deliberately dumb: canonical-string equality
with an exact-rational fallback. Symbolic equivalence belongs to external
verifier backends, not to this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

# Bump when canonicalization rules change; emitted dataset provenance carries
# this so corpora stay regenerable.
NORMALIZATION_VERSION = 1

PROBLEM_SOURCES = ("synthetic", "external")

_BOXED_RE = re.compile(r"\\boxed\{(.*)\}\.?", re.DOTALL)
_DOLLAR_RE = re.compile(r"\$(.+)\$", re.DOTALL)
_WS_RE = re.compile(r"\s+")
_VERDICT_RE = re.compile(r"\\boxed\{+\s*([+\-\u2212])\s*\}+")
_FINAL_ANSWER_RE = re.compile(r"final answer\s*[:=]\s*(.+?)\s*$", re.IGNORECASE | re.MULTILINE)
_CANONICAL_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


@dataclass(frozen=True)
class Problem:
    """A task statement plus its canonical gold answer; the unit of search."""

    id: str
    statement: str
    gold_answer: str
    source: str = "external"

    def __post_init__(self):
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if self.source not in PROBLEM_SOURCES:
            raise ValueError(f"unknown problem source: {self.source!r}")
        if not self.gold_answer:
            raise ValueError("gold_answer must be non-empty")
        if normalize_answer(self.gold_answer) != self.gold_answer:
            raise ValueError(
                f"gold_answer must be canonical; got {self.gold_answer!r}, "
                f"expected {normalize_answer(self.gold_answer)!r}"
            )


@dataclass(frozen=True)
class ReasoningStep:
    """One step of a trajectory: a stated objective plus the action text."""

    index: int
    objective: str
    action: str
    is_final: bool = False

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("step index is 1-based and must be >= 1")


StepSequence = tuple[ReasoningStep, ...]


@dataclass(frozen=True)
class Trajectory:
    """An ordered step sequence, optionally completed by a final-answer step."""

    steps: StepSequence
    final_answer: str | None = None

    def __post_init__(self):
        for position, step in enumerate(self.steps, start=1):
            if step.index != position:
                raise ValueError(
                    f"step indices must be contiguous from 1; step at position "
                    f"{position} has index {step.index}"
                )
            if step.is_final and position != len(self.steps):
                raise ValueError("only the last step of a trajectory may be final")
        completed = bool(self.steps) and self.steps[-1].is_final
        if completed and self.final_answer is None:
            raise ValueError("completed trajectory must carry its final answer")
        if not completed and self.final_answer is not None:
            raise ValueError("final_answer present without a final step")

    @property
    def complete(self) -> bool:
        return bool(self.steps) and self.steps[-1].is_final


@dataclass(frozen=True)
class VerificationResult:
    """Signed step verdict plus the rationale that produced it.

    verifiable=False marks a step the verifier could not process; any trace
    containing such a step must be filtered out downstream.
    """

    label: int
    rationale: str
    verifiable: bool = True

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"verification label must be -1 or +1, got {self.label}")


_EXPONENT_RE = re.compile(r"[eE]([+-]?\d+)")

# Bounds that keep exact parsing cheap; anything bigger is treated as text.
_MAX_NUMERIC_LENGTH = 500
_MAX_EXPONENT = 100


def parse_rational(text: str) -> Fraction | None:
    """Parse an exact rational ("42", "0.5", "2/4", "1e3") or return None."""
    if len(text) > _MAX_NUMERIC_LENGTH:
        return None
    exponent = _EXPONENT_RE.search(text)
    if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def normalize_answer(raw: str) -> str:
    """Deterministic canonical form of an answer string.

    Peels wrapping markers (\\boxed{...}, $...$), trims and collapses
    whitespace, and renders exact rationals in lowest terms (integers bare,
    otherwise p/q). Idempotent: normalize(normalize(x)) == normalize(x).
    Inputs with no exact numeric reading come back as cleaned text.
    """
    text = raw.strip()
    while True:
        boxed = _BOXED_RE.fullmatch(text)
        if boxed:
            text = boxed.group(1).strip()
            continue
        dollar = _DOLLAR_RE.fullmatch(text)
        if dollar:
            text = dollar.group(1).strip()
            continue
        break
    value = parse_rational(text)
    if value is not None:
        return _format_rational(value)
    return _WS_RE.sub(" ", text)


def answers_equal(a: str, b: str) -> bool:
    """True iff the two answers normalize to the same canonical form.

    Equal strings are equal answers. Two different canonical integers, the
    usual case since gold answers are canonical, are never equal; both
    shortcuts return what the full comparison below would.
    """
    if a == b:
        return True
    if _CANONICAL_INT_RE.fullmatch(a) and _CANONICAL_INT_RE.fullmatch(b):
        return False
    left, right = normalize_answer(a), normalize_answer(b)
    if left == right:
        return True
    left_value, right_value = parse_rational(left), parse_rational(right)
    return left_value is not None and right_value is not None and left_value == right_value


def format_verdict_marker(label: int) -> str:
    """Render the boxed +/- verdict marker carried by verifier rationales."""
    if label not in (-1, 1):
        raise ValueError(f"verdict label must be -1 or +1, got {label}")
    return "\\boxed{+}" if label == 1 else "\\boxed{-}"


def parse_verdict_marker(text: str) -> int | None:
    """Extract the last boxed +/- marker from text; None when absent."""
    matches = _VERDICT_RE.findall(text)
    if not matches:
        return None
    return 1 if matches[-1] == "+" else -1


def extract_final_answer(step: ReasoningStep) -> str:
    """Pull the declared final answer out of a final step's action text.

    Falls back to the whole action text when no "final answer:" marker is
    present; comparison downstream goes through normalize_answer anyway.
    """
    match = _FINAL_ANSWER_RE.search(step.action)
    if match:
        return match.group(1).strip()
    return step.action.strip()
