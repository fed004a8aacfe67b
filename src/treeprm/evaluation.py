"""First-error-step localization scoring.

Protocol: each annotated sample carries either the 1-based index of its first
faulty step or the all-valid sentinel. A prediction scores only on exact
match (no off-by-one credit). Per-class accuracies aggregate into an F1 that
is the harmonic mean of error accuracy (on faulty samples) and correct
accuracy (on all-valid samples), matching how published score tables combine
them.

The bundled reference table carries published (error, correct, F1) rows from
ProcessBench evaluations and exists so the F1 arithmetic can be pinned
against known-good printed values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .jsonio import build_each, load_jsonl, write_jsonl

ALL_VALID = "all-valid"


class EvalInputError(ValueError):
    """Predictions and annotations do not line up."""


@dataclass(frozen=True)
class AnnotatedSample:
    sample_id: str
    problem: str
    steps: tuple[str, ...]
    gold_first_error: int | None  # None means all steps are valid

    def __post_init__(self):
        if self.gold_first_error is not None:
            if not 1 <= self.gold_first_error <= len(self.steps):
                raise ValueError(
                    f"gold_first_error {self.gold_first_error} outside "
                    f"[1, {len(self.steps)}] for sample {self.sample_id}"
                )


@dataclass(frozen=True)
class Prediction:
    sample_id: str
    first_error: int | None


@dataclass(frozen=True)
class EvalReport:
    """Per-class accuracies (percent) and their harmonic-mean F1."""

    error_accuracy: float
    correct_accuracy: float
    f1: float
    counts: dict


def locate_first_error(step_labels: Sequence[int]) -> int | None:
    """Smallest 1-based index labeled -1, or None when every step is +1."""
    if not step_labels:
        raise ValueError("step label list must be non-empty")
    for index, label in enumerate(step_labels, start=1):
        if label == -1:
            return index
    return None


def f1_from_accuracies(error_accuracy: float, correct_accuracy: float) -> float:
    """Harmonic mean of the two class accuracies; 0 when both are 0."""
    if error_accuracy < 0 or correct_accuracy < 0:
        raise ValueError("accuracies must be non-negative")
    total = error_accuracy + correct_accuracy
    if total == 0:
        return 0.0
    return 2.0 * error_accuracy * correct_accuracy / total


def score_samples(
    predictions: Sequence[Prediction], annotations: Sequence[AnnotatedSample]
) -> EvalReport:
    """Exact-match accuracy per class plus harmonic-mean F1, on percent scale."""
    if len(predictions) != len(annotations):
        raise EvalInputError(
            f"{len(predictions)} predictions vs {len(annotations)} annotations"
        )
    error_total = error_hits = valid_total = valid_hits = 0
    for prediction, annotation in zip(predictions, annotations):
        if prediction.sample_id != annotation.sample_id:
            raise EvalInputError(
                f"misaligned inputs: prediction {prediction.sample_id} vs "
                f"annotation {annotation.sample_id}"
            )
        if annotation.gold_first_error is None:
            valid_total += 1
            if prediction.first_error is None:
                valid_hits += 1
        else:
            error_total += 1
            if prediction.first_error == annotation.gold_first_error:
                error_hits += 1
    error_accuracy = 100.0 * error_hits / error_total if error_total else 0.0
    correct_accuracy = 100.0 * valid_hits / valid_total if valid_total else 0.0
    return EvalReport(
        error_accuracy=error_accuracy,
        correct_accuracy=correct_accuracy,
        f1=f1_from_accuracies(error_accuracy, correct_accuracy),
        counts={
            "error_samples": error_total,
            "error_correctly_localized": error_hits,
            "all_valid_samples": valid_total,
            "all_valid_correctly_identified": valid_hits,
        },
    )


def _first_error_to_json(value: int | None):
    return ALL_VALID if value is None else value


def _first_error_from_json(value) -> int | None:
    if value == ALL_VALID:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"first_error must be an integer or {ALL_VALID!r}, got {value!r}")


def _sample_id(record: dict) -> str:
    sample_id = record["id"]
    if not isinstance(sample_id, str):
        raise ValueError(f"id must be a string, got {sample_id!r}")
    return sample_id


def _annotated(record: dict) -> AnnotatedSample:
    steps = record["steps"]
    if not isinstance(steps, list) or not all(isinstance(step, str) for step in steps):
        raise ValueError("steps must be a list of strings")
    return AnnotatedSample(
        sample_id=_sample_id(record),
        problem=record.get("problem", ""),
        steps=tuple(steps),
        gold_first_error=_first_error_from_json(record["first_error"]),
    )


def _prediction(record: dict) -> Prediction:
    return Prediction(
        sample_id=_sample_id(record),
        first_error=_first_error_from_json(record["first_error"]),
    )


def load_annotated(path: str | Path) -> list[AnnotatedSample]:
    return load_jsonl(path, _annotated)


def load_predictions(path: str | Path) -> list[Prediction]:
    return load_jsonl(path, _prediction)


def write_annotated(path: str | Path, samples: Sequence[AnnotatedSample]) -> None:
    write_jsonl(path, (
        {
            "id": sample.sample_id,
            "problem": sample.problem,
            "steps": list(sample.steps),
            "first_error": _first_error_to_json(sample.gold_first_error),
        }
        for sample in samples
    ))


def write_predictions(path: str | Path, predictions: Sequence[Prediction]) -> None:
    write_jsonl(path, (
        {
            "id": prediction.sample_id,
            "first_error": _first_error_to_json(prediction.first_error),
        }
        for prediction in predictions
    ))


@dataclass(frozen=True)
class ReferenceRow:
    """One published score-table row: per-class accuracies and printed F1."""

    model: str
    benchmark: str
    error_accuracy: float
    correct_accuracy: float
    reported_f1: float


def _reference_row(record: dict) -> ReferenceRow:
    for key in ("error", "correct", "f1"):
        if key in record and type(record[key]) not in (int, float):  # a JSON true is a bool
            raise ValueError(f"{key} must be a number, got {record[key]!r}")
    model, benchmark = record["model"], record.get("benchmark", "-")
    for key, value in (("model", model), ("benchmark", benchmark)):
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
    return ReferenceRow(
        model=model,
        benchmark=benchmark,
        error_accuracy=record["error"],
        correct_accuracy=record["correct"],
        reported_f1=record.get("f1", f1_from_accuracies(record["error"], record["correct"])),
    )


def reference_rows(path: str | Path | None = None) -> list[ReferenceRow]:
    """Published (error, correct, F1) score rows from a `{"rows": [...]}` file:
    the bundled table, or the file at `path`.

    Each row names `model`, `error` and `correct`. A row without `benchmark`
    gets "-", and a row without `f1` gets the F1 of its two accuracies; every
    bundled row carries both. A bad row raises ValueError naming the file and
    the row.
    """
    source = Path(path) if path is not None else resources.files("treeprm").joinpath(
        "assets/processbench_reference.json"
    )
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as err:
        raise ValueError(f"{source}: invalid JSON: {err}") from err
    if not isinstance(document, dict) or not isinstance(document.get("rows"), list):
        raise ValueError(f"{source}: expected an object with a rows list")
    return build_each(_reference_row, (
        (f"{source} rows[{index}]", record) for index, record in enumerate(document["rows"])
    ))


def recompute_reference_table(rows: Sequence[ReferenceRow]) -> list[tuple[ReferenceRow, float]]:
    return [(row, f1_from_accuracies(row.error_accuracy, row.correct_accuracy)) for row in rows]


def render_score_table(rows: Sequence[tuple[str, str, float, float, float]]) -> str:
    """Plain-text table with error / correct / F1 columns.

    Rows are (label, benchmark, error_accuracy, correct_accuracy, f1).
    """
    header = f"{'model':<36} {'benchmark':<14} {'error':>7} {'correct':>8} {'F1':>7}"
    lines = [header, "-" * len(header)]
    for label, benchmark, error, correct, f1 in rows:
        lines.append(
            f"{label:<36} {benchmark:<14} {error:>7.1f} {correct:>8.1f} {f1:>7.1f}"
        )
    return "\n".join(lines) + "\n"
