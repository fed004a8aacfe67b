"""Builds rationale-enhanced training data from multi-round search rollouts.

Every completed rollout (optimal or not) becomes a candidate instance. A
candidate is dropped for exactly one reason:

  incomplete    -- the rollout never reached a final answer
  unverifiable  -- some step could not be processed by the verifier
  inconsistent  -- some step's rationale verdict contradicts its computed label

labeling modes:

  hybrid       -- sign(u_j + v_j) per step, final step labeled F (default)
  step_only    -- the verification label v_j per step, final step F
  outcome_only -- sign(F) for every step
  no_rationale -- hybrid labels; rationales computed for filtering but
                  emitted blank

The consistency filter compares against the mode's own labels, so emitted
instances always satisfy: every label's rationale parses to the same sign.
Hybrid steps whose aggregated sign flips away from the verification label are
therefore dropped, and each such flip is logged with its u+v value in the
build report.

Instances serialize one per line as versioned JSON with sorted keys and ASCII
escapes, so identical builds are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__ as PIPELINE_VERSION
from .backends.base import StepGenerator, StepVerifier
from .domain import (
    NORMALIZATION_VERSION,
    Problem,
    format_verdict_marker,
    normalize_answer,
    parse_verdict_marker,
)
from .mcts import RolloutOutcome, SearchConfig, run_search
from .rewards import labelled_steps

SCHEMA_VERSION = 1

MODES = ("hybrid", "step_only", "outcome_only", "no_rationale")

DROP_REASONS = ("incomplete", "unverifiable", "inconsistent")


class SerializationError(ValueError):
    """An instance field cannot be encoded."""


class SchemaVersionError(ValueError):
    """A record's schema version does not match this reader."""


@dataclass(frozen=True)
class Provenance:
    problem_id: str
    tree_id: str
    rollout_index: int
    rng_seed: int
    config_hash: str
    pipeline_version: str
    normalization_version: int = NORMALIZATION_VERSION


@dataclass(frozen=True)
class TrainingInstance:
    """One emitted record: problem, step texts, signed labels, rationales."""

    problem: str
    steps: tuple[str, ...]
    labels: tuple[int, ...]
    rationales: tuple[str, ...]
    final_answer: str
    outcome_flag: int
    provenance: Provenance

    def __post_init__(self):
        if not (len(self.steps) == len(self.labels) == len(self.rationales)):
            raise ValueError("steps, labels, and rationales must have equal length")
        for label in self.labels:
            if label not in (-1, 1):
                raise ValueError(f"labels must be -1 or +1, got {label}")
        if self.outcome_flag not in (-1, 1):
            raise ValueError("outcome_flag must be -1 or +1")


@dataclass(frozen=True)
class FlipEvent:
    """A hybrid label that flipped away from its verification label."""

    problem_id: str
    rollout_index: int
    step_index: int
    verification_label: int
    hybrid_label: int
    u_plus_v: float


@dataclass(frozen=True)
class CandidateTrace:
    """A rollout shaped for filtering; labels are None when incomplete."""

    problem: Problem
    rollout: RolloutOutcome
    steps_text: tuple[str, ...]
    labels: tuple[int, ...] | None
    rationales: tuple[str, ...]
    complete: bool
    all_verifiable: bool
    flips: tuple[FlipEvent, ...]


def render_step_text(objective: str, action: str) -> str:
    return f"{objective}\n{action}"


def final_answer_rationale(final_flag: int, final_answer: str, gold_answer: str) -> str:
    if final_flag == 1:
        judgement = f"Final answer {final_answer} matches the expected result."
    else:
        judgement = (
            f"Final answer {final_answer} does not match the expected result {gold_answer}."
        )
    return f"{judgement} The step is: {format_verdict_marker(final_flag)}"


def assemble_candidate(
    problem: Problem,
    rollout: RolloutOutcome,
    mode: str,
    beta: float,
    gamma: float,
) -> CandidateTrace:
    """Shape one rollout into a candidate instance under the given mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    steps_text = tuple(render_step_text(s.objective, s.action) for s in rollout.steps)
    verification_labels = [res.label for res in rollout.verifications]
    all_verifiable = all(res.verifiable for res in rollout.verifications)

    if not rollout.complete:
        rationales = tuple(res.rationale for res in rollout.verifications)
        return CandidateTrace(
            problem, rollout, steps_text, None, rationales, False, all_verifiable, ()
        )

    hybrid_steps = labelled_steps(verification_labels, rollout.final_flag, beta, gamma)
    if mode in ("hybrid", "no_rationale"):
        labels = [h for h, _ in hybrid_steps] + [rollout.final_flag]
    elif mode == "step_only":
        labels = verification_labels + [rollout.final_flag]
    else:
        labels = [rollout.final_flag] * len(rollout.steps)

    flips = [
        FlipEvent(problem.id, rollout.round_index, j, v, h, u_plus_v)
        for j, (v, (h, u_plus_v)) in enumerate(zip(verification_labels, hybrid_steps), start=1)
        if v != h
    ]

    rationales = tuple(res.rationale for res in rollout.verifications) + (
        final_answer_rationale(rollout.final_flag, rollout.final_answer, problem.gold_answer),
    )
    return CandidateTrace(
        problem, rollout, steps_text, tuple(labels), rationales, True, all_verifiable,
        tuple(flips),
    )


def filter_trace(candidate: CandidateTrace) -> str | None:
    """Keep (None) or the single drop reason, checked in fixed order."""
    if not candidate.complete:
        return "incomplete"
    if not candidate.all_verifiable:
        return "unverifiable"
    for label, rationale in zip(candidate.labels, candidate.rationales):
        verdict = parse_verdict_marker(rationale)
        if verdict is None or verdict != label:
            return "inconsistent"
    return None


def finalize_instance(
    candidate: CandidateTrace, provenance: Provenance, blank_rationales: bool
) -> TrainingInstance:
    rationales = ("",) * len(candidate.steps_text) if blank_rationales else candidate.rationales
    return TrainingInstance(
        problem=candidate.problem.statement,
        steps=candidate.steps_text,
        labels=candidate.labels,
        rationales=rationales,
        final_answer=candidate.rollout.final_answer,
        outcome_flag=candidate.rollout.final_flag,
        provenance=provenance,
    )


def _check_encodable(name: str, value: str) -> None:
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as err:
        raise SerializationError(f"field {name} is not UTF-8 encodable: {err}") from err


def serialize_instance(instance: TrainingInstance) -> str:
    """One line of versioned JSON; round-trips bit-exactly through parse_instance."""
    _check_encodable("problem", instance.problem)
    _check_encodable("final_answer", instance.final_answer)
    for i, step in enumerate(instance.steps):
        _check_encodable(f"steps[{i}]", step)
    for i, rationale in enumerate(instance.rationales):
        _check_encodable(f"rationales[{i}]", rationale)
    provenance = instance.provenance
    record = {
        "schema_version": SCHEMA_VERSION,
        "problem": instance.problem,
        "steps": list(instance.steps),
        "labels": list(instance.labels),
        "rationales": list(instance.rationales),
        "final_answer": instance.final_answer,
        "outcome": instance.outcome_flag,
        "provenance": {
            "problem_id": provenance.problem_id,
            "tree_id": provenance.tree_id,
            "rollout_index": provenance.rollout_index,
            "rng_seed": provenance.rng_seed,
            "config_hash": provenance.config_hash,
            "pipeline_version": provenance.pipeline_version,
            "normalization_version": provenance.normalization_version,
        },
    }
    return json.dumps(record, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def parse_instance(line: str) -> TrainingInstance:
    try:
        record = json.loads(line)
    except ValueError as err:
        raise SerializationError(f"not a JSON record: {err}") from err
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"schema_version {version!r} does not match reader version {SCHEMA_VERSION}"
        )
    try:
        return TrainingInstance(
            problem=record["problem"],
            steps=tuple(record["steps"]),
            labels=tuple(record["labels"]),
            rationales=tuple(record["rationales"]),
            final_answer=record["final_answer"],
            outcome_flag=record["outcome"],
            provenance=Provenance(**record["provenance"]),
        )
    except (KeyError, TypeError) as err:
        raise SerializationError(f"malformed instance record: {err}") from err


@dataclass(frozen=True)
class BuildConfig:
    mode: str = "hybrid"
    rng_seed: int = 0
    config_hash: str = ""
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class BuildReport:
    """What a build did: kept/dropped bookkeeping plus audit logs."""

    problems_total: int = 0
    rollouts_total: int = 0
    kept: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    flip_events: list[FlipEvent] = field(default_factory=list)
    problem_errors: list[dict] = field(default_factory=list)
    instances: list[TrainingInstance] = field(default_factory=list)

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def summary_dict(self) -> dict:
        return {
            "problems_total": self.problems_total,
            "rollouts_total": self.rollouts_total,
            "kept": self.kept,
            "dropped": dict(sorted(self.dropped.items())),
            "flip_events": [
                {
                    "problem_id": e.problem_id,
                    "rollout_index": e.rollout_index,
                    "step_index": e.step_index,
                    "verification_label": e.verification_label,
                    "hybrid_label": e.hybrid_label,
                    "u_plus_v": e.u_plus_v,
                }
                for e in self.flip_events
            ],
            "problem_errors": self.problem_errors,
            "pipeline_version": PIPELINE_VERSION,
        }


def tree_id_for(problem_id: str, rng_seed: int) -> str:
    return hashlib.sha256(f"{problem_id}|{rng_seed}".encode("utf-8")).hexdigest()[:12]


def _build_one(
    problem: Problem,
    generator: StepGenerator,
    verifier: StepVerifier,
    search_cfg: SearchConfig,
    build_cfg: BuildConfig,
) -> tuple[list[TrainingInstance], dict[str, int], list[FlipEvent], list[dict], int]:
    instances: list[TrainingInstance] = []
    drops: dict[str, int] = {}
    flips: list[FlipEvent] = []
    errors: list[dict] = []
    result = run_search(problem, generator, verifier, search_cfg)
    for record in result.rounds:
        if record.error:
            errors.append({"problem_id": problem.id, "round": record.round_index,
                           "error": record.error})
    for rollout in result.rollouts:
        candidate = assemble_candidate(
            problem, rollout, build_cfg.mode, search_cfg.outcome_beta, search_cfg.decay_gamma
        )
        flips.extend(candidate.flips)
        reason = filter_trace(candidate)
        if reason is not None:
            drops[reason] = drops.get(reason, 0) + 1
            continue
        provenance = Provenance(
            problem_id=problem.id,
            tree_id=tree_id_for(problem.id, build_cfg.rng_seed),
            rollout_index=rollout.round_index,
            rng_seed=build_cfg.rng_seed,
            config_hash=build_cfg.config_hash,
            pipeline_version=PIPELINE_VERSION,
        )
        instances.append(
            finalize_instance(candidate, provenance, build_cfg.mode == "no_rationale")
        )
    return instances, drops, flips, errors, len(result.rollouts)


def build_dataset(
    problems: Sequence[Problem],
    generator: StepGenerator,
    verifier: StepVerifier,
    search_cfg: SearchConfig,
    build_cfg: BuildConfig,
    output_path: str | Path | None = None,
) -> BuildReport:
    """Search every problem, convert rollouts, filter, and emit instances.

    Problems may run on a worker pool; output order is always the given
    problem order. A failing problem is recorded and skipped, never fatal.
    """
    report = BuildReport(problems_total=len(problems))

    def task(problem: Problem):
        try:
            return _build_one(problem, generator, verifier, search_cfg, build_cfg)
        except Exception as err:  # noqa: BLE001 - per-problem isolation is the contract
            return [], {}, [], [{"problem_id": problem.id, "error": str(err)}], 0

    if build_cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=build_cfg.workers) as pool:
            results = list(pool.map(task, problems))
    else:
        results = [task(problem) for problem in problems]

    for instances, drops, flips, errors, rollout_count in results:
        report.instances.extend(instances)
        for reason, count in drops.items():
            report.dropped[reason] = report.dropped.get(reason, 0) + count
        report.flip_events.extend(flips)
        report.problem_errors.extend(errors)
        report.rollouts_total += rollout_count
    report.kept = len(report.instances)

    if output_path is not None:
        path = Path(output_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as handle:
            for instance in report.instances:
                handle.write(serialize_instance(instance) + "\n")
    return report


def load_instances(path: str | Path) -> list[TrainingInstance]:
    instances = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                instances.append(parse_instance(line))
    return instances


def load_problems(path: str | Path) -> list[Problem]:
    """Read a line-delimited problem set of {id, statement, gold_answer}.

    Ids must be unique within the file; gold answers are canonicalized.
    """
    problems = []
    seen: set[str] = set()
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            try:
                problem = Problem(
                    id=str(record["id"]),
                    statement=record["statement"],
                    gold_answer=normalize_answer(record["gold_answer"]),
                    source=record.get("source", "external"),
                )
            except KeyError as err:
                raise ValueError(f"problem record on line {line_no} is missing {err}") from err
            if problem.id in seen:
                raise ValueError(f"duplicate problem id on line {line_no}: {problem.id}")
            seen.add(problem.id)
            problems.append(problem)
    return problems
