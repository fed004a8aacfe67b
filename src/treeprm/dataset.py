"""Builds rationale-enhanced training data from multi-round search rollouts.

Every distinct rollout of a problem (optimal or not) becomes one candidate
instance. A search round that selects a line it already finished replays it
and adds no rollout, but a rollout simulated from a deeper node of a line can
still repeat an earlier one. A rollout whose steps and verifications equal an
earlier round's is skipped, so each line is judged once and
`BuildReport.rollouts_total` counts distinct rollouts. A candidate is dropped
for exactly one reason:

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

Instances serialize one per line as versioned canonical JSON (sorted keys,
ASCII escapes), so identical builds are byte-identical. A build writes each
problem's instances as soon as it and every earlier problem are done
(`run_in_order`) and keeps only counts, so its memory does not grow with the
instances it keeps.
"""

from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import __version__ as PIPELINE_VERSION
from .backends.base import StepGenerator, StepVerifier
from .backends.transport import HELPER_THREAD_NAME, use_helpers
from .domain import (
    NORMALIZATION_VERSION,
    Problem,
    format_verdict_marker,
    normalize_answer,
    parse_verdict_marker,
)
from .jsonio import canonical_json, jsonl_writer, load_jsonl, read_jsonl, write_jsonl
from .mcts import RolloutOutcome, SearchConfig, run_search
from .rewards import labelled_steps

SCHEMA_VERSION = 1

MODES = ("hybrid", "step_only", "outcome_only", "no_rationale")


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
    return canonical_json(record)


def parse_instance(line: str) -> TrainingInstance:
    try:
        record = json.loads(line)
    except ValueError as err:
        raise SerializationError(f"not a JSON record: {err}") from err
    return instance_from_record(record)


def instance_from_record(record: dict) -> TrainingInstance:
    """The instance a decoded dataset record holds; the inverse of the
    record `serialize_instance` encodes."""
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


@dataclass
class BuildReport:
    """What a build did: kept and dropped counts, the flip log and the
    per-problem errors. The kept instances themselves are in the dataset
    file only; `load_instances` reads them back."""

    problems_total: int = 0
    rollouts_total: int = 0
    kept: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    flip_events: list[FlipEvent] = field(default_factory=list)
    problem_errors: list[dict] = field(default_factory=list)

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
    mode: str,
    config_hash: str,
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
    # A candidate depends on the rollout only through its steps and
    # verifications, so a rollout that repeats an earlier one's is judged once.
    # Replays add no rollout, but rollouts are simulated outside the tree: a
    # later round that simulates from a deeper node of a line an earlier
    # rollout walked can sample the same continuation, and a final step's
    # first visit repeats the earlier rollout that ended on it.
    seen: set[tuple] = set()
    for rollout in result.rollouts:
        key = (rollout.steps, rollout.verifications)
        if key in seen:
            continue
        seen.add(key)
        candidate = assemble_candidate(
            problem, rollout, mode, search_cfg.outcome_beta, search_cfg.decay_gamma
        )
        flips.extend(candidate.flips)
        reason = filter_trace(candidate)
        if reason is not None:
            drops[reason] = drops.get(reason, 0) + 1
            continue
        provenance = Provenance(
            problem_id=problem.id,
            tree_id=tree_id_for(problem.id, search_cfg.rng_seed),
            rollout_index=rollout.round_index,
            rng_seed=search_cfg.rng_seed,
            config_hash=config_hash,
            pipeline_version=PIPELINE_VERSION,
        )
        instances.append(
            finalize_instance(candidate, provenance, mode == "no_rationale")
        )
    return instances, drops, flips, errors, len(seen)


def run_in_order(fn: Callable, items: Iterable, emit: Callable[[Any], None],
                 workers: int, helpers: bool = True) -> None:
    """Run `fn(item)` for every item on a pool of `workers` threads and pass
    each result to `emit` in item order. The worker that finishes the next
    item in order emits it, and then every finished item after it that was
    waiting, under one lock; so only results that finished ahead of an
    earlier, slower item are held, never all of them.

    The calling thread sleeps until every task is done. Waking it for each
    result makes it contend with the workers for the interpreter lock once
    per task, which slowed a one-worker build of 100 synth-deep problems by
    9-17%.

    Emitting stops at the first item whose task or `emit` raises, so what was
    emitted is the items before it, and tasks not yet started are skipped;
    that exception is raised once the pool drains.

    With `helpers`, beside the pool run at most `workers` helper threads,
    which send the backend calls of a task that miss the response cache while
    its worker goes on (`transport.Overlap`). The first such call starts them,
    so a run whose calls the cache answers starts none. They are joined before
    this returns. Without `helpers` (a stage whose backends are all synthetic,
    so no call can miss), every call runs as a plain call on its worker."""
    lock = threading.Lock()
    waiting: dict[int, tuple[bool, Any]] = {}
    next_index = 0
    failure: list[BaseException] = []

    def run(index: int, item) -> None:
        nonlocal next_index
        if failure:  # nothing after the failed item is emitted
            return
        try:
            outcome = (True, fn(item))
        except BaseException as err:  # noqa: BLE001 - raised in order after the drain
            outcome = (False, err)
        with lock:
            if failure:
                return
            waiting[index] = outcome
            while next_index in waiting:
                ok, value = waiting.pop(next_index)
                if ok:
                    try:
                        emit(value)
                    except BaseException as err:  # noqa: BLE001 - as above
                        ok, value = False, err
                if not ok:
                    failure.append(value)
                    waiting.clear()
                    return
                next_index += 1

    helper_pool = (ThreadPoolExecutor(max_workers=workers, thread_name_prefix=HELPER_THREAD_NAME)
                   if helpers else None)
    with helper_pool or nullcontext(), ThreadPoolExecutor(
            max_workers=workers, initializer=use_helpers, initargs=(helper_pool,)) as pool:
        for index, item in enumerate(items):
            pool.submit(run, index, item)
    if failure:
        raise failure[0]


def build_dataset(
    problems: Sequence[Problem],
    generator: StepGenerator,
    verifier: StepVerifier,
    search_cfg: SearchConfig,
    output_path: str | Path,
    *,
    mode: str = "hybrid",
    config_hash: str = "",
    workers: int = 1,
    helpers: bool = True,
) -> BuildReport:
    """Search every problem, convert its distinct rollouts, filter, and write
    the instances labelled in `mode` to `output_path`. Provenance takes its
    seed from `search_cfg` and records `config_hash`.

    Problems run on a pool of `workers` threads. A problem's instances are
    written once it and every earlier problem are done, so the file is always
    in the given problem order and no instance outlives its write. A failing
    problem is recorded and skipped, never fatal; an unknown mode fails
    before the file is opened or any problem runs. `helpers` is
    `run_in_order`'s.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    report = BuildReport(problems_total=len(problems))

    def task(problem: Problem):
        try:
            return _build_one(problem, generator, verifier, search_cfg, mode, config_hash)
        except Exception as err:  # noqa: BLE001 - per-problem isolation is the contract
            return [], {}, [], [{"problem_id": problem.id, "error": str(err)}], 0

    def emit(result) -> None:
        instances, drops, flips, errors, rollout_count = result
        for instance in instances:
            write(instance)
        report.kept += len(instances)
        for reason, count in drops.items():
            report.dropped[reason] = report.dropped.get(reason, 0) + count
        report.flip_events.extend(flips)
        report.problem_errors.extend(errors)
        report.rollouts_total += rollout_count

    with jsonl_writer(output_path, serialize_instance) as write:
        run_in_order(task, problems, emit, workers, helpers)
    return report


def load_instances(path: str | Path) -> list[TrainingInstance]:
    """Read a dataset file. A bad line raises the exception type that
    `parse_instance` raises for it, with the file and the line in the message."""
    instances = []
    records = read_jsonl(path)
    while True:
        try:
            line_no, record = next(records)
        except StopIteration:
            return instances
        except ValueError as err:  # not JSON, or not an object; names the line
            raise SerializationError(str(err)) from err
        try:
            instances.append(instance_from_record(record))
        except ValueError as err:
            raise type(err)(f"{path} line {line_no}: {err}") from err


def load_problems(path: str | Path) -> list[Problem]:
    """Read a line-delimited problem set of {id, statement, gold_answer}.

    Ids are strings, unique within the file; gold answers are canonicalized.
    A bad record raises ValueError naming the file and the line.
    """
    seen: set[str] = set()

    def build(record: dict) -> Problem:
        for key in ("id", "statement", "gold_answer"):
            if not isinstance(record[key], str):
                raise ValueError(f"{key} must be a string, got {record[key]!r}")
        problem = Problem(
            id=record["id"],
            statement=record["statement"],
            gold_answer=normalize_answer(record["gold_answer"]),
            source=record.get("source", "external"),
        )
        if problem.id in seen:
            raise ValueError(f"duplicate problem id: {problem.id}")
        seen.add(problem.id)
        return problem

    return load_jsonl(path, build)


def write_problems(path: str | Path, problems: Sequence[Problem]) -> None:
    """Write a problem set in the format `load_problems` reads."""
    write_jsonl(path, (
        {
            "id": problem.id,
            "statement": problem.statement,
            "gold_answer": problem.gold_answer,
            "source": problem.source,
        }
        for problem in problems
    ))
