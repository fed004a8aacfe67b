"""Command-line entry point: one binary, one subcommand per pipeline stage.

  generate  build a training dataset from multi-round searches
  decode    reward-guided greedy search over a problem set
  eval      first-error localization scoring / F1 table recomputation
  synth     end-to-end demo on the built-in synthetic domain
  inspect   dump the search tree for one problem

This module only wires stages together. `config` owns the run config,
backend specs included; `dataset`, `decoding` and `evaluation` own their
file formats. Every command is deterministic given (config, seeds, warm
cache). Failures print a machine-readable JSON error record to stderr and
exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from .backends import (
    ChatCompletionGenerator,
    ExactVerifier,
    FileResponseCache,
    OracleScorer,
    ScriptedGenerator,
    ServedPrmScorer,
    ToolVerifier,
    builtin_template,
    host_limiters,
)
from .backends.transport import CacheMiss, Overlap, cache_only
from .config import ConfigError, RunConfig, load_config
from .dataset import (
    MODES,
    BuildReport,
    build_dataset,
    load_problems,
    run_in_order,
    write_problems,
)
from .decoding import decode, decode_log_records, pass_at_n, sample_rollout
from .evaluation import (
    AnnotatedSample,
    EvalReport,
    Prediction,
    ReferenceRow,
    load_annotated,
    load_predictions,
    locate_first_error,
    recompute_reference_table,
    reference_rows,
    render_score_table,
    report_to_dict,
    score_samples,
    write_annotated,
    write_predictions,
)
from .jsonio import canonical_json, jsonl_writer, write_json
from .mcts import export_tree, run_search
from .synthetic import SyntheticTrace, build_corpus, oracle_labels


def _build_backends(cfg: RunConfig, traces: list[SyntheticTrace] | None,
                    roles: tuple[str, ...]) -> dict:
    """One backend per role: the http client of its parsed spec, or the
    synthetic oracle over `traces`. Every http role shares one response cache
    under `paths.cache_dir`, when that is set, and the endpoints on one host
    share one rate limiter."""
    scorer_template = "scorer_label_only" if cfg.mode == "no_rationale" else "scorer"
    specs = [cfg.backends[role] for role in roles if cfg.backends[role] is not None]
    cache = None
    if cfg.paths.cache_dir is not None and specs:
        cache = FileResponseCache(cfg.paths.cache_dir)
    limiters = host_limiters(endpoint for spec in specs
                             for endpoint in (spec.endpoint, spec.judger) if endpoint is not None)
    built = {}
    for role in roles:
        spec = cfg.backends[role]
        if role == "generator" and spec is None:
            built[role] = ScriptedGenerator(
                traces,
                branch_noise=cfg.synthetic.branch_noise,
                noise_deltas=cfg.synthetic.noise_deltas,
                seed=cfg.search.rng_seed,
            )
        elif role == "generator":
            built[role] = ChatCompletionGenerator(spec.endpoint, builtin_template("generator"),
                                                  cache=cache, limiters=limiters)
        elif role == "verifier" and spec is None:
            built[role] = ExactVerifier(traces)
        elif role == "verifier":
            built[role] = ToolVerifier(spec.endpoint, spec.judger, builtin_template("judger"),
                                       cache=cache, limiters=limiters)
        elif spec is None:
            built[role] = OracleScorer(traces)
        else:
            built[role] = ServedPrmScorer(
                spec.endpoint, builtin_template(scorer_template), cache=cache,
                mode=spec.score_mode, limiters=limiters,
            )
    return built


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config)
    return cfg.with_overrides(seed=args.seed, mode=args.mode, workers=args.workers)


def _stage_inputs(args, roles: tuple[str, ...]):
    """The set-up of `generate`, `decode` and `inspect`: the config with the
    CLI overrides, the problems, their synthetic traces and the backends of
    `roles`.

    Only the roles the command uses decide where the problems come from: a
    synthetic backend needs the corpus, remote ones a problems file (and the
    traces are None).
    """
    cfg = _load_cfg(args)
    traces = None
    if any(cfg.backends[role] is None for role in roles):
        if cfg.paths.problems_file is not None:
            raise ConfigError(
                "synthetic backends generate their own problems; remove "
                "paths.problems_file or switch every backend to http"
            )
        if cfg.synthetic is None:
            raise ConfigError("synthetic backends require a [synthetic] corpus section")
        traces = build_corpus(cfg.synthetic)
        problems = [trace.problem for trace in traces]
    elif cfg.paths.problems_file is None:
        raise ConfigError("paths.problems_file is required when all backends are remote")
    else:
        problems = load_problems(cfg.paths.problems_file)
    return cfg, problems, traces, _build_backends(cfg, traces, roles)


def _sends(cfg: RunConfig, roles: tuple[str, ...]) -> bool:
    """Whether a backend of `roles` is remote, so that one of its calls can
    miss the response cache and a stage needs helper threads to send it."""
    return any(cfg.backends.get(role) is not None for role in roles)


def _generate(cfg: RunConfig, problems, generator, verifier, out: Path) -> BuildReport:
    """The generate stage: search every problem and emit `dataset.jsonl`."""
    return build_dataset(
        problems, generator, verifier, cfg.search, out / "dataset.jsonl",
        mode=cfg.mode, config_hash=cfg.config_hash, workers=cfg.workers,
        helpers=_sends(cfg, ("generator", "verifier")),
    )


_ASKING = object()  # the answer slot of a key whose ask is in flight


class _ProblemCandidates:
    """One problem's decode-stage generator: each distinct (state, count) is
    asked of `policy` once, and every later ask gets the same candidates.

    The guided decode and the pass@n samples of one problem walk largely the
    same states. A synthetic generator returns the same candidates for one
    state by its seed, and a cached remote one by its cache entries, so
    sharing the lists changes no output there. Without a cache, a remote
    generator sends nothing for a repeated state, so the samples share
    candidate sets as they do on a cached run.

    The problem's worker and helper threads ask at once, so the asks are
    single-flight: the first thread to claim a key's answer slot, under the
    lock, asks `policy`, and later askers wait for its list, or for its
    error, which they share, so a failing state is sent for once. A
    `CacheMiss` is not kept: the slot is dropped and the next asker asks
    again. A cache-only try that finds the key in flight raises `CacheMiss`
    rather than wait, which keeps the worker free for the guided decode. A
    thread that asks `policy` asks nothing else meanwhile, so no two threads
    wait for each other. An endpoint may vary its reply to one body by how
    often that body came (as the fake servers of the tests and the benchmark
    do); each key is still sent by one thread with its sample indices in
    order, so outputs and request counts do not depend on which thread asks.
    A key that is answered costs one dict lookup and takes no lock.
    """

    def __init__(self, policy):
        self._policy = policy
        self._lock = threading.Lock()
        self._answered = threading.Condition(self._lock)
        self._waiting = 0  # threads waiting for an answer; none on a synthetic run
        # key -> [its candidates, its error, or _ASKING]
        self._asked: dict = {}

    def generate(self, problem, state, count):
        key = (state, count)
        while True:
            slot = self._asked.get(key)
            if slot is None:
                claim = [_ASKING]
                with self._lock:
                    slot = self._asked.setdefault(key, claim)
                if slot is claim:
                    break
            if slot[0] is _ASKING:
                if cache_only():
                    raise CacheMiss
                with self._answered:
                    self._waiting += 1
                    self._answered.wait_for(lambda: slot[0] is not _ASKING)
                    self._waiting -= 1
            answer = slot[0]
            if isinstance(answer, Exception):
                raise answer
            if answer is not None:  # None: its asker's cache-only try missed
                return answer
        try:
            slot[0] = self._policy.generate(problem, state, count)
        except CacheMiss:
            raise
        except Exception as err:
            slot[0] = err
            raise
        finally:
            with self._lock:
                if slot[0] is _ASKING:
                    del self._asked[key]
                    slot[0] = None
                if self._waiting:
                    self._answered.notify_all()
        return slot[0]


def _decode(cfg: RunConfig, problems, generator, scorer, out: Path) -> dict:
    """The decode stage: one task per problem on a pool of `cfg.workers`
    threads, which starts the problem's `pass_n` samples and then decodes it
    reward-guided. A sample that the response cache cannot answer runs on
    one of the stage's helper threads beside the guided decode (`Overlap`);
    the rest run on the worker, as do the scores of a guided step that no
    helper has taken (`greedy_step`). The task's generator asks each distinct
    state once, whichever thread asks first (`_ProblemCandidates`), and is
    dropped with the task, so what it holds is bounded by one problem.

    A failing problem reports the error the sequential task meets first: the
    guided decode's, or else the lowest-numbered failing sample's. Once the
    guided decode has failed, no sample still queued starts.

    Writes a problem's lines of `decode_results.jsonl` and `decode_log.jsonl`
    once it and every earlier problem are done, so both files are in problem
    order, and keeps only each problem's `correct` flag and pass@n row. The
    first failing problem in problem order ends the stage with its error
    (`run_in_order`); the files then hold the problems before it. Returns
    the guided accuracy and pass@1 / pass@n.
    """
    pass_n = cfg.decode.pass_n
    correct: list[bool] = []
    matrix: list[list[bool]] = []

    def task(problem):
        policy = _ProblemCandidates(generator)
        guided_failed = []

        def sample(index):
            """The sample's `correct` flag, or the error it met, which is
            raised only after the guided decode has succeeded."""
            if guided_failed:
                return None
            try:
                return sample_rollout(problem, policy, cfg.decode, index)[1]
            except CacheMiss:  # not a failure: `Overlap` sends the sample from a helper
                raise
            except Exception as err:  # noqa: BLE001 - raised below, in sample order
                return err

        with Overlap() as samples:
            for index in range(pass_n):
                samples.start(sample, index)
            try:
                result = decode(problem, policy, scorer, cfg.decode)
            except BaseException:
                guided_failed.append(True)
                raise
        for outcome in samples.results:
            if isinstance(outcome, Exception):
                raise outcome
        return result, samples.results

    def emit(decoded) -> None:
        result, row = decoded
        write_result({
            "id": result.problem_id,
            "correct": result.correct,
            "complete": result.complete,
            "final_answer": result.trajectory.final_answer,
            "steps": [s.action for s in result.trajectory.steps],
        })
        for record in decode_log_records(result):
            write_log(record)
        correct.append(result.correct)
        matrix.append(row)

    with jsonl_writer(out / "decode_results.jsonl") as write_result, \
            jsonl_writer(out / "decode_log.jsonl") as write_log:
        run_in_order(task, problems, emit, cfg.workers, _sends(cfg, ("generator", "scorer")))
    return {
        "guided_accuracy": sum(correct) / len(correct) if correct else 0.0,
        "pass_at_1": pass_at_n(matrix, 1) if matrix else 0.0,
        f"pass_at_{pass_n}": pass_at_n(matrix, pass_n) if matrix else 0.0,
    }


def cmd_generate(args) -> int:
    cfg, problems, traces, backends = _stage_inputs(args, ("generator", "verifier"))
    out = _outdir(cfg, args.output)
    report = _generate(cfg, problems, backends["generator"], backends["verifier"], out)
    if traces is not None:
        write_problems(out / "problems.jsonl", problems)
    summary = report.summary_dict()
    summary.update({"mode": cfg.mode, "rng_seed": cfg.search.rng_seed,
                    "config_hash": cfg.config_hash})
    write_json(out / "summary.json", summary)
    print(f"generate: kept {report.kept} of {report.rollouts_total} rollouts "
          f"({report.dropped_total} dropped) -> {out / 'dataset.jsonl'}")
    return 0


def cmd_decode(args) -> int:
    cfg, problems, _, backends = _stage_inputs(args, ("generator", "scorer"))
    out = _outdir(cfg, args.output)
    summary = _decode(cfg, problems, backends["generator"], backends["scorer"], out)
    summary.update({"problems": len(problems), "rng_seed": cfg.decode.rng_seed,
                    "config_hash": cfg.config_hash})
    write_json(out / "decode_summary.json", summary)
    print(f"decode: guided accuracy {summary['guided_accuracy']:.3f} on "
          f"{len(problems)} problems -> {out}")
    return 0


def _eval_reference(rows: list[ReferenceRow], out: Path | None) -> int:
    recomputed = recompute_reference_table(rows)
    table = [
        (row.model, row.benchmark, row.error_accuracy, row.correct_accuracy, f1)
        for row, f1 in recomputed
    ]
    text = render_score_table(table)
    max_dev = max(
        (abs(f1 - row.reported_f1) for row, f1 in recomputed), default=0.0
    )
    payload = {
        "rows": [
            {
                "model": row.model,
                "benchmark": row.benchmark,
                "error": row.error_accuracy,
                "correct": row.correct_accuracy,
                "reported_f1": row.reported_f1,
                "recomputed_f1": f1,
            }
            for row, f1 in recomputed
        ],
        "max_abs_deviation": max_dev,
    }
    print(text, end="")
    print(f"max |recomputed - reported| = {max_dev:.4f}")
    if out is not None:
        write_json(out / "f1_table.json", payload)
        (out / "f1_table.txt").write_text(text, encoding="utf-8")
    return 0


def _eval(predictions: list[Prediction], annotations: list[AnnotatedSample],
          out: Path | None, model: str, benchmark: str) -> tuple[EvalReport, str]:
    """The eval stage: score first-error predictions against annotations and
    render the one-row table; with `out`, write `eval_report.json` and
    `eval_report.txt` there."""
    report = score_samples(predictions, annotations)
    text = render_score_table(
        [(model, benchmark, report.error_accuracy, report.correct_accuracy, report.f1)]
    )
    if out is not None:
        write_json(out / "eval_report.json", report_to_dict(report))
        (out / "eval_report.txt").write_text(text, encoding="utf-8")
    return report, text


def cmd_eval(args) -> int:
    out = Path(args.output) if args.output else None
    if args.reference or args.pairs:
        return _eval_reference(reference_rows(None if args.reference else args.pairs), out)
    if not args.annotations or not args.predictions:
        raise ConfigError(
            "eval needs --annotations and --predictions, or --pairs, or --reference"
        )
    annotations = load_annotated(args.annotations)
    _, text = _eval(load_predictions(args.predictions), annotations, out, "predictions", "-")
    print(text, end="")
    return 0


def _synth_eval(traces: list[SyntheticTrace], out: Path) -> EvalReport:
    """Write the corpus's gold annotations and its oracle's first-error
    predictions, then score them. Only the report outlives the call, so
    neither list is held through the generate and decode stages."""
    annotations = [
        AnnotatedSample(
            sample_id=trace.problem.id,
            problem=trace.problem.statement,
            steps=tuple(s.action for s in trace.trajectory.steps),
            gold_first_error=trace.first_error_index,
        )
        for trace in traces
    ]
    write_annotated(out / "annotations.jsonl", annotations)
    predictions = [
        Prediction(
            sample_id=trace.problem.id,
            first_error=locate_first_error(oracle_labels(trace.trajectory.steps, trace)),
        )
        for trace in traces
    ]
    write_predictions(out / "predictions.jsonl", predictions)
    report, _ = _eval(predictions, annotations, out, "exact-verifier", "synthetic")
    return report


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    if cfg.synthetic is None:
        raise ConfigError("synth requires a [synthetic] corpus section")
    out = _outdir(cfg, args.output)
    traces = build_corpus(cfg.synthetic)
    problems = [trace.problem for trace in traces]
    backends = _build_backends(cfg, traces, ("generator", "verifier", "scorer"))

    write_problems(out / "problems.jsonl", problems)

    eval_report = _synth_eval(traces, out)

    build_report = _generate(cfg, problems, backends["generator"], backends["verifier"], out)
    write_json(out / "dataset_summary.json", build_report.summary_dict())
    decoded = _decode(cfg, problems, backends["generator"], backends["scorer"], out)

    dropped = dict(sorted(build_report.dropped.items()))
    pass_n = cfg.decode.pass_n
    report = {
        "config_hash": cfg.config_hash,
        "rng_seed": cfg.search.rng_seed,
        "mode": cfg.mode,
        "problems": len(problems),
        "dataset": {
            "rollouts": build_report.rollouts_total,
            "kept": build_report.kept,
            "dropped": dropped,
            "flip_events": len(build_report.flip_events),
        },
        "decode": decoded,
        "eval": report_to_dict(eval_report),
    }
    write_json(out / "report.json", report)
    lines = [
        "synthetic end-to-end report",
        f"  problems:        {len(problems)}",
        f"  dataset kept:    {build_report.kept} of {build_report.rollouts_total} rollouts",
        f"  dataset dropped: {dropped}",
        f"  guided accuracy: {decoded['guided_accuracy']:.3f}",
        f"  pass@1:          {decoded['pass_at_1']:.3f}",
        f"  pass@{pass_n}:          {decoded[f'pass_at_{pass_n}']:.3f}",
        f"  eval F1:         {eval_report.f1:.1f}",
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def cmd_inspect(args) -> int:
    cfg, problems, _, backends = _stage_inputs(args, ("generator", "verifier"))
    if args.problem_id:
        matches = [p for p in problems if p.id == args.problem_id]
        if not matches:
            raise ConfigError(f"no problem with id {args.problem_id}")
        problem = matches[0]
    elif 0 <= args.problem_index < len(problems):
        problem = problems[args.problem_index]
    else:
        raise ConfigError(
            f"--problem-index {args.problem_index} is out of range for "
            f"{len(problems)} problems"
        )
    result = run_search(problem, backends["generator"], backends["verifier"], cfg.search)
    dump = export_tree(result.root)
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dump, encoding="utf-8")
        print(f"inspect: wrote tree for {problem.id} to {path}")
    else:
        print(dump, end="")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override every stage seed")
    parser.add_argument("--workers", type=int, default=None, help="override the worker pool size")
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="override the labeling mode",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeprm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="build a training dataset")
    _add_common(p_generate)
    p_generate.add_argument("--output", default=None, help="output directory override")
    p_generate.set_defaults(func=cmd_generate)

    p_decode = sub.add_parser("decode", help="reward-guided greedy decoding")
    _add_common(p_decode)
    p_decode.add_argument("--output", default=None, help="output directory override")
    p_decode.set_defaults(func=cmd_decode)

    p_eval = sub.add_parser("eval", help="first-error localization scoring")
    p_eval.add_argument("--annotations", default=None, help="annotated samples (JSONL)")
    p_eval.add_argument("--predictions", default=None, help="predicted first errors (JSONL)")
    p_eval.add_argument("--pairs", default=None,
                        help="JSON file of (error, correct) accuracy rows to recompute F1 for")
    p_eval.add_argument("--reference", action="store_true",
                        help="recompute F1 for the bundled published score rows")
    p_eval.add_argument("--output", default=None, help="directory for report files")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="end-to-end synthetic demo")
    _add_common(p_synth)
    p_synth.add_argument("--output", default=None, help="output directory override")
    p_synth.set_defaults(func=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="dump one problem's search tree")
    _add_common(p_inspect)
    p_inspect.add_argument("--problem-id", default=None, help="problem id to inspect")
    p_inspect.add_argument("--problem-index", type=int, default=0,
                           help="fallback positional index when no id is given")
    p_inspect.add_argument("--output", default=None, help="file for the tree dump")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # noqa: BLE001 - CLI boundary emits a machine-readable record
        record = {"error": type(err).__name__, "message": str(err)}
        print(canonical_json(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
