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
from contextlib import ExitStack
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
    host_origins,
)
from .config import ConfigError, RunConfig, load_config
from .dataset import (
    MODES,
    BuildReport,
    build_dataset,
    load_problems,
    run_in_order,
    write_problems,
)
from .decoding import decode_log_records, decode_problem, pass_at_n
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
    score_samples,
    write_annotated,
    write_predictions,
)
from .jsonio import canonical_json, jsonl_writer, write_json
from .mcts import export_tree, run_search
from .synthetic import SyntheticTrace, build_corpus, oracle_labels

# A remote stage runs this many times `workers` problems at once (README
# `--workers`, where the measurements behind it are).
_REMOTE_FACTOR = 8


def _build_backends(cfg: RunConfig, traces: list[SyntheticTrace] | None,
                    roles: tuple[str, ...], closing: ExitStack | None = None) -> dict:
    """One backend per role: the http client of its parsed spec, or the
    synthetic oracle over `traces`. Every http role shares one response cache
    under `paths.cache_dir`, when that is set, and the endpoints on one origin
    share one `Origin`: its rate limiter and its idle connections, which
    `closing` closes (`main` closes them when the command ends)."""
    scorer_template = "scorer_label_only" if cfg.mode == "no_rationale" else "scorer"
    specs = [cfg.backends[role] for role in roles if cfg.backends[role] is not None]
    cache = None
    if cfg.paths.cache_dir is not None and specs:
        cache = FileResponseCache(cfg.paths.cache_dir)
    origins = host_origins(endpoint for spec in specs
                           for endpoint in (spec.endpoint, spec.judger) if endpoint is not None)
    if closing is not None:
        for pool in origins.values():
            closing.callback(pool.close)
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
                                                  cache=cache, origins=origins)
        elif role == "verifier" and spec is None:
            built[role] = ExactVerifier(traces)
        elif role == "verifier":
            built[role] = ToolVerifier(spec.endpoint, spec.judger, builtin_template("judger"),
                                       cache=cache, origins=origins)
        elif spec is None:
            built[role] = OracleScorer(traces)
        else:
            built[role] = ServedPrmScorer(
                spec.endpoint, builtin_template(scorer_template), cache=cache,
                mode=spec.score_mode, origins=origins,
            )
    return built


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config)
    return cfg.with_overrides(seed=args.seed, mode=getattr(args, "mode", None),
                              workers=getattr(args, "workers", None))


def _stage_inputs(args, roles: tuple[str, ...]):
    """The set-up of every command that runs stages: the config with the CLI
    overrides, the problems, their synthetic traces and the backends of
    `roles`.

    The problems come from the synthetic corpus in `synth`, which always
    builds it for its oracle eval, and in any command with a synthetic
    backend among `roles`, which needs the traces. Otherwise every backend
    is remote, the problems come from `paths.problems_file` and the traces
    are None.
    """
    cfg = _load_cfg(args)
    if args.command == "synth" or any(cfg.backends[role] is None for role in roles):
        source = "problems come from the synthetic corpus in synth and with a synthetic backend"
        if cfg.paths.problems_file is not None:
            raise ConfigError(f"{source}; remove paths.problems_file")
        if cfg.synthetic is None:
            raise ConfigError(f"{source}; add a [synthetic] section")
        traces = build_corpus(cfg.synthetic)
        problems = [trace.problem for trace in traces]
    elif cfg.paths.problems_file is None:
        raise ConfigError("paths.problems_file is required when all backends are remote")
    else:
        traces = None
        problems = load_problems(cfg.paths.problems_file)
    return cfg, problems, traces, _build_backends(cfg, traces, roles, args.closing)


def _stage_threads(cfg: RunConfig, roles: tuple[str, ...], problems: int) -> int:
    """How many of its `problems` a stage of `roles` runs at once:
    `cfg.workers`, or _REMOTE_FACTOR times that when one of its backends is
    remote, since a problem then spends most of its time waiting for
    replies; never more than there are problems. The threads share each
    origin's connections, which open no faster than the server shows that it
    accepts them (README **Connections**). A problem's own calls run in
    order on its thread."""
    remote = any(cfg.backends.get(role) is not None for role in roles)
    return min(_REMOTE_FACTOR * cfg.workers if remote else cfg.workers, problems)


def _generate(cfg: RunConfig, problems, generator, verifier, out: Path) -> BuildReport:
    """The generate stage: search every problem and write `dataset.jsonl` and
    `summary.json`."""
    report = build_dataset(
        problems, generator, verifier, cfg.search, out / "dataset.jsonl",
        mode=cfg.mode, config_hash=cfg.config_hash,
        workers=_stage_threads(cfg, ("generator", "verifier"), len(problems)),
    )
    write_json(out / "summary.json", {**report.summary_dict(), "mode": cfg.mode,
                                      "rng_seed": cfg.search.rng_seed,
                                      "config_hash": cfg.config_hash})
    return report


def _decode(cfg: RunConfig, problems, generator, scorer, out: Path) -> dict:
    """The decode stage: one `decode_problem` task per problem on the
    stage's threads (`_stage_threads`), so requests of one problem are never
    sent concurrently.

    Writes a problem's lines of `decode_results.jsonl` and `decode_log.jsonl`
    once it and every earlier problem are done, so both files are in problem
    order, and keeps only each problem's `correct` flag and pass@n row. The
    first failing problem in problem order ends the stage with its error
    (`run_in_order`); the files then hold the problems before it. Then writes
    `decode_summary.json` and returns its guided accuracy and pass@1 /
    pass@n.
    """
    pass_n = cfg.decode.pass_n
    correct: list[bool] = []
    matrix: list[list[bool]] = []

    def emit(decoded) -> None:
        result, row = decoded
        write_result({
            "id": result.problem_id,
            "correct": result.correct,
            "complete": result.trajectory.complete,
            "final_answer": result.trajectory.final_answer,
            "steps": [s.action for s in result.trajectory.steps],
        })
        for record in decode_log_records(result):
            write_log(record)
        correct.append(result.correct)
        matrix.append(row)

    with jsonl_writer(out / "decode_results.jsonl") as write_result, \
            jsonl_writer(out / "decode_log.jsonl") as write_log:
        run_in_order(lambda problem: decode_problem(problem, generator, scorer, cfg.decode),
                     problems, emit, _stage_threads(cfg, ("generator", "scorer"), len(problems)))
    decoded = {
        "guided_accuracy": sum(correct) / len(correct) if correct else 0.0,
        "pass_at_1": pass_at_n(matrix, 1) if matrix else 0.0,
        f"pass_at_{pass_n}": pass_at_n(matrix, pass_n) if matrix else 0.0,
    }
    write_json(out / "decode_summary.json", {**decoded, "problems": len(problems),
                                             "rng_seed": cfg.decode.rng_seed,
                                             "config_hash": cfg.config_hash})
    return decoded


def cmd_generate(args) -> int:
    cfg, problems, traces, backends = _stage_inputs(args, ("generator", "verifier"))
    out = _outdir(cfg, args.output)
    if traces is not None:
        write_problems(out / "problems.jsonl", problems)
    report = _generate(cfg, problems, backends["generator"], backends["verifier"], out)
    print(f"generate: kept {report.kept} of {report.rollouts_total} rollouts "
          f"({report.dropped_total} dropped) -> {out / 'dataset.jsonl'}")
    return 0


def cmd_decode(args) -> int:
    cfg, problems, _, backends = _stage_inputs(args, ("generator", "scorer"))
    out = _outdir(cfg, args.output)
    decoded = _decode(cfg, problems, backends["generator"], backends["scorer"], out)
    print(f"decode: guided accuracy {decoded['guided_accuracy']:.3f} on "
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
        write_json(out / "eval_report.json", vars(report))
        (out / "eval_report.txt").write_text(text, encoding="utf-8")
    return report, text


def cmd_eval(args) -> int:
    out = Path(args.output) if args.output else None
    scored = args.annotations is not None or args.predictions is not None
    if [args.reference, args.pairs is not None, scored].count(True) != 1 or (
            scored and None in (args.annotations, args.predictions)):
        raise ConfigError(
            "eval takes one input: --annotations with --predictions, --pairs or --reference"
        )
    if not scored:
        return _eval_reference(reference_rows(args.pairs), out)
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
    """The generate stage, the decode stage and the oracle eval over one
    set-up, then `report.json` and `report.txt` from their results."""
    cfg, problems, traces, backends = _stage_inputs(args, ("generator", "verifier", "scorer"))
    out = _outdir(cfg, args.output)
    write_problems(out / "problems.jsonl", problems)
    eval_report = _synth_eval(traces, out)
    build_report = _generate(cfg, problems, backends["generator"], backends["verifier"], out)
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
        "eval": vars(eval_report),
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
    index = 0 if args.problem_index is None else args.problem_index
    if args.problem_id is not None:
        matches = [p for p in problems if p.id == args.problem_id]
        if not matches:
            raise ConfigError(f"no problem with id {args.problem_id}")
        problem = matches[0]
    elif 0 <= index < len(problems):
        problem = problems[index]
    else:
        raise ConfigError(
            f"--problem-index {index} is out of range for "
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


def _add_stage(sub, name: str, summary: str, func) -> None:
    """A command that runs pipeline stages: it takes the common flags, a
    worker count, a labeling mode and an output directory."""
    parser = sub.add_parser(name, help=summary)
    _add_common(parser)
    parser.add_argument("--workers", type=int, default=None, help="override the worker pool size")
    parser.add_argument("--mode", choices=MODES, default=None, help="override the labeling mode")
    parser.add_argument("--output", default=None, help="output directory override")
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeprm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_stage(sub, "generate", "build a training dataset", cmd_generate)
    _add_stage(sub, "decode", "reward-guided greedy decoding", cmd_decode)

    p_eval = sub.add_parser("eval", help="first-error localization scoring")
    p_eval.add_argument("--annotations", default=None, help="annotated samples (JSONL)")
    p_eval.add_argument("--predictions", default=None, help="predicted first errors (JSONL)")
    p_eval.add_argument("--pairs", default=None,
                        help="JSON file of (error, correct) accuracy rows to recompute F1 for")
    p_eval.add_argument("--reference", action="store_true",
                        help="recompute F1 for the bundled published score rows")
    p_eval.add_argument("--output", default=None, help="directory for report files")
    p_eval.set_defaults(func=cmd_eval)

    _add_stage(sub, "synth", "end-to-end synthetic demo", cmd_synth)

    # inspect runs on one thread and writes no labels: no --workers or --mode.
    p_inspect = sub.add_parser("inspect", help="dump one problem's search tree")
    _add_common(p_inspect)
    target = p_inspect.add_mutually_exclusive_group()
    target.add_argument("--problem-id", default=None, help="problem id to inspect")
    target.add_argument("--problem-index", type=int, default=None,
                        help="position of the problem to inspect (default 0)")
    p_inspect.add_argument("--output", default=None, help="file for the tree dump")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with ExitStack() as args.closing:
            return args.func(args)
    except Exception as err:  # noqa: BLE001 - CLI boundary emits a machine-readable record
        record = {"error": type(err).__name__, "message": str(err)}
        print(canonical_json(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
