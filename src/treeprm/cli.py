"""Command-line entry point: one binary, one subcommand per pipeline stage.

  generate  build a training dataset from multi-round searches
  decode    reward-guided greedy search over a problem set
  eval      first-error localization scoring / F1 table recomputation
  synth     end-to-end demo on the built-in synthetic domain
  inspect   dump the search tree for one problem

Every command is deterministic given (config, seeds, warm cache). Failures
print a machine-readable JSON error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .backends import (
    ChatCompletionGenerator,
    ExactVerifier,
    OracleScorer,
    ScriptedGenerator,
    ServedPrmScorer,
    ToolVerifier,
    builtin_template,
)
from .config import ConfigError, RunConfig, backend_config_from, load_config
from .dataset import MODES, BuildConfig, BuildReport, build_dataset, load_problems, pool_map
from .decoding import decode, pass_at_n, sample_rollout, write_decode_log
from .domain import Problem
from .evaluation import (
    AnnotatedSample,
    Prediction,
    ReferenceRow,
    f1_from_accuracies,
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
from .jsonio import canonical_json, write_json, write_jsonl
from .mcts import export_tree, run_search
from .synthetic import SyntheticTrace, build_corpus, oracle_labels


def _write_problems(path: Path, problems: list[Problem]) -> None:
    write_jsonl(path, (
        {
            "id": problem.id,
            "statement": problem.statement,
            "gold_answer": problem.gold_answer,
            "source": problem.source,
        }
        for problem in problems
    ))


def _resolve_problems(
    cfg: RunConfig, roles: tuple[str, ...]
) -> tuple[list[Problem], list[SyntheticTrace] | None]:
    """Problems for this run: the synthetic corpus, or an external file.

    Only the backend roles the command actually uses decide which source
    applies; synthetic backends need the corpus, remote ones a problems file.
    """
    any_synthetic = any(cfg.backends[role].get("kind") == "synthetic" for role in roles)
    if any_synthetic:
        if cfg.paths.problems_file is not None:
            raise ConfigError(
                "synthetic backends generate their own problems; remove "
                "paths.problems_file or switch every backend to http"
            )
        if cfg.synthetic is None:
            raise ConfigError("synthetic backends require a [synthetic] corpus section")
        traces = build_corpus(cfg.synthetic)
        return [trace.problem for trace in traces], traces
    if cfg.paths.problems_file is None:
        raise ConfigError("paths.problems_file is required when all backends are remote")
    return load_problems(cfg.paths.problems_file), None


def _build_backends(cfg: RunConfig, traces: list[SyntheticTrace] | None,
                    roles: tuple[str, ...]) -> dict:
    cache_dir = cfg.paths.cache_dir
    scorer_template = "scorer_label_only" if cfg.mode == "no_rationale" else "scorer"
    built = {}
    for role in roles:
        spec = cfg.backends[role]
        synthetic = spec["kind"] == "synthetic"
        if synthetic and traces is None:
            raise ConfigError(f"backends.{role} is synthetic but no corpus is available")
        if role == "generator":
            if synthetic:
                built[role] = ScriptedGenerator(
                    traces,
                    branch_noise=cfg.synthetic.branch_noise,
                    noise_deltas=cfg.synthetic.noise_deltas,
                    seed=cfg.search.rng_seed,
                )
            else:
                built[role] = ChatCompletionGenerator(
                    backend_config_from(spec, "generator", cache_dir),
                    builtin_template("generator"),
                )
        elif role == "verifier":
            if synthetic:
                built[role] = ExactVerifier(traces)
            else:
                if "tool" not in spec or "judger" not in spec:
                    raise ConfigError(
                        "backends.verifier needs tool and judger endpoint objects"
                    )
                built[role] = ToolVerifier(
                    backend_config_from(spec["tool"], "verifier.tool", cache_dir),
                    backend_config_from(spec["judger"], "verifier.judger", cache_dir),
                    builtin_template("judger"),
                )
        elif role == "scorer":
            if synthetic:
                built[role] = OracleScorer(traces)
            else:
                built[role] = ServedPrmScorer(
                    backend_config_from(spec, "scorer", cache_dir),
                    builtin_template(scorer_template),
                    mode=spec.get("score_mode", "label"),
                )
    return built


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config)
    return cfg.with_overrides(seed=args.seed, mode=args.mode, workers=args.workers)


def _generate(cfg: RunConfig, problems, generator, verifier, out: Path) -> BuildReport:
    """The generate stage: search every problem and emit `dataset.jsonl`."""
    build_cfg = BuildConfig(
        mode=cfg.mode,
        rng_seed=cfg.search.rng_seed,
        config_hash=cfg.config_hash,
        workers=cfg.workers,
    )
    return build_dataset(
        problems, generator, verifier, cfg.search, build_cfg, out / "dataset.jsonl"
    )


def _decode(cfg: RunConfig, problems, generator, scorer, out: Path) -> dict:
    """The decode stage: reward-guided decoding of every problem, then pass@n
    sampling, both on one pool of `cfg.workers` threads.

    Writes `decode_results.jsonl` and `decode_log.jsonl` and returns the
    guided accuracy and pass@1 / pass@n. A pass@n task holds all of one
    problem's samples in order, so requests that share a body are never sent
    concurrently.
    """
    pass_n = cfg.decode.pass_n
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        results = pool_map(
            pool, lambda problem: decode(problem, generator, scorer, cfg.decode), problems
        )
        write_jsonl(out / "decode_results.jsonl", (
            {
                "id": result.problem_id,
                "correct": result.correct,
                "complete": result.complete,
                "final_answer": result.trajectory.final_answer,
                "steps": [s.action for s in result.trajectory.steps],
            }
            for result in results
        ))
        write_decode_log(out / "decode_log.jsonl", results)
        matrix = pool_map(
            pool,
            lambda problem: [sample_rollout(problem, generator, cfg.decode, s)[1]
                             for s in range(pass_n)],
            problems,
        )
    return {
        "guided_accuracy": sum(r.correct for r in results) / len(results) if results else 0.0,
        "pass_at_1": pass_at_n(matrix, 1) if matrix else 0.0,
        f"pass_at_{pass_n}": pass_at_n(matrix, pass_n) if matrix else 0.0,
    }


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg, args.output)
    roles = ("generator", "verifier")
    problems, traces = _resolve_problems(cfg, roles)
    backends = _build_backends(cfg, traces, roles)
    report = _generate(cfg, problems, backends["generator"], backends["verifier"], out)
    if traces is not None:
        _write_problems(out / "problems.jsonl", problems)
    summary = report.summary_dict()
    summary.update({"mode": cfg.mode, "rng_seed": cfg.search.rng_seed,
                    "config_hash": cfg.config_hash})
    write_json(out / "summary.json", summary)
    print(f"generate: kept {report.kept} of {report.rollouts_total} rollouts "
          f"({report.dropped_total} dropped) -> {out / 'dataset.jsonl'}")
    return 0


def cmd_decode(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg, args.output)
    roles = ("generator", "scorer")
    problems, traces = _resolve_problems(cfg, roles)
    backends = _build_backends(cfg, traces, roles)
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


def cmd_eval(args) -> int:
    out = Path(args.output) if args.output else None
    if args.reference:
        return _eval_reference(reference_rows(), out)
    if args.pairs:
        records = json.loads(Path(args.pairs).read_text(encoding="utf-8"))["rows"]
        rows = [
            ReferenceRow(
                model=r["model"],
                benchmark=r.get("benchmark", "-"),
                error_accuracy=r["error"],
                correct_accuracy=r["correct"],
                reported_f1=r.get("f1", f1_from_accuracies(r["error"], r["correct"])),
            )
            for r in records
        ]
        return _eval_reference(rows, out)
    if not args.annotations or not args.predictions:
        raise ConfigError(
            "eval needs --annotations and --predictions, or --pairs, or --reference"
        )
    annotations = load_annotated(args.annotations)
    predictions = load_predictions(args.predictions)
    report = score_samples(predictions, annotations)
    text = render_score_table(
        [("predictions", "-", report.error_accuracy, report.correct_accuracy, report.f1)]
    )
    print(text, end="")
    if out is not None:
        write_json(out / "eval_report.json", report_to_dict(report))
        (out / "eval_report.txt").write_text(text, encoding="utf-8")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    if cfg.synthetic is None:
        raise ConfigError("synth requires a [synthetic] corpus section")
    out = _outdir(cfg, args.output)
    traces = build_corpus(cfg.synthetic)
    problems = [trace.problem for trace in traces]
    backends = _build_backends(cfg, traces, ("generator", "verifier", "scorer"))

    _write_problems(out / "problems.jsonl", problems)

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
    eval_report = score_samples(predictions, annotations)
    write_json(out / "eval_report.json", report_to_dict(eval_report))
    (out / "eval_report.txt").write_text(
        render_score_table(
            [("exact-verifier", "synthetic", eval_report.error_accuracy,
              eval_report.correct_accuracy, eval_report.f1)]
        ),
        encoding="utf-8",
    )

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
    cfg = _load_cfg(args)
    roles = ("generator", "verifier")
    problems, traces = _resolve_problems(cfg, roles)
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
    backends = _build_backends(cfg, traces, roles)
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
