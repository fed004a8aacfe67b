"""The generate and decode stages write each problem's lines once it and every
earlier problem are done, and keep none of its results after the write."""

import gc
import json
import threading
from pathlib import Path
from unittest import mock

import pytest

from treeprm import cli, dataset
from treeprm.backends.synthetic import OracleScorer
from treeprm.cli import main
from treeprm.config import load_config
from treeprm.dataset import TrainingInstance
from treeprm.decoding import DecodeResult
from treeprm.synthetic import build_corpus

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth.json"
STAGE_FILES = ("dataset.jsonl", "decode_results.jsonl", "decode_log.jsonl")


def shipped_inputs(workers):
    cfg = load_config(SHIPPED_CONFIG).with_overrides(workers=workers)
    traces = build_corpus(cfg.synthetic)
    backends = cli._build_backends(cfg, traces, ("generator", "verifier", "scorer"))
    return cfg, [trace.problem for trace in traces], backends


class HookedGenerator:
    """Delegates to `inner`, and calls `hooks[problem id]()` once, before the
    first `generate` of that problem."""

    def __init__(self, inner, hooks):
        self.inner = inner
        self.hooks = dict(hooks)

    def generate(self, problem, state, count):
        hook = self.hooks.pop(problem.id, None)  # dict.pop is atomic
        if hook is not None:
            hook()
        return self.inner.generate(problem, state, count)


class LastFinisher:
    """Holds the first problem back until every other one is done, so that it
    finishes last."""

    def __init__(self, problems):
        self.first = problems[0].id
        self.others = len(problems) - 1
        self.lock = threading.Lock()
        self.released = threading.Event()

    def hold(self, problem):
        if problem.id == self.first:
            assert self.released.wait(timeout=30)

    def done(self, problem):
        if problem.id != self.first:
            with self.lock:
                self.others -= 1
                if self.others == 0:
                    self.released.set()


def test_out_of_order_completion_writes_the_bytes_of_one_worker(tmp_path):
    cfg, problems, backends = shipped_inputs(workers=1)
    serial = tmp_path / "serial"
    cli._generate(cfg, problems, backends["generator"], backends["verifier"], serial)
    cli._decode(cfg, problems, backends["generator"], backends["scorer"], serial)

    cfg, problems, backends = shipped_inputs(workers=3)
    finisher = LastFinisher(problems)
    build_one, decode_one, sample = dataset._build_one, cli.decode, cli.sample_rollout

    def held_build_one(problem, *args):
        finisher.hold(problem)
        result = build_one(problem, *args)
        finisher.done(problem)
        return result

    def held_decode(problem, *args):
        finisher.hold(problem)
        return decode_one(problem, *args)

    def counted_sample(problem, policy, decode_cfg, sample_index):
        result = sample(problem, policy, decode_cfg, sample_index)
        if sample_index == decode_cfg.pass_n - 1:
            finisher.done(problem)
        return result

    out = tmp_path / "pooled"
    with mock.patch.object(dataset, "_build_one", held_build_one):
        cli._generate(cfg, problems, backends["generator"], backends["verifier"], out)
    assert finisher.released.is_set()
    finisher = LastFinisher(problems)
    with mock.patch.object(cli, "decode", held_decode), \
            mock.patch.object(cli, "sample_rollout", counted_sample):
        cli._decode(cfg, problems, backends["generator"], backends["scorer"], out)
    assert finisher.released.is_set()
    for name in STAGE_FILES:
        assert (out / name).read_bytes() == (serial / name).read_bytes(), name


def alive_instances(problem_ids):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, TrainingInstance)
               and obj.provenance.problem_id in problem_ids)


def alive_results(problem_ids):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, DecodeResult)
               and obj.problem_id in problem_ids)


def test_no_result_of_an_earlier_problem_outlives_its_write(tmp_path):
    """When the last problem starts, every earlier one is done and written, so
    none of their instances or decode results may still be alive."""
    cfg, problems, backends = shipped_inputs(workers=1)
    last, earlier = problems[-1].id, {problem.id for problem in problems[:-1]}
    counts = {}
    generator = HookedGenerator(
        backends["generator"],
        {last: lambda: counts.setdefault("instances", alive_instances(earlier))})
    cli._generate(cfg, problems, generator, backends["verifier"], tmp_path)
    generator.hooks = {last: lambda: counts.setdefault("results", alive_results(earlier))}
    cli._decode(cfg, problems, generator, backends["scorer"], tmp_path)

    assert counts == {"instances": 0, "results": 0}
    written = {json.loads(line)["provenance"]["problem_id"] for line in
               (tmp_path / "dataset.jsonl").read_text(encoding="utf-8").splitlines()}
    assert written & earlier


@pytest.mark.parametrize("workers", ["1", "3"])
def test_a_failing_problem_ends_decode_with_the_problems_before_it_written(
        tmp_path, capsys, workers):
    cfg = json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    cfg["synthetic"]["count"] = 5
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    problems = [trace.problem for trace in build_corpus(load_config(config).synthetic)]
    failing = problems[2].id
    score = OracleScorer.score

    def failing_score(self, problem, state, candidate):
        if problem.id == failing:
            raise RuntimeError("scorer down")
        return score(self, problem, state, candidate)

    out = tmp_path / "out"
    with mock.patch.object(OracleScorer, "score", failing_score):
        assert main(["decode", "--config", str(config), "--workers", workers,
                     "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "DecodeError",
                   "message": f"scorer failed on problem {failing} at step 1, "
                              "distinct candidate 1 of 1: scorer down"}
    written = [json.loads(line)["id"] for line in
               (out / "decode_results.jsonl").read_text(encoding="utf-8").splitlines()]
    logged = {json.loads(line)["problem_id"] for line in
              (out / "decode_log.jsonl").read_text(encoding="utf-8").splitlines()}
    assert written == [problems[0].id, problems[1].id]
    assert logged == set(written)
    assert not (out / "decode_summary.json").exists()
