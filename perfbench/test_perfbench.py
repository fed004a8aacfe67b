"""Tests of the benchmark's own parts: fake server, span tracing, output checks."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import threading
from pathlib import Path

import pytest

import compare
import fake_server
import run
import tracing
from treeprm import cli, decoding, domain, mcts
from treeprm.backends import BackendConfig, ChatCompletionGenerator, ServedPrmScorer
from treeprm.backends import builtin_template
from treeprm.domain import ReasoningStep
from treeprm.synthetic import trace_from_values

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def server():
    httpd = fake_server.FakeServer(0.0)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    yield httpd, f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _step(index: int, total: int) -> ReasoningStep:
    return ReasoningStep(index, "Add to the running total", f"running total = {total}", False)


def test_generator_variants_branch_and_scorer_is_exact(server):
    httpd, url = server
    problem = trace_from_values([10, 20, 30], problem_id="p").problem
    generator = ChatCompletionGenerator(BackendConfig(f"{url}/generator"),
                                        builtin_template("generator"))
    state = (_step(1, 10),)
    steps = generator.generate(problem, state, fake_server.WRONG_EVERY)
    totals = [int(s.action.split("=")[1]) for s in steps]
    # Exactly one variant in WRONG_EVERY is wrong; the rest continue 10 + 20.
    assert sorted(totals).count(30) == fake_server.WRONG_EVERY - 1
    assert not any(s.is_final for s in steps)

    scorer = ServedPrmScorer(BackendConfig(f"{url}/scorer"), builtin_template("scorer"))
    assert [scorer.score(problem, state, s) for s in steps] == [
        1.0 if t == 30 else -1.0 for t in totals]
    assert httpd.state.reset() == {"generator": 4, "tool": 0, "judger": 0, "scorer": 4}


def test_final_step_carries_the_answer():
    body = ("after each addition: 10, 20. What is the final total?\n"
            "Step 1: Add 10 to the running total -- running total = 10\n")
    text = fake_server.next_step(body, 0)
    assert text.endswith("running total = 30; final answer = 30")


def test_response_is_written_in_one_send():
    writes = []

    class Probe(fake_server.Handler):
        def __init__(self):  # no socket: only _send is exercised
            self.wfile = type("W", (), {"write": lambda _, data: writes.append(data)})()

    Probe()._send(200, {"ok": True})
    assert len(writes) == 1
    head, body = writes[0].split(b"\r\n\r\n")
    assert json.loads(body) == {"ok": True}
    assert f"Content-Length: {len(body)}".encode() in head


def test_covered_time_merges_overlapping_children():
    assert tracing.covered_ns([(2, 5), (4, 8), (9, 20)], 0, 10) == 7
    assert tracing.self_times_ns(
        [[0, "a", 0, 10, -1], [1, "b", 2, 5, 0], [2, "b", 4, 8, 0]], {"a", "b"}
    ) == {"a": 4, "b": 7}


def test_install_rebinds_names_imported_elsewhere_and_uninstall_restores():
    originals = (domain.answers_equal, mcts.answers_equal, decoding.answers_equal)
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert mcts.answers_equal is decoding.answers_equal is domain.answers_equal
        assert mcts.answers_equal.__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert (domain.answers_equal, mcts.answers_equal, decoding.answers_equal) == originals


def test_traced_synth_counts_rounds_and_keeps_outputs(tmp_path):
    config = json.loads((ROOT / "configs" / "synth.json").read_text())
    config["synthetic"]["count"] = 3
    config["search"]["max_rounds_R"] = 4
    config["paths"] = {"output_dir": "out"}
    (tmp_path / "c.json").write_text(json.dumps(config))

    def synth(out: str) -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--config", str(tmp_path / "c.json"),
                             "--output", str(tmp_path / out)]) == 0
        return (tmp_path / out / "dataset.jsonl").read_bytes()

    plain = synth("plain")
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        traced = synth("traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["mcts.rounds"] == 3 * 4
    assert 0 < layers["mcts.expansion_rounds"] <= layers["mcts.rounds"]
    assert layers["decoding.pass_samples"] == 3 * config["decode"]["pass_n"]
    assert layers["cli.self_s"] >= 0


def test_output_checks_catch_a_flipped_label(tmp_path):
    config = json.loads((ROOT / "configs" / "synth.json").read_text())
    config["synthetic"]["count"] = 2
    config["search"]["max_rounds_R"] = 2
    config["paths"] = {"output_dir": "out"}
    (tmp_path / "synth.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--config", str(tmp_path / "synth.json"),
                         "--output", str(tmp_path / "out")]) == 0
    workload = run.SynthDeep(tmp_path, 7)
    failures, figures = run.check_outputs(workload, [0])
    assert failures == []
    assert 0 < figures["unique"] <= figures["kept"] <= figures["rollouts"]

    dataset = tmp_path / "out" / "dataset.jsonl"
    lines = dataset.read_text().splitlines()
    record = json.loads(lines[0])
    record["labels"][0] = -record["labels"][0]
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    dataset.write_text("\n".join(lines) + "\n")
    failures, _ = run.check_outputs(workload, [0])
    assert failures == ["dataset.jsonl:1 rationale verdicts != labels"]

    # A command that exited nonzero wrote no report to check; iterate fails it.
    shutil.rmtree(tmp_path / "out")
    failures, figures = run.check_outputs(workload, [1])
    assert failures == [] and figures["kept"] == 0


def test_request_checks_need_no_requests_warm_and_equal_requests_cold():
    def result(label, generator):
        return {"label": label, "http": dict.fromkeys(fake_server.ROLES, 0) | {
            "generator": generator}}

    cold0, cold1, fewer = result("0", 40), result("1", 40), result("2", 39)
    assert run.request_failures(cold0, None, warm=False) == []
    assert run.request_failures(cold1, cold0, warm=False) == []
    assert run.request_failures(fewer, cold0, warm=False) != []
    assert run.request_failures(result("3", 0), cold0, warm=True) == []
    assert run.request_failures(result("4", 1), cold0, warm=True) != []
    assert run.request_failures({"label": "synth"}, None, warm=False) == []


def test_compare_lists_changed_counts_of_the_same_seed(capsys):
    def record(seed, rounds, digest="a"):
        return {"seed": seed, "iterations": [{"digests": {"dataset.jsonl": digest}}],
                "metrics": {"mcts.rounds": [rounds, "count"], "mcts.run_search_s": [1.0, "s"]}}

    before = [record(1, 100), record(2, 100)]
    assert compare.same_seed_differences(before, [record(1, 100), record(3, 99)]) == 0
    assert compare.same_seed_differences(before, [record(1, 99), record(2, 100, "b")]) == 2
    printed = capsys.readouterr().out
    assert "seed 1: counts differ: mcts.rounds 100 -> 99" in printed
    assert "seed 2: outputs differ: dataset.jsonl" in printed
