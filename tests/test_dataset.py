"""Candidate assembly, filtering, serialization, and full dataset builds."""

import json
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from treeprm import __version__
from treeprm.backends import (
    BackendConfig,
    ChatCompletionGenerator,
    FileResponseCache,
    ToolVerifier,
)
from treeprm.backends.synthetic import ExactVerifier, ScriptedGenerator
from treeprm.backends.templates import builtin_template
from treeprm.config import load_config
from treeprm.dataset import (
    MODES,
    BuildConfig,
    Provenance,
    SchemaVersionError,
    SerializationError,
    TrainingInstance,
    assemble_candidate,
    build_dataset,
    filter_trace,
    finalize_instance,
    load_instances,
    load_problems,
    parse_instance,
    pool_map,
    serialize_instance,
    tree_id_for,
)
from treeprm.domain import Problem, VerificationResult
from treeprm.mcts import RolloutOutcome, SearchConfig, run_search
from treeprm.synthetic import build_corpus, trace_from_values

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth.json"

BETA, GAMMA = 0.5, 0.9


def search_cfg(**overrides):
    values = dict(exploration_c=math.sqrt(2), branch_K=3, decay_gamma=GAMMA,
                  outcome_beta=BETA, max_rounds_R=4, max_depth=10, rng_seed=5)
    values.update(overrides)
    return SearchConfig(**values)


def provenance(problem_id="p", rollout_index=1):
    return Provenance(problem_id=problem_id, tree_id="t0", rollout_index=rollout_index,
                      rng_seed=5, config_hash="cafe", pipeline_version="0.1.0")


def rollout_for(trace, rounds=1, noise=0.0, seed=5):
    generator = ScriptedGenerator([trace], branch_noise=noise, seed=seed)
    verifier = ExactVerifier([trace])
    result = run_search(trace.problem, generator, verifier, search_cfg(max_rounds_R=rounds))
    return result.rollouts


def make_instance(**overrides):
    values = dict(
        problem="Add things.",
        steps=("obj\nstep one", "obj\nstep two"),
        labels=(1, -1),
        rationales=("fine \\boxed{+}", "bad \\boxed{-}"),
        final_answer="42",
        outcome_flag=-1,
        provenance=provenance(),
    )
    values.update(overrides)
    return TrainingInstance(**values)


class TestAssembleAndFilter:
    def test_clean_rollout_kept_with_consistent_labels(self, clean_trace):
        rollout = rollout_for(clean_trace)[0]
        candidate = assemble_candidate(clean_trace.problem, rollout, "hybrid", BETA, GAMMA)
        assert filter_trace(candidate) is None
        assert candidate.labels == (1, 1, 1)
        assert len(candidate.rationales) == 3
        assert candidate.flips == ()

    def test_incomplete_dropped(self, clean_trace):
        rollout = rollout_for(clean_trace)[0]
        truncated = RolloutOutcome(
            problem_id=rollout.problem_id, round_index=1, expansion_index=1,
            steps=rollout.steps[:2], verifications=rollout.verifications[:2],
            complete=False, final_answer=None, final_flag=-1, u_value=0.0,
            node_reward=0.0,
        )
        candidate = assemble_candidate(clean_trace.problem, truncated, "hybrid", BETA, GAMMA)
        assert filter_trace(candidate) == "incomplete"

    def test_unverifiable_dropped(self, clean_trace):
        rollout = rollout_for(clean_trace)[0]
        broken = VerificationResult(label=-1, rationale="unparseable", verifiable=False)
        tampered = RolloutOutcome(
            problem_id=rollout.problem_id, round_index=1, expansion_index=1,
            steps=rollout.steps,
            verifications=(rollout.verifications[0], broken),
            complete=True, final_answer=rollout.final_answer, final_flag=rollout.final_flag,
            u_value=rollout.u_value, node_reward=rollout.node_reward,
        )
        candidate = assemble_candidate(clean_trace.problem, tampered, "hybrid", BETA, GAMMA)
        assert filter_trace(candidate) == "unverifiable"

    def test_incomplete_takes_precedence_over_unverifiable(self, clean_trace):
        rollout = rollout_for(clean_trace)[0]
        broken = VerificationResult(label=-1, rationale="unparseable", verifiable=False)
        both = RolloutOutcome(
            problem_id=rollout.problem_id, round_index=1, expansion_index=1,
            steps=rollout.steps[:2], verifications=(rollout.verifications[0], broken),
            complete=False, final_answer=None, final_flag=-1, u_value=0.0, node_reward=0.0,
        )
        candidate = assemble_candidate(clean_trace.problem, both, "hybrid", BETA, GAMMA)
        assert filter_trace(candidate) == "incomplete"

    def test_outcome_flip_logged_and_dropped_as_inconsistent(self):
        # Planted error at the last intermediate step: the hybrid label of the
        # step before it flips to -1 against its +1 verification (window is a
        # single discounted -1 plus the negative outcome term).
        trace = trace_from_values([10, 20, 30, 40], error_plan=((3, 7),), problem_id="pf")
        rollout = rollout_for(trace)[0]
        candidate = assemble_candidate(trace.problem, rollout, "hybrid", BETA, GAMMA)
        assert [r.label for r in rollout.verifications] == [1, 1, -1]
        assert candidate.labels[1] == -1  # flipped away from v=+1
        assert filter_trace(candidate) == "inconsistent"
        assert len(candidate.flips) == 1
        flip = candidate.flips[0]
        assert flip.step_index == 2
        assert flip.u_plus_v == pytest.approx(1 + (-GAMMA - BETA), abs=1e-12)

    def test_final_step_rationale_is_answer_check(self, corrupted_trace):
        rollout = rollout_for(corrupted_trace)[0]
        candidate = assemble_candidate(corrupted_trace.problem, rollout, "hybrid", BETA, GAMMA)
        assert "does not match the expected result 210" in candidate.rationales[-1]
        assert candidate.labels[-1] == -1

    def test_step_only_labels_are_verification_labels(self, corrupted_trace):
        rollout = rollout_for(corrupted_trace)[0]
        candidate = assemble_candidate(corrupted_trace.problem, rollout, "step_only",
                                       BETA, GAMMA)
        expected = tuple(r.label for r in rollout.verifications) + (rollout.final_flag,)
        assert candidate.labels == expected
        assert filter_trace(candidate) is None

    def test_outcome_only_labels_are_outcome_sign(self, clean_trace):
        rollout = rollout_for(clean_trace)[0]
        candidate = assemble_candidate(clean_trace.problem, rollout, "outcome_only",
                                       BETA, GAMMA)
        assert candidate.labels == (1, 1, 1)

    def test_outcome_only_mixed_rollout_is_inconsistent(self, corrupted_trace):
        # v = (+1, -1, ...) but outcome-only labels everything -1, which the
        # rationale verdicts contradict.
        rollout = rollout_for(corrupted_trace)[0]
        candidate = assemble_candidate(corrupted_trace.problem, rollout, "outcome_only",
                                       BETA, GAMMA)
        assert set(candidate.labels) == {-1}
        assert filter_trace(candidate) == "inconsistent"

    def test_no_rationale_blanks_output_but_filters_like_hybrid(self, clean_trace):
        rollout = rollout_for(clean_trace)[0]
        candidate = assemble_candidate(clean_trace.problem, rollout, "no_rationale",
                                       BETA, GAMMA)
        assert filter_trace(candidate) is None
        instance = finalize_instance(candidate, provenance(), blank_rationales=True)
        assert instance.rationales == ("", "", "")
        assert instance.labels == candidate.labels


class TestSerialization:
    def test_round_trip_identity(self):
        instance = make_instance()
        assert parse_instance(serialize_instance(instance)) == instance

    def test_unicode_round_trip(self):
        instance = make_instance(problem="数を足す − émojis \U0001f600")
        assert parse_instance(serialize_instance(instance)) == instance

    def test_empty_rationale_preserved(self):
        instance = make_instance(rationales=("", ""))
        assert parse_instance(serialize_instance(instance)).rationales == ("", "")

    def test_schema_version_mismatch_rejected(self):
        line = serialize_instance(make_instance())
        record = json.loads(line)
        record["schema_version"] = 99
        with pytest.raises(SchemaVersionError, match="99"):
            parse_instance(json.dumps(record))

    def test_unencodable_field_named(self):
        instance = make_instance(final_answer="bad \ud800 surrogate")
        with pytest.raises(SerializationError, match="final_answer"):
            serialize_instance(instance)
        instance = make_instance(steps=("ok\nfine", "bad \udfff"), labels=(1, 1),
                                 rationales=("a \\boxed{+}", "b \\boxed{+}"))
        with pytest.raises(SerializationError, match=r"steps\[1\]"):
            serialize_instance(instance)

    def test_length_invariant_enforced(self):
        with pytest.raises(ValueError, match="equal length"):
            make_instance(labels=(1,))

    def test_not_json_rejected(self):
        with pytest.raises(SerializationError):
            parse_instance("not json at all")


class TestBuildDataset:
    def _corpus(self):
        return [
            trace_from_values([10, 20, 30], problem_id="b1"),
            trace_from_values([5, 5, 5, 5], error_plan=((2, 9),), problem_id="b2"),
            trace_from_values([1, 2, 3, 4, 5, 6], problem_id="b3"),
        ]

    def _build(self, tmp_path, name="d.jsonl", workers=1, mode="hybrid", rounds=6):
        traces = self._corpus()
        problems = [t.problem for t in traces]
        generator = ScriptedGenerator(traces, branch_noise=0.3, noise_deltas=(7, -7), seed=5)
        verifier = ExactVerifier(traces)
        cfg = BuildConfig(mode=mode, rng_seed=5, config_hash="beef", workers=workers)
        out = tmp_path / name
        report = build_dataset(problems, generator, verifier,
                               search_cfg(max_rounds_R=rounds), cfg, out)
        return report, out

    def test_accounting_and_reasons(self, tmp_path):
        report, out = self._build(tmp_path)
        assert report.problems_total == 3
        assert report.problem_errors == []
        assert report.rollouts_total == 11  # distinct rollouts of the 3 * 6 rounds
        assert report.kept > 0
        assert report.kept + report.dropped_total == report.rollouts_total
        assert set(report.dropped) <= {"incomplete", "unverifiable", "inconsistent"}
        assert len(load_instances(out)) == report.kept

    def test_rebuild_is_byte_identical(self, tmp_path):
        _, first = self._build(tmp_path, "a.jsonl")
        _, second = self._build(tmp_path, "b.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_worker_pool_does_not_change_output(self, tmp_path):
        _, serial = self._build(tmp_path, "serial.jsonl", workers=1)
        _, pooled = self._build(tmp_path, "pooled.jsonl", workers=4)
        assert serial.read_bytes() == pooled.read_bytes()

    def test_pool_map_keeps_item_order_and_raises_the_first_failure(self):
        second_done = threading.Event()

        def task(item):
            if item == 0:
                assert second_done.wait(timeout=10)
            if item == 1:
                second_done.set()
            if item in (2, 3):
                raise ValueError(f"item {item}")
            return item * 10

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert pool_map(pool, task, [0, 1]) == [0, 10]
            with pytest.raises(ValueError, match="item 2"):
                pool_map(pool, task, [1, 2, 3])

    def test_provenance_fields(self, tmp_path):
        report, _ = self._build(tmp_path)
        instance = report.instances[0]
        assert instance.provenance.config_hash == "beef"
        assert instance.provenance.rng_seed == 5
        assert instance.provenance.problem_id in {"b1", "b2", "b3"}
        assert instance.provenance.rollout_index >= 1

    def test_failing_problem_recorded_not_fatal(self, tmp_path):
        traces = self._corpus()
        problems = [t.problem for t in traces]
        # Register only two traces: the third problem has no backing trace.
        generator = ScriptedGenerator(traces[:2], branch_noise=0.0, seed=5)
        verifier = ExactVerifier(traces[:2])
        report = build_dataset(problems, generator, verifier, search_cfg(),
                               BuildConfig(rng_seed=5), tmp_path / "x.jsonl")
        assert any(e["problem_id"] == "b3" for e in report.problem_errors)
        assert report.kept > 0

    def test_summary_dict_shape(self, tmp_path):
        report, _ = self._build(tmp_path)
        summary = report.summary_dict()
        assert summary["kept"] == report.kept
        assert summary["problems_total"] == 3
        assert "flip_events" in summary

    def test_noise_free_corpus_agrees_fully_with_ground_truth(self, tmp_path):
        from treeprm.synthetic import SyntheticCorpusConfig, build_corpus

        corpus = build_corpus(
            SyntheticCorpusConfig(count=200, num_terms=(2, 5), value_range=(10, 99),
                                  seed=42, error_rate=0.0, branch_noise=0.0)
        )
        problems = [t.problem for t in corpus]
        generator = ScriptedGenerator(corpus, branch_noise=0.0, seed=42)
        verifier = ExactVerifier(corpus)
        report = build_dataset(problems, generator, verifier,
                               search_cfg(max_rounds_R=4, rng_seed=42),
                               BuildConfig(rng_seed=42), tmp_path / "clean.jsonl")
        assert report.dropped == {}
        # Without branch noise each problem has one line, found in its first round.
        assert report.kept == report.rollouts_total == 200
        # Clean chains: every emitted label matches the all-positive ground truth.
        for instance in report.instances:
            assert set(instance.labels) == {1}
            assert instance.outcome_flag == 1


def every_rollout_lines(problems, generator, verifier, search, build):
    """The dataset lines of judging every rollout of every round, repeated
    lines included: the reference for the distinct-rollout build."""
    lines = []
    for problem in problems:
        for rollout in run_search(problem, generator, verifier, search).rollouts:
            candidate = assemble_candidate(problem, rollout, build.mode,
                                           search.outcome_beta, search.decay_gamma)
            if filter_trace(candidate) is not None:
                continue
            provenance = Provenance(
                problem_id=problem.id, tree_id=tree_id_for(problem.id, build.rng_seed),
                rollout_index=rollout.round_index, rng_seed=build.rng_seed,
                config_hash=build.config_hash, pipeline_version=__version__,
            )
            instance = finalize_instance(candidate, provenance, build.mode == "no_rationale")
            lines.append(serialize_instance(instance))
    return lines


def first_occurrences(lines):
    """The first line of each (problem id, steps), in order."""
    seen, kept = set(), []
    for line in lines:
        record = json.loads(line)
        key = (record["provenance"]["problem_id"], tuple(record["steps"]))
        if key not in seen:
            seen.add(key)
            kept.append(line)
    return kept


_ADDENDS_RE = re.compile(r"Add the numbers ([\d, ]+) in order\.")
_TOTAL_RE = re.compile(r"^Step \d+: .* -- total = (-?\d+)", re.MULTILINE)


def running_sum_responder():
    """Chat replies for running-sum problems. The generator's k-th request
    for a prompt after n steps states a total 5 too high when k + n is a
    multiple of 3, so expansions branch; the judger checks the step under
    review, and gives no verdict on a stated total that ends in 3."""
    requests_seen: dict[str, int] = {}
    lock = threading.Lock()

    def respond(body):
        text = body["messages"][1]["content"]
        addends = [int(a) for a in _ADDENDS_RE.search(text).group(1).split(", ")]
        totals = [int(t) for t in _TOTAL_RE.findall(text)]
        if "Tool response:" in text:
            *prior, stated = totals
            if stated % 10 == 3:
                return "The tool response is unclear."
            right = stated == (prior[-1] if prior else 0) + addends[len(prior)]
            return f"Recomputed the sum. The step is: \\boxed{{{'+' if right else '-'}}}"
        with lock:
            variant = requests_seen[text] = requests_seen.get(text, -1) + 1
        addend = addends[len(totals)]
        total = (totals[-1] if totals else 0) + addend
        if (variant + len(totals)) % 3 == 0:
            total += 5
        action = f"total = {total}"
        if len(totals) + 1 == len(addends):
            action += f"\nFinal Answer: {total}"
        return f"Objective: add {addend}\nAction: {action}"

    return respond


def _shipped_inputs(request, tmp_path):
    cfg = load_config(SHIPPED_CONFIG)
    corpus = build_corpus(cfg.synthetic)
    generator = ScriptedGenerator(corpus, branch_noise=cfg.synthetic.branch_noise,
                                  noise_deltas=cfg.synthetic.noise_deltas,
                                  seed=cfg.search.rng_seed)
    return [t.problem for t in corpus], generator, ExactVerifier(corpus), cfg.search


def _fake_server_inputs(request, tmp_path):
    fake_server = request.getfixturevalue("fake_server")
    fake_server.state.chat_responder = running_sum_responder()
    endpoint = dict(max_retries=0, rate_limit_rps=10000)
    chat = BackendConfig(f"{fake_server.url}/v1/chat/completions", model_name="fake",
                         **endpoint)
    tool = BackendConfig(f"{fake_server.url}/tool", **endpoint)
    problems = [
        Problem(f"r{i}", f"Add the numbers {', '.join(map(str, addends))} in order.",
                str(sum(addends)))
        for i, addends in enumerate([(12, 20, 11), (40, 15), (5, 6, 7, 8), (21, 30, 9)])
    ]
    cache = FileResponseCache(tmp_path / "cache")
    generator = ChatCompletionGenerator(chat, builtin_template("generator"), cache=cache)
    verifier = ToolVerifier(tool, chat, builtin_template("judger"), cache=cache)
    return problems, generator, verifier, search_cfg(max_rounds_R=12, max_depth=3, rng_seed=7)


class TestDistinctRollouts:
    """A build judges each distinct rollout of a problem once: its dataset is
    the every-rollout dataset cut to the first line of each (problem, steps)."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("inputs", [_shipped_inputs, _fake_server_inputs],
                             ids=["shipped", "fake-server"])
    def test_build_equals_first_occurrences_of_every_rollout(
            self, request, tmp_path, inputs, mode, workers):
        problems, generator, verifier, search = inputs(request, tmp_path)
        build = BuildConfig(mode=mode, rng_seed=search.rng_seed, config_hash="c0de",
                            workers=workers)
        out = tmp_path / "dataset.jsonl"
        # Remote responses are cached, so the reference sees the build's.
        report = build_dataset(problems, generator, verifier, search, build, out)
        every = every_rollout_lines(problems, generator, verifier, search, build)
        reference = first_occurrences(every)

        assert len(reference) < len(every)
        assert out.read_text(encoding="utf-8").splitlines() == reference
        assert report.problem_errors == []
        assert report.kept + report.dropped_total == report.rollouts_total
        assert report.kept == len({
            (i.provenance.problem_id, i.steps, i.labels) for i in report.instances
        })


class TestLoadProblems:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text(
            '{"id": "e1", "statement": "Add 1 and 2.", "gold_answer": " 3 "}\n'
            '{"id": "e2", "statement": "Half?", "gold_answer": "0.5", "source": "external"}\n',
            encoding="utf-8",
        )
        problems = load_problems(path)
        assert problems[0].gold_answer == "3"
        assert problems[1].gold_answer == "1/2"

    def test_missing_field_reported_with_line(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text('{"id": "e1", "statement": "no answer"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_problems(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        record = '{"id": "dup", "statement": "s", "gold_answer": "1"}\n'
        path.write_text(record * 2, encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate problem id on line 2"):
            load_problems(path)


class TestMalformedRecords:
    def test_bad_provenance_is_serialization_error(self):
        line = serialize_instance(make_instance())
        record = json.loads(line)
        record["provenance"] = {"problem_id": "p"}
        with pytest.raises(SerializationError, match="malformed instance record"):
            parse_instance(json.dumps(record))

    def test_missing_field_is_serialization_error(self):
        line = serialize_instance(make_instance())
        record = json.loads(line)
        del record["steps"]
        with pytest.raises(SerializationError, match="malformed instance record"):
            parse_instance(json.dumps(record))

    @pytest.mark.parametrize("line, error, reason", [
        ('{"a":1}', SchemaVersionError, "schema_version None does not match"),
        ("not json at all", SerializationError, "invalid JSON"),
        ("[1]", SerializationError, "expected a JSON object"),
        (serialize_instance(make_instance()).replace('"labels":[1,-1]', '"labels":[1,0]'),
         ValueError, r"labels must be -1 or \+1, got 0"),
        (serialize_instance(make_instance()).replace('"steps":', '"stepz":'),
         SerializationError, "malformed instance record"),
    ], ids=["schema-version", "not-json", "not-an-object", "bad-label", "missing-field"])
    def test_load_instances_names_the_file_and_line(self, tmp_path, line, error, reason):
        path = tmp_path / "dataset.jsonl"
        path.write_text(f"{serialize_instance(make_instance())}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(error, match=reason) as excinfo:
            load_instances(path)
        assert type(excinfo.value) is error
        assert str(excinfo.value).startswith(f"{path} line 3: ")
