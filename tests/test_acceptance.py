"""Acceptance suite: one test per criterion, each timed against its budget.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines (add -s to see the timing prints).
"""

import json
import math
import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from treeprm.backends.synthetic import ExactVerifier, OracleScorer, ScriptedGenerator
from treeprm.dataset import (
    BuildConfig,
    Provenance,
    SchemaVersionError,
    TrainingInstance,
    build_dataset,
    parse_instance,
    serialize_instance,
)
from treeprm.decoding import DecodeConfig, decode, pass_at_n, read_decode_log, write_decode_log
from treeprm.domain import answers_equal, parse_verdict_marker
from treeprm.evaluation import f1_from_accuracies, recompute_reference_table, reference_rows
from treeprm.mcts import (
    SearchConfig,
    TreeNode,
    backpropagate,
    most_visited_path,
    run_search,
    select_leaf,
    uct_score,
)
from treeprm.rewards import aggregate, node_value
from treeprm.synthetic import SyntheticCorpusConfig, build_corpus

DEFAULT_BETA = 0.5
DEFAULT_GAMMA = 0.9
DEFAULT_C = math.sqrt(2)


@contextmanager
def budget(name: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.2f}s)"
    print(f"{name}: PASS in {elapsed:.2f}s (budget {seconds:.0f}s)")


def search_config(**overrides):
    values = dict(
        exploration_c=DEFAULT_C,
        branch_K=3,
        decay_gamma=DEFAULT_GAMMA,
        outcome_beta=DEFAULT_BETA,
        max_rounds_R=32,
        max_depth=10,
        rng_seed=1729,
    )
    values.update(overrides)
    return SearchConfig(**values)


def test_criterion_1_f1_table_reproduction():
    """Every bundled published row recomputes within the +-0.05 rounding band."""
    with budget("criterion 1 (F1 table)", 1.0):
        rows = reference_rows()
        assert len(rows) == 12
        for row, recomputed in recompute_reference_table(rows):
            exact = (
                2
                * Fraction(str(row.error_accuracy))
                * Fraction(str(row.correct_accuracy))
                / (Fraction(str(row.error_accuracy)) + Fraction(str(row.correct_accuracy)))
            )
            assert abs(recomputed - float(exact)) <= 1e-9
            assert abs(recomputed - row.reported_f1) <= 0.05, row
        # Spot anchors.
        assert round(f1_from_accuracies(24.2, 98.4), 1) == 38.8
        assert round(f1_from_accuracies(46.4, 95.9), 1) == 62.5


def test_criterion_2_aggregation_oracle_equivalence():
    """1000 random configurations match exact brute-force summation to 1e-12."""
    with budget("criterion 2 (aggregation oracle)", 1.0):
        rng = random.Random(20260810)
        for _ in range(1000):
            length = rng.randint(1, 12)
            i = rng.randint(0, length - 1)
            labels = [rng.choice((-1, 1)) for _ in range(length - 1 - i)]
            final_flag = rng.choice((-1, 1))
            beta = rng.uniform(0.0, 2.0)
            gamma = rng.uniform(0.05, 1.0)
            window = length - 1 - i
            if window:
                total = Fraction(0)
                for offset, v in enumerate(labels, start=1):
                    total += Fraction.from_float(gamma) ** offset * v
                expected = total / window + Fraction.from_float(beta) * final_flag
            else:
                expected = Fraction.from_float(beta) * final_flag
            got = aggregate(labels, final_flag, beta, gamma, i, length).u_value
            assert abs(got - float(expected)) <= 1e-12


def test_criterion_3_backpropagation_decay():
    """Ancestor increments equal gamma^d * (u + v) to 1e-12; gamma=1 is exact."""
    with budget("criterion 3 (backpropagation decay)", 1.0):
        rng = random.Random(31337)
        for trial in range(100):
            depth = rng.randint(1, 12)
            gamma = rng.uniform(0.05, 1.0)
            labels = [rng.choice((-1, 1)) for _ in range(rng.randint(0, 6))]
            final_flag = rng.choice((-1, 1))
            i = depth
            u = aggregate(labels, final_flag, DEFAULT_BETA, gamma, i,
                          i + len(labels) + 1).u_value
            reward = node_value(u, rng.choice((-1, 1)))
            nodes = [TreeNode() for _ in range(depth)]
            entries = [(node, d + 1) for d, node in enumerate(nodes)]
            backpropagate(entries, reward, gamma)
            for d, node in enumerate(nodes):
                expected = Fraction.from_float(gamma) ** (d + 1) * Fraction.from_float(reward)
                assert abs(node.q_value - float(expected)) <= 1e-12
                assert node.visit_count == 1
        # gamma = 1: every ancestor increments by exactly the reward.
        for trial in range(20):
            reward = rng.uniform(-3, 3)
            nodes = [TreeNode() for _ in range(rng.randint(1, 12))]
            backpropagate([(n, d + 1) for d, n in enumerate(nodes)], reward, 1.0)
            assert all(n.q_value == reward for n in nodes)


def _random_tree(rng, depth=0, max_depth=3):
    node = TreeNode()
    node.q_value = rng.uniform(-2, 2)
    node.visit_count = rng.randint(1, 20)
    if depth < max_depth and rng.random() < 0.85:
        for _ in range(rng.randint(1, 3)):
            node.children.append(_random_tree(rng, depth + 1, max_depth))
        node.mark_expanded()
        leaves = [c for c in node.children if not c.children]
        if leaves and rng.random() < 0.5:
            leaves[rng.randrange(len(leaves))].visit_count = 0
    return node


def _shift(node, delta):
    node.q_value += delta
    for child in node.children:
        _shift(child, delta)


def _path_indices(root, cfg):
    path = select_leaf(root, cfg)
    return [parent.children.index(child) for parent, child in zip(path, path[1:])]


def test_criterion_4_uct_selection_properties():
    """Shift invariance, forced first visits, lowest-index ties."""
    with budget("criterion 4 (UCT selection)", 5.0):
        cfg = search_config()
        for seed in range(100):
            rng = random.Random(seed)
            root = _random_tree(rng)
            before = _path_indices(root, cfg)
            _shift(root, rng.uniform(-10, 10))
            assert _path_indices(root, cfg) == before

        for seed in range(100):
            rng = random.Random(40_000 + seed)
            root = _random_tree(rng)
            path = select_leaf(root, cfg)
            for parent, child in zip(path, path[1:]):
                if any(c.visit_count == 0 for c in parent.children):
                    assert child.visit_count == 0

        # Exact ties resolve to the lowest index.
        a, b, c = TreeNode(), TreeNode(), TreeNode()
        for node in (a, b, c):
            node.q_value, node.visit_count = 0.25, 4
        root = TreeNode()
        root.visit_count = 12
        root.children.extend([a, b, c])
        root.mark_expanded()
        assert select_leaf(root, cfg)[-1] is a
        assert uct_score(1.0, 10, 0, DEFAULT_C) == math.inf


def test_criterion_5_synthetic_end_to_end_search():
    """100 noise-free problems: the most-visited path is the planted chain."""
    with budget("criterion 5 (end-to-end search)", 120.0):
        corpus = build_corpus(
            SyntheticCorpusConfig(count=100, num_terms=(2, 6), value_range=(10, 99),
                                  seed=501, error_rate=0.0, branch_noise=0.0)
        )
        generator = ScriptedGenerator(corpus, branch_noise=0.0, seed=501)
        verifier = ExactVerifier(corpus)
        cfg = search_config(max_rounds_R=32)
        hits = 0
        for trace in corpus:
            result = run_search(trace.problem, generator, verifier, cfg)
            path = most_visited_path(result.root)
            planted = [step.action for step in trace.trajectory.steps]
            if [node.action_in.action for node in path[1:]] == planted:
                hits += 1
        assert hits >= 95, f"only {hits}/100 searches converged to the planted chain"


def _corpus_6():
    return SyntheticCorpusConfig(
        count=200, num_terms=(4, 9), value_range=(10, 99), seed=602,
        error_rate=0.5, planted_deltas=(10, -30, 60),
        branch_noise=0.2, noise_deltas=(7, -7, 13),
    )


def _build_6(tmp_path, name):
    corpus = build_corpus(_corpus_6())
    problems = [trace.problem for trace in corpus]
    generator = ScriptedGenerator(corpus, branch_noise=0.2, noise_deltas=(7, -7, 13), seed=602)
    verifier = ExactVerifier(corpus)
    cfg = search_config(max_rounds_R=8, max_depth=8, rng_seed=602)
    build_cfg = BuildConfig(mode="hybrid", rng_seed=602, config_hash="accept6")
    out = tmp_path / name
    report = build_dataset(problems, generator, verifier, cfg, build_cfg, out)
    return corpus, report, out


def _oracle_agreement(instance: TrainingInstance, trace) -> tuple[int, int]:
    """Recompute ground-truth labels for an emitted instance from scratch.

    Intermediate steps: exact local arithmetic over the stated values and the
    trace's addends. Final step: answer check against the gold answer.
    """
    stated = []
    for text in instance.steps:
        digits = [int(tok) for tok in re.findall(r"[-+]?\d+", text)]
        stated.append(digits[-1])
    agree = 0
    total = len(instance.steps)
    previous = 0
    for k, value in enumerate(stated[:-1]):
        expected = previous + trace.addends[k]
        gt = 1 if value == expected else -1
        if instance.labels[k] == gt:
            agree += 1
        previous = value
    final_gt = 1 if answers_equal(instance.final_answer, trace.problem.gold_answer) else -1
    if instance.labels[-1] == final_gt:
        agree += 1
    return agree, total


def test_criterion_6_dataset_fidelity(tmp_path):
    """Emitted labels agree with the exact oracle; drops carry one reason;
    rebuilds are byte-identical."""
    with budget("criterion 6 (dataset fidelity)", 180.0):
        corpus, report, out = _build_6(tmp_path, "dataset_a.jsonl")
        traces = {trace.problem.id: trace for trace in corpus}

        assert report.problem_errors == []
        assert report.kept + report.dropped_total == report.rollouts_total
        assert set(report.dropped) <= {"incomplete", "unverifiable", "inconsistent"}
        # The corpus is engineered to exercise the filters for real: oversize
        # problems truncate, and planted errors near the end flip hybrid labels.
        assert report.dropped.get("incomplete", 0) > 0
        assert report.dropped.get("inconsistent", 0) > 0
        assert len(report.flip_events) > 0
        for event in report.flip_events:
            assert event.u_plus_v != 0.0

        agree = total = 0
        for instance in report.instances:
            a, t = _oracle_agreement(instance, traces[instance.provenance.problem_id])
            agree += a
            total += t
            # Post-filter guarantee: every rationale's verdict matches its label.
            for label, rationale in zip(instance.labels, instance.rationales):
                assert parse_verdict_marker(rationale) == label
        assert total > 1000
        agreement = agree / total
        assert agreement >= 0.99, f"step label agreement {agreement:.4f} below 99%"

        _, report_b, out_b = _build_6(tmp_path, "dataset_b.jsonl")
        assert out.read_bytes() == out_b.read_bytes()


def test_criterion_7_ablation_mode_contracts(tmp_path):
    """outcome_only labels every step sign(F); step_only labels every step v_j;
    datasets differ only in labels/rationales."""
    with budget("criterion 7 (ablation modes)", 60.0):
        corpus_cfg = SyntheticCorpusConfig(
            count=80, num_terms=(3, 6), value_range=(10, 99), seed=701,
            error_rate=0.5, planted_deltas=(10, -30, 60),
            branch_noise=0.25, noise_deltas=(9, -9),
        )
        corpus = build_corpus(corpus_cfg)
        problems = [trace.problem for trace in corpus]
        traces = {trace.problem.id: trace for trace in corpus}
        cfg = search_config(max_rounds_R=6, max_depth=12, rng_seed=701)

        reports = {}
        for mode in ("hybrid", "step_only", "outcome_only", "no_rationale"):
            generator = ScriptedGenerator(corpus, branch_noise=0.25,
                                          noise_deltas=(9, -9), seed=701)
            verifier = ExactVerifier(corpus)
            build_cfg = BuildConfig(mode=mode, rng_seed=701, config_hash="accept7")
            reports[mode] = build_dataset(
                problems, generator, verifier, cfg, build_cfg, tmp_path / f"{mode}.jsonl"
            )

        def keyed(report):
            return {
                (i.provenance.problem_id, i.provenance.rollout_index): i
                for i in report.instances
            }

        outcome_only = keyed(reports["outcome_only"])
        assert outcome_only
        for instance in outcome_only.values():
            assert all(label == instance.outcome_flag for label in instance.labels)

        step_only = keyed(reports["step_only"])
        assert step_only
        mixed = 0
        for instance in step_only.values():
            trace = traces[instance.provenance.problem_id]
            a, t = _oracle_agreement(instance, trace)
            assert a == t  # labels are exactly the verifier's labels
            if len(set(instance.labels)) > 1:
                mixed += 1
        assert mixed > 0  # the contract is exercised on genuinely mixed rollouts

        hybrid = keyed(reports["hybrid"])
        no_rationale = keyed(reports["no_rationale"])
        assert set(no_rationale) == set(hybrid)
        assert set(hybrid) <= set(step_only)
        for key, bare in no_rationale.items():
            full = hybrid[key]
            assert bare.labels == full.labels
            assert bare.rationales == ("",) * len(bare.steps)
            assert (bare.problem, bare.steps, bare.final_answer, bare.outcome_flag,
                    bare.provenance) == (full.problem, full.steps, full.final_answer,
                                         full.outcome_flag, full.provenance)
        for mode_instances in (step_only, outcome_only):
            for key, other in mode_instances.items():
                if key in hybrid:
                    full = hybrid[key]
                    assert (other.problem, other.steps, other.final_answer,
                            other.outcome_flag, other.provenance) == (
                        full.problem, full.steps, full.final_answer,
                        full.outcome_flag, full.provenance)


def test_criterion_8_guided_decoding(tmp_path):
    """Oracle-scored decode solves 200/200; logs re-verify the argmax; pass@n
    is monotone."""
    with budget("criterion 8 (guided decoding)", 60.0):
        corpus = build_corpus(
            SyntheticCorpusConfig(count=200, num_terms=(2, 6), value_range=(10, 99),
                                  seed=801, error_rate=0.0, branch_noise=1.0,
                                  noise_deltas=(10, 20, 30))
        )
        generator = ScriptedGenerator(corpus, branch_noise=1.0,
                                      noise_deltas=(10, 20, 30), seed=801)
        scorer = OracleScorer(corpus)
        cfg = DecodeConfig(candidates_N=8, max_steps=12, pass_n=8, rng_seed=801)
        results = []
        for trace in corpus:
            result = decode(trace.problem, generator, scorer, cfg)
            assert result.correct, f"decode failed on {trace.problem.id}"
            for decision in result.decisions:
                assert len(decision.candidates) == 8
            results.append(result)

        log_path = tmp_path / "decode_log.jsonl"
        write_decode_log(log_path, results)
        records = read_decode_log(log_path)
        assert records
        for record in records:
            scores = record["scores"]
            best = 0
            for i in range(1, len(scores)):
                if scores[i] > scores[best]:
                    best = i
            assert record["chosen_index"] == best

        rng = random.Random(888)
        for _ in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 8)
            matrix = [[rng.random() < 0.4 for _ in range(cols)] for _ in range(rows)]
            rates = [pass_at_n(matrix, n) for n in range(1, cols + 1)]
            assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))


_FUZZ_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABC0123456789 \t\n"
    "+-*/=()[]{}\\\"'<>&éßαω中文−\U0001f600"
)


def _fuzz_instance(rng: random.Random) -> TrainingInstance:
    def text(max_len=40):
        return "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(0, max_len)))

    length = rng.randint(1, 6)
    return TrainingInstance(
        problem=text(),
        steps=tuple(text() for _ in range(length)),
        labels=tuple(rng.choice((-1, 1)) for _ in range(length)),
        rationales=tuple(text() for _ in range(length)),
        final_answer=text(12),
        outcome_flag=rng.choice((-1, 1)),
        provenance=Provenance(
            problem_id=text(8) or "p",
            tree_id=text(8) or "t",
            rollout_index=rng.randint(1, 64),
            rng_seed=rng.randint(0, 2**31),
            config_hash=text(8),
            pipeline_version="0.1.0",
        ),
    )


def test_criterion_9_serialization_round_trip():
    """10,000 fuzzed instances round-trip bit-exactly; bad versions rejected."""
    with budget("criterion 9 (serialization)", 10.0):
        rng = random.Random(909)
        for _ in range(10_000):
            instance = _fuzz_instance(rng)
            line = serialize_instance(instance)
            assert parse_instance(line) == instance
            assert serialize_instance(parse_instance(line)) == line

        line = serialize_instance(_fuzz_instance(rng))
        record = json.loads(line)
        for bad_version in (0, 2, "1", None):
            record["schema_version"] = bad_version
            with pytest.raises(SchemaVersionError):
                parse_instance(json.dumps(record))
