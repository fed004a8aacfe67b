"""The synthetic running-sum domain and its oracles."""

import random
import re

import pytest

from treeprm.domain import ReasoningStep
from treeprm.synthetic import (
    SyntheticCorpusConfig,
    TrajectoryExhausted,
    build_corpus,
    exact_verify,
    oracle_labels,
    oracle_score,
    scripted_generate,
    stated_value,
    trace_from_values,
)


def sampled_trace(seed, terms, error_plan=()):
    """A trace of `terms` addends in [0, 99] drawn from `seed`."""
    rng = random.Random(seed)
    return trace_from_values([rng.randint(0, 99) for _ in range(terms)], error_plan)


class TestErrorPlan:
    def test_valid(self):
        trace_from_values([1, 2, 3], error_plan=((2, -5),))

    def test_needs_an_addend(self):
        with pytest.raises(ValueError, match="at least one addend"):
            trace_from_values([])

    def test_error_plan_bounds(self):
        with pytest.raises(ValueError, match=re.escape("error_plan index 4 outside [1, 3]")):
            trace_from_values([1, 2, 3], error_plan=((4, 1),))
        with pytest.raises(ValueError, match="outside"):
            trace_from_values([1, 2, 3], error_plan=((0, 1),))

    def test_error_plan_distinct(self):
        with pytest.raises(ValueError, match="distinct; 2 repeats"):
            trace_from_values([1, 2, 3], error_plan=((2, 1), (2, 3)))

    def test_error_plan_nonzero(self):
        with pytest.raises(ValueError, match="nonzero"):
            trace_from_values([1, 2, 3], error_plan=((2, 0),))


class TestTraceConstruction:
    def test_clean_running_sum(self):
        trace = trace_from_values([50, 80, 80])
        actions = [s.action for s in trace.trajectory.steps]
        assert actions == [
            "running total = 50",
            "running total = 130",
            "running total = 210; final answer = 210",
        ]
        assert trace.problem.gold_answer == "210"
        assert trace.ground_truth_labels == (1, 1, 1)
        assert trace.first_error_index is None

    def test_corruption_semantics(self):
        trace = trace_from_values([50, 80, 80], error_plan=((2, -60),))
        assert [stated_value(s) for s in trace.trajectory.steps] == [50, 70, 150]
        assert trace.ground_truth_labels == (1, -1, -1)
        assert trace.first_error_index == 2
        assert trace.problem.gold_answer == "210"

    def test_zero_values(self):
        trace = trace_from_values([0, 0])
        assert trace.problem.gold_answer == "0"

    def test_cancelled_corruption_recovers(self):
        # +10 at step 2, -10 at step 3: step 3 onward matches the gold chain again.
        trace = trace_from_values([5, 5, 5, 5], error_plan=((2, 10), (3, -10)))
        assert trace.ground_truth_labels == (1, -1, 1, 1)
        assert trace.first_error_index == 2

    def test_corpus_trace_draws_its_addends_from_its_own_seed(self):
        cfg = SyntheticCorpusConfig(count=3, num_terms=(2, 5), value_range=(10, 99), seed=7,
                                    error_rate=1.0)
        for index, trace in enumerate(build_corpus(cfg)):
            seed = 7 * 1_000_003 + index
            rng = random.Random(seed)
            values = [rng.randint(10, 99) for _ in trace.addends]
            assert trace == trace_from_values(values, trace.error_plan,
                                              problem_id=f"synth-{seed}")


class TestScriptedGenerate:
    def test_zero_noise_degeneracy(self, clean_trace):
        state = clean_trace.trajectory.steps[:1]
        rng = random.Random(0)
        candidates = scripted_generate(state, clean_trace, 3, 0.0, rng)
        assert len(candidates) == 3
        assert all(c.action == "running total = 130" for c in candidates)

    def test_forced_perturbation_arithmetic(self, clean_trace):
        state = clean_trace.trajectory.steps[:1]
        rng = random.Random(0)
        candidates = scripted_generate(
            state, clean_trace, 3, 1.0, rng, noise_deltas=(10, -10)
        )
        assert [stated_value(c) for c in candidates] == [130, 140, 120]

    def test_equal_totals_share_one_step(self, clean_trace):
        state = clean_trace.trajectory.steps[:1]
        candidates = scripted_generate(state, clean_trace, 4, 1.0, random.Random(0),
                                       noise_deltas=(10, -10))
        assert [stated_value(c) for c in candidates] == [130, 140, 120, 140]
        assert candidates[3] is candidates[1]

    def test_one_candidate_needs_no_rng(self, clean_trace):
        state = clean_trace.trajectory.steps[:1]
        assert scripted_generate(state, clean_trace, 1, 1.0, None) == scripted_generate(
            state, clean_trace, 1, 1.0, random.Random(0))

    def test_exhausted_state_errors(self, clean_trace):
        state = clean_trace.trajectory.steps
        with pytest.raises(TrajectoryExhausted, match="exhausted"):
            scripted_generate(state, clean_trace, 3, 0.0, random.Random(0))

    def test_planted_delta_applies_on_any_path(self, corrupted_trace):
        # From the clean prefix the main candidate still carries the planted -60.
        state = corrupted_trace.trajectory.steps[:1]
        candidates = scripted_generate(state, corrupted_trace, 1, 0.0, random.Random(0))
        assert stated_value(candidates[0]) == 70

    def test_final_step_marked(self, clean_trace):
        state = clean_trace.trajectory.steps[:2]
        candidates = scripted_generate(state, clean_trace, 1, 0.0, random.Random(0))
        assert candidates[0].is_final
        assert "final answer = 210" in candidates[0].action


class TestExactVerify:
    def test_correct_continuation(self, clean_trace):
        steps = clean_trace.trajectory.steps
        result = exact_verify(steps[1], steps[:1], clean_trace)
        assert result.label == 1
        assert result.verifiable
        assert "50 + 80 = 130" in result.rationale

    def test_arithmetic_contradiction(self, clean_trace):
        bad = ReasoningStep(index=2, objective="Add 80 to the running total",
                            action="running total = 120")
        result = exact_verify(bad, clean_trace.trajectory.steps[:1], clean_trace)
        assert result.label == -1
        assert result.verifiable
        assert "should be 130" in result.rationale

    def test_unparseable_step(self, clean_trace):
        bad = ReasoningStep(index=2, objective="??", action="elephants")
        result = exact_verify(bad, clean_trace.trajectory.steps[:1], clean_trace)
        assert result.label == -1
        assert not result.verifiable
        assert "unparseable" in result.rationale

    def test_local_semantics_after_corruption(self, corrupted_trace):
        # A step consistent with the poisoned prefix is locally correct: the
        # corrupted trace states 70 at step 2, so 70 + 80 = 150 verifies +1
        # even though the gold chain says 210.
        steps = corrupted_trace.trajectory.steps
        result = exact_verify(steps[2], steps[:2], corrupted_trace)
        assert result.label == 1

    def test_step_must_extend_context(self, clean_trace):
        with pytest.raises(ValueError, match="extend"):
            exact_verify(clean_trace.trajectory.steps[2],
                         clean_trace.trajectory.steps[:1], clean_trace)


class TestOracleScore:
    def test_correct_candidate(self, clean_trace):
        steps = clean_trace.trajectory.steps
        assert oracle_score(steps[:1], steps[1], clean_trace) == 1.0

    def test_corrupted_candidate(self, clean_trace):
        bad = ReasoningStep(index=2, objective="x", action="running total = 140")
        assert oracle_score(clean_trace.trajectory.steps[:1], bad, clean_trace) == -1.0

    def test_argmax_picks_correct(self, clean_trace):
        state = clean_trace.trajectory.steps[:1]
        candidates = scripted_generate(state, clean_trace, 3, 1.0, random.Random(1),
                                       noise_deltas=(10, -10))
        scores = [oracle_score(state, c, clean_trace) for c in candidates]
        assert scores.index(max(scores)) == 0


class TestOracleProperties:
    def test_verify_matches_ground_truth_on_uncorrupted_prefixes(self):
        # 1000 seeded traces; stop at the first corruption, where local and
        # gold-chain labels are still the same thing.
        for seed in range(1000):
            rng = random.Random(seed)
            terms = rng.randint(2, 6)
            plan = ()
            if seed % 3 == 0:
                plan = ((rng.randint(1, terms), rng.choice((-30, 10, 60))),)
            trace = sampled_trace(seed, terms, plan)
            steps = trace.trajectory.steps
            boundary = trace.first_error_index or len(steps)
            for position in range(boundary):
                result = exact_verify(steps[position], steps[:position], trace)
                assert result.label == trace.ground_truth_labels[position]

    def test_first_error_from_verify_labels_equals_first_corruption(self):
        for seed in range(300):
            rng = random.Random(1_000_000 + seed)
            terms = rng.randint(2, 7)
            position = rng.randint(1, terms)
            trace = sampled_trace(seed, terms, ((position, rng.choice((-25, 15, 40))),))
            labels = oracle_labels(trace.trajectory.steps, trace)
            first = next(i for i, lab in enumerate(labels, start=1) if lab == -1)
            assert first == position

    def test_generation_deterministic_under_subseed(self, clean_trace):
        state = clean_trace.trajectory.steps[:1]
        a = scripted_generate(state, clean_trace, 3, 0.7, random.Random(42))
        b = scripted_generate(state, clean_trace, 3, 0.7, random.Random(42))
        assert a == b


class TestCorpusBuilder:
    def test_deterministic_and_distinct_ids(self):
        cfg = SyntheticCorpusConfig(count=50, num_terms=(2, 6), value_range=(10, 99),
                                    seed=11, error_rate=0.5)
        first = build_corpus(cfg)
        second = build_corpus(cfg)
        assert first == second
        ids = [t.problem.id for t in first]
        assert len(set(ids)) == len(ids)

    def test_error_rate_zero_means_clean(self):
        cfg = SyntheticCorpusConfig(count=30, num_terms=(2, 5), value_range=(0, 50),
                                    seed=3, error_rate=0.0)
        assert all(t.first_error_index is None for t in build_corpus(cfg))

    def test_validation(self):
        with pytest.raises(ValueError, match="num_terms"):
            SyntheticCorpusConfig(count=5, num_terms=(1, 4), value_range=(0, 9), seed=0)
        with pytest.raises(ValueError, match="value_range low must not exceed high"):
            SyntheticCorpusConfig(count=5, num_terms=(2, 4), value_range=(9, 0), seed=0)
