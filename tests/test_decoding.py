"""Greedy reward-guided decoding and pass@n."""

import random

import pytest

from treeprm.backends.synthetic import OracleScorer, ScriptedGenerator
from treeprm.decoding import (
    DecodeConfig,
    DecodeError,
    decode,
    greedy_step,
    pass_at_n,
    read_decode_log,
    sample_rollout,
    write_decode_log,
)
from treeprm.domain import ReasoningStep
from treeprm.synthetic import trace_from_values


def decode_cfg(**overrides):
    values = dict(candidates_N=8, max_steps=12, pass_n=4, rng_seed=17)
    values.update(overrides)
    return DecodeConfig(**values)


class FixedScorer:
    def __init__(self, scores):
        self.scores = list(scores)
        self.calls = 0

    def score(self, problem, state, candidate):
        score = self.scores[self.calls % len(self.scores)]
        self.calls += 1
        return score


class FixedPolicy:
    def __init__(self, count):
        self.count = count

    def generate(self, problem, state, count):
        return [
            ReasoningStep(index=len(state) + 1, objective="o", action=f"candidate {i}")
            for i in range(count)
        ]


class NegatedOracle:
    def __init__(self, inner):
        self.inner = inner

    def score(self, problem, state, candidate):
        return -self.inner.score(problem, state, candidate)


def bundle(values, error_plan=(), noise=0.0, pid="d1", deltas=(10, -10, 25), seed=17):
    trace = trace_from_values(values, error_plan=error_plan, problem_id=pid)
    policy = ScriptedGenerator([trace], branch_noise=noise, noise_deltas=deltas, seed=seed)
    scorer = OracleScorer([trace])
    return trace, policy, scorer


class TestGreedyStep:
    def test_argmax(self):
        trace, _, _ = bundle([1, 2])
        step, decision = greedy_step((), trace.problem, FixedPolicy(3),
                                     FixedScorer([0.2, 0.9, 0.5]), decode_cfg(candidates_N=3))
        assert decision.chosen_index == 1
        assert step.action == "candidate 1"
        assert decision.scores == (0.2, 0.9, 0.5)

    def test_tie_breaks_low_index(self):
        trace, _, _ = bundle([1, 2])
        _, decision = greedy_step((), trace.problem, FixedPolicy(2),
                                  FixedScorer([0.5, 0.5]), decode_cfg(candidates_N=2))
        assert decision.chosen_index == 0

    def test_requested_candidate_count(self):
        trace, policy, scorer = bundle([1, 2], noise=1.0)
        _, decision = greedy_step((), trace.problem, policy, scorer,
                                  decode_cfg(candidates_N=8))
        assert len(decision.candidates) == 8

    def test_equal_candidates_are_scored_once(self):
        trace, _, _ = bundle([1, 2])

        def step(action):
            return ReasoningStep(index=1, objective="o", action=action)

        # Equal candidates as one object and as separate equal objects.
        a, b = step("a"), step("b")
        slots = [a, b, step("c"), step("b"), a, step("c")]
        values = {"a": 0.2, "b": 0.9, "c": 0.9}

        class Policy:
            def generate(self, problem, state, count):
                return slots

        class CountingScorer:
            def __init__(self):
                self.asked = []

            def score(self, problem, state, candidate):
                self.asked.append(candidate.action)
                return values[candidate.action]

        scorer = CountingScorer()
        chosen, decision = greedy_step((), trace.problem, Policy(), scorer,
                                       decode_cfg(candidates_N=len(slots)))
        assert scorer.asked == ["a", "b", "c"]
        assert decision.scores == tuple(values[c.action] for c in slots)
        assert decision.candidates == ("a", "b", "c", "b", "a", "c")
        assert decision.chosen_index == 1 and chosen is b  # b and c tie at 0.9

    def test_scorer_error_is_decode_error(self):
        trace, policy, _ = bundle([1, 2])

        class Exploding:
            def score(self, problem, state, candidate):
                raise RuntimeError("scorer down")

        with pytest.raises(DecodeError, match="scorer down"):
            greedy_step((), trace.problem, policy, Exploding(), decode_cfg())


class TestDecode:
    def test_oracle_scorer_solves_noisy_problem(self):
        trace, policy, scorer = bundle([50, 80, 80], noise=1.0)
        result = decode(trace.problem, policy, scorer, decode_cfg())
        assert result.trajectory.complete and result.correct
        assert result.trajectory.final_answer == "210"

    def test_negated_oracle_fails_when_wrong_branches_exist(self):
        # Positive-only noise deltas: deviations can never cancel back to gold.
        trace, policy, scorer = bundle([50, 80, 80], noise=1.0, deltas=(10, 20, 30))
        result = decode(trace.problem, policy, NegatedOracle(scorer), decode_cfg())
        assert not result.correct

    def test_max_steps_truncation(self):
        trace, policy, scorer = bundle([1, 2, 3])
        result = decode(trace.problem, policy, scorer, decode_cfg(max_steps=1))
        assert not result.trajectory.complete
        assert not result.correct
        assert result.trajectory.final_answer is None

    def test_decisions_logged_per_step(self):
        trace, policy, scorer = bundle([5, 6, 7], noise=0.5)
        result = decode(trace.problem, policy, scorer, decode_cfg())
        assert [d.step_index for d in result.decisions] == [1, 2, 3]
        for decision in result.decisions:
            assert len(decision.candidates) == len(decision.scores) == 8


class TestSampleRollout:
    def test_deterministic_per_sample_index(self):
        trace, policy, _ = bundle([5, 6, 7], noise=0.8)
        first = sample_rollout(trace.problem, policy, decode_cfg(), 3)
        second = sample_rollout(trace.problem, policy, decode_cfg(), 3)
        assert first == second

    def test_sample_indices_vary(self):
        trace, policy, _ = bundle([5, 6], noise=0.3, deltas=(10, 20, 30))
        outcomes = {sample_rollout(trace.problem, policy, decode_cfg(), s)[1]
                    for s in range(16)}
        assert outcomes == {True, False}


class TestPassAtN:
    def test_any_semantics(self):
        assert pass_at_n([[False, True]], 2) == 1.0

    def test_all_false(self):
        assert pass_at_n([[False, False], [False, False]], 2) == 0.0

    def test_first_n_only(self):
        assert pass_at_n([[False, True]], 1) == 0.0

    def test_short_row_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            pass_at_n([[True]], 2)

    def test_monotone_in_n(self):
        rng = random.Random(777)
        for _ in range(1000):
            problems = rng.randint(1, 8)
            samples = rng.randint(1, 8)
            matrix = [[rng.random() < 0.3 for _ in range(samples)] for _ in range(problems)]
            rates = [pass_at_n(matrix, n) for n in range(1, samples + 1)]
            assert all(a <= b for a, b in zip(rates, rates[1:]))
            # Brute-force check of the final value.
            expected = sum(any(row) for row in matrix) / problems
            assert rates[-1] == pytest.approx(expected)


class TestDecodeLog:
    def test_round_trip_and_argmax_reverification(self, tmp_path):
        trace, policy, scorer = bundle([50, 80, 80], noise=1.0)
        result = decode(trace.problem, policy, scorer, decode_cfg())
        path = tmp_path / "log.jsonl"
        write_decode_log(path, [result])
        records = read_decode_log(path)
        assert len(records) == len(result.decisions)
        for record in records:
            scores = record["scores"]
            best = max(range(len(scores)), key=lambda i: (scores[i], -i))
            assert record["chosen_index"] == best

