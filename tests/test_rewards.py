"""Hybrid reward aggregation against an exact-arithmetic oracle."""

import random
from fractions import Fraction

import pytest

from treeprm.rewards import (
    UnlabeledStepError,
    aggregate,
    node_value,
    step_label,
)


def oracle_u(labels, final_flag, beta, gamma, i, T):
    """Independent brute-force reference in exact rational arithmetic."""
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    window = T - 1 - i
    if window <= 0:
        return beta * final_flag
    total = Fraction(0)
    for offset, j in enumerate(range(i + 1, T)):
        total += gamma ** (j - i) * labels[offset]
    return total / window + beta * final_flag


class TestAggregate:
    def test_unit_weights_hand_value(self):
        # i=1, T=4, v=(+1,+1), F=+1, beta=0.5, gamma=1 -> (1/2)(1+1) + 0.5
        u = aggregate([1, 1], 1, 0.5, 1.0, 1, 4)
        assert u == pytest.approx(1.5, abs=1e-15)

    def test_all_negative_symmetry(self):
        u = aggregate([-1, -1, -1], -1, 1.0, 1.0, 0, 4)
        assert u == pytest.approx(-2.0, abs=1e-15)

    def test_empty_window_is_outcome_only(self):
        u = aggregate([], 1, 0.5, 0.9, 3, 4)
        assert u == 0.5

    def test_negative_window_allowed_for_terminal_reuse(self):
        # T == i happens when a fully explored line is re-evaluated.
        u = aggregate([], -1, 0.5, 0.9, 3, 3)
        assert u == pytest.approx(-0.5, abs=1e-15)

    def test_weights_are_discounts(self):
        u = aggregate([1, -1], 1, 0.0, 0.9, 2, 5)
        assert u == pytest.approx((0.9 - 0.81) / 2)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="step label"):
            aggregate([0], 1, 0.5, 0.9, 0, 2)
        with pytest.raises(ValueError, match="final_flag"):
            aggregate([1], 0, 0.5, 0.9, 0, 2)

    def test_window_length_validation(self):
        with pytest.raises(ValueError, match="expected 2 step labels"):
            aggregate([1], 1, 0.5, 0.9, 1, 4)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match="beta"):
            aggregate([], 1, -0.1, 0.9, 0, 1)
        with pytest.raises(ValueError, match="gamma"):
            aggregate([], 1, 0.5, 0.0, 0, 1)
        with pytest.raises(ValueError, match="gamma"):
            aggregate([], 1, 0.5, 1.5, 0, 1)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(314159)
        for _ in range(1000):
            T = rng.randint(1, 12)
            i = rng.randint(0, T - 1)
            labels = [rng.choice((-1, 1)) for _ in range(T - 1 - i)]
            F = rng.choice((-1, 1))
            beta = rng.choice((0.0, 0.25, 0.5, 1.0, 2.0))
            gamma = rng.choice((0.5, 0.9, 0.99, 1.0))
            expected = oracle_u(labels, F, beta, gamma, i, T)
            got = aggregate(labels, F, beta, gamma, i, T)
            assert abs(got - float(expected)) <= 1e-12

    def test_flipping_outcome_shifts_u_by_two_beta(self):
        rng = random.Random(2718)
        for _ in range(1000):
            T = rng.randint(1, 12)
            i = rng.randint(0, T - 1)
            labels = [rng.choice((-1, 1)) for _ in range(T - 1 - i)]
            beta = rng.uniform(0.0, 2.0)
            gamma = rng.uniform(0.1, 1.0)
            low = aggregate(labels, -1, beta, gamma, i, T)
            high = aggregate(labels, 1, beta, gamma, i, T)
            assert high - low == pytest.approx(2 * beta, abs=1e-12)

    def test_gamma_one_all_positive_is_one_plus_beta_f(self):
        rng = random.Random(11)
        for _ in range(200):
            T = rng.randint(2, 12)
            i = rng.randint(0, T - 2)
            beta = rng.uniform(0.0, 2.0)
            F = rng.choice((-1, 1))
            u = aggregate([1] * (T - 1 - i), F, beta, 1.0, i, T)
            assert u == pytest.approx(1 + beta * F, abs=1e-12)


class TestNodeValue:
    def test_direct_sum(self):
        assert node_value(1.5, 1) == pytest.approx(2.5)
        assert node_value(0.0, -1) == pytest.approx(-1.0)
        assert node_value(-2.0, -1) == pytest.approx(-3.0)

    def test_validates_v(self):
        with pytest.raises(ValueError):
            node_value(1.0, 0)


class TestStepLabel:
    def test_positive_composition(self):
        # v_j=+1, suffix all +1, F=+1, beta=0.5, gamma=1: sign(1.5 + 1) = +1
        assert step_label(1, [1, 1, 1], 1, 0.5, 1.0) == 1

    def test_all_negative(self):
        assert step_label(1, [-1, -1, -1], -1, 1.0, 1.0) == -1

    def test_sign_zero_is_negative(self):
        # v_j=+1 with u_j = -1 exactly: window {-1} at gamma=1 gives -1,
        # beta=0 kills the outcome term, so u + v == 0 -> label -1.
        assert step_label(1, [1, -1], 1, 0.0, 1.0) == -1

    def test_final_step_label_is_outcome(self):
        assert step_label(3, [1, 1], -1, 0.5, 0.9) == -1
        assert step_label(3, [1, 1], 1, 0.5, 0.9) == 1

    def test_unlabeled_step_rejected(self):
        with pytest.raises(UnlabeledStepError, match="unlabeled step"):
            step_label(1, [None, 1], 1, 0.5, 0.9)
        with pytest.raises(UnlabeledStepError):
            step_label(1, [1, None], 1, 0.5, 0.9)

    def test_locality_prefix_independence(self):
        # The label at index j depends only on v_j, the suffix, and F.
        rng = random.Random(4242)
        for _ in range(300):
            T = rng.randint(3, 10)
            labels = [rng.choice((-1, 1)) for _ in range(T - 1)]
            F = rng.choice((-1, 1))
            j = rng.randint(2, T - 1)
            original = step_label(j, labels, F, 0.5, 0.9)
            mutated = list(labels)
            for k in range(j - 1):
                mutated[k] = -mutated[k]
            assert step_label(j, mutated, F, 0.5, 0.9) == original
