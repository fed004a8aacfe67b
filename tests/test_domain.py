"""Answer normalization, equality, and the core immutable types."""

import random
from fractions import Fraction

import pytest

from treeprm.domain import (
    Problem,
    ReasoningStep,
    Trajectory,
    VerificationResult,
    answers_equal,
    extract_final_answer,
    format_verdict_marker,
    normalize_answer,
    parse_rational,
    parse_verdict_marker,
)


class TestNormalizeAnswer:
    def test_whitespace_identity(self):
        assert normalize_answer("  42 ") == "42"

    def test_boxed_marker_stripped(self):
        assert normalize_answer("\\boxed{630}") == "630"
        assert normalize_answer("$\\boxed{ 630 }$") == "630"

    def test_fraction_reduced(self):
        # Independent oracle: Fraction("2/4") == Fraction(1, 2).
        assert Fraction("2/4") == Fraction(1, 2)
        assert normalize_answer("2/4") == "1/2"

    def test_decimal_becomes_exact_rational(self):
        assert normalize_answer("0.5") == "1/2"
        assert normalize_answer("3.14") == "157/50"

    def test_integer_cleanup(self):
        assert normalize_answer("+042") == "42"
        assert normalize_answer("-0") == "0"
        assert normalize_answer("1e3") == "1000"

    def test_text_collapses_whitespace(self):
        assert normalize_answer("  no   parse \t here ") == "no parse here"

    def test_idempotent_on_fuzzed_inputs(self):
        rng = random.Random(20240817)
        pieces = ["42", "-7", "2/4", "0.50", "x", "\\boxed{", "}", "$", " ", "\t",
                  "elephant", "1/0", "+", "-", ".", "00", "1e2", "\n"]
        for _ in range(10_000):
            raw = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 6)))
            once = normalize_answer(raw)
            assert normalize_answer(once) == once

    def test_division_by_zero_is_text(self):
        assert normalize_answer("1/0") == "1/0"


class TestAnswersEqual:
    def test_reflexive_literal(self):
        assert answers_equal("42", "42")

    def test_decimal_equals_fraction(self):
        # Independent oracle: both parse to the same exact rational.
        assert Fraction("0.5") == Fraction("1/2")
        assert answers_equal("0.5", "1/2")

    def test_distinct_totals_differ(self):
        assert not answers_equal("570", "630")

    def test_boxed_vs_bare(self):
        assert answers_equal("\\boxed{630}", " 630 ")

    def test_equivalence_relation_on_fuzz_set(self):
        rng = random.Random(99)
        values = [str(rng.randint(-30, 30)) for _ in range(40)]
        values += [f"{rng.randint(-12, 12)}/{rng.randint(1, 9)}" for _ in range(40)]
        values += ["x", "y z", "\\boxed{7}", "0.25", "7", "1/4", ""]
        for a in values:
            assert answers_equal(a, a)
        for a in values:
            for b in values:
                assert answers_equal(a, b) == answers_equal(b, a)
        for a in values:
            for b in values:
                if not answers_equal(a, b):
                    continue
                for c in values:
                    if answers_equal(b, c):
                        assert answers_equal(a, c)


class TestParseRational:
    def test_parses_forms(self):
        assert parse_rational("2/4") == Fraction(1, 2)
        assert parse_rational("-3") == Fraction(-3)

    def test_rejects_text(self):
        assert parse_rational("elephants") is None
        assert parse_rational("1/0") is None


class TestProblem:
    def test_requires_canonical_gold(self):
        Problem(id="p1", statement="s", gold_answer="210")
        with pytest.raises(ValueError, match="canonical"):
            Problem(id="p1", statement="s", gold_answer=" 210 ")

    def test_requires_nonempty_gold(self):
        with pytest.raises(ValueError, match="non-empty"):
            Problem(id="p1", statement="s", gold_answer="")

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="source"):
            Problem(id="p1", statement="s", gold_answer="1", source="nowhere")


def _step(index, action="a", is_final=False):
    return ReasoningStep(index=index, objective=f"obj {index}", action=action, is_final=is_final)


class TestTrajectory:
    def test_complete_trajectory(self):
        t = Trajectory((_step(1), _step(2, is_final=True)), final_answer="5")
        assert t.complete

    def test_contiguous_indices_enforced(self):
        with pytest.raises(ValueError, match="contiguous"):
            Trajectory((_step(1), _step(3)))

    def test_final_only_on_last(self):
        with pytest.raises(ValueError, match="last step"):
            Trajectory((_step(1, is_final=True), _step(2)))

    def test_final_answer_iff_final_step(self):
        with pytest.raises(ValueError, match="final answer"):
            Trajectory((_step(1), _step(2, is_final=True)))
        with pytest.raises(ValueError, match="without a final step"):
            Trajectory((_step(1),), final_answer="5")


class TestVerificationResult:
    def test_label_validated(self):
        with pytest.raises(ValueError):
            VerificationResult(label=0, rationale="")
        VerificationResult(label=-1, rationale="bad step")


class TestVerdictMarkers:
    def test_round_trip(self):
        assert parse_verdict_marker(format_verdict_marker(1)) == 1
        assert parse_verdict_marker(format_verdict_marker(-1)) == -1

    def test_last_marker_wins(self):
        text = "maybe \\boxed{+} ... on reflection \\boxed{-}"
        assert parse_verdict_marker(text) == -1

    def test_tolerates_nested_braces_and_unicode_minus(self):
        assert parse_verdict_marker("label: \\boxed{{-}}") == -1
        assert parse_verdict_marker("label: \\boxed{\u2212}") == -1

    def test_absent(self):
        assert parse_verdict_marker("no verdict here") is None


class TestExtractFinalAnswer:
    def test_marker_form(self):
        step = _step(3, action="running total = 210; final answer = 210", is_final=True)
        assert extract_final_answer(step) == "210"

    def test_capitalized_marker(self):
        step = _step(2, action="So we are done.\nFinal Answer: 7/2", is_final=True)
        assert extract_final_answer(step) == "7/2"

    def test_fallback_whole_action(self):
        step = _step(2, action="the answer is six", is_final=True)
        assert extract_final_answer(step) == "the answer is six"
