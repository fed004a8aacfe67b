"""Property tests: the fast labelling and answer-equality paths against their
reference definitions, with exact equality and no tolerance."""

from hypothesis import given, settings
from hypothesis import strategies as st

from treeprm.domain import answers_equal, normalize_answer, parse_rational
from treeprm.rewards import (
    UnlabeledStepError,
    aggregate,
    labelled_steps,
    step_label,
    trajectory_labels,
)

deterministic = settings(max_examples=300, deadline=None, derandomize=True, database=None)

signs = st.sampled_from((-1, 1))
betas = st.floats(min_value=0.0, max_value=2.0)
gammas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@deterministic
@given(st.lists(signs, min_size=0, max_size=11), signs, betas, gammas)
def test_labelled_steps_equal_step_label_and_aggregate_exactly(labels, final_flag, beta, gamma):
    length = len(labels) + 1
    steps = labelled_steps(labels, final_flag, beta, gamma)
    assert len(steps) == length - 1
    for j, (label, u_plus_v) in enumerate(steps, start=1):
        u = aggregate(labels[j:], final_flag, beta, gamma, j, length).u_value
        assert u_plus_v == u + labels[j - 1]
        assert label == step_label(j, labels, final_flag, beta, gamma)
    assert trajectory_labels(labels, final_flag, beta, gamma) == [
        step_label(j, labels, final_flag, beta, gamma) for j in range(1, length + 1)
    ]


@deterministic
@given(st.lists(st.sampled_from((-1, 1, None)), min_size=1, max_size=11),
       st.sampled_from((-1, 0, 1)),
       st.floats(min_value=-1.0, max_value=2.0), st.floats(min_value=-0.5, max_value=1.5))
def test_labelled_steps_raise_what_step_label_raises(labels, final_flag, beta, gamma):
    def outcome(fn):
        try:
            fn()
        except UnlabeledStepError:
            return UnlabeledStepError
        except ValueError:
            return ValueError
        return None

    reference = outcome(lambda: [step_label(j, labels, final_flag, beta, gamma)
                                 for j in range(1, len(labels) + 2)])
    assert outcome(lambda: labelled_steps(labels, final_flag, beta, gamma)) is reference


def reference_answers_equal(a: str, b: str) -> bool:
    """The comparison without shortcuts: normalize, then exact rationals."""
    left, right = normalize_answer(a), normalize_answer(b)
    if left == right:
        return True
    left_value, right_value = parse_rational(left), parse_rational(right)
    return left_value is not None and right_value is not None and left_value == right_value


@st.composite
def renderings(draw, value: int) -> str:
    """One of many spellings of the integer `value`."""
    sign = "-" if value < 0 else ""
    digits = str(abs(value))
    scale = draw(st.integers(min_value=1, max_value=9))
    return draw(st.sampled_from((
        str(value),
        f"{sign}{'0' * scale}{digits}",
        f"+{value}",
        f"{value:+d}",
        f" \t{value}\n",
        f"\\boxed{{{value}}}",
        f"$\\boxed{{ {value} }}$",
        f"{value * scale}/{scale}",
        f"{value}.{'0' * scale}",
        f"{value}e0",
        f"{value * 10 ** scale}e-{scale}",
        f"{sign}0",
    )))


integers = st.integers(min_value=-10**6, max_value=10**6)
long_digits = st.integers(min_value=495, max_value=520).flatmap(
    lambda n: st.sampled_from(("1" + "0" * n, "9" * n, "0" + "7" * n, "-" + "3" * n)))
answers = st.one_of(
    integers.flatmap(renderings),
    long_digits,
    st.sampled_from(("0", "-0", "+0", "00", "1/2", "2/4", "0.5", "5e-1", "x + 1", "")),
    st.text(alphabet="0123456789-+/.eE \\{}$boxed", max_size=12),
)
same_value_pairs = integers.flatmap(lambda n: st.tuples(renderings(n), renderings(n)))


@deterministic
@given(st.one_of(st.tuples(answers, answers), same_value_pairs))
def test_answers_equal_matches_the_full_comparison(pair):
    a, b = pair
    assert answers_equal(a, b) == reference_answers_equal(a, b)
    assert answers_equal(b, a) == reference_answers_equal(b, a)
