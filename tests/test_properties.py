"""Property tests: the fast labelling, answer-equality and selection paths,
the early-stopped search and its replays, and the per-problem memo, against
their reference definitions, with exact equality and no tolerance."""

import math
import zlib
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeprm import mcts
from treeprm.backends.base import BackendError, ProblemMemo
from treeprm.backends.synthetic import ExactVerifier, ScriptedGenerator
from treeprm.domain import (
    Problem,
    ReasoningStep,
    VerificationResult,
    answers_equal,
    extract_final_answer,
    normalize_answer,
    parse_rational,
)
from treeprm.mcts import SearchConfig, best_index, run_search, uct_score
from treeprm.rewards import (
    UnlabeledStepError,
    aggregate,
    labelled_steps,
    step_label,
)
from treeprm.synthetic import trace_from_values

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
        u = aggregate(labels[j:], final_flag, beta, gamma, j, length)
        assert u_plus_v == u + labels[j - 1]
        assert label == step_label(j, labels, final_flag, beta, gamma)


@deterministic
@given(st.lists(st.sampled_from((-1, 0, 1, None)), min_size=1, max_size=11),
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


def distinct_rollouts(rollouts):
    """The first rollout of each (steps, verifications), in order."""
    first = {}
    for rollout in rollouts:
        first.setdefault((rollout.steps, rollout.verifications), rollout)
    return list(first.values())


@st.composite
def searches(draw):
    """A small trace with planted errors, a noisy generator and a search config."""
    values = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4))
    positions = draw(st.sets(st.integers(min_value=1, max_value=len(values))))
    error_plan = tuple((position, draw(st.sampled_from((10, -30)))) for position in
                       sorted(positions))
    trace = trace_from_values(values, error_plan=error_plan, problem_id="prop")
    generator = ScriptedGenerator([trace], branch_noise=draw(st.floats(0.0, 1.0)),
                                  noise_deltas=draw(st.sampled_from(((7,), (7, -7), (7, -7, 13)))),
                                  seed=draw(st.integers(0, 2**16)))
    cfg = SearchConfig(exploration_c=math.sqrt(2), branch_K=draw(st.integers(1, 3)),
                       decay_gamma=0.9, outcome_beta=0.5,
                       max_rounds_R=draw(st.integers(1, 40)),
                       max_depth=draw(st.integers(1, 5)), rng_seed=7)
    return trace.problem, generator, ExactVerifier([trace]), cfg


@settings(deterministic, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(searches())
def test_stopped_search_finds_the_rollouts_of_all_rounds(all_rounds, search):
    problem, generator, verifier, cfg = search
    stopped = run_search(problem, generator, verifier, cfg)
    with all_rounds:
        reference = run_search(problem, generator, verifier, cfg)
    assert distinct_rollouts(stopped.rollouts) == distinct_rollouts(reference.rollouts)
    assert stopped.root.visit_count == stopped.rounds <= cfg.max_rounds_R
    assert reference.rounds == cfg.max_rounds_R


def reference_select_leaf(root, cfg):
    """Selection as first written: a score list per level, `uct_score` for
    each live child and -inf for each dead end, then `best_index`."""
    path = [root]
    node = root
    while node.fully_expanded and not node.terminal and node.children:
        scores = [
            -math.inf if child.dead_end
            else uct_score(child.q_value, node.visit_count, child.visit_count, cfg.exploration_c)
            for child in node.children
        ]
        node = node.children[best_index(scores)]
        path.append(node)
    return path


@settings(deterministic, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(searches())
def test_select_leaf_matches_the_reference_descent(all_rounds, search):
    problem, generator, verifier, cfg = search
    descents = []
    select_leaf = mcts.select_leaf

    def checked(root, cfg):
        expected = reference_select_leaf(root, cfg)
        path = select_leaf(root, cfg)
        assert path == expected
        descents.append(len(path))
        return path

    with all_rounds, mock.patch.object(mcts, "select_leaf", checked):
        result = run_search(problem, generator, verifier, cfg)
    assert len(descents) == result.rounds == cfg.max_rounds_R


def tree_nodes(node):
    yield node
    for child in node.children:
        yield from tree_nodes(child)


@settings(deterministic, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(searches())
def test_visited_terminal_q_is_its_first_reward(all_rounds, search):
    """A terminal node's first visit simulates from the node itself: its
    window is empty, so its reward is beta * F + v, and no later round
    backpropagates into it."""
    problem, generator, verifier, cfg = search
    with all_rounds:
        result = run_search(problem, generator, verifier, cfg)
    for node in tree_nodes(result.root):
        if node.terminal and node.visit_count:
            answer = extract_final_answer(node.state[-1])
            flag = 1 if answers_equal(answer, problem.gold_answer) else -1
            assert node.q_value == cfg.outcome_beta * flag + node.step_verification.label


@settings(deterministic, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(searches())
def test_visits_are_the_rounds_that_passed_through(all_rounds, search):
    """Each round visits the root and every node below it down to the rewarded
    node's parent; a terminal rewarded node takes a visit too. So a node with
    children has one visit per visit of a child, plus the round that expanded
    it and rewarded its simulated child unless that child is terminal, and
    the root's visits are the rounds run."""
    problem, generator, verifier, cfg = search
    with all_rounds:
        result = run_search(problem, generator, verifier, cfg)
    assert result.errors == []  # an aborted round visits nothing
    assert result.root.visit_count == result.rounds
    for node in tree_nodes(result.root):
        if node.children:
            simulated = mcts.choose_simulation_child(node.children)
            assert node.visit_count == (sum(child.visit_count for child in node.children)
                                        + (not simulated.terminal))


def _digest(question) -> int:
    return zlib.crc32(repr(question).encode())


def reference_answer(question):
    """What the fake backend answers `question`, a function of it alone."""
    call, *args = question
    if call == "sample":
        state, index = args
        if _digest(question) % 4 == 0:
            return None  # a completion that does not parse
        return ReasoningStep(len(state) + 1, f"sample {index}", f"{_digest(question) % 9}")
    if call == "generate":
        state, count = args
        return [ReasoningStep(len(state) + 1, f"of {count}", f"{_digest((question, i)) % 9}")
                for i in range(count)]
    if call == "tool":
        return f"tool says {_digest(question) % 5}"
    # verify or judge
    return VerificationResult(label=1 if _digest(question) % 2 else -1, rationale=repr(question))


class CountingBackend:
    """A fake generator and verifier that counts each question it is asked and,
    with `flaky`, raises at the first ask of some questions. With
    `per_sample` it generates through `samples`, with `split` it verifies
    through `tool` and `judge`, as the remote backends do."""

    def __init__(self, per_sample: bool, split: bool, flaky: bool):
        self.asked = Counter()
        self.raised = set()
        self.flaky = flaky
        if per_sample:
            self.samples = lambda problem, state, indices: (
                self._answer(("sample", state, index)) for index in indices)
        if split:
            self.tool = lambda query: self._answer(("tool", query))

    def _answer(self, question):
        self.asked[question] += 1
        if self.flaky and _digest(question) % 3 == 0 and question not in self.raised:
            self.raised.add(question)
            raise BackendError(f"first ask of {question!r} failed")
        return reference_answer(question)

    def generate(self, problem, state, count):
        return self._answer(("generate", state, count))

    def verify(self, problem, step, context):
        return self._answer(("verify", step, context))

    def judge(self, problem, step, context, tool_text):
        assert tool_text == reference_answer(("tool", step.action))
        return self._answer(("judge", step, context))


def expected_answer(backend, ask):
    """The answer of one ask, built from the reference answers of its questions."""
    call, *args = ask
    if call == "generate" and hasattr(backend, "samples"):
        state, count = args
        samples = (reference_answer(("sample", state, index)) for index in range(count))
        return [step for step in samples if step is not None]
    if call == "verify" and hasattr(backend, "tool"):
        return reference_answer(("judge", *args))
    return reference_answer(ask)


def questions(backend, ask) -> set:
    """The questions that one ask needs the backend to answer."""
    call, *args = ask
    if call == "generate" and hasattr(backend, "samples"):
        state, count = args
        return {("sample", state, index) for index in range(count)}
    if call == "verify" and hasattr(backend, "tool"):
        step, context = args
        return {("tool", step.action), ("judge", step, context)}
    return {tuple(ask)}


memo_steps = st.builds(ReasoningStep, index=st.integers(1, 2), objective=st.just("o"),
                       action=st.sampled_from("abc"))
memo_states = st.lists(memo_steps, max_size=2).map(tuple)
asks = st.one_of(st.tuples(st.just("generate"), memo_states, st.integers(1, 4)),
                 st.tuples(st.just("verify"), memo_steps, memo_states))


@deterministic
@given(st.booleans(), st.booleans(), st.booleans(), st.lists(asks, max_size=30))
def test_a_problem_memo_asks_each_distinct_question_once(per_sample, split, flaky, sequence):
    """Over any sequence of asks, asked again until no ask raises: the memo
    answers what the backend answers, each distinct question reaches the
    backend once, and a question whose ask raised is asked again, once."""
    backend = CountingBackend(per_sample, split, flaky)
    memo = ProblemMemo(backend)
    problem = Problem(id="memo", statement="", gold_answer="0")
    failed = True
    while failed:  # each failure uses up one question's failing ask
        failed = False
        for ask in sequence:
            call, *args = ask
            try:
                answer = getattr(memo, call)(problem, *args)
            except BackendError:
                assert flaky
                failed = True
                continue
            assert answer == expected_answer(backend, ask)
    assert set(backend.asked) == set().union(*(questions(backend, ask) for ask in sequence))
    assert backend.asked == Counter({question: 1 + (question in backend.raised)
                                     for question in backend.asked})
    if per_sample:  # sample 0 of a K-way ask is the one-sample ask's
        asked = backend.asked.copy()
        for call, state, count in (ask for ask in sequence if ask[0] == "generate"):
            assert memo.generate(problem, state, 1) == expected_answer(
                backend, ("generate", state, 1))
        assert backend.asked == asked
