"""Selection, expansion, simulation, backpropagation, and the full loop."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from treeprm.backends.base import BackendError
from treeprm.backends.synthetic import ExactVerifier, ScriptedGenerator
from treeprm.config import load_config
from treeprm.domain import ReasoningStep, VerificationResult
from treeprm.mcts import (
    SearchConfig,
    TreeNode,
    backpropagate,
    choose_simulation_child,
    expand,
    export_tree,
    most_visited_path,
    run_search,
    select_leaf,
    simulate,
    uct_score,
)
from treeprm.synthetic import build_corpus, trace_from_values

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synth.json"


def make_config(**overrides):
    values = dict(
        exploration_c=math.sqrt(2),
        branch_K=3,
        decay_gamma=0.9,
        outcome_beta=0.5,
        max_rounds_R=8,
        max_depth=10,
        rng_seed=7,
    )
    values.update(overrides)
    return SearchConfig(**values)


def make_node(q=0.0, visits=0, children=(), label=None, depth=0, terminal=False):
    state = tuple(
        ReasoningStep(index=i + 1, objective="o", action=f"a{i}",
                      is_final=terminal and i == depth - 1)
        for i in range(depth)
    )
    node = TreeNode(state=state)
    node.q_value = q
    node.visit_count = visits
    if label is not None:
        node.step_verification = VerificationResult(label=label, rationale="r")
    for child in children:
        node.children.append(child)
    if children:
        node.mark_expanded()
    return node


class TestUctScore:
    def test_zero_exploration_returns_q(self):
        assert uct_score(0.7, 5, 3, 0.0) == pytest.approx(0.7)

    def test_log_identity_case(self):
        assert uct_score(0.7, 1, 1, 2.0) == pytest.approx(0.7)

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 40
        oracle = float(1 + mpmath.sqrt(mpmath.log(10) / 2))
        got = uct_score(1.0, 10, 2, 1.0)
        assert got == pytest.approx(2.0729830131446736, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_unvisited_child_is_infinite(self):
        assert uct_score(-5.0, 10, 0, 1.0) == math.inf


def random_tree(rng, depth=0, max_depth=3):
    node = make_node(q=rng.uniform(-2, 2), visits=rng.randint(1, 20), depth=depth)
    if depth < max_depth and rng.random() < 0.8:
        for _ in range(rng.randint(1, 3)):
            node.children.append(random_tree(rng, depth + 1, max_depth))
        node.mark_expanded()
        # Sometimes leave one childless child unvisited to exercise the
        # forced-visit rule (in a real search only fresh leaves have 0 visits).
        leaves = [c for c in node.children if not c.children]
        if leaves and rng.random() < 0.4:
            leaves[rng.randrange(len(leaves))].visit_count = 0
    return node


def shift_q(node, delta):
    node.q_value += delta
    for child in node.children:
        shift_q(child, delta)


def path_indices(root, cfg):
    path = select_leaf(root, cfg)
    indices = []
    for parent, child in zip(path, path[1:]):
        indices.append(parent.children.index(child))
    return indices


class TestSelectLeaf:
    def test_childless_root_is_immediate_leaf(self):
        root = make_node()
        cfg = make_config()
        assert select_leaf(root, cfg) == [root]

    def test_argmax_choice(self):
        left = make_node(q=0.9, visits=2)
        right = make_node(q=0.2, visits=2)
        root = make_node(visits=4, children=(left, right))
        path = select_leaf(root, make_config(exploration_c=0.0))
        assert path == [root, left]

    def test_unvisited_child_forced(self):
        visited = make_node(q=5.0, visits=10)
        fresh = make_node(q=-5.0, visits=0)
        root = make_node(visits=11, children=(visited, fresh))
        path = select_leaf(root, make_config())
        assert path[-1] is fresh

    def test_tie_breaks_to_lowest_index(self):
        a = make_node(q=0.5, visits=3)
        b = make_node(q=0.5, visits=3)
        root = make_node(visits=6, children=(a, b))
        assert select_leaf(root, make_config())[-1] is a

    def test_uniform_q_shift_preserves_path(self):
        cfg = make_config()
        for seed in range(100):
            rng = random.Random(seed)
            root = random_tree(rng)
            before = path_indices(root, cfg)
            shift_q(root, rng.uniform(-10, 10))
            assert path_indices(root, cfg) == before

    def test_dead_end_children_are_never_selected(self):
        dead = make_node(q=5.0, visits=0)
        dead.dead_end = True
        live = make_node(q=-5.0, visits=3)
        root = make_node(visits=3, children=(dead, live))
        assert select_leaf(root, make_config())[-1] is live

    def test_unvisited_always_beats_revisit_on_random_trees(self):
        cfg = make_config()
        for seed in range(100):
            rng = random.Random(10_000 + seed)
            root = random_tree(rng)
            path = select_leaf(root, cfg)
            for parent, child in zip(path, path[1:]):
                if any(c.visit_count == 0 for c in parent.children):
                    assert child.visit_count == 0


class TestExpand:
    def setup_method(self):
        self.trace = trace_from_values([50, 80, 80], problem_id="px")
        self.verifier = ExactVerifier([self.trace])
        self.cfg = make_config()

    def test_three_distinct_candidates(self):
        generator = ScriptedGenerator([self.trace], branch_noise=1.0,
                                      noise_deltas=(10, -10), seed=1)
        root = TreeNode()
        children = expand(root, self.trace.problem, generator, self.verifier, self.cfg)
        assert len(children) == 3
        assert root.fully_expanded
        assert all(c.step_verification is not None for c in children)
        assert [c.q_value for c in children] == [1.0, -1.0, -1.0]

    def test_duplicates_collapse(self):
        generator = ScriptedGenerator([self.trace], branch_noise=0.0, seed=1)
        root = TreeNode()
        children = expand(root, self.trace.problem, generator, self.verifier, self.cfg)
        assert len(children) == 1
        assert root.fully_expanded

    def test_terminal_precondition(self):
        steps = self.trace.trajectory.steps
        node = TreeNode(state=steps)
        generator = ScriptedGenerator([self.trace], seed=1)
        with pytest.raises(ValueError, match="terminal"):
            expand(node, self.trace.problem, generator, self.verifier, self.cfg)

    def test_generator_failure_leaves_node_unchanged(self):
        class Exploding:
            def generate(self, problem, state, count):
                raise BackendError("backend down")

        root = TreeNode()
        with pytest.raises(BackendError, match="backend down"):
            expand(root, self.trace.problem, Exploding(), self.verifier, self.cfg)
        assert root.children == []
        assert not root.fully_expanded

    def test_verifier_failure_leaves_node_unchanged(self):
        class ExplodingVerifier:
            def verify(self, problem, step, context):
                raise BackendError("tool down")

        generator = ScriptedGenerator([self.trace], branch_noise=1.0, seed=1)
        root = TreeNode()
        with pytest.raises(BackendError, match="tool down"):
            expand(root, self.trace.problem, generator, ExplodingVerifier(), self.cfg)
        assert root.children == []
        assert not root.fully_expanded


class TestChooseSimulationChild:
    def test_unique_max(self):
        children = [make_node(label=-1), make_node(label=1), make_node(label=-1)]
        assert choose_simulation_child(children) is children[1]

    def test_tie_lowest_index(self):
        children = [make_node(label=1), make_node(label=1)]
        assert choose_simulation_child(children) is children[0]

    def test_all_failed_still_simulates(self):
        children = [make_node(label=-1), make_node(label=-1)]
        assert choose_simulation_child(children) is children[0]

    def test_requires_verified_children(self):
        with pytest.raises(ValueError, match="verified"):
            choose_simulation_child([make_node()])
        with pytest.raises(ValueError, match="children"):
            choose_simulation_child([])


class TestSimulate:
    def setup_method(self):
        self.trace = trace_from_values([50, 80, 80], problem_id="ps")
        self.generator = ScriptedGenerator([self.trace], branch_noise=0.0, seed=2)
        self.verifier = ExactVerifier([self.trace])
        self.cfg = make_config()

    def _node_at(self, depth):
        steps = self.trace.trajectory.steps[:depth]
        node = TreeNode(state=steps)
        if steps:
            node.step_verification = VerificationResult(label=1, rationale="r")
        return node

    def test_next_step_final_gives_empty_window(self):
        sim = simulate(self._node_at(2), self.trace.problem, self.generator,
                       self.verifier, self.cfg)
        assert sim.complete
        assert sim.extension_results == ()
        assert sim.final_flag == 1
        assert sim.final_answer == "210"

    def test_clean_rollout_all_positive(self):
        sim = simulate(self._node_at(0), self.trace.problem, self.generator,
                       self.verifier, self.cfg)
        assert sim.complete
        assert [r.label for r in sim.extension_results] == [1, 1]
        assert sim.final_flag == 1

    def test_planted_error_propagates_to_outcome(self):
        trace = trace_from_values([50, 80, 80], error_plan=((2, -60),), problem_id="pe")
        generator = ScriptedGenerator([trace], branch_noise=0.0, seed=2)
        verifier = ExactVerifier([trace])
        node = TreeNode(state=trace.trajectory.steps[:1])
        node.step_verification = VerificationResult(label=1, rationale="r")
        sim = simulate(node, trace.problem, generator, verifier, self.cfg)
        assert [r.label for r in sim.extension_results] == [-1]
        assert sim.final_flag == -1

    def test_truncation_marks_incomplete(self):
        cfg = make_config(max_depth=2)
        sim = simulate(self._node_at(0), self.trace.problem, self.generator,
                       self.verifier, cfg)
        assert not sim.complete
        assert sim.final_flag == -1
        assert sim.final_answer is None
        assert len(sim.steps) == 2
        assert len(sim.extension_results) == 2


class TestBackpropagate:
    def test_hand_evaluated_decay(self):
        parent = make_node()
        grandparent = make_node()
        backpropagate([(parent, 1), (grandparent, 2)], 2.0, 0.9)
        assert parent.q_value == pytest.approx(1.8, abs=1e-15)
        assert grandparent.q_value == pytest.approx(1.62, abs=1e-15)
        assert parent.visit_count == grandparent.visit_count == 1

    def test_gamma_one_increments_exactly(self):
        nodes = [make_node() for _ in range(5)]
        backpropagate([(n, d + 1) for d, n in enumerate(nodes)], 0.7321, 1.0)
        for node in nodes:
            assert node.q_value == 0.7321

    def test_zero_reward_still_counts_visit(self):
        node = make_node(q=1.25)
        backpropagate([(node, 1)], 0.0, 0.9)
        assert node.q_value == 1.25
        assert node.visit_count == 1

    def test_random_paths_match_fraction_oracle(self):
        rng = random.Random(555)
        for _ in range(100):
            depth = rng.randint(1, 10)
            gamma = rng.choice((0.5, 0.9, 0.97, 1.0))
            reward = rng.uniform(-3, 3)
            nodes = [make_node() for _ in range(depth)]
            backpropagate([(n, d + 1) for d, n in enumerate(nodes)], reward, gamma)
            for d, node in enumerate(nodes):
                expected = Fraction(gamma) ** (d + 1) * Fraction(reward)
                assert abs(node.q_value - float(expected)) <= 1e-12


class TestRunSearch:
    def _bundle(self, values, error_plan=(), noise=0.0, pid="pr", seed=7):
        trace = trace_from_values(values, error_plan=error_plan, problem_id=pid)
        generator = ScriptedGenerator([trace], branch_noise=noise,
                                      noise_deltas=(10, -10), seed=seed)
        verifier = ExactVerifier([trace])
        return trace, generator, verifier

    def test_single_round_structure(self):
        trace, generator, verifier = self._bundle([50, 80, 80])
        result = run_search(trace.problem, generator, verifier, make_config(max_rounds_R=1))
        assert len(result.rollouts) == 1
        assert len(result.root.children) == 1
        rollout = result.rollouts[0]
        assert len(rollout.steps) == 3
        assert len(rollout.verifications) == 2
        assert rollout.final_flag == 1

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="max_rounds_R"):
            make_config(max_rounds_R=0)

    def test_noise_free_converges_to_planted_chain(self):
        trace, generator, verifier = self._bundle([10, 20, 30, 40])
        result = run_search(trace.problem, generator, verifier, make_config(max_rounds_R=16))
        path = most_visited_path(result.root)
        assert [n.action_in.action for n in path[1:]] == [
            s.action for s in trace.trajectory.steps
        ]

    def test_bit_identical_across_runs(self):
        for _ in range(2):
            trace, generator, verifier = self._bundle([7, 8, 9], noise=0.6, seed=13)
            result = run_search(trace.problem, generator, verifier,
                                make_config(max_rounds_R=12))
            dump = export_tree(result.root)
            rollout_digest = [
                (r.round_index, r.steps, r.verifications, r.final_flag)
                for r in result.rollouts
            ]
            if "first" not in dir(self):
                self.first = (dump, rollout_digest)
            else:
                assert (dump, rollout_digest) == self.first

    def test_round_error_recorded_and_search_continues(self):
        trace, generator, verifier = self._bundle([5, 6])

        class FlakyGenerator:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def generate(self, problem, state, count):
                self.calls += 1
                if self.calls == 1:
                    raise BackendError("transient failure")
                return self.inner.generate(problem, state, count)

        flaky = FlakyGenerator(generator)
        result = run_search(trace.problem, flaky, verifier, make_config(max_rounds_R=4))
        assert result.errors == [(1, "transient failure")]
        # The two rounds after the failure build the whole 2-step chain.
        assert result.rounds == 3
        assert len(result.rollouts) == 2

    def test_each_distinct_question_reaches_a_bare_backend_once(self):
        # Simulations walk states and steps that earlier rounds asked about;
        # the search answers those repeats itself.
        trace, generator, verifier = self._bundle([10, 20, 30, 40], noise=0.5, seed=3)
        asked = []

        class Counting:
            def generate(self, problem, state, count):
                asked.append(("generate", state, count))
                return generator.generate(problem, state, count)

            def verify(self, problem, step, context):
                asked.append(("verify", step, context))
                return verifier.verify(problem, step, context)

        result = run_search(trace.problem, Counting(), Counting(), make_config(max_rounds_R=16))
        assert len(result.rollouts) > 1
        assert {kind for kind, _, _ in asked} == {"generate", "verify"}
        assert len(asked) == len(set(asked))

    def test_visit_bookkeeping(self):
        trace, generator, verifier = self._bundle([3, 4, 5], noise=0.8, seed=21)
        cfg = make_config(max_rounds_R=20)
        result = run_search(trace.problem, generator, verifier, cfg)
        # Every round backpropagates through the root exactly once.
        assert result.root.visit_count == 20

        def check(node):
            assert len(node.children) <= cfg.branch_K
            for child in node.children:
                assert child.visit_count >= 0
                check(child)

        check(result.root)

    def test_gamma_one_single_rollout_increments_ancestors_by_reward(self):
        trace, generator, verifier = self._bundle([9, 9, 9])
        cfg = make_config(max_rounds_R=1, decay_gamma=1.0)
        result = run_search(trace.problem, generator, verifier, cfg)
        (simulated,) = result.root.children
        # Single round at depth 1: the root is the only ancestor.
        assert result.root.q_value == simulated.q_value

    def test_terminal_revisit_rounds_keep_counting(self, all_rounds):
        # A 2-step noise-free chain is fully built in 2 rounds, and the search
        # stops there. Without the stop, later rounds replay the terminal line:
        # they add no rollout but still bump its visits and its ancestors'.
        trace, generator, verifier = self._bundle([5, 6])
        cfg = make_config(max_rounds_R=10)
        stopped = run_search(trace.problem, generator, verifier, cfg)
        assert (stopped.rounds, stopped.root.visit_count, stopped.open_nodes) == (2, 2, 0)
        with all_rounds:
            result = run_search(trace.problem, generator, verifier, cfg)
        assert result.root.visit_count == 10
        assert len(result.rollouts) == 2
        assert result.rollouts == stopped.rollouts
        leaf = result.root.children[0].children[0]
        assert leaf.visit_count == 9
        assert leaf.state == stopped.rollouts[-1].steps
        assert leaf.q_value == stopped.root.children[0].children[0].q_value == pytest.approx(1.5)

    def test_replay_rounds_call_no_backend(self, all_rounds):
        # Once the 2-step chain is built, every backend call raises. The
        # replays of rounds 3-10 make none: no round records an error, none
        # adds a rollout, and each still takes its visits.
        trace, generator, verifier = self._bundle([5, 6])

        class Budget:
            """Forwards the first `calls` calls to `inner`, then raises."""

            def __init__(self, inner, calls=math.inf):
                self.inner, self.calls, self.made = inner, calls, 0

            def _spend(self):
                if self.made >= self.calls:
                    raise BackendError("backend called after the chain was built")
                self.made += 1

            def generate(self, problem, state, count):
                self._spend()
                return self.inner.generate(problem, state, count)

            def verify(self, problem, step, state):
                self._spend()
                return self.inner.verify(problem, step, state)

        cfg = make_config(max_rounds_R=10)
        counting_generator, counting_verifier = Budget(generator), Budget(verifier)
        stopped = run_search(trace.problem, counting_generator, counting_verifier, cfg)
        assert stopped.rounds == 2
        with all_rounds:
            result = run_search(trace.problem, Budget(generator, counting_generator.made),
                                Budget(verifier, counting_verifier.made), cfg)
        assert (result.rounds, result.errors) == (10, [])
        assert result.rollouts == stopped.rollouts
        assert result.root.visit_count == 10
        assert result.root.children[0].visit_count == 9
        assert result.root.children[0].children[0].visit_count == 9

    def test_every_final_sibling_is_simulated(self):
        # The root's expansion yields three distinct final steps. The
        # simulated one takes a visit, so UCT moves on to its siblings instead
        # of re-selecting the lowest-index unvisited one in every round.
        trace, generator, verifier = self._bundle([5], noise=1.0)
        result = run_search(trace.problem, generator, verifier, make_config(max_rounds_R=8))
        finals = {child.state for child in result.root.children}
        assert len(finals) == 3 and all(child.terminal for child in result.root.children)
        assert {rollout.steps for rollout in result.rollouts} == finals
        assert [child.visit_count for child in result.root.children] == [1, 1, 1]
        assert result.rounds == 3

    def test_one_empty_expansion_costs_one_round(self):
        # Problem 2 of the shipped corpus; its first expansion below the root
        # comes back empty. That node becomes a dead end that is never
        # selected again, so only its own round is lost.
        cfg = load_config(SHIPPED_CONFIG)
        corpus = build_corpus(cfg.synthetic)
        inner = ScriptedGenerator(corpus, branch_noise=cfg.synthetic.branch_noise,
                                  noise_deltas=cfg.synthetic.noise_deltas,
                                  seed=cfg.search.rng_seed)
        emptied = []

        class EmptyOnce:
            def generate(self, problem, state, count):
                if state and count > 1 and not emptied:
                    emptied.append(state)
                    return []
                return inner.generate(problem, state, count)

        result = run_search(corpus[2].problem, EmptyOnce(), ExactVerifier(corpus), cfg.search)
        assert [message for _, message in result.errors] == ["expansion produced no children"]
        assert len(emptied) == 1
        assert len(result.rollouts) == result.rounds - 1
        assert result.open_nodes == 0

    def test_empty_root_expansion_ends_the_search(self):
        trace, _, verifier = self._bundle([5, 6])

        class Empty:
            def generate(self, problem, state, count):
                return []

        result = run_search(trace.problem, Empty(), verifier, make_config(max_rounds_R=8))
        assert (result.rounds, result.errors) == (1, [(1, "expansion produced no children")])
        assert result.rollouts == []
        assert result.root.dead_end

    def test_node_with_only_dead_end_children_is_a_dead_end(self):
        # The root's only child expands to nothing, so the root is a dead end
        # too and nothing is left to search.
        trace, generator, verifier = self._bundle([5, 6, 7])

        class EmptyBelowRoot:
            def generate(self, problem, state, count):
                if state and count > 1:
                    return []
                return generator.generate(problem, state, count)

        result = run_search(trace.problem, EmptyBelowRoot(), verifier,
                            make_config(max_rounds_R=8))
        assert result.rounds == 2
        assert result.root.children[0].dead_end and result.root.dead_end
        assert result.open_nodes == 0

    def test_incomplete_rollouts_flagged(self):
        trace, generator, verifier = self._bundle([1, 2, 3, 4, 5])
        cfg = make_config(max_rounds_R=3, max_depth=3)
        result = run_search(trace.problem, generator, verifier, cfg)
        assert all(not r.complete for r in result.rollouts)
        assert all(r.final_flag == -1 for r in result.rollouts)


class TestTreeExport:
    def test_dump_schema(self):
        trace = trace_from_values([50, 80], problem_id="pd")
        generator = ScriptedGenerator([trace], seed=3)
        verifier = ExactVerifier([trace])
        result = run_search(trace.problem, generator, verifier, make_config(max_rounds_R=2))
        dump = export_tree(result.root)
        lines = dump.strip().split("\n")
        assert lines[0] == "# tree dump v1"
        root_line = lines[2].split("\t")
        assert root_line[0] == "0"
        assert root_line[1] == "-"
        assert root_line[4] == "."
        for line in lines[3:]:
            depth, digest, q, visits, label = line.split("\t")
            assert int(depth) >= 1
            assert len(digest) == 12
            float(q)
            int(visits)
            assert label in ("+", "-")
