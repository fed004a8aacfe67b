"""Four-stage tree search over reasoning states.

Each round: descend by UCT through fully expanded nodes, expand the selected
leaf with K generated candidate steps (each verified on the spot), simulate a
complete rollout from the best-verified new child, aggregate the rollout into
a scalar reward, and propagate it up the selection path with temporal decay.

Simulation is tree-external: rollout continuations are recorded as
RolloutOutcome values, not grafted onto the tree. The tree only ever holds
expansion-created children, so a node has at most K of them.

Rounds whose selection lands on a terminal node (a fully explored line)
re-evaluate that node's outcome with an empty verification window and
backpropagate it again, keeping visit counts meaningful after convergence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import inf, log, sqrt
from typing import Sequence

from .backends.base import BackendError, StepGenerator, StepVerifier
from .domain import (
    Problem,
    ReasoningStep,
    StepSequence,
    VerificationResult,
    answers_equal,
    extract_final_answer,
)
from .rewards import aggregate, node_value


@dataclass(frozen=True)
class SearchConfig:
    """All knobs of the search. Every field is mandatory on purpose: no
    experiment should silently depend on a default."""

    exploration_c: float
    branch_K: int
    decay_gamma: float
    outcome_beta: float
    max_rounds_R: int
    max_depth: int
    rng_seed: int

    def __post_init__(self):
        if self.exploration_c < 0:
            raise ValueError("exploration_c must be >= 0")
        if self.branch_K < 1:
            raise ValueError("branch_K must be >= 1")
        if not 0.0 < self.decay_gamma <= 1.0:
            raise ValueError("decay_gamma out of (0,1]")
        if self.outcome_beta < 0:
            raise ValueError("outcome_beta must be >= 0")
        if self.max_rounds_R < 1:
            raise ValueError("max_rounds_R must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class TreeNode:
    """One partial reasoning state. Mutable: search updates q and visits."""

    __slots__ = ("state", "action_in", "q_value", "visit_count", "children",
                 "step_verification", "_expanded")

    def __init__(
        self,
        state: StepSequence = (),
        action_in: ReasoningStep | None = None,
        q_value: float = 0.0,
        step_verification: VerificationResult | None = None,
    ):
        self.state = state
        self.action_in = action_in
        self.q_value = q_value
        self.visit_count = 0
        self.children: list[TreeNode] = []
        self.step_verification = step_verification
        self._expanded = False

    @property
    def depth(self) -> int:
        return len(self.state)

    @property
    def terminal(self) -> bool:
        return bool(self.state) and self.state[-1].is_final

    @property
    def fully_expanded(self) -> bool:
        return self._expanded or self.terminal

    def mark_expanded(self) -> None:
        self._expanded = True


@dataclass(frozen=True)
class RolloutOutcome:
    """A completed (or truncated) trajectory with everything labeling needs.

    `verifications` carries one result per non-final step: all T-1 of them for
    a complete length-T trajectory, or one per step when the rollout was
    truncated without a final answer (complete=False, final_flag=-1).
    """

    problem_id: str
    round_index: int
    expansion_index: int
    steps: StepSequence
    verifications: tuple[VerificationResult, ...]
    complete: bool
    final_answer: str | None
    final_flag: int
    u_value: float
    node_reward: float

    def __post_init__(self):
        for position, step in enumerate(self.steps, start=1):
            if step.index != position:
                raise ValueError("rollout steps must have contiguous 1-based indices")
            if step.is_final and position != len(self.steps):
                raise ValueError("only the last rollout step may be final")
        if self.final_flag not in (-1, 1):
            raise ValueError("final_flag must be -1 or +1")
        if self.complete:
            if not self.steps or not self.steps[-1].is_final:
                raise ValueError("complete rollout must end in a final step")
            if self.final_answer is None:
                raise ValueError("complete rollout must carry its final answer")
            if len(self.verifications) != len(self.steps) - 1:
                raise ValueError("complete rollout needs one verification per non-final step")
        else:
            if self.final_answer is not None or self.final_flag != -1:
                raise ValueError("incomplete rollout has no answer and final_flag -1")
            if len(self.verifications) != len(self.steps):
                raise ValueError("incomplete rollout needs one verification per step")


@dataclass(frozen=True)
class RoundRecord:
    """What one search round did; error is set when the round was aborted.

    reward_path_indices addresses the rewarded node as child indices from the
    root; every proper prefix of it received one visit this round.
    """

    round_index: int
    expansion_depth: int
    reward: float
    final_flag: int
    complete: bool
    reward_path_indices: tuple[int, ...] = ()
    error: str | None = None


@dataclass
class SearchResult:
    root: TreeNode
    rollouts: list[RolloutOutcome] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)


@dataclass(frozen=True)
class SimulationResult:
    steps: StepSequence
    extension_results: tuple[VerificationResult, ...]
    complete: bool
    final_answer: str | None
    final_flag: int


def uct_score(q: float, parent_visits: int, child_visits: int, c: float) -> float:
    """Value plus exploration bonus; unvisited children score +inf so they are
    always taken before any sibling revisit."""
    if child_visits == 0:
        return inf
    return q + c * sqrt(log(parent_visits) / child_visits)


def best_index(scores: Sequence[float]) -> int:
    """Index of the largest score; ties go to the lowest index."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


def select_leaf(root: TreeNode, cfg: SearchConfig) -> list[TreeNode]:
    """Descend by maximal UCT while nodes are fully expanded and non-terminal.

    Ties break to the lowest child index. Returns the root-to-leaf path.
    """
    path = [root]
    node = root
    while node.fully_expanded and not node.terminal and node.children:
        scores = [
            uct_score(child.q_value, node.visit_count, child.visit_count, cfg.exploration_c)
            for child in node.children
        ]
        node = node.children[best_index(scores)]
        path.append(node)
    return path


def expand(
    node: TreeNode,
    problem: Problem,
    generator: StepGenerator,
    verifier: StepVerifier,
    cfg: SearchConfig,
) -> list[TreeNode]:
    """Attach up to K verified children (duplicate candidates collapse).

    The node is marked fully expanded regardless of how many distinct
    candidates came back. On a backend error the node is left unchanged.
    """
    if node.terminal:
        raise ValueError("cannot expand a terminal node")
    if node.fully_expanded:
        raise ValueError("node is already fully expanded")
    candidates = generator.generate(problem, node.state, cfg.branch_K)
    distinct: list[ReasoningStep] = []
    seen = set()
    for candidate in candidates:
        key = (candidate.objective, candidate.action, candidate.is_final)
        if key not in seen:
            seen.add(key)
            distinct.append(candidate)
    verified = [(step, verifier.verify(problem, step, node.state)) for step in distinct]
    children = [
        TreeNode(
            state=node.state + (step,),
            action_in=step,
            q_value=float(result.label),
            step_verification=result,
        )
        for step, result in verified
    ]
    node.children.extend(children)
    node.mark_expanded()
    return children


def choose_simulation_child(children: Sequence[TreeNode]) -> TreeNode:
    """The child with the maximal verification label; ties to the lowest index."""
    if not children:
        raise ValueError("no children to simulate from")
    labels = []
    for child in children:
        if child.step_verification is None:
            raise ValueError("all children must be verified before simulation")
        labels.append(child.step_verification.label)
    return children[best_index(labels)]


def simulate(
    node: TreeNode,
    problem: Problem,
    generator: StepGenerator,
    verifier: StepVerifier,
    cfg: SearchConfig,
) -> SimulationResult:
    """Extend the node's state one sampled step at a time until a final step
    or max_depth. Intermediate steps are verified as they appear; the final
    step is judged by comparing its declared answer with the gold answer.
    A truncated rollout is flagged incomplete with final_flag -1.
    """
    steps = list(node.state)
    results: list[VerificationResult] = []
    while not (steps and steps[-1].is_final):
        if len(steps) >= cfg.max_depth:
            return SimulationResult(tuple(steps), tuple(results), False, None, -1)
        sampled = generator.generate(problem, tuple(steps), 1)
        if not sampled:
            raise BackendError("generator returned no continuation during simulation")
        step = sampled[0]
        if not step.is_final:
            results.append(verifier.verify(problem, step, tuple(steps)))
        steps.append(step)
    final_answer = extract_final_answer(steps[-1])
    flag = 1 if answers_equal(final_answer, problem.gold_answer) else -1
    return SimulationResult(tuple(steps), tuple(results), True, final_answer, flag)


def backpropagate(
    entries: Sequence[tuple[TreeNode, int]], reward: float, gamma: float
) -> None:
    """Credit each ancestor with gamma^d * reward and one visit.

    `entries` pairs each ancestor with its step distance d from the rewarded
    node (immediate parent d=1). The rewarded node itself is not in the list;
    its value was assigned directly as u + v.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    for node, distance in entries:
        if distance < 0:
            raise ValueError("ancestor distance must be >= 0")
        node.q_value += (gamma ** distance) * reward
        node.visit_count += 1


def _tree_part_verifications(path: Sequence[TreeNode]) -> tuple[VerificationResult, ...]:
    return tuple(node.step_verification for node in path if node.step_verification is not None)


def run_search(
    problem: Problem,
    generator: StepGenerator,
    verifier: StepVerifier,
    cfg: SearchConfig,
) -> SearchResult:
    """Run R rounds of select / expand / simulate / aggregate / backpropagate.

    A backend error aborts only its round (recorded in `rounds`); partial
    trees are valid output. Deterministic given the config seed and
    deterministic backends.
    """
    result = SearchResult(root=TreeNode())
    for round_index in range(1, cfg.max_rounds_R + 1):
        try:
            record = _run_round(result, round_index, problem, generator, verifier, cfg)
        except BackendError as err:
            record = RoundRecord(round_index, -1, 0.0, -1, False, (), error=str(err))
        result.rounds.append(record)
    return result


def _indices_along(path: Sequence[TreeNode]) -> list[int]:
    return [parent.children.index(child) for parent, child in zip(path, path[1:])]


def _run_round(
    result: SearchResult,
    round_index: int,
    problem: Problem,
    generator: StepGenerator,
    verifier: StepVerifier,
    cfg: SearchConfig,
) -> RoundRecord:
    path = select_leaf(result.root, cfg)
    leaf = path[-1]

    if leaf.terminal:
        # Fully explored line: re-evaluate its outcome and keep credit flowing.
        final_answer = extract_final_answer(leaf.state[-1])
        flag = 1 if answers_equal(final_answer, problem.gold_answer) else -1
        agg = aggregate((), flag, cfg.outcome_beta, cfg.decay_gamma, leaf.depth, leaf.depth)
        reward = node_value(agg.u_value, leaf.step_verification.label)
        leaf.q_value = reward
        ancestors = path[:-1]
        backpropagate(
            [(node, leaf.depth - node.depth) for node in ancestors], reward, cfg.decay_gamma
        )
        result.rollouts.append(
            RolloutOutcome(
                problem_id=problem.id,
                round_index=round_index,
                expansion_index=leaf.depth,
                steps=leaf.state,
                verifications=_tree_part_verifications(path[1:-1]),
                complete=True,
                final_answer=final_answer,
                final_flag=flag,
                u_value=agg.u_value,
                node_reward=reward,
            )
        )
        return RoundRecord(round_index, leaf.depth, reward, flag, True,
                           tuple(_indices_along(path)))

    if leaf.fully_expanded and not leaf.children:
        raise BackendError("selected a dead-end node with no expandable children")

    children = expand(leaf, problem, generator, verifier, cfg)
    if not children:
        raise BackendError("expansion produced no children")
    sim_node = choose_simulation_child(children)
    sim = simulate(sim_node, problem, generator, verifier, cfg)

    i = sim_node.depth
    window = [res.label for res in sim.extension_results]
    # For complete rollouts len(steps) is T and the window is i+1..T-1. A
    # truncated rollout has no answer step, so every sampled step is in the
    # window, as if the missing final step sat one past the end.
    length = len(sim.steps) if sim.complete else len(sim.steps) + 1
    agg = aggregate(window, sim.final_flag, cfg.outcome_beta, cfg.decay_gamma, i, length)
    reward = node_value(agg.u_value, sim_node.step_verification.label)
    sim_node.q_value = reward
    backpropagate([(node, i - node.depth) for node in path], reward, cfg.decay_gamma)

    # One verification per non-final step. When the chosen child is itself a
    # final step its verdict stays tree-internal; the rollout's signal for
    # that step is the outcome flag.
    tree_part = _tree_part_verifications(path[1:])
    if sim_node.terminal:
        verifications = tree_part
    else:
        verifications = tree_part + (sim_node.step_verification,) + sim.extension_results
    result.rollouts.append(
        RolloutOutcome(
            problem_id=problem.id,
            round_index=round_index,
            expansion_index=i,
            steps=sim.steps,
            verifications=verifications,
            complete=sim.complete,
            final_answer=sim.final_answer,
            final_flag=sim.final_flag,
            u_value=agg.u_value,
            node_reward=reward,
        )
    )
    reward_path = tuple(_indices_along(path) + [leaf.children.index(sim_node)])
    return RoundRecord(round_index, i, reward, sim.final_flag, sim.complete, reward_path)


def most_visited_path(root: TreeNode) -> list[TreeNode]:
    """Descend by maximal visit count (ties to the lowest index)."""
    path = [root]
    node = root
    while node.children:
        node = node.children[best_index([child.visit_count for child in node.children])]
        path.append(node)
    return path


def export_tree(root: TreeNode) -> str:
    """Structured text dump, one node per line, preorder.

    Columns (tab-separated): depth, 12-hex sha256 of the action text ("-" for
    the root), q_value to 6 decimals, visit count, verification label
    ("+", "-", or "." when absent).
    """
    lines = ["# tree dump v1", "# depth\taction_hash\tq_value\tvisits\tlabel"]

    def visit(node: TreeNode) -> None:
        if node.action_in is None:
            digest = "-"
        else:
            digest = hashlib.sha256(node.action_in.action.encode("utf-8")).hexdigest()[:12]
        if node.step_verification is None:
            label = "."
        else:
            label = "+" if node.step_verification.label == 1 else "-"
        lines.append(f"{node.depth}\t{digest}\t{node.q_value:.6f}\t{node.visit_count}\t{label}")
        for child in node.children:
            visit(child)

    visit(root)
    return "\n".join(lines) + "\n"
