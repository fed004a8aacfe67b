"""Four-stage tree search over reasoning states.

Each round: descend by UCT through fully expanded nodes, expand the selected
leaf with K generated candidate steps (each distinct one verified), simulate
a complete rollout from the best-verified new child, aggregate the rollout
into a scalar reward, and propagate it up the selection path with temporal
decay. Every backend call of a search runs in order on the calling thread.

Simulation is tree-external: rollout continuations are recorded as
RolloutOutcome values, not grafted onto the tree. A rollout keeps what
labelling reads: its steps, their verifications and the outcome flag. The
tree only ever holds expansion-created children, so a node has at most K of
them, and a node's incoming step is the last step of its state. Beyond the
tree and the rollouts, a search keeps only how many rounds it ran and the
error of each round a backend failure aborted.

A simulated node that is terminal (a final step) takes one visit, like its
ancestors, so UCT stops treating it as unvisited and moves on to its siblings.
The first round whose selection lands on an unvisited terminal node simulates
from that node itself: the rollout is the line as it stands, with an empty
verification window and its outcome flag. A later round that selects the same
terminal node again is a replay. It takes one more visit on the node and
backpropagates the node's q to its ancestors. That q is the reward of the
node's first visit, because no round backpropagates into a terminal node. A
replay simulates nothing and records no rollout. It adds no new line, so the
search stops as soon as no node is open: none is left unexpanded, and every
terminal node has been visited. A node that expanded to no children is a dead
end, and so is a node whose children are all dead ends; selection never
enters one again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import inf, log, sqrt
from typing import NamedTuple, Sequence

from .backends.base import BackendError, ProblemMemo, StepGenerator, StepVerifier
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

    __slots__ = ("state", "q_value", "visit_count", "children",
                 "step_verification", "dead_end", "_expanded")

    def __init__(
        self,
        state: StepSequence = (),
        q_value: float = 0.0,
        step_verification: VerificationResult | None = None,
    ):
        self.state = state
        self.q_value = q_value
        self.visit_count = 0
        self.children: list[TreeNode] = []
        self.step_verification = step_verification
        self.dead_end = False
        self._expanded = False

    @property
    def action_in(self) -> ReasoningStep | None:
        """The step that led here: the state's last, or None at the root."""
        return self.state[-1] if self.state else None

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

    round_index: int
    steps: StepSequence
    verifications: tuple[VerificationResult, ...]
    complete: bool
    final_answer: str | None
    final_flag: int

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


@dataclass
class SearchResult:
    """The tree, one rollout per round that simulated, the number of rounds
    run, and the (round index, message) of each round a backend error
    aborted, in round order. Aborted rounds and replays of a visited terminal
    node add no rollout.

    open_nodes counts the non-terminal nodes not yet expanded plus the terminal
    nodes not yet visited; the empty root starts open.
    """

    root: TreeNode
    rollouts: list[RolloutOutcome] = field(default_factory=list)
    rounds: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)
    open_nodes: int = 1


class SimulationResult(NamedTuple):
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
    """Descend by maximal UCT while the node has children.

    Only an expanded non-terminal node has children. Dead-end children are
    never chosen unless all siblings are dead ends. Ties break to the lowest
    child index. Each child's score is `uct_score`'s expression, with the
    parent's log taken once per level. Returns the root-to-leaf path.
    """
    c = cfg.exploration_c
    path = [root]
    node = root
    while node.children:
        # A node takes its first visit no later than its children do, so an
        # unvisited node's children all score +inf and never read log_n.
        log_n = log(node.visit_count) if node.visit_count else 0.0
        best = node.children[0]
        best_score = -inf
        for child in node.children:
            if child.dead_end:
                continue
            visits = child.visit_count
            score = child.q_value + c * sqrt(log_n / visits) if visits else inf
            if score > best_score:
                best, best_score = child, score
        node = best
        path.append(node)
    return path


def expand(
    node: TreeNode,
    problem: Problem,
    generator: StepGenerator,
    verifier: StepVerifier,
    cfg: SearchConfig,
) -> list[TreeNode]:
    """Attach up to K verified children; equal candidates collapse to the
    first, as in `decoding.greedy_step`.

    The node is marked fully expanded regardless of how many distinct
    candidates came back. On a backend error the node is left unchanged.
    """
    if node.terminal:
        raise ValueError("cannot expand a terminal node")
    if node.fully_expanded:
        raise ValueError("node is already fully expanded")
    candidates = generator.generate(problem, node.state, cfg.branch_K)
    verified = [(step, verifier.verify(problem, step, node.state))
                for step in dict.fromkeys(candidates)]
    children = [
        TreeNode(
            state=node.state + (step,),
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
    """Run at most R rounds of select / expand / simulate / aggregate /
    backpropagate, stopping early once no node is open.

    Asks `generator` and `verifier` through memos of its own (`ProblemMemo`),
    so each distinct question of the search reaches a backend once. A backend
    error aborts only its round (recorded in `errors`); partial trees are
    valid output. Deterministic given the config seed and deterministic
    backends.
    """
    generator, verifier = ProblemMemo(generator), ProblemMemo(verifier)
    result = SearchResult(root=TreeNode())
    for round_index in range(1, cfg.max_rounds_R + 1):
        if not result.open_nodes:
            break
        result.rounds = round_index
        try:
            _run_round(result, round_index, problem, generator, verifier, cfg)
        except BackendError as err:
            result.errors.append((round_index, str(err)))
    return result


def _close_dead_end(path: Sequence[TreeNode]) -> None:
    """Mark the childless leaf of `path` a dead end, and each ancestor left with
    only dead-end children."""
    for node in reversed(path):
        if not all(child.dead_end for child in node.children):
            return
        node.dead_end = True


def _run_round(
    result: SearchResult,
    round_index: int,
    problem: Problem,
    generator: StepGenerator,
    verifier: StepVerifier,
    cfg: SearchConfig,
) -> None:
    path = select_leaf(result.root, cfg)
    leaf = path[-1]
    # A node's depth is its position on the path.
    if leaf.terminal:
        if leaf.visit_count:
            # A replay: the line and its reward are those of the leaf's first
            # visit, and its q still holds that reward.
            leaf.visit_count += 1
            i = len(path) - 1
            backpropagate([(node, i - d) for d, node in enumerate(path[:-1])],
                          leaf.q_value, cfg.decay_gamma)
            return
        # First visit of a fully explored line: simulate from the leaf itself
        # (no step is sampled) and credit its ancestors.
        sim_node, path = leaf, path[:-1]
    else:
        children = expand(leaf, problem, generator, verifier, cfg)
        result.open_nodes += len(children) - 1
        if not children:
            _close_dead_end(path)
            raise BackendError("expansion produced no children")
        sim_node = choose_simulation_child(children)
    sim = simulate(sim_node, problem, generator, verifier, cfg)

    i = len(path)
    window = [res.label for res in sim.extension_results]
    # For complete rollouts len(steps) is T and the window is i+1..T-1. A
    # truncated rollout has no answer step, so every sampled step is in the
    # window, as if the missing final step sat one past the end.
    length = len(sim.steps) if sim.complete else len(sim.steps) + 1
    u = aggregate(window, sim.final_flag, cfg.outcome_beta, cfg.decay_gamma, i, length)
    reward = node_value(u, sim_node.step_verification.label)
    sim_node.q_value = reward
    terminal = sim_node.terminal
    if terminal:
        # Replays returned above, so this is the node's first visit.
        result.open_nodes -= 1
        sim_node.visit_count += 1
    backpropagate([(node, i - d) for d, node in enumerate(path)], reward, cfg.decay_gamma)

    # One verification per non-final step. When the simulated node is itself
    # a final step (a final child or a line reached by selection) its verdict
    # stays tree-internal; the rollout's signal for that step is the outcome
    # flag.
    tree_part = _tree_part_verifications(path[1:])
    if terminal:
        verifications = tree_part
    else:
        verifications = tree_part + (sim_node.step_verification,) + sim.extension_results
    result.rollouts.append(
        RolloutOutcome(
            round_index=round_index,
            steps=sim.steps,
            verifications=verifications,
            complete=sim.complete,
            final_answer=sim.final_answer,
            final_flag=sim.final_flag,
        )
    )


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
