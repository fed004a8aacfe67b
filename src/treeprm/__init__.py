"""treeprm: tree-search process supervision pipeline.

Search verified reasoning trees, aggregate hybrid step/outcome rewards, emit
rationale-enhanced training data, decode with reward-guided greedy search,
and score first-error localization.
"""

__version__ = "0.2.0"

from .domain import (
    Problem,
    ReasoningStep,
    Trajectory,
    VerificationResult,
    answers_equal,
    normalize_answer,
)
from .mcts import RolloutOutcome, SearchConfig, TreeNode, run_search
from .rewards import aggregate, node_value, step_label

__all__ = [
    "__version__",
    "Problem",
    "ReasoningStep",
    "Trajectory",
    "VerificationResult",
    "answers_equal",
    "normalize_answer",
    "RolloutOutcome",
    "SearchConfig",
    "TreeNode",
    "run_search",
    "aggregate",
    "node_value",
    "step_label",
]
