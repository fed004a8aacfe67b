"""Span tracing for the traced benchmark run, installed from outside the program.

`Tracer.install` rebinds the public functions of each treeprm layer, and the
backend, cache, limiter and HTTP-session methods, to timing wrappers. A
function that another module imported by name is rebound there too, so
`mcts.answers_equal` and `decoding.answers_equal` are traced like
`domain.answers_equal`. Nothing under `src/` changes.

A span is [id, name, start_ns, end_ns, parent_id]; spans stay in memory and
are written out once, at the end. A span opened on a worker thread with no
open span of its own takes the innermost open span of the installing thread
as its parent, which is the stage that started the worker pool.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time

# (span name, module, attribute) for every module-level function traced.
FUNCTIONS = (
    ("cli.main", "treeprm.cli", "main"),
    ("synthetic.build_corpus", "treeprm.synthetic", "build_corpus"),
    ("mcts.run_search", "treeprm.mcts", "run_search"),
    ("mcts.select_leaf", "treeprm.mcts", "select_leaf"),
    ("mcts.expand", "treeprm.mcts", "expand"),
    ("mcts.simulate", "treeprm.mcts", "simulate"),
    ("mcts.backpropagate", "treeprm.mcts", "backpropagate"),
    ("rewards.aggregate", "treeprm.rewards", "aggregate"),
    ("domain.answers_equal", "treeprm.domain", "answers_equal"),
    ("dataset.build_dataset", "treeprm.dataset", "build_dataset"),
    ("dataset.assemble_candidate", "treeprm.dataset", "assemble_candidate"),
    ("dataset.filter_trace", "treeprm.dataset", "filter_trace"),
    ("dataset.finalize_instance", "treeprm.dataset", "finalize_instance"),
    ("dataset.serialize_instance", "treeprm.dataset", "serialize_instance"),
    ("decoding.decode", "treeprm.decoding", "decode"),
    ("decoding.greedy_step", "treeprm.decoding", "greedy_step"),
    ("decoding.sample_rollout", "treeprm.decoding", "sample_rollout"),
    ("decoding.write_decode_log", "treeprm.decoding", "write_decode_log"),
    ("evaluation.score_samples", "treeprm.evaluation", "score_samples"),
)

# (span name, module, class, method) for every method traced.
METHODS = (
    ("backends.generate", "treeprm.backends.synthetic", "ScriptedGenerator", "generate"),
    ("backends.generate", "treeprm.backends.remote", "ChatCompletionGenerator", "generate"),
    ("backends.verify", "treeprm.backends.synthetic", "ExactVerifier", "verify"),
    ("backends.verify", "treeprm.backends.remote", "ToolVerifier", "verify"),
    ("backends.score", "treeprm.backends.synthetic", "OracleScorer", "score"),
    ("backends.score", "treeprm.backends.remote", "ServedPrmScorer", "score"),
    ("transport.get_or_fetch", "treeprm.backends.transport", "FileResponseCache", "get_or_fetch"),
    ("transport.cache_get", "treeprm.backends.transport", "FileResponseCache", "get"),
    ("transport.cache_put", "treeprm.backends.transport", "FileResponseCache", "put"),
    ("transport.limiter_acquire", "treeprm.backends.transport", "RateLimiter", "acquire"),
    ("http.request", "requests", "Session", "request"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._owner_stack[-1] if self._owner_stack else -1
            span = [next(ids), name, clock(), 0, parent]
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Import every traced module and rebind its functions and methods."""
        import importlib

        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("treeprm") and \
                        getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for name, module_name, class_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in sorted(self.spans):
                handle.write(json.dumps([span_id, name, start, end, parent, self.run_id]) + "\n")


def covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans: list[list], names: set[str]) -> dict[str, int]:
    """Per name: summed duration of its spans minus the time their children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    totals = dict.fromkeys(names, 0)
    for span_id, name, start, end, _ in spans:
        if name in names:
            totals[name] += (end - start) - covered_ns(children.get(span_id, []), start, end)
    return totals


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics that come from spans alone."""
    count: dict[str, int] = {}
    busy: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    for _, name, start, end, _ in spans:
        count[name] = count.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + (end - start)
        if name in ("mcts.run_search", "http.request"):
            durations.setdefault(name, []).append(end - start)
    own = self_times_ns(spans, {"cli.main", "mcts.run_search", "dataset.build_dataset"})

    def seconds(name: str) -> float:
        return busy.get(name, 0) / 1e9

    def ms(name: str) -> list[float]:
        return [d / 1e6 for d in durations.get(name, [])]

    rounds = count.get("mcts.select_leaf", 0)
    expansions = count.get("mcts.expand", 0)
    lookups = count.get("transport.get_or_fetch", 0)
    hits = lookups - count.get("transport.cache_put", 0)
    metrics = {
        "synthetic.build_corpus_s": seconds("synthetic.build_corpus"),
        "mcts.run_search_s": seconds("mcts.run_search"),
        "mcts.run_search_self_s": own["mcts.run_search"] / 1e9,
        "mcts.select_leaf_s": seconds("mcts.select_leaf"),
        "mcts.expand_s": seconds("mcts.expand"),
        "mcts.simulate_s": seconds("mcts.simulate"),
        "mcts.backpropagate_s": seconds("mcts.backpropagate"),
        "mcts.problem_ms.p50": percentile(ms("mcts.run_search"), 0.50),
        "mcts.problem_ms.p90": percentile(ms("mcts.run_search"), 0.90),
        "mcts.rounds": rounds,
        "mcts.expansion_rounds": expansions,
        "mcts.revisit_share": (rounds - expansions) / rounds if rounds else 0.0,
        "rewards.aggregate_calls": count.get("rewards.aggregate", 0),
        "rewards.aggregate_s": seconds("rewards.aggregate"),
        "domain.answers_equal_calls": count.get("domain.answers_equal", 0),
        "domain.answers_equal_s": seconds("domain.answers_equal"),
        "dataset.build_dataset_s": seconds("dataset.build_dataset"),
        "dataset.build_dataset_self_s": own["dataset.build_dataset"] / 1e9,
        "dataset.assemble_candidate_s": seconds("dataset.assemble_candidate"),
        "dataset.filter_trace_s": seconds("dataset.filter_trace"),
        "dataset.finalize_instance_s": seconds("dataset.finalize_instance"),
        "dataset.serialize_instance_s": seconds("dataset.serialize_instance"),
        "decoding.decode_s": seconds("decoding.decode"),
        "decoding.greedy_step_s": seconds("decoding.greedy_step"),
        "decoding.greedy_steps": count.get("decoding.greedy_step", 0),
        "decoding.sample_rollout_s": seconds("decoding.sample_rollout"),
        "decoding.pass_samples": count.get("decoding.sample_rollout", 0),
        "decoding.write_decode_log_s": seconds("decoding.write_decode_log"),
        "evaluation.score_samples_s": seconds("evaluation.score_samples"),
        "http.request_ms.p50": percentile(ms("http.request"), 0.50),
        "http.request_ms.p99": percentile(ms("http.request"), 0.99),
        "http.retries": count.get("http.request", 0) - count.get("transport.cache_put", 0),
        "transport.cache_hits": hits,
        "transport.cache_hit_share": hits / lookups if lookups else 0.0,
        "transport.cache_get_s": seconds("transport.cache_get"),
        "transport.cache_put_s": seconds("transport.cache_put"),
        "transport.limiter_wait_s": seconds("transport.limiter_acquire"),
        "cli.self_s": own["cli.main"] / 1e9,
    }
    for role in ("generate", "verify", "score"):
        metrics[f"backends.{role}_calls"] = count.get(f"backends.{role}", 0)
        metrics[f"backends.{role}_s"] = seconds(f"backends.{role}")
    return metrics
