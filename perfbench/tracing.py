"""Spans around the calls into each geostop layer, recorded from outside.

Nothing under src/ knows about this.  ``installed`` swaps wrappers in
where the callers look the layers up: the names ``geostop.cli`` imported
(``run``, ``value_iteration_*``, ``estimate_error_constants``,
``run_suite``), the check functions ``run_suite`` calls, and the batch
methods of ``PotentialHandle`` and ``AdversaryStrategy``.  Each span keeps
its name, start, end, parent and the number of states it was handed; the
list stays in memory until the run ends.  A span's self time is its
duration minus that of its direct children.  ``oracle.project_state`` is
only counted, because a span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute or Class.method, span name)
SPANS = (
    ("geostop.cli", "run", "simulate"),
    ("geostop.cli", "value_iteration_adversary", "oracle"),
    ("geostop.cli", "value_iteration_player", "oracle"),
    ("geostop.cli", "run_suite", "verify"),
    ("geostop.cli", "estimate_error_constants", "bounds.error_constants"),
    ("geostop.verify", "check_lower_condition", "verify.lower"),
    ("geostop.verify", "check_upper_condition", "verify.upper"),
    ("geostop.verify", "check_final_time", "verify.final_time"),
    ("geostop.verify", "check_translation_and_monotone", "verify.translation"),
    ("geostop.verify", "check_gradient_consistency", "verify.gradients"),
    ("geostop.potentials", "PotentialHandle.value_batch", "potentials.values"),
    ("geostop.potentials", "PotentialHandle.gradient_batch", "potentials.weights"),
    ("geostop.strategies", "AdversaryStrategy.outcomes_batch",
     "strategies.outcomes"),
)
COUNTED = (("geostop.oracle", "project_state", "oracle.project_state.calls"),)
# spans whose second positional argument is a batch of states
_BATCHED = {"potentials.values", "potentials.weights", "strategies.outcomes"}

UNITS = {
    "potentials.weights.calls": "count",
    "potentials.weights.states": "count",
    "potentials.weights.busy_s": "s",
    "potentials.weights.us_per_state": "us",
    "potentials.values.calls": "count",
    "potentials.values.states": "count",
    "potentials.values.busy_s": "s",
    "potentials.values.us_per_state": "us",
    "potentials.heat_value.err": "abs",
    "potentials.heat_weight.err": "abs",
    "strategies.outcomes.calls": "count",
    "strategies.outcomes.busy_s": "s",
    "simulate.self_s": "s",
    "simulate.state_rounds": "count",
    "simulate.memo.misses": "count",
    "simulate.memo.hit_ratio": "ratio",
    "simulate.ns_per_state_round": "ns",
    "oracle.states": "count",
    "oracle.sweeps": "count",
    "oracle.self_s": "s",
    "oracle.us_per_state": "us",
    "oracle.project_state.calls": "count",
    "verify.lower.busy_s": "s",
    "verify.upper.busy_s": "s",
    "verify.gradients.busy_s": "s",
    "verify.translation.busy_s": "s",
    "verify.final_time.busy_s": "s",
    "verify.states": "count",
    "verify.violations": "count",
    "verify.skipped_near_ties": "count",
    "bounds.error_constants.calls": "count",
    "bounds.error_constants.busy_s": "s",
    "specfun.time_nodes.value": "count",
    "specfun.time_nodes.weight": "count",
    "specfun.time_rule.selfcheck_diff": "abs",
    "specfun.truncation_bound": "rel",
    "cli.self_s": "s",
    "trace.scaled_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.cycles": "count",
}


def _rows(batch) -> int:
    shape = np.shape(batch)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """In-memory spans (name, start, end, parent, states) and plain counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, states: int = 0):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, states]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        batched = name in _BATCHED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            states = _rows(args[1]) if batched else 0
            with self.span(name, states):
                result = fn(*args, **kwargs)
            self._observe(name, result)
            return result
        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name: str, result) -> None:
        """Counters read off a layer's return value."""
        if name == "simulate":
            self.counts["simulate.state_rounds"] += round(
                result.mean_rounds * result.trials_used)
        elif name == "oracle":
            self.counts["oracle.states"] += result.states.shape[0]
            self.counts["oracle.sweeps"] += result.sweeps
        elif name == "verify":
            for rep in result.values():
                self.counts["verify.states"] += rep.samples
                self.counts["verify.violations"] += rep.violations
                self.counts["verify.skipped_near_ties"] += rep.details.get(
                    "skipped_near_ties", 0)


def _resolve(module: str, attr: str):
    """(owner, name) for 'func' or 'Class.method', or None if it is gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the tracing wrappers in for the duration of the block."""
    saved = []
    try:
        for module, attr, name in SPANS + COUNTED:
            target = _resolve(module, attr)
            if target is None:
                print(f"trace: {module}.{attr} not found; {name} not recorded",
                      file=sys.stderr)
                continue
            owner, key = target
            original = vars(owner)[key]
            saved.append((owner, key, original))
            make = tracer.count if (module, attr, name) in COUNTED else tracer.wrap
            setattr(owner, key, make(name, original))
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer metrics per traced cycle; ratios are over the whole pass."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy, self_s, calls, states = (defaultdict(float), defaultdict(float),
                                   Counter(), Counter())
    misses = 0
    for i, (name, start, end, parent, rows) in enumerate(spans):
        busy[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
        states[name] += rows
        if name == "potentials.weights" and parent >= 0 and spans[parent][0] == "simulate":
            misses += rows
    counts = tracer.counts

    def per_state(seconds: float, count: float, scale: float) -> float:
        return seconds / count * scale if count else 0.0

    m = {}
    for layer in ("potentials.weights", "potentials.values"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.states"] = states[layer]
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.us_per_state"] = per_state(busy[layer], states[layer], 1e6)
    m["strategies.outcomes.calls"] = calls["strategies.outcomes"]
    m["strategies.outcomes.busy_s"] = busy["strategies.outcomes"]
    rounds = counts["simulate.state_rounds"]
    m["simulate.self_s"] = self_s["simulate"]
    m["simulate.state_rounds"] = rounds
    m["simulate.memo.misses"] = misses
    m["simulate.memo.hit_ratio"] = 1.0 - misses / rounds if rounds else 0.0
    m["simulate.ns_per_state_round"] = per_state(self_s["simulate"], rounds, 1e9)
    m["oracle.states"] = counts["oracle.states"]
    m["oracle.sweeps"] = counts["oracle.sweeps"]
    m["oracle.self_s"] = self_s["oracle"]
    m["oracle.us_per_state"] = per_state(self_s["oracle"],
                                         counts["oracle.states"], 1e6)
    m["oracle.project_state.calls"] = counts["oracle.project_state.calls"]
    for check in ("lower", "upper", "gradients", "translation", "final_time"):
        m[f"verify.{check}.busy_s"] = busy[f"verify.{check}"]
    for key in ("verify.states", "verify.violations", "verify.skipped_near_ties"):
        m[key] = counts[key]
    m["bounds.error_constants.calls"] = calls["bounds.error_constants"]
    m["bounds.error_constants.busy_s"] = busy["bounds.error_constants"]
    m["cli.self_s"] = self_s["cli"]
    # totals become per-cycle means; ratios and per-state costs stay as they are
    for key, value in m.items():
        if not key.endswith(("us_per_state", "ns_per_state_round", "hit_ratio")):
            m[key] = value / cycles
    return m
