"""Monte Carlo episodes of the stopped game.

Every trial owns an independent random stream derived from (seed, trial
index), so results do not depend on execution order or batching and a
config always reproduces bit for bit.  Within a trial the draws are
consumed in a fixed order: one uniform for the horizon, then per round one
uniform for the adversary outcome followed by one for the followed expert.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .game import check_stopping_rate
from .strategies import AdversaryStrategy, PlayerStrategy

_SEED_MASK = (1 << 64) - 1
_TRIALS_PER_CHUNK = 2048


def thread_count(requested: int | None = None) -> int:
    """Worker count: the request (or 1) capped by the GEOSTOP_THREADS variable."""
    env = os.environ.get("GEOSTOP_THREADS")
    cap = int(env) if env else None
    count = requested if requested is not None else (cap or 1)
    if cap is not None:
        count = min(count, cap)
    return max(count, 1)


@dataclass(frozen=True)
class SimulationConfig:
    """A full experiment: matchup, trial count, seed, and the round cap.

    max_rounds_cap defaults to ceil(50/delta); geometric horizons beyond it
    are truncated and counted, biasing the mean by at most the tail weight
    (1-delta)^cap times the per-round regret range.
    """

    n: int
    delta: float
    player: PlayerStrategy
    adversary: AdversaryStrategy
    trials: int
    seed: int
    max_rounds_cap: int | None = None

    def __post_init__(self):
        check_stopping_rate(self.delta)
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.max_rounds_cap is None:
            object.__setattr__(self, "max_rounds_cap",
                               int(math.ceil(50.0 / self.delta)))
        if self.max_rounds_cap < 1:
            raise ValueError("max_rounds_cap must be positive")


@dataclass(frozen=True)
class SimulationResult:
    mean_regret: float
    std_error: float
    trials_used: int
    truncated_trials: int
    mean_rounds: float
    outcome_mean: np.ndarray | None = field(default=None, compare=False)
    outcome_se: np.ndarray | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        d = {
            "mean_regret": self.mean_regret,
            "std_error": self.std_error,
            "trials_used": self.trials_used,
            "truncated_trials": self.truncated_trials,
            "mean_rounds": self.mean_rounds,
        }
        collected = self.outcome_mean is not None
        d["outcome_mean"] = [float(v) for v in self.outcome_mean] if collected else None
        d["outcome_se"] = [float(v) for v in self.outcome_se] if collected else None
        return d


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The stream owned by one trial; independent of all other trials."""
    return np.random.default_rng(
        np.random.SeedSequence([seed & _SEED_MASK, trial]))


def horizon_from_uniform(u: float, delta: float) -> int:
    """Geometric horizon with P(T=t) = delta (1-delta)^t via inversion of u."""
    if delta >= 1.0:
        return 0
    v = 1.0 - u  # in (0, 1]
    return int(math.log(v) / math.log(1.0 - delta))


def _reduce(X: np.ndarray) -> np.ndarray:
    # Weights only depend on coordinate differences of the integer state,
    # exactly, so pinning the last coordinate to zero is a safe memo key.
    return X - X[:, -1:]


class _WeightMemo:
    """Cache of player weights per reduced integer state."""

    def __init__(self, player: PlayerStrategy):
        self.player = player
        self.table: dict[tuple, np.ndarray] = {}

    def lookup(self, states: np.ndarray) -> np.ndarray:
        reduced = _reduce(states)
        uniq, inverse = np.unique(reduced, axis=0, return_inverse=True)
        keys = [tuple(row) for row in uniq.tolist()]
        missing = [i for i, k in enumerate(keys) if k not in self.table]
        if missing:
            fresh = self.player.weights_batch(uniq[missing].astype(float))
            for row, i in enumerate(missing):
                self.table[keys[i]] = fresh[row]
        w = np.stack([self.table[k] for k in keys])
        return w[inverse]


def _select(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index with cum[i-1] <= u < cum[i]; clipped against round-off at the top."""
    idx = (cum <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cum.shape[1] - 1)


def play_episode(cfg: SimulationConfig, rng: np.random.Generator) -> float:
    """One episode, drawing from rng in the canonical order; returns max_i x_i."""
    t_raw = horizon_from_uniform(rng.random(), cfg.delta)
    rounds = min(t_raw, cfg.max_rounds_cap)
    u = rng.random(2 * rounds)
    x = np.zeros(cfg.n)
    for r in range(rounds):
        support, probs = cfg.adversary.outcomes_batch(x[None, :])
        q = support[0][_select(np.cumsum(probs)[None, :], u[2 * r:2 * r + 1])[0]]
        w = cfg.player.weights_batch(_reduce(x[None, :]))[0]
        i = _select(np.cumsum(w)[None, :], u[2 * r + 1:2 * r + 2])[0]
        x += q[i] - q
    return float(np.max(x))


def _run_chunk(cfg: SimulationConfig, start: int, stop: int,
               memo: _WeightMemo, collect_outcomes: bool):
    count = stop - start
    rounds = np.empty(count, dtype=np.int64)
    truncated = 0
    draws = []
    for b in range(count):
        rng = trial_rng(cfg.seed, start + b)
        t_raw = horizon_from_uniform(rng.random(), cfg.delta)
        if t_raw > cfg.max_rounds_cap:
            truncated += 1
        rounds[b] = min(t_raw, cfg.max_rounds_cap)
        draws.append(rng.random(2 * int(rounds[b])))
    t_max = int(rounds.max(initial=0))
    u = np.zeros((count, 2 * t_max))
    for b, d in enumerate(draws):
        u[b, :len(d)] = d

    x = np.zeros((count, cfg.n), dtype=np.int64)
    q_sum = np.zeros(cfg.n)
    q_sq_sum = np.zeros(cfg.n)
    n_outcomes = 0
    for r in range(t_max):
        active = np.nonzero(rounds > r)[0]
        states = x[active]
        support, probs = cfg.adversary.outcomes_batch(states.astype(float))
        k = _select(np.cumsum(probs)[None, :].repeat(len(active), 0),
                    u[active, 2 * r])
        q = support[np.arange(len(active)), k].astype(np.int64)
        w = memo.lookup(states)
        i = _select(np.cumsum(w, axis=1), u[active, 2 * r + 1])
        x[active] += q[np.arange(len(active)), i][:, None] - q
        if collect_outcomes:
            q_sum += q.sum(axis=0)
            q_sq_sum += (q.astype(float) ** 2).sum(axis=0)
            n_outcomes += len(active)
    regrets = x.max(axis=1).astype(float)
    return regrets, rounds, truncated, (q_sum, q_sq_sum, n_outcomes)


def run(cfg: SimulationConfig, threads: int | None = None,
        collect_outcomes: bool = False) -> SimulationResult:
    """Run all trials; identical output for identical configs, any thread count."""
    memo = _WeightMemo(cfg.player)
    spans = [(s, min(s + _TRIALS_PER_CHUNK, cfg.trials))
             for s in range(0, cfg.trials, _TRIALS_PER_CHUNK)]
    with ThreadPoolExecutor(max_workers=thread_count(threads)) as pool:
        outs = list(pool.map(
            lambda s: _run_chunk(cfg, s[0], s[1], memo, collect_outcomes),
            spans))

    regrets = np.concatenate([out[0] for out in outs])
    rounds = np.concatenate([out[1] for out in outs])
    truncated = 0
    q_sum = np.zeros(cfg.n)
    q_sq = np.zeros(cfg.n)
    n_outcomes = 0
    for _, _, trunc, (qs, qq, no) in outs:
        truncated += trunc
        q_sum += qs
        q_sq += qq
        n_outcomes += no

    mean = float(regrets.mean())
    se = float(regrets.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    result = SimulationResult(mean, se, cfg.trials, truncated,
                              float(rounds.mean()))
    if collect_outcomes and n_outcomes > 0:
        om = q_sum / n_outcomes
        var = q_sq / n_outcomes - om**2
        ose = np.sqrt(np.maximum(var, 0.0) / n_outcomes)
        result = replace(result, outcome_mean=om, outcome_se=ose)
    return result
