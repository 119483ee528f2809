"""Monte Carlo episodes of the stopped game.

Every trial owns an independent random stream derived from (seed, trial
index), so results do not depend on execution order or batching and a
config always reproduces bit for bit.  Within a trial the draws are
consumed in a fixed order: one uniform for the horizon, then per round one
uniform for the adversary outcome followed by one for the followed expert.
A batch seeds all its streams in one vectorised pass, which repeats
numpy's seeding arithmetic exactly, and keeps each trial's draws end to
end in one flat array.

Trials walk a state graph that one ``run`` shares across its chunks: its
nodes are the reduced states x - x_n met so far, and its edges the moves
(outcome, followed expert) taken from them, each computed once.
A round is then two draws, one dict lookup per trial and gathers.  This
relies on two facts about the adversary laws, which the lattice oracle
relies on too: a law depends only on the reduced state, and it has K
outcomes with probabilities shared by every state (the ``outcomes_batch``
contract).  ``play_episode`` asks the adversary for the law of the full
state every round and is the independent reference the batched runner
must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .game import check_stopping_rate
from .strategies import AdversaryStrategy, PlayerStrategy

_SEED_MASK = (1 << 64) - 1
# chunks bound the trial-major draws, 16 bytes per round of each trial
_TRIALS_PER_CHUNK = 2048
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
        if (self.player.n, self.player.delta, self.adversary.n) != (
                self.n, self.delta, self.n):
            raise ValueError("player and adversary do not match the game's "
                             f"n={self.n}, delta={self.delta}")
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
    """The stream owned by one trial; independent of all other trials.

    This is the reference: the batched runner seeds its streams with
    ``_trial_states`` and must hold exactly the PCG64 state this returns.
    """
    return np.random.default_rng(
        np.random.SeedSequence([seed & _SEED_MASK, trial]))


def _trial_states(seed: int, trials: np.ndarray) -> tuple[list, list]:
    """PCG64 ``(state, inc)`` of ``trial_rng(seed, t)`` for each t in trials.

    Repeats ``SeedSequence([seed & mask, t]).generate_state(4, np.uint64)``
    in uint32 arithmetic over all trials at once: the seed's one or two
    little-endian words, then the trial's low and high words, zero-padded
    to the pool size of 4 (an absent entropy word hashes as a 0 word).
    Then PCG64's seeding step turns the four words into the state.
    """
    seed &= _SEED_MASK
    t = np.asarray(trials, dtype=np.uint64)
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(len(t), w, dtype=np.uint32) for w in words]
    entropy += [(t & _MASK32).astype(np.uint32), (t >> 32).astype(np.uint32)]
    entropy += [np.zeros(len(t), dtype=np.uint32)] * (4 - len(entropy))

    hash_const = 0x43b0d7e5  # one running constant across every hashmix

    def hashmix(v):
        nonlocal hash_const
        v = v ^ np.uint32(hash_const)
        hash_const = hash_const * 0x931e8875 & _MASK32
        v = v * np.uint32(hash_const)
        return v ^ (v >> 16)

    pool = [hashmix(e) for e in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (pool[dst] * np.uint32(0xca01f9dd)
                         - hashmix(pool[src]) * np.uint32(0x4973f715))
                pool[dst] = mixed ^ (mixed >> 16)
    hash_const = 0x8b51f9dd
    out = []
    for j in range(8):
        v = pool[j % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * 0x58f38ded & _MASK32
        v = v * np.uint32(hash_const)
        out.append((v ^ (v >> 16)).astype(np.uint64))
    w = [(out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]

    states, incs = [], []
    for w0, w1, w2, w3 in zip(*w):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append(((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128)
        incs.append(inc)
    return states, incs


def horizon_from_uniform(u: float, delta: float) -> int:
    """Geometric horizon with P(T=t) = delta (1-delta)^t via inversion of u."""
    if delta >= 1.0:
        return 0
    v = 1.0 - u  # in (0, 1]
    return int(math.log(v) / math.log(1.0 - delta))


def _reduce(X: np.ndarray) -> np.ndarray:
    # Weights only depend on coordinate differences of the integer state,
    # exactly, so both paths hand the player states with x_n pinned to zero.
    return X - X[:, -1:]


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


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((size,) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


class _StateGraph:
    """The reduced states x - x_n met so far, with their weights and moves.

    A node is a reduced int64 state, found through a dict keyed by the
    row's bytes.  Its cumulative player weights are filled the first time
    it starts a round, in one kernel call per round.  An edge (node,
    outcome k, expert i) is found through a dict keyed by its int code
    (node*K + k)*n + i and holds its destination node, the change in x_n
    and, when outcomes are collected, the outcome row.  The adversary's K
    outcome probabilities are shared by all states, so they are read once.
    Arrays only grow, by replacement.
    """

    def __init__(self, player: PlayerStrategy, adversary: AdversaryStrategy,
                 collect_outcomes: bool):
        self.player, self.adversary = player, adversary
        self.n = n = adversary.n
        _, probs = adversary.outcomes_batch(np.zeros((1, n)))
        self.cum_probs = np.cumsum(probs)
        self.outcome_count = len(probs)
        self._index = {bytes(n * 8): 0}
        self.states = np.zeros((64, n), dtype=np.int64)
        self.cum_weights = np.zeros((64, n))
        self.weighted = np.zeros(64, dtype=bool)
        self._edges = {}  # code -> edge, edges numbered as found
        self.dest = np.zeros(64, dtype=np.int64)
        self.shift = np.zeros(64, dtype=np.int64)
        self.outcome = np.zeros((64, n), dtype=np.int64) if collect_outcomes else None

    def outcomes(self, u: np.ndarray) -> np.ndarray:
        """The adversary's outcome index per uniform, in ``_select``'s bins.

        The law is one cumulative row shared by every state, so one
        ``searchsorted`` finds the index with cum[k-1] <= u < cum[k].
        """
        k = np.searchsorted(self.cum_probs, u, side="right")
        return np.minimum(k, self.outcome_count - 1)

    def weights(self, nodes: np.ndarray) -> np.ndarray:
        """Cumulative weights of the given nodes, filling the missing ones."""
        need = nodes[~self.weighted[nodes]]
        if need.size:
            # one kernel call per round, rows in lexicographic order
            fresh = np.unique(need)
            fresh = fresh[np.lexsort(self.states[fresh].T[::-1])]
            w = self.player.weights_batch(self.states[fresh].astype(float))
            self.cum_weights[fresh] = np.cumsum(w, axis=1)
            self.weighted[fresh] = True
        return self.cum_weights[nodes]

    def step(self, nodes: np.ndarray, k: np.ndarray, i: np.ndarray):
        """Destination, change in x_n and outcome row (or None) per move."""
        codes = (nodes * self.outcome_count + k) * self.n + i
        e = np.fromiter(map(self._edges.get, codes.tolist(), repeat(-1)),
                        dtype=np.int64, count=len(codes))
        miss = e < 0
        if miss.any():
            fresh, at = np.unique(codes[miss], return_inverse=True)
            e[miss] = self._add_edges(fresh)[at]
        return (self.dest[e], self.shift[e],
                None if self.outcome is None else self.outcome[e])

    def _add_edges(self, codes: np.ndarray) -> np.ndarray:
        """New edges for the distinct codes, none of which has one yet."""
        n = self.n
        i = codes % n
        k = codes // n % self.outcome_count
        src = codes // (n * self.outcome_count)
        rows = np.arange(len(codes))
        support, _ = self.adversary.outcomes_batch(self.states[src].astype(float))
        q = support[rows, k].astype(np.int64)
        x = self.states[src] + q[rows, i][:, None] - q
        shift = x[:, -1].copy()
        x -= shift[:, None]
        first = len(self._edges)
        stop = first + len(codes)
        if stop > len(self.dest):
            size = max(stop, 2 * len(self.dest))
            self.dest = _grown(self.dest, size)
            self.shift = _grown(self.shift, size)
            if self.outcome is not None:
                self.outcome = _grown(self.outcome, size)
        self.dest[first:stop] = self._nodes(x)
        self.shift[first:stop] = shift
        if self.outcome is not None:
            self.outcome[first:stop] = q
        e = np.arange(first, stop)
        self._edges.update(zip(codes.tolist(), e.tolist()))
        return e

    def _nodes(self, states: np.ndarray) -> np.ndarray:
        """The node of each reduced state, added if new."""
        index, known = self._index, len(self._index)
        keys = states.view(f"V{states.itemsize * self.n}").ravel().tolist()
        nodes = np.array([index.setdefault(key, len(index)) for key in keys],
                         dtype=np.int64)
        if len(index) > len(self.states):
            size = max(len(index), 2 * len(self.states))
            self.states = _grown(self.states, size)
            self.cum_weights = _grown(self.cum_weights, size)
            self.weighted = _grown(self.weighted, size)
        fresh = nodes >= known
        self.states[nodes[fresh]] = states[fresh]
        return nodes


def _run_chunk(cfg: SimulationConfig, start: int, stop: int,
               graph: _StateGraph):
    count = stop - start
    rounds = np.empty(count, dtype=np.int64)
    truncated = 0
    draws = []
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    states = zip(*_trial_states(cfg.seed, np.arange(start, stop)))
    for b, (state, inc) in enumerate(states):
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        t_raw = horizon_from_uniform(rng.random(), cfg.delta)
        if t_raw > cfg.max_rounds_cap:
            truncated += 1
        rounds[b] = min(t_raw, cfg.max_rounds_cap)
        draws.append(rng.random(2 * int(rounds[b])))
    # longest trials first, so that the trials still playing are a prefix;
    # each trial's draws end to end, its round r at first + 2r and first + 2r + 1
    order = np.argsort(-rounds, kind="stable")
    t_max = int(rounds.max(initial=0))
    playing = np.searchsorted(-rounds[order], -np.arange(t_max), side="left")
    u = np.concatenate([draws[b] for b in order.tolist()])
    del draws
    first = np.zeros(count, dtype=np.int64)
    np.cumsum(2 * rounds[order[:-1]], out=first[1:])

    nodes = np.zeros(count, dtype=np.int64)
    shift = np.zeros(count, dtype=np.int64)
    q_sum = np.zeros(cfg.n)
    q_sq_sum = np.zeros(cfg.n)
    n_outcomes = 0
    for r, m in enumerate(playing.tolist()):
        at = nodes[:m]
        pos = first[:m] + 2 * r
        k = graph.outcomes(u[pos])
        i = _select(graph.weights(at), u[pos + 1])
        nodes[:m], moved, q = graph.step(at, k, i)
        shift[:m] += moved
        if q is not None:
            q_sum += q.sum(axis=0)
            q_sq_sum += (q.astype(float) ** 2).sum(axis=0)
            n_outcomes += m
    regrets = np.empty(count)
    regrets[order] = graph.states[nodes].max(axis=1) + shift
    return regrets, rounds, truncated, (q_sum, q_sq_sum, n_outcomes)


def run(cfg: SimulationConfig, collect_outcomes: bool = False) -> SimulationResult:
    """Run all trials; identical output for identical configs."""
    graph = _StateGraph(cfg.player, cfg.adversary, collect_outcomes)
    outs = [_run_chunk(cfg, s, min(s + _TRIALS_PER_CHUNK, cfg.trials), graph)
            for s in range(0, cfg.trials, _TRIALS_PER_CHUNK)]

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
