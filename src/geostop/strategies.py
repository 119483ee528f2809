"""Players (weight rules) and adversaries (outcome distributions).

Players map a cumulative regret vector to probability weights over the
experts.  The potential-based players use the gradient of an upper-bound
potential; the bundled adversaries realize the distributions under which
the matching lower-bound potentials are tight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .potentials import (
    PotentialHandle,
    exp_handle,
    heat_upper_handle,
    max_upper_handle,
)

PLAYER_KINDS = ("exp", "heat", "max", "uniform", "follow_best")
ADVERSARY_KINDS = ("heat", "max")

# Enumerating sign patterns past this n is too large.
_ENUM_LIMIT = 20


@dataclass(frozen=True)
class PlayerStrategy:
    """A named weight rule; potential-based kinds carry their handle."""

    kind: str
    n: int
    delta: float
    handle: PotentialHandle | None = None

    def __post_init__(self):
        if self.kind not in PLAYER_KINDS:
            raise ValueError(f"unknown player {self.kind!r}")
        if self.kind in ("exp", "heat", "max") and self.handle is None:
            raise ValueError(f"player {self.kind!r} needs a potential handle")

    def weights(self, x) -> np.ndarray:
        return self.weights_batch(np.asarray(x, dtype=float)[None, :])[0]

    def weights_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind in ("exp", "heat", "max"):
            return self.handle.gradient_batch(X)
        if self.kind == "uniform":
            return np.full_like(X, 1.0 / self.n)
        # follow_best: all mass on the current leader, lowest index on ties
        w = np.zeros_like(X)
        w[np.arange(X.shape[0]), np.argmax(X, axis=1)] = 1.0
        return w


def make_player(kind: str, n: int, delta: float) -> PlayerStrategy:
    """Build a player by CLI name: exp, heat, max, uniform, follow_best."""
    if kind == "exp":
        return PlayerStrategy(kind, n, delta, exp_handle(n, delta))
    if kind == "heat":
        return PlayerStrategy(kind, n, delta, heat_upper_handle(n, delta))
    if kind == "max":
        return PlayerStrategy(kind, n, delta, max_upper_handle(n, delta))
    return PlayerStrategy(kind, n, delta)


def heat_adversary_support(n: int) -> np.ndarray:
    """All sign vectors with coordinate sum 0 (even n) or +-1 (odd n).

    Rows are ordered lexicographically.  Enumeration is limited to n <= 20.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > _ENUM_LIMIT:
        raise ValueError(f"support enumeration limited to n <= {_ENUM_LIMIT}")
    target = {0} if n % 2 == 0 else {-1, 1}
    rows = [q for q in itertools.product((-1.0, 1.0), repeat=n)
            if sum(q) in target]
    return np.array(rows)


@dataclass(frozen=True)
class AdversaryStrategy:
    """A named outcome law; 'heat' ignores the state, 'max' tracks the leader."""

    kind: str
    n: int
    _support: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary {self.kind!r}")
        support = heat_adversary_support(self.n) if self.kind == "heat" else None
        object.__setattr__(self, "_support", support)

    def outcomes_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Per-state supports (b, k, n) and shared probabilities (k,)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        b = X.shape[0]
        if self.kind == "heat":
            k = self._support.shape[0]
            support = np.broadcast_to(self._support, (b, k, self.n))
            return support, np.full(k, 1.0 / k)
        # half-half on +-q, q = +1 at the leader (lowest index on ties,
        # matching follow_best) and -1 elsewhere
        q = np.full((b, self.n), -1.0)
        q[np.arange(b), np.argmax(X, axis=1)] = 1.0
        return np.stack([q, -q], axis=1), np.array([0.5, 0.5])


def make_adversary(kind: str, n: int) -> AdversaryStrategy:
    """Build an adversary by CLI name: heat or max."""
    return AdversaryStrategy(kind, n)
