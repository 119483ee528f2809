"""State arithmetic for the expert-advice game with a random stopping time.

Each round the player spreads mass over n experts, the adversary reveals a
loss vector q in [-1, 1]^n, and the player follows expert I drawn from its
weights.  The cumulative regret vector gains ``q[I] - q`` componentwise.
The game stops before each round with probability delta, so the number of
completed rounds T is geometric: P(T = t) = delta * (1 - delta)**t for
t = 0, 1, 2, ...  The final score is the largest coordinate of the regret
vector.
"""

from __future__ import annotations

import math

import numpy as np

# Weights this far below zero are treated as round-off and clipped; anything
# more negative is a caller bug.
SIMPLEX_NEG_TOL = 1e-12


def clip_simplex(p) -> np.ndarray:
    """Clip round-off negatives to zero and renormalize to sum one.

    Entries below ``-SIMPLEX_NEG_TOL`` are an error, not round-off, and raise.
    Accepts a single weight vector or a batch with vectors in rows.
    """
    p = np.asarray(p, dtype=float)
    low = p.min(initial=0.0)  # an empty batch has no entry to check
    if low < -SIMPLEX_NEG_TOL:
        raise ValueError(
            f"weight {low:.3e} below -{SIMPLEX_NEG_TOL:.0e}; not round-off"
        )
    p = np.maximum(p, 0.0)
    s = p.sum(axis=-1, keepdims=True)
    off = np.abs(s - 1.0)
    if np.any(off > 1e-6):
        worst = float(s.flat[np.argmax(off)])
        raise ValueError("weights must already sum to one up to round-off: "
                         f"the worst row sums to {worst!r}, beyond the 1e-6 "
                         "tolerance")
    return p / s


def check_stopping_rate(delta: float, allow_one: bool = True) -> float:
    """Validate the per-round stopping probability delta in (0, 1], or in
    (0, 1) when allow_one is false."""
    delta = float(delta)
    if not 0.0 < delta <= (1.0 if allow_one else 1.0 - 1e-15):
        interval = "(0, 1]" if allow_one else "(0, 1)"
        raise ValueError(f"delta must lie in {interval}, got {delta}")
    return delta


def _check_tol(tol: float) -> None:
    """Refuse a tolerance under which no comparison can certify anything."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number at least 0, got {tol}")
