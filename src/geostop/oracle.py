"""Exact value iteration for the stopped game on a truncated lattice.

States are reduced by translation: d_j = x_j - x_n for j < n, which lives
on the even integer lattice because every regret increment is even.  The
domain keeps states whose coordinates (with 0 appended) span at most
``radius``.  Transitions that leave the domain are projected back and
charged the projection distance with a minus sign (pessimistic run) and a
plus sign (optimistic run); the two fixed points bracket the untruncated
value at every retained state whenever that value moves by at most the
projection distance, and the bracket width is the honest
boundary-truncation error, shrinking geometrically away from the boundary.

The plus-sign charge is far too loose for the best-response recursion
against a fixed player: the inner max lets the adversary park at the
boundary and milk the bonus, inflating the optimistic fixed point by
O((1-delta)/delta) everywhere.  For that recursion the optimistic run can
instead read boundary data from a candidate upper bound evaluated one step
outside the domain (``upper_bound=``).  If the candidate really dominates
the value out there, the resulting fixed point dominates the value on the
whole domain, so comparing it back against the candidate certifies that
the bound survives exact dynamic programming on the interior.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game import check_stopping_rate
from .potentials import PotentialHandle
from .strategies import AdversaryStrategy, PlayerStrategy

_MAX_SWEEPS = 2_000_000
# build_states enumerates the full (radius+1)^(n-1) grid before filtering
_MAX_GRID_POINTS = 10**7


def _span(states: np.ndarray) -> np.ndarray:
    """max of coords and 0 minus min of coords and 0, per row."""
    hi = np.maximum(states.max(axis=1), 0)
    lo = np.minimum(states.min(axis=1), 0)
    return hi - lo


def build_states(n: int, radius: int) -> np.ndarray:
    """Even-lattice reduced states with span(d, 0) <= radius, lexicographic."""
    if n < 2:
        raise ValueError("n must be at least 2")
    radius = int(radius)
    if radius < 2 or radius % 2:
        raise ValueError("radius must be a positive even integer")
    if (radius + 1) ** (n - 1) > _MAX_GRID_POINTS:
        half = radius // 2
        raise ValueError(
            f"lattice too large: n={n}, radius={radius} would enumerate "
            f"{radius + 1}^{n - 1} grid points to keep "
            f"{(half + 1) ** n - half ** n} states (limit "
            f"{_MAX_GRID_POINTS:.0e} grid points); lower n or the radius")
    axis = np.arange(-radius, radius + 1, 2)
    grid = np.array(list(itertools.product(axis, repeat=n - 1)), dtype=np.int64)
    return grid[_span(grid) <= radius]


def _ceil_even(v: int) -> int:
    return 2 * ((v + 1) // 2)


def project_state(d: np.ndarray, radius: int) -> tuple[np.ndarray, int]:
    """Nearest in-domain state under the sup norm, and the distance moved.

    Chooses a width-``radius`` window containing zero, balancing how far
    the top and bottom of the state must move, then clips.
    """
    hi = int(max(d.max(), 0))
    lo = int(min(d.min(), 0))
    excess = hi - lo - radius
    if excess <= 0:
        return d, 0
    m_top = min(hi, _ceil_even(excess // 2))
    m_bot = excess - m_top
    if m_bot > -lo:
        m_bot = -lo
        m_top = excess - m_bot
    clipped = np.clip(d, lo + m_bot, hi - m_top)
    return clipped, max(m_top, m_bot)


@dataclass(frozen=True)
class LatticeValueFunction:
    """Bracketed values on the truncated lattice.

    lower/upper are certified bounds on the untruncated value at each
    state; residual is the final sup-norm update of the iteration and
    fixed_point_gap the implied distance to the exact fixed points.
    """

    n: int
    delta: float
    radius: int
    states: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    residual: float
    fixed_point_gap: float
    sweeps: int

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {tuple(s): i for i, s in enumerate(self.states.tolist())})

    def state_index(self, x) -> int:
        x = np.asarray(x)
        if x.shape[-1] == self.n:
            x = x[..., :-1] - x[..., -1:]
        key = tuple(int(v) for v in np.atleast_1d(x))
        if key not in self._index:
            raise KeyError(f"state {key} outside the truncated lattice")
        return self._index[key]

    def bracket(self, x) -> tuple[float, float]:
        i = self.state_index(x)
        return float(self.lower[i]), float(self.upper[i])

    def value(self, x) -> float:
        lo, hi = self.bracket(x)
        return 0.5 * (lo + hi)

    def value_at_origin(self) -> float:
        return self.value(np.zeros(self.n - 1, dtype=np.int64))

    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def interior_mask(self, margin: int | None = None) -> np.ndarray:
        """States at least ``margin`` away from the span limit (default radius/2)."""
        if margin is None:
            margin = self.radius // 2
        return _span(self.states) <= self.radius - margin


def _transition_tables(states: np.ndarray, shifts: np.ndarray, radius: int):
    """Index and projection-distance tables for d -> d + shift."""
    index = {tuple(s): i for i, s in enumerate(states.tolist())}
    s_count = states.shape[0]
    k_count = shifts.shape[1] if shifts.ndim == 3 else shifts.shape[0]
    nxt = np.empty((s_count, k_count), dtype=np.int64)
    dist = np.zeros((s_count, k_count))
    for si, d in enumerate(states):
        for ki in range(k_count):
            target = d + shifts[si, ki] if shifts.ndim == 3 else d + shifts[ki]
            proj, moved = project_state(target, radius)
            nxt[si, ki] = index[tuple(proj.tolist())]
            dist[si, ki] = moved
    return nxt, dist


def _iterate(g, delta, tol, update_lo, update_hi):
    """Run the bracketed fixed-point iteration to the requested accuracy."""
    v_lo = g.astype(float).copy()
    v_hi = g.astype(float).copy()
    factor = (1.0 - delta) / delta if delta < 1.0 else 0.0
    sweeps = 0
    while True:
        sweeps += 1
        new_lo = update_lo(v_lo)
        new_hi = update_hi(v_hi)
        diff = max(np.max(np.abs(new_lo - v_lo)), np.max(np.abs(new_hi - v_hi)))
        v_lo, v_hi = new_lo, new_hi
        if factor * diff <= tol or diff == 0.0:
            return v_lo, v_hi, diff, factor * diff, sweeps
        if sweeps >= _MAX_SWEEPS:
            raise RuntimeError("value iteration failed to converge")


def value_iteration_adversary(adversary: AdversaryStrategy, n: int,
                              delta: float, radius: int = 60,
                              tol: float = 1e-8) -> LatticeValueFunction:
    """Game value when the adversary is fixed and the player best-responds.

    The player term reduces to min_i E[q_i] - E[q_n] at each state (zero
    for balanced adversaries); the state transition does not depend on the
    followed expert.
    """
    check_stopping_rate(delta)
    states = build_states(n, radius)
    g = np.maximum(states.max(axis=1), 0).astype(float)

    x_full = np.hstack([states, np.zeros((states.shape[0], 1), dtype=np.int64)])
    support, probs = adversary.outcomes_batch(x_full.astype(float))
    # shift_j = q_n - q_j for j < n, per state and outcome
    shifts = (support[:, :, -1:] - support[:, :, :-1]).astype(np.int64)
    means = (probs[None, :, None] * support).sum(axis=1)
    lin = means[:, :-1].min(axis=1) - means[:, -1]
    lin = np.minimum(lin, 0.0)  # the pinned expert itself is also available
    nxt, dist = _transition_tables(states, shifts, radius)

    def update(v, sign):
        ev = (probs[None, :] * (v[nxt] + sign * dist)).sum(axis=1)
        return delta * g + (1.0 - delta) * (lin + ev)

    v_lo, v_hi, residual, gap, sweeps = _iterate(
        g, delta, tol, lambda v: update(v, -1.0), lambda v: update(v, +1.0))
    return LatticeValueFunction(n, delta, radius, states, v_lo, v_hi,
                                residual, gap, sweeps)


def value_iteration_player(player: PlayerStrategy, n: int, delta: float,
                           radius: int = 60, tol: float = 1e-8,
                           outcomes: np.ndarray | None = None,
                           upper_bound=None) -> LatticeValueFunction:
    """Best adversary response against a fixed player, vertex outcomes only.

    The adversary is restricted to deterministic loss vectors in {-1,+1}^n
    (the cube vertices), so the result lower-bounds the unrestricted best
    response against this player; any valid upper potential for the player
    still dominates it.

    ``upper_bound`` may be a callable mapping an array of full states
    (rows of length n, last coordinate pinned to 0) to candidate
    upper-bound values.  When given, the optimistic run values transitions
    that leave the domain at the candidate evaluated at the actual target
    state instead of charging the projection distance; see the module
    docstring for why the distance charge cannot work here.
    """
    check_stopping_rate(delta)
    states = build_states(n, radius)
    g = np.maximum(states.max(axis=1), 0).astype(float)

    if outcomes is None:
        outcomes = np.array(list(itertools.product((-1, 1), repeat=n)),
                            dtype=np.int64)
    shifts = outcomes[:, -1:] - outcomes[:, :-1]
    x_full = np.hstack([states, np.zeros((states.shape[0], 1), dtype=np.int64)])
    weights = player.weights_batch(x_full.astype(float))
    # immediate term E[q_I] - q_n for each state/outcome
    lin = (weights[:, None, :] * outcomes[None, :, :]).sum(axis=2) \
        - outcomes[None, :, -1]
    nxt, dist = _transition_tables(states, shifts, radius)

    def update_lo(v):
        return delta * g + (1.0 - delta) * (lin + v[nxt] - dist).max(axis=1)

    if upper_bound is None:
        def update_hi(v):
            return delta * g + (1.0 - delta) * (lin + v[nxt] + dist).max(axis=1)
    else:
        exits = dist > 0
        si, ki = np.nonzero(exits)
        targets = states[si] + shifts[ki]
        full = np.hstack([targets, np.zeros((targets.shape[0], 1), dtype=np.int64)])
        exit_vals = np.zeros_like(dist)
        exit_vals[exits] = np.asarray(upper_bound(full.astype(float)), dtype=float)

        def update_hi(v):
            cand = np.where(exits, exit_vals, v[nxt])
            return delta * g + (1.0 - delta) * (lin + cand).max(axis=1)

    v_lo, v_hi, residual, gap, sweeps = _iterate(g, delta, tol,
                                                 update_lo, update_hi)
    return LatticeValueFunction(n, delta, radius, states, v_lo, v_hi,
                                residual, gap, sweeps)


def potential_upper_source(handle: PotentialHandle, error_term: float = 0.0):
    """Boundary-data callable for the optimistic player run: value + error."""
    def source(x_full: np.ndarray) -> np.ndarray:
        return handle.value_batch(np.asarray(x_full, dtype=float)) + error_term
    return source


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of comparing a potential bound against lattice values."""

    kind: str
    family: str
    side: str
    n: int
    delta: float
    checked_states: int
    violations: int
    worst_margin: float
    error_term: float
    error_mode: str
    max_bracket_width: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "kind", "family", "side", "n", "delta", "checked_states",
            "violations", "worst_margin", "error_term", "error_mode",
            "max_bracket_width", "tol")}
        d["passed"] = self.passed
        return d


def _interior_eval(lvf: LatticeValueFunction, handle: PotentialHandle,
                   margin: int | None):
    mask = lvf.interior_mask(margin)
    states = lvf.states[mask]
    x_full = np.hstack([states, np.zeros((states.shape[0], 1))]).astype(float)
    pot = handle.value_batch(x_full)
    return mask, pot


def adversary_sandwich(lvf: LatticeValueFunction, handle: PotentialHandle,
                       error_term: float, error_mode: str = "user_supplied",
                       tol: float = 1e-8,
                       margin: int | None = None) -> SandwichReport:
    """Check potential - error <= certified lower lattice value on the interior."""
    mask, pot = _interior_eval(lvf, handle, margin)
    margins = pot - error_term - lvf.lower[mask]
    violations = int(np.sum(margins > tol))
    return SandwichReport("adversary_lower", handle.family, handle.side,
                          lvf.n, lvf.delta, int(mask.sum()), violations,
                          float(margins.max()), error_term, error_mode,
                          float(lvf.width()[mask].max()), tol)


def player_sandwich(lvf: LatticeValueFunction, handle: PotentialHandle,
                    error_term: float, error_mode: str = "user_supplied",
                    tol: float = 1e-8,
                    margin: int | None = None) -> SandwichReport:
    """Check certified upper lattice value <= potential + error on the interior."""
    mask, pot = _interior_eval(lvf, handle, margin)
    margins = lvf.upper[mask] - (pot + error_term)
    violations = int(np.sum(margins > tol))
    return SandwichReport("player_upper", handle.family, handle.side,
                          lvf.n, lvf.delta, int(mask.sum()), violations,
                          float(margins.max()), error_term, error_mode,
                          float(lvf.width()[mask].max()), tol)


def ordering_check(adv: LatticeValueFunction, ply: LatticeValueFunction,
                   tol: float = 1e-8, margin: int | None = None) -> SandwichReport:
    """Check lower(adversary value) <= upper(player value) stateside."""
    if adv.states.shape != ply.states.shape or not np.array_equal(adv.states, ply.states):
        raise ValueError("lattices do not match")
    mask = adv.interior_mask(margin)
    margins = adv.lower[mask] - ply.upper[mask]
    violations = int(np.sum(margins > tol))
    width = max(float(adv.width()[mask].max()), float(ply.width()[mask].max()))
    return SandwichReport("ordering", "none", "none", adv.n, adv.delta,
                          int(mask.sum()), violations, float(margins.max()),
                          0.0, "user_supplied", width, tol)
