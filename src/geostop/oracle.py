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

The best-response recursion against a fixed player has no plus-sign
charge: its inner max would let the adversary park at the boundary and
milk the bonus, inflating the optimistic fixed point by O((1-delta)/delta)
everywhere.  Its optimistic run instead reads each exit from the player's
own upper potential plus an error term, evaluated at the actual target
one step outside the domain.  If potential plus error dominates the value
out there, the resulting fixed point dominates the value on the whole
domain, so comparing it back against the potential certifies that the
bound survives exact dynamic programming on the interior, which is the
verification argument behind the paper's upper bounds.

The engine does no per-state Python work.  States are indexed by a
mixed-radix integer key whose order is their lexicographic order, so the
transition tables come from batched projections of the (state, outcome)
targets, about a million at a time, and a ``searchsorted`` over the keys.
The player sweeps keep their tables as (outcomes, states) arrays, so a
sweep is one gather and a max over axis 0; exits of the optimistic run
gather from precomputed potential values stored past the end of the value
vector.
Lattices whose tables would exceed 10^7 entries (states times the 2^n
vertex outcomes) are refused before anything is allocated.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .game import check_stopping_rate
from .potentials import PotentialHandle
from .strategies import AdversaryStrategy, PlayerStrategy

_MAX_SWEEPS = 2_000_000
# transition-table entries (states x 2^n vertex outcomes) a lattice may need
_MAX_TABLE_ENTRIES = 10**7
# (state, outcome) targets projected per batch when building the tables
_TABLE_BLOCK = 2**20


def _span(states: np.ndarray) -> np.ndarray:
    """max of coords and 0 minus min of coords and 0, per row."""
    hi = np.maximum(states.max(axis=1), 0)
    lo = np.minimum(states.min(axis=1), 0)
    return hi - lo


def check_lattice(n: int, radius: int) -> None:
    """Raise ValueError unless the (n, radius) lattice is valid and fits.

    The tables of a lattice hold (radius/2 + 1)^n - (radius/2)^n states
    times the 2^n vertex outcomes; more than _MAX_TABLE_ENTRIES is refused.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if radius < 2 or radius % 2:
        raise ValueError("radius must be a positive even integer")
    half = radius // 2
    count = (half + 1) ** n - half ** n
    entries = count * 2 ** n
    if entries > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"lattice too large: n={n}, radius={radius} would keep {count} "
            f"states, whose transition tables over the {2 ** n} vertex "
            f"outcomes hold {entries} entries (limit "
            f"{_MAX_TABLE_ENTRIES:.0e}); lower n or the radius")


def build_states(n: int, radius: int) -> np.ndarray:
    """Even-lattice reduced states with span(d, 0) <= radius, lexicographic.

    Prefixes grow one coordinate at a time and keep only rows whose running
    span fits, so no row outside the domain is ever built.  Appending the
    even values in increasing order to lexicographically sorted prefixes
    keeps the rows sorted.
    """
    radius = int(radius)
    check_lattice(n, radius)
    axis = np.arange(-radius, radius + 1, 2)
    states = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n - 1):
        rows = np.repeat(states, axis.size, axis=0)
        rows = np.hstack([rows, np.tile(axis, states.shape[0])[:, None]])
        states = rows[_span(rows) <= radius]
    return states


def _lattice_key(d: np.ndarray, radius: int) -> np.ndarray:
    """Mixed-radix integer key of even states in [-radius, radius]^(n-1).

    Digit j is (d_j + radius) / 2 in base radius + 1, first coordinate most
    significant, so lexicographic order of the states is the order of keys.
    """
    d = np.asarray(d, dtype=np.int64)
    place = (radius + 1) ** np.arange(d.shape[-1] - 1, -1, -1, dtype=np.int64)
    return ((d + radius) // 2) @ place


def _ceil_even(v):
    return 2 * ((v + 1) // 2)


def project_state(d: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest in-domain states under the sup norm, and the distances moved.

    ``d`` holds states along its last axis, in a batch of any shape.  Each
    one chooses a width-``radius`` window containing zero, balancing how far
    the top and bottom of the state must move, then clips.
    """
    d = np.asarray(d)
    hi = np.maximum(d.max(axis=-1), 0)
    lo = np.minimum(d.min(axis=-1), 0)
    excess = np.maximum(hi - lo - radius, 0)
    m_top = np.minimum(hi, _ceil_even(excess // 2))
    m_bot = excess - m_top
    over = m_bot > -lo
    m_bot = np.where(over, -lo, m_bot)
    m_top = np.where(over, excess - m_bot, m_top)
    clipped = np.clip(d, (lo + m_bot)[..., None], (hi - m_top)[..., None])
    return clipped, np.maximum(m_top, m_bot)


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

    def state_index(self, x) -> int:
        x = np.asarray(x)
        if x.shape[-1] == self.n:
            x = x[..., :-1] - x[..., -1:]
        x = np.atleast_1d(x)
        if x.shape == (self.n - 1,) and np.all(np.abs(x) <= self.radius):
            keys = _lattice_key(self.states, self.radius)
            i = int(np.searchsorted(keys, _lattice_key(x, self.radius)))
            if i < keys.size and np.array_equal(self.states[i], x):
                return i
        raise KeyError(f"state {tuple(x.tolist())} outside the truncated lattice")

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

    def interior_mask(self) -> np.ndarray:
        """States at least radius/2 away from the span limit."""
        return _span(self.states) <= self.radius // 2


def _transition_tables(states: np.ndarray, shifts: np.ndarray, radius: int):
    """Index and projection-distance tables for d -> d + shift, shape (S, K).

    ``shifts`` is (K, n-1), shared by every state, or (S, K, n-1).  Targets
    are projected in blocks of about _TABLE_BLOCK entries, which bounds the
    temporaries of the largest lattices to a few hundred MB.
    """
    shifts = np.broadcast_to(shifts, states.shape[:1] + shifts.shape[-2:])
    keys = _lattice_key(states, radius)
    nxt = np.empty(shifts.shape[:2], dtype=np.int64)
    dist = np.empty(shifts.shape[:2])
    step = max(1, _TABLE_BLOCK // shifts.shape[1])
    for start in range(0, states.shape[0], step):
        rows = slice(start, start + step)
        proj, moved = project_state(states[rows, None, :] + shifts[rows], radius)
        nxt[rows] = np.searchsorted(keys, _lattice_key(proj, radius))
        dist[rows] = moved
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
    if adversary.n != n:
        raise ValueError(f"adversary built for n={adversary.n}, not n={n}")
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
                           error_term: float = 0.0) -> LatticeValueFunction:
    """Best adversary response against a fixed player, vertex outcomes only.

    The adversary is restricted to deterministic loss vectors in {-1,+1}^n
    (the cube vertices), so the result lower-bounds the unrestricted best
    response against this player; any valid upper potential for the player
    still dominates it.

    The pessimistic run charges the projection distance at exits.  The
    optimistic run values each transition that leaves the domain at the
    player's potential plus ``error_term``, evaluated at the actual target
    state; see the module docstring.  A player without a potential raises
    ValueError.
    """
    if (player.n, player.delta) != (n, delta):
        raise ValueError(f"player built for n={player.n}, delta={player.delta}, "
                         f"not n={n}, delta={delta}")
    if player.handle is None:
        raise ValueError(f"player {player.kind!r} has no potential to read "
                         "the optimistic run's exit values from")
    check_stopping_rate(delta)
    states = build_states(n, radius)
    g = np.maximum(states.max(axis=1), 0).astype(float)

    outcomes = np.array(list(itertools.product((-1, 1), repeat=n)),
                        dtype=np.int64)
    shifts = outcomes[:, -1:] - outcomes[:, :-1]
    x_full = np.hstack([states, np.zeros((states.shape[0], 1), dtype=np.int64)])
    weights = player.weights_batch(x_full.astype(float))
    # immediate term E[q_I] - q_n for each state/outcome
    lin = (weights[:, None, :] * outcomes[None, :, :]).sum(axis=2) \
        - outcomes[None, :, -1]
    nxt, dist = _transition_tables(states, shifts, radius)
    # sweeps gather and reduce over outcomes along axis 0 of (K, S) tables
    lin, nxt, dist = (np.ascontiguousarray(a.T) for a in (lin, nxt, dist))

    # exits in state-major order: the batch order the potential sees can
    # move the last bits of its values
    si, ki = np.nonzero(dist.T > 0)
    targets = states[si] + shifts[ki]
    full = np.hstack([targets, np.zeros((targets.shape[0], 1), dtype=np.int64)])
    exit_vals = player.handle.value_batch(full.astype(float)) + error_term
    # exiting entries read past the end of v, from the exit values
    gather = nxt.copy()
    gather[ki, si] = states.shape[0] + np.arange(si.size)

    def best(cand):
        return delta * g + (1.0 - delta) * cand.max(axis=0)

    def update_lo(v):
        cand = v[nxt]
        cand += lin
        cand -= dist
        return best(cand)

    def update_hi(v):
        cand = np.concatenate([v, exit_vals])[gather]
        cand += lin
        return best(cand)

    v_lo, v_hi, residual, gap, sweeps = _iterate(g, delta, tol,
                                                 update_lo, update_hi)
    return LatticeValueFunction(n, delta, radius, states, v_lo, v_hi,
                                residual, gap, sweeps)


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
        return {**asdict(self), "passed": self.passed}


def _interior_eval(lvf: LatticeValueFunction, handle: PotentialHandle):
    mask = lvf.interior_mask()
    states = lvf.states[mask]
    x_full = np.hstack([states, np.zeros((states.shape[0], 1))]).astype(float)
    pot = handle.value_batch(x_full)
    return mask, pot


def adversary_sandwich(lvf: LatticeValueFunction, handle: PotentialHandle,
                       error_term: float, error_mode: str = "user_supplied",
                       tol: float = 1e-8) -> SandwichReport:
    """Check potential - error <= certified lower lattice value on the interior."""
    mask, pot = _interior_eval(lvf, handle)
    margins = pot - error_term - lvf.lower[mask]
    violations = int(np.sum(margins > tol))
    return SandwichReport("adversary_lower", handle.family, handle.side,
                          lvf.n, lvf.delta, int(mask.sum()), violations,
                          float(margins.max()), error_term, error_mode,
                          float(lvf.width()[mask].max()), tol)


def player_sandwich(lvf: LatticeValueFunction, handle: PotentialHandle,
                    error_term: float, error_mode: str = "user_supplied",
                    tol: float = 1e-8) -> SandwichReport:
    """Check certified upper lattice value <= potential + error on the interior."""
    mask, pot = _interior_eval(lvf, handle)
    margins = lvf.upper[mask] - (pot + error_term)
    violations = int(np.sum(margins > tol))
    return SandwichReport("player_upper", handle.family, handle.side,
                          lvf.n, lvf.delta, int(mask.sum()), violations,
                          float(margins.max()), error_term, error_mode,
                          float(lvf.width()[mask].max()), tol)


def ordering_check(adv: LatticeValueFunction, ply: LatticeValueFunction,
                   tol: float = 1e-8) -> SandwichReport:
    """Check lower(adversary value) <= upper(player value) stateside."""
    if adv.states.shape != ply.states.shape or not np.array_equal(adv.states, ply.states):
        raise ValueError("lattices do not match")
    mask = adv.interior_mask()
    margins = adv.lower[mask] - ply.upper[mask]
    violations = int(np.sum(margins > tol))
    width = max(float(adv.width()[mask].max()), float(ply.width()[mask].max()))
    return SandwichReport("ordering", "none", "none", adv.n, adv.delta,
                          int(mask.sum()), violations, float(margins.max()),
                          0.0, "user_supplied", width, tol)
