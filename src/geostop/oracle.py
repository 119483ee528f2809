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
mixed-radix integer key whose order is their lexicographic order.  Only
edge states' targets can leave the domain and are projected; any other
target's key is its state's plus its shift's.  A ``searchsorted`` over
the keys then finds every (state, outcome) target.
Both roles solve v = delta*g + (1-delta)*R(v) over (outcomes, states)
tables and certify the result with one Bellman sweep.  Against a fixed
adversary R is an expectation, so each run is a linear system, solved by
BiCGSTAB in about delta^(-1/2) iterations.  Against the player R is a
max, solved by Howard policy iteration: with one outcome fixed per state
the recursion is linear on a functional graph (optimistic exits lead to
a sink), which path doubling solves in O(log(1/delta)) gathers.  Tables
over 10^7 entries (states times 2^n outcomes) are refused up front.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .game import _check_tol, check_stopping_rate
from .potentials import PotentialHandle
from .strategies import AdversaryStrategy, PlayerStrategy

# transition-table entries (states x 2^n vertex outcomes) a lattice may need
_MAX_TABLE_ENTRIES = 10**7
# (state, outcome) targets projected per batch when building the tables
_TABLE_BLOCK = 2**20


def _span(states: np.ndarray) -> np.ndarray:
    """max of coords and 0 minus min of coords and 0, along the last axis."""
    return (np.maximum(states.max(axis=-1), 0)
            - np.minimum(states.min(axis=-1), 0))


def check_lattice(n: int, radius: int) -> None:
    """Raise ValueError unless the (n, radius) lattice is valid and fits.

    The tables of a lattice hold (radius/2 + 1)^n - (radius/2)^n states
    times the 2^n vertex outcomes; more than _MAX_TABLE_ENTRIES is refused.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if radius < 2 or radius % 2:
        raise ValueError("radius must be a positive even integer")
    count = (radius // 2 + 1) ** n - (radius // 2) ** n
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
    span fits, so no row outside the domain is ever built; appending the
    even values in increasing order to sorted prefixes keeps them sorted.
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
    m_top = np.minimum(hi, 2 * ((excess // 2 + 1) // 2))
    m_bot = excess - m_top
    over = m_bot > -lo
    m_bot = np.where(over, -lo, m_bot)
    m_top = np.where(over, excess - m_bot, m_top)
    clipped = np.clip(d, (lo + m_bot)[..., None], (hi - m_top)[..., None])
    return clipped, np.maximum(m_top, m_bot)


@dataclass(frozen=True)
class LatticeValueFunction:
    """Certified brackets on the truncated lattice: each run's certifying
    Bellman sweep Tx from its solution x, widened by fixed_point_gap =
    ((1-delta)/delta)*residual, residual = max |Tx - x|, brackets the run's
    fixed point and so the untruncated value.  role names the fixed side;
    sweeps sums each run's iterations and its certifying sweep."""

    role: str
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
            i = int(np.searchsorted(self._keys, _lattice_key(x, self.radius)))
            if i < self._keys.size and np.array_equal(self.states[i], x):
                return i
        raise KeyError(f"state {tuple(x.tolist())} outside the truncated lattice")

    @cached_property
    def _keys(self) -> np.ndarray:
        return _lattice_key(self.states, self.radius)

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


def _full_rows(d: np.ndarray) -> np.ndarray:
    """Float rows of the full states: reduced states with x_n = 0 appended."""
    return np.hstack([d, np.zeros_like(d[:, :1])]).astype(float)


def _transition_tables(states: np.ndarray, shifts: np.ndarray, radius: int):
    """Index and projection-distance tables for d -> d + shift, shape (K, S).

    ``shifts`` is (K, n-1), shared by every state, or (S, K, n-1).  Since
    span(d + s) <= span(d) + span(s), only targets of edge states, where
    span(d) plus d's largest shift span passes the radius, can leave the
    domain.  Only they are projected, in blocks of about _TABLE_BLOCK
    entries; any other has distance 0 and key key(d) + key(s) - key(0).
    """
    (size, m), count = states.shape, shifts.shape[-2]
    edge = np.flatnonzero(_span(states) + _span(shifts).max(axis=-1) > radius)
    keys = _lattice_key(states, radius)
    offset = _lattice_key(shifts, radius) - _lattice_key(0 * states[0], radius)
    nxt = keys + np.broadcast_to(offset, (size, count)).T
    dist = np.zeros((count, size))
    shifts = np.broadcast_to(shifts, (size, count, m)).swapaxes(0, 1)
    step = max(1, _TABLE_BLOCK // count)
    for start in range(0, edge.size, step):
        rows = edge[start:start + step]
        proj, moved = project_state(states[rows] + shifts[:, rows], radius)
        nxt[:, rows] = _lattice_key(proj, radius)
        dist[:, rows] = moved
    return np.searchsorted(keys, nxt), dist


def _setup(n: int, delta: float, radius: int, tol: float):
    """Checked states of one run, and their float rows with x_n = 0."""
    check_stopping_rate(delta)
    _check_tol(tol)
    states = build_states(n, radius)
    return states, _full_rows(states)


def _bicgstab(step, b, x, limit):
    """Solve v = b + step v by unpreconditioned BiCGSTAB (van der Vorst 1992)
    from x to a sup-norm residual of 1e-15 |b| within ``limit`` iterations,
    then sweep Tx = b + step x: returns Tx, |Tx - x| and the iterations plus
    that sweep.  Inner products are numpy reduces, whose bits no BLAS thread
    count moves.  A second pass restarts from the true residual, which the
    recurrences' residual drifts from by ulps of |x| (as at n=2, r=400)."""
    target, iterations, x = 1e-15 * np.max(np.abs(b)), 0, x.copy()
    for _ in range(2):
        r = b - (x - step @ x)
        shadow, p, v = r.copy(), np.zeros_like(r), np.zeros_like(r)
        rho = alpha = omega = 1.0
        while max(r.max(), -r.min()) > target:  # a NaN ends it, uncertified
            if iterations == limit:
                raise ValueError(f"no BiCGSTAB solve in {limit} iterations")
            iterations += 1
            rho, last = np.add.reduce(shadow * r), rho
            p -= omega * v
            p *= (rho / last) * (alpha / omega)
            p += r
            v = p - step @ p
            alpha = rho / np.add.reduce(shadow * v)
            r -= alpha * v  # r holds s from here
            t = r - step @ r
            omega = np.add.reduce(t * r) / np.add.reduce(t * t)
            x += alpha * p + omega * r
            r -= omega * t
    tx = b + step @ x
    return tx, float(np.max(np.abs(tx - x))), iterations + 1


def _certified(role, states, delta, radius, tol, runs):
    """Certify the runs' (Tx, |Tx - x|, sweeps): see LatticeValueFunction."""
    (lower, res_lo, sweeps_lo), (upper, res_hi, sweeps_hi) = runs
    residual = max(res_lo, res_hi)
    gap = residual * (1.0 - delta) / delta
    if not gap <= tol:
        raise ValueError(f"rounding keeps the fixed-point gap at {gap:.2e}, "
                         f"above tol={tol:g}: tol is below the rounding floor")
    return LatticeValueFunction(role, states.shape[1] + 1, delta, radius,
                                states, lower - gap, upper + gap, residual,
                                gap, sweeps_lo + sweeps_hi)


def _policy_value(stop, gamma, gain, target, policy):
    """v = stop + gamma*(gain + v[target]) along ``policy``, plus a sink of
    value 0, by path doubling: after j doublings v sums 2^j steps of the
    policy's functional graph and succ jumps 2^j steps ahead."""
    cols = np.arange(stop.size)
    v = np.append(stop + gamma * gain[policy, cols], 0.0)
    succ = np.append(target[policy, cols], stop.size)
    while gamma > 1e-17:  # the rest, gamma * v[succ], is below rounding
        v += gamma * v[succ]
        succ = succ[succ]
        gamma *= gamma
    return v


def _policy_iteration(g, delta, gain, target, radius):
    """Howard policy iteration for v = delta*g + (1-delta)*max_k(gain[k] +
    v[target[k]]); targets may name the sink.  A state keeps its outcome
    unless another gains over 4 ulps of the largest |value|, so ties end
    the loop, and the sweep that leaves the policy unchanged certifies it:
    returns its result, its sup-norm update and the number of sweeps.  The
    most rounds measured, 7 at radius 2, 20 at 30, 35 at 60 and 161 at 300,
    are under half of 2*radius + 20, and more than that raise ValueError."""
    stop, cols, limit = delta * g, np.arange(g.size), 2 * radius + 20
    v, policy = np.append(g, 0.0), None
    for sweeps in range(1, limit + 1):
        q = v[target]
        q += gain
        top = q.max(axis=0)
        new = stop + (1.0 - delta) * top
        if policy is None:
            policy = q.argmax(axis=0)
        else:
            switch = top - q[policy, cols] > 4 * np.spacing(np.abs(top).max())
            if not switch.any():
                return new, float(np.max(np.abs(new - v[:-1]))), sweeps
            policy[switch] = q[:, switch].argmax(axis=0)
        v = _policy_value(stop, 1.0 - delta, gain, target, policy)
    raise ValueError(f"policy iteration still switches outcomes after "
                     f"{limit} rounds, its limit at radius {radius}")


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
    states, rows = _setup(n, delta, radius, tol)
    support, probs = adversary.outcomes_batch(rows)
    # shift_j = q_n - q_j for j < n, per state and outcome
    shifts = (support[:, :, -1:] - support[:, :, :-1]).astype(np.int64)
    means = (probs[None, :, None] * support).sum(axis=1)
    lin = means[:, :-1].min(axis=1) - means[:, -1]
    lin = np.minimum(lin, 0.0)  # the pinned expert itself is also available
    nxt, dist = _transition_tables(states, shifts, radius)

    # each run is v = b + step v, step = (1-delta)P, b = delta*g +
    # (1-delta)*(lin -+ P dist); BiCGSTAB took at most 18.5/sqrt(delta)
    # iterations in measurements at n = 2..4
    from scipy.sparse import csr_array  # here, not in every command's import
    size, gamma, g = states.shape[0], 1.0 - delta, rows.max(axis=1)
    step = csr_array((np.tile(gamma * probs, size), nxt.T.ravel(),
                      np.arange(0, nxt.size + 1, probs.size)), (size, size))
    stop = delta * g + gamma * lin
    charge = gamma * (probs[:, None] * dist).sum(axis=0)
    runs = [_bicgstab(step, b, g, int(np.ceil(60 / np.sqrt(delta))))
            for b in (stop - charge, stop + charge)]
    return _certified("adversary", states, delta, radius, tol, runs)


def value_iteration_player(player: PlayerStrategy, n: int, delta: float,
                           radius: int = 60, tol: float = 1e-8,
                           error_term: float = 0.0) -> LatticeValueFunction:
    """Best adversary response against a fixed player, vertex outcomes only.

    The adversary plays only the cube vertices {-1,+1}^n, so the result
    lower-bounds its unrestricted best response against this player; any
    valid upper potential for the player still dominates it.

    The optimistic run reads its exits from the player's potential plus
    ``error_term``; a player without a potential raises ValueError.
    """
    if (player.n, player.delta) != (n, delta):
        raise ValueError(f"player built for n={player.n}, delta={player.delta}, "
                         f"not n={n}, delta={delta}")
    if player.handle is None:
        raise ValueError(f"player {player.kind!r} has no potential to read "
                         "the optimistic run's exit values from")
    states, rows = _setup(n, delta, radius, tol)
    outcomes = np.array(list(itertools.product((-1, 1), repeat=n)),
                        dtype=np.int64)
    shifts = outcomes[:, -1:] - outcomes[:, :-1]
    weights = player.weights_batch(rows)
    # immediate term E[q_I] - q_n for each outcome/state
    lin = (weights * outcomes[:, None, :]).sum(axis=2) - outcomes[:, -1:]
    nxt, dist = _transition_tables(states, shifts, radius)

    # exits in state-major order: the batch order the potential sees can
    # move the last bits of its values
    si, ki = np.nonzero(dist.T > 0)
    exit_vals = player.handle.value_batch(
        _full_rows(states[si] + shifts[ki])) + error_term
    g = rows.max(axis=1)
    gain = np.subtract(lin, dist, out=dist)  # pessimistic, in place
    runs = [_policy_iteration(g, delta, gain, nxt, radius)]
    # optimistic exits lead to the sink and gain their exit values
    lin[ki, si] += exit_vals
    nxt[ki, si] = states.shape[0]
    runs.append(_policy_iteration(g, delta, lin, nxt, radius))
    return _certified("player", states, delta, radius, tol, runs)


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


def _report(kind, lvf, mask, margins, width, tol, handle=None,
            error_term=0.0, error_mode="user_supplied") -> SandwichReport:
    """Count the interior margins above tol into a SandwichReport."""
    _check_tol(tol)
    family, side = (handle.family, handle.side) if handle else ("none", "none")
    return SandwichReport(kind, family, side, lvf.n, lvf.delta,
                          int(mask.sum()), int(np.sum(margins > tol)),
                          float(margins.max()), error_term, error_mode,
                          float(width), tol)


def _check_role(lvf: LatticeValueFunction, role: str) -> None:
    if lvf.role != role:
        raise ValueError(f"expected the {role} lattice, got the {lvf.role} one")


def _interior_eval(lvf: LatticeValueFunction, handle: PotentialHandle, role):
    _check_role(lvf, role)
    if (handle.n, handle.delta) != (lvf.n, lvf.delta):
        raise ValueError(f"potential built for n={handle.n}, delta="
                         f"{handle.delta}, not n={lvf.n}, delta={lvf.delta}")
    mask = lvf.interior_mask()
    return mask, handle.value_batch(_full_rows(lvf.states[mask]))


def adversary_sandwich(lvf: LatticeValueFunction, handle: PotentialHandle,
                       error_term: float, error_mode: str = "user_supplied",
                       tol: float = 1e-8) -> SandwichReport:
    """Check potential - error <= certified lower lattice value on the interior."""
    mask, pot = _interior_eval(lvf, handle, "adversary")
    return _report("adversary_lower", lvf, mask,
                   pot - error_term - lvf.lower[mask], lvf.width()[mask].max(),
                   tol, handle, error_term, error_mode)


def player_sandwich(lvf: LatticeValueFunction, handle: PotentialHandle,
                    error_term: float, error_mode: str = "user_supplied",
                    tol: float = 1e-8) -> SandwichReport:
    """Check certified upper lattice value <= potential + error on the interior."""
    mask, pot = _interior_eval(lvf, handle, "player")
    return _report("player_upper", lvf, mask,
                   lvf.upper[mask] - (pot + error_term), lvf.width()[mask].max(),
                   tol, handle, error_term, error_mode)


def ordering_check(adv: LatticeValueFunction, ply: LatticeValueFunction,
                   tol: float = 1e-8) -> SandwichReport:
    """Check lower(adversary value) <= upper(player value) stateside."""
    _check_role(adv, "adversary")
    _check_role(ply, "player")
    game = (adv.n, adv.delta, adv.radius)
    if game != (ply.n, ply.delta, ply.radius):
        raise ValueError(f"lattices differ: (n, delta, radius) = {game} "
                         f"against {(ply.n, ply.delta, ply.radius)}")
    mask = adv.interior_mask()
    width = max(adv.width()[mask].max(), ply.width()[mask].max())
    return _report("ordering", adv, mask, adv.lower[mask] - ply.upper[mask],
                   width, tol)
