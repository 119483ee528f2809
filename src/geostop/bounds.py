"""Closed-form regret bounds and their Taylor-remainder error terms.

Each potential family certifies a bound on the value of the stopped game:
the potential at the origin plus or minus an error term controlled by a
third (or, for symmetric adversaries, fourth) derivative constant.  The
derivative constants have no closed form here, so by default they are
estimated numerically by scanning finite-difference directional
derivatives of the fixed-time potentials over a deterministic grid; the
mode field of every report records that provenance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .potentials import (fd_step, heat_potential_fixed, kappa_m, kappa_s,
                         max_potential_fixed)
from .specfun import (
    gaussian_max_expectation,
    laplace_inv1_bound,
    laplace_inv32_integral,
)
from .strategies import heat_adversary_support

__all__ = [
    "ErrorConstants", "BoundReport",
    "kappa_s", "kappa_m", "estimate_error_constants", "exp_weights_bound",
    "heat_bounds", "max_bounds", "all_bounds", "comparison_curves",
    "ratio_to_sqrt_2logN", "REPORT_FIELDS",
]


@dataclass(frozen=True)
class ErrorConstants:
    """Derivative-size constants entering the error terms.

    k3_* bound |t| |D^3 u(x,t)[q,q,q]| over the relevant states, times and
    directions; k4_heat_lower bounds |t|^{3/2} |D^4 u[q,q,q,q]| and enables
    the tighter error term available against sign-symmetric adversaries.
    """

    k3_heat_lower: float
    k4_heat_lower: float
    k3_heat_upper: float
    k3_max_lower: float
    k3_max_upper: float
    mode: str = "numerically_estimated"

    @classmethod
    def zero(cls) -> "ErrorConstants":
        """All-zero constants: report the bare potential values (no remainder)."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, mode="user_supplied")


# states and times of the estimation grid
_GRID_STATES = 20
_GRID_TIMES = 7

# central differences along a direction: offsets, coefficients, divisor
_CENTRAL_STENCILS = {
    3: (np.array([2.0, 1.0, -1.0, -2.0]),
        np.array([1.0, -2.0, 2.0, -1.0]), 2.0),
    4: (np.array([2.0, 1.0, 0.0, -1.0, -2.0]),
        np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 1.0),
}


def _estimation_grid(n: int, delta: float, seed: int):
    rng = np.random.default_rng(seed)
    radius = 10.0 / math.sqrt(delta)
    raw = rng.standard_normal((_GRID_STATES, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    xs = raw * (radius * rng.random((_GRID_STATES, 1)) ** (1.0 / n))
    xs[0] = 0.0
    xs[1] = np.linspace(0.0, 1e-3 * (n - 1), n)  # near-tie cluster
    ts = -np.exp(np.linspace(math.log(delta), math.log(10.0), _GRID_TIMES))
    return xs, ts


def _directional_scan(value_batch, xs, ts, qs, order: int) -> float:
    """max over the grid of |t|^p |D^order u(x,t)[q,..,q]|, p = 1 or 3/2."""
    mults, coeffs, denom = _CENTRAL_STENCILS[order]
    power = 1.0 if order == 3 else 1.5
    worst = 0.0
    for x in xs:
        h = fd_step(order, x)
        for q in qs:
            pts = x[None, :] + (h * mults)[:, None] * q[None, :]
            for t in ts:
                vals = value_batch(pts, float(t))
                d = abs(float(np.dot(coeffs, vals)) / (denom * h**order))
                worst = max(worst, abs(t) ** power * d)
    return worst


def _cube_directions(n: int, rng: np.random.Generator, extra: int = 12):
    verts = [v for v in np.ndindex(*(2,) * n)]
    qs = [2.0 * np.array(v, dtype=float) - 1.0 for v in verts]
    qs = [q for q in qs if q[0] > 0]  # quadratic/cubic forms are sign-paired
    qs += list(rng.uniform(-1.0, 1.0, size=(extra, n)))
    return qs


def estimate_error_constants(n: int, delta: float,
                             seed: int = 0) -> ErrorConstants:
    """Scan finite-difference derivative sizes over a deterministic grid.

    States are drawn in a ball of radius 10/sqrt(delta) around the origin
    (plus the origin and a near-tie point), times log-spaced in
    [-10, -delta], and directions taken from the relevant adversary
    supports for the lower families and from the sign cube for the upper
    families.
    """
    rng = np.random.default_rng(seed + 1)
    xs, ts = _estimation_grid(n, delta, seed)

    support = heat_adversary_support(n) if n <= 20 else None
    if support is not None:
        heat_qs = [q for q in support if tuple(q) >= tuple(-q)]
    else:
        heat_qs = list(np.sign(rng.standard_normal((8, n))))
    cube_qs = _cube_directions(n, rng)

    k_lo = kappa_s(n, delta)
    k_hi = (1.0 - delta) / delta

    def heat_lo(pts, t):
        return heat_potential_fixed(pts, t, k_lo)

    def heat_hi(pts, t):
        return heat_potential_fixed(pts, t, k_hi)

    def max_lo(pts, t):
        return max_potential_fixed(pts, t, 2.0 * k_hi)

    def max_hi(pts, t):
        return max_potential_fixed(pts, t, kappa_m(n, delta))

    leader_qs = []
    for x in xs:
        q = np.full(n, -1.0)
        q[int(np.argmax(x))] = 1.0
        leader_qs.append(q)
    leader_qs = {tuple(q) for q in leader_qs}
    leader_qs = [np.array(q) for q in leader_qs]

    return ErrorConstants(
        k3_heat_lower=_directional_scan(heat_lo, xs, ts, heat_qs, 3),
        k4_heat_lower=_directional_scan(heat_lo, xs, ts, heat_qs, 4),
        k3_heat_upper=_directional_scan(heat_hi, xs, ts, cube_qs, 3),
        k3_max_lower=_directional_scan(max_lo, xs, ts, leader_qs, 3),
        k3_max_upper=_directional_scan(max_hi, xs, ts, cube_qs, 3),
    )


REPORT_FIELDS = ("family", "side", "n", "delta", "potential0", "error",
                 "bound", "c_n", "error_mode")


@dataclass(frozen=True)
class BoundReport:
    """One certified bound: value-at-origin, error term, and the combination.

    bound is potential_at_zero - error_term for lower bounds and
    potential_at_zero + error_term for upper bounds; c_n is the bound in
    sqrt(1/delta) units, bound * sqrt(delta).
    """

    family: str
    side: str
    n: int
    delta: float
    potential_at_zero: float
    error_term: float
    bound: float
    c_n: float
    error_mode: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BoundReport":
        return cls(**d)

    def csv_row(self) -> list:
        return [self.family, self.side, self.n, repr(self.delta),
                repr(self.potential_at_zero), repr(self.error_term),
                repr(self.bound), repr(self.c_n), self.error_mode]


def _report(family: str, side: str, n: int, delta: float, pot0: float,
            err: float, mode: str) -> BoundReport:
    pot0, err = float(pot0), float(err)
    bound = pot0 - err if side == "lower" else pot0 + err
    return BoundReport(family, side, n, delta, pot0, err, bound,
                       bound * math.sqrt(delta), mode)


def _third_order_error(delta: float, k3: float) -> float:
    return (1.0 - delta) / (6.0 * delta) * k3 * laplace_inv1_bound(delta)


def _fourth_order_error(delta: float, k4: float) -> float:
    return (1.0 - delta) / (24.0 * delta) * k4 * laplace_inv32_integral(delta)


def exp_weights_bound(n: int, delta: float) -> BoundReport:
    """Exact upper bound sqrt(2 (1-delta) log n / delta); no error term."""
    pot0 = math.sqrt(2.0 * (1.0 - delta) * math.log(n) / delta)
    return _report("exp_weights", "upper", int(n), float(delta), pot0, 0.0,
                   "exact")


def heat_bounds(n: int, delta: float,
                errors: ErrorConstants) -> tuple[BoundReport, BoundReport]:
    """Lower and upper reports for the Gaussian-smoothing family.

    Lower: sqrt(2 kappa_s) E[max Y] e^d (sqrt(pi)/2) erfc(sqrt d) minus the
    smaller of the third-order error and the symmetric fourth-order error.
    Upper: sqrt(2 (1-d)/d) E[max Y] (e^d (sqrt(pi)/2) erfc(sqrt d)
    + 2 sqrt(d)) plus the third-order error.
    """
    d = float(delta)
    rd = math.sqrt(d)
    emax = gaussian_max_expectation(n)
    half_pi_term = math.exp(d) * 0.5 * math.sqrt(math.pi) * special.erfc(rd)
    lo_pot = math.sqrt(2.0 * kappa_s(n, d)) * emax * half_pi_term
    lo_err = min(_third_order_error(d, errors.k3_heat_lower),
                 _fourth_order_error(d, errors.k4_heat_lower))
    hi_pot = math.sqrt(2.0 * (1.0 - d) / d) * emax * (half_pi_term + 2.0 * rd)
    hi_err = _third_order_error(d, errors.k3_heat_upper)
    return (_report("heat", "lower", int(n), d, lo_pot, lo_err, errors.mode),
            _report("heat", "upper", int(n), d, hi_pot, hi_err, errors.mode))


def max_bounds(n: int, delta: float,
               errors: ErrorConstants) -> tuple[BoundReport, BoundReport]:
    """Lower and upper reports for the ranked-potential family.

    Lower: (n-1)/n sqrt(2(1-d)/d) e^d erfc(sqrt d) minus the third-order
    error.  Upper: (n-1)/n sqrt(kappa_m) (e^d erfc(sqrt d)
    + (4/sqrt pi) sqrt d) plus the third-order error.
    """
    d = float(delta)
    rd = math.sqrt(d)
    frac = (n - 1) / n
    erfc_term = math.exp(d) * special.erfc(rd)
    lo_pot = frac * math.sqrt(2.0 * (1.0 - d) / d) * erfc_term
    lo_err = _third_order_error(d, errors.k3_max_lower)
    hi_pot = frac * math.sqrt(kappa_m(n, d)) * (
        erfc_term + 4.0 / math.sqrt(math.pi) * rd)
    hi_err = _third_order_error(d, errors.k3_max_upper)
    return (_report("max", "lower", int(n), d, lo_pot, lo_err, errors.mode),
            _report("max", "upper", int(n), d, hi_pot, hi_err, errors.mode))


def all_bounds(n: int, delta: float,
               errors: ErrorConstants | None = None) -> list[BoundReport]:
    """Reports for every family and side at one (n, delta)."""
    if errors is None:
        errors = estimate_error_constants(n, delta)
    heat_lo, heat_hi = heat_bounds(n, delta, errors)
    max_lo, max_hi = max_bounds(n, delta, errors)
    return [heat_lo, heat_hi, max_lo, max_hi, exp_weights_bound(n, delta)]


def comparison_curves(n: int, delta: float) -> dict[str, float]:
    """Reference values against which the potential bounds are plotted.

    gravin_lower_asymptote: sqrt(log n / (2 delta)), the exp-weights
    small-delta guarantee; gravin_upper: sqrt(2 log n / delta).
    """
    logn = math.log(n)
    return {
        "gravin_lower_asymptote": math.sqrt(logn / (2.0 * delta)),
        "gravin_upper": math.sqrt(2.0 * logn / delta),
    }


def ratio_to_sqrt_2logN(n: int, delta: float,
                        errors: ErrorConstants | None = None) -> float:
    """Heat lower bound at the origin divided by sqrt(2 log n / delta).

    With zero error constants this is increasing in n and approaches
    sqrt(pi)/2 ~ 0.886 as n grows and delta -> 0.
    """
    if errors is None:
        errors = ErrorConstants.zero()
    lo, _ = heat_bounds(n, delta, errors)
    return lo.bound * math.sqrt(delta) / math.sqrt(2.0 * math.log(n))
