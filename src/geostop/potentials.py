"""Potential functions that certify regret bounds for the stopped game.

Three families are implemented.

* exp_weights: the softmax potential Phi(x) = log(sum e^(eta x_k)) / eta
  plus the constant (1-delta) eta / (2 delta).
* heat: the Gaussian smoothing phi(x, t) = E[max_k (x_k - sigma Y_k)] with
  sigma^2 = 2 kappa |t| and Y standard normal, which solves
  phi_t + kappa Laplacian(phi) = 0 for t < 0.
* max: a closed-form function of the ranked coordinates that solves the
  degenerate equation psi_t + kappa max_i psi_{x_i x_i} = 0 for t < 0.

A fixed-time solution u(x, t) is turned into a potential for the
geometrically stopped game by the exponentially weighted time integral

    u_hat(x) = e^delta int_{-inf}^{-delta} e^t u(x, t) dt

followed by subtracting (lower side) or adding (upper side) a constant
that accounts for the value of u at the final time -delta.  A
PotentialHandle is the one way to evaluate these potentials and their
gradients: value/gradient take a single state of shape (n,), and
value_batch/gradient_batch a batch of states in rows of shape (b, n).
heat_potential_fixed and max_potential_fixed evaluate the fixed-time
solutions, in either shape, for the derivative-constant scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .game import check_stopping_rate, clip_simplex
from .specfun import (
    composite_gauss_legendre,
    exp_time_nodes,
    gaussian_max_expectation,
)

_SQRT2 = math.sqrt(2.0)
_SQRT_2_PI = math.sqrt(2.0 / math.pi)

# Fixed composite Gauss-Legendre rule for the Gaussian value integral.  In
# the scaled variable the integrand lives on about [-9, 9] with unit
# smoothness scale, so this resolves it to well below 1e-10.
_U_NODES, _U_WEIGHTS = composite_gauss_legendre(
    np.array([-12.0, -8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0, 12.0]), 16
)

# Strategy weights tolerate a shorter rule than values do: the integrand
# has the same unit smoothness scale, and the rule's error on a weight,
# measured at 1.3e-8 against mpmath references, is far below every
# consumer tolerance.  The weight path dominates Monte Carlo and lattice
# runs (profiled), so the gradient uses this rule and a reduced time order.
_YG_NODES, _YG_WEIGHTS = composite_gauss_legendre(
    np.array([-8.5, -5.0, -2.0, 0.0, 2.0, 5.0, 8.5]), 8
)
_YG_PDF_W = np.exp(-0.5 * _YG_NODES**2) / math.sqrt(2.0 * math.pi) * _YG_WEIGHTS
_LOG_NDTR_YG = special.log_ndtr(_YG_NODES)
_GRAD_TIME_ORDER = 6

# Kernels run on blocks of rows sized so that the temporaries _ROW_DOUBLES
# counts hold at most this many doubles (~128 MB).
_CHUNK_BUDGET = 16_000_000
# (t, n) arrays counted per row of a max kernel: five or six are alive at
# its peak (tracemalloc), and counting eight keeps blocks below the budget
_MAX_LIVE = 8


# ---------------------------------------------------------------------------
# diffusion factors and shift constants


def kappa_s(n: int, delta: float) -> float:
    """Diffusion factor of the heat lower-bound potential.

    (1-d)/d for n = 2, (1-d)/d * (1/2 + 1/(2n)) for odd n, and
    (1-d)/d * (1/2 + 1/(2n-2)) for even n > 2.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    ratio = (1.0 - check_stopping_rate(delta, allow_one=False)) / delta
    if n == 2:
        return ratio
    if n % 2 == 1:
        return ratio * (0.5 + 0.5 / n)
    return ratio * (0.5 + 0.5 / (n - 1))


def kappa_m(n: int, delta: float) -> float:
    """Diffusion factor of the max-family upper-bound potential.

    (1-d)/d * n^2 / (2(n-1)) for even n and (1-d)/d * (n+1)/2 for odd n.
    Always at least 2(1-d)/d.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    ratio = (1.0 - check_stopping_rate(delta, allow_one=False)) / delta
    if n % 2 == 0:
        return ratio * n * n / (2.0 * (n - 1))
    return ratio * (n + 1) / 2.0


def heat_shift_constant(n: int, delta: float, kappa: float) -> float:
    """sqrt(2 kappa delta) E[max of n standard normals]; bounds |phi(x,-d) - max x|."""
    return math.sqrt(2.0 * kappa * delta) * gaussian_max_expectation(n)


def max_shift_constant(n: int, delta: float, kappa: float) -> float:
    """2 sqrt(kappa delta / pi) (n-1)/n; bounds psi(x,-d) - max x from above."""
    return 2.0 * math.sqrt(kappa * delta / math.pi) * (n - 1) / n


def default_eta(n: int, delta: float) -> float:
    """Learning rate sqrt(2 delta log n / (1 - delta)) for the softmax potential."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n == 1:
        # Any positive rate works; the potential degenerates to x + const.
        return math.sqrt(2.0 * delta / (1.0 - delta))
    return math.sqrt(2.0 * delta * math.log(n) / (1.0 - delta))


# ---------------------------------------------------------------------------
# handles


@dataclass(frozen=True)
class PotentialHandle:
    """Bound family plus the parameters needed to evaluate it.

    side selects whether the final-time shift constant is subtracted
    (lower bound on the game value) or added (upper bound).
    """

    family: str
    n: int
    delta: float
    side: str
    kappa: float | None = None
    eta: float | None = None
    shift_constant: float = 0.0

    def __post_init__(self):
        if self.family not in ("exp_weights", "heat", "max"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {self.side!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.family == "exp_weights":
            if self.eta is None or self.eta <= 0:
                raise ValueError("exp_weights needs a positive eta")
            if self.n < 1:
                raise ValueError("n must be at least 1")
        else:
            if self.kappa is None or self.kappa <= 0:
                raise ValueError(f"{self.family} needs a positive kappa")
            if self.n < 2:
                raise ValueError("n must be at least 2")
        if self.shift_constant < 0:
            raise ValueError("shift constant must be nonnegative")

    def value(self, x) -> float:
        return float(self.value_batch(np.asarray(x, dtype=float)[None, :])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradient_batch(np.asarray(x, dtype=float)[None, :])[0]

    def value_batch(self, X) -> np.ndarray:
        """Potential values at the rows of X, shape (b,)."""
        if self.family == "exp_weights":
            X = np.asarray(X, dtype=float)
            vals = special.logsumexp(self.eta * X, axis=-1) / self.eta
            return vals + (1.0 - self.delta) * self.eta / (2.0 * self.delta)
        X, _ = _as_batch(X)
        kernel = _heat_value_batch if self.family == "heat" else _max_value_batch
        return _geometric_value(X, self, kernel)

    def gradient_batch(self, X) -> np.ndarray:
        """Probability weights, the gradient at the rows of X, shape (b, n)."""
        if self.family == "exp_weights":
            X = np.asarray(X, dtype=float)
            return special.softmax(self.eta * X, axis=-1)
        X, _ = _as_batch(X)
        kernel = _heat_grad_batch if self.family == "heat" else _max_grad_batch
        return _geometric_gradient(X, self, kernel)


def exp_handle(n: int, delta: float) -> PotentialHandle:
    """Softmax upper-bound potential at the default rate."""
    return PotentialHandle("exp_weights", int(n), float(delta), "upper",
                           eta=default_eta(n, delta))


def heat_lower_handle(n: int, delta: float) -> PotentialHandle:
    kappa = kappa_s(n, delta)
    return PotentialHandle("heat", int(n), float(delta), "lower", kappa=kappa,
                           shift_constant=heat_shift_constant(n, delta, kappa))


def heat_upper_handle(n: int, delta: float) -> PotentialHandle:
    kappa = (1.0 - check_stopping_rate(delta, allow_one=False)) / delta
    return PotentialHandle("heat", int(n), float(delta), "upper", kappa=kappa,
                           shift_constant=heat_shift_constant(n, delta, kappa))


def max_lower_handle(n: int, delta: float) -> PotentialHandle:
    kappa = 2.0 * (1.0 - check_stopping_rate(delta, allow_one=False)) / delta
    return PotentialHandle("max", int(n), float(delta), "lower", kappa=kappa,
                           shift_constant=max_shift_constant(n, delta, kappa))


def max_upper_handle(n: int, delta: float) -> PotentialHandle:
    kappa = kappa_m(n, delta)
    return PotentialHandle("max", int(n), float(delta), "upper", kappa=kappa,
                           shift_constant=max_shift_constant(n, delta, kappa))


# ---------------------------------------------------------------------------
# batched fixed-time evaluators


def _as_batch(x):
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("states must have shape (n,) or (b, n) with n >= 2")
    return X, single


def _heat_value_batch(X: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """E[max_k (x_k - sigma Y_k)] for every row of X and every sigma.

    Returns shape (b, t).  Uses the tail identity for the expectation of a
    maximum, integrating in units of sigma so one fixed rule serves all
    scales.
    """
    m = X.max(axis=1)
    z = (X - m[:, None])[:, None, :] / sigmas[None, :, None]
    args = _U_NODES[None, None, :, None] - z[:, :, None, :]
    cdf = special.ndtr(args).prod(axis=-1)
    g = np.where(_U_NODES[None, None, :] > 0.0, 1.0 - cdf, -cdf)
    return m[:, None] + sigmas[None, :] * (g * _U_WEIGHTS).sum(-1)


def _heat_grad_batch(X: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Gradient of the smoothed max: entry i is P-like weight of coordinate i.

    Returns shape (b, t, n).  Entry i equals the Gaussian integral of
    prod_{j != i} Phi(y + (x_i - x_j)/sigma) against the standard normal
    density, so entries are nonnegative and sum to one.
    """
    diffs = X[:, :, None] - X[:, None, :]
    z = diffs[:, None, :, :] / sigmas[None, :, None, None]
    args = _YG_NODES[None, None, :, None, None] + z[:, :, None, :, :]
    logcdf = special.log_ndtr(args)
    s = logcdf.sum(axis=-1) - _LOG_NDTR_YG[None, None, :, None]
    return (np.exp(s) * _YG_PDF_W[None, None, :, None]).sum(axis=2)


def _ranked(X: np.ndarray):
    """Descending stable sort plus the nonnegative ranked gap statistics.

    Returns (order, gaps) where gaps[b, l-1] = sum of the l largest entries
    minus l times the (l+1)-th largest, for l = 1..n-1.
    """
    order = np.argsort(-X, axis=-1, kind="stable")
    xs = np.take_along_axis(X, order, axis=-1)
    csum = np.cumsum(xs, axis=-1)
    ell = np.arange(1, X.shape[-1])
    gaps = csum[..., :-1] - ell * xs[..., 1:]
    return order, gaps


def _rank_coeffs(n: int) -> np.ndarray:
    ell = np.arange(1, n)
    return 1.0 / (ell * (ell + 1.0))


def _max_value_batch(X: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Closed-form ranked potential for every row of X and every sigma; (b, t)."""
    _, gaps = _ranked(X)
    coeff = _rank_coeffs(X.shape[1])
    z = gaps[:, None, :] / sigmas[None, :, None]
    sig_f = (_SQRT_2_PI * sigmas[None, :, None] * np.exp(-0.5 * z * z)
             + gaps[:, None, :] * special.erf(z / _SQRT2))
    return X.mean(axis=1)[:, None] + (coeff * sig_f).sum(axis=-1)


def _max_grad_batch(X: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Gradient of the ranked potential, unsorted back to input order; (b, t, n).

    In ranked position k (1-based) the derivative is
    1/n + sum_{l >= k} erf(z_l / sqrt 2)/(l(l+1)) - erf(z_{k-1}/sqrt 2)/k,
    the last term only for k >= 2.  Entries are nonnegative and sum to one.
    """
    b, n = X.shape
    t = len(sigmas)
    order, gaps = _ranked(X)
    coeff = _rank_coeffs(n)
    z = gaps[:, None, :] / sigmas[None, :, None]
    e = special.erf(z / _SQRT2)
    tail = np.cumsum((coeff * e)[..., ::-1], axis=-1)[..., ::-1]
    g = np.full((b, t, n), 1.0 / n)
    g[..., :-1] += tail
    g[..., 1:] -= e / np.arange(2, n + 1)
    inv = np.argsort(order, axis=-1)
    return np.take_along_axis(g, inv[:, None, :], axis=-1)


# doubles one row keeps live per sigma, given n: the heat kernels' largest
# tensor, the max kernels' (t, n) temporaries
_ROW_DOUBLES = {
    _heat_value_batch: lambda n: _U_NODES.size * n,
    _heat_grad_batch: lambda n: _YG_NODES.size * n * n,
    _max_value_batch: lambda n: _MAX_LIVE * n,
    _max_grad_batch: lambda n: _MAX_LIVE * n,
}


def _time_sum(kernel, X, sigmas, w):
    """sum_i w[i] * kernel(X, sigmas)[:, i], evaluated in blocks of rows.

    ``w`` holds one weight per sigma, shaped to broadcast against a row of
    the kernel's output.  A block holds at most _CHUNK_BUDGET doubles as
    _ROW_DOUBLES counts them.  Rows are computed independently, so the
    blocking changes no bit of the result.
    """
    per_row = sigmas.size * _ROW_DOUBLES[kernel](X.shape[1])
    step = max(1, _CHUNK_BUDGET // per_row)
    if X.shape[0] <= step:
        return (kernel(X, sigmas) * w).sum(axis=1)
    return np.concatenate([(kernel(X[lo:lo + step], sigmas) * w).sum(axis=1)
                           for lo in range(0, X.shape[0], step)])


# ---------------------------------------------------------------------------
# fixed-time interface


def _check_fixed_args(t: float, kappa: float) -> float:
    if not t < 0:
        raise ValueError("t must be negative")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    return math.sqrt(2.0 * kappa * (-t))


def heat_potential_fixed(x, t: float, kappa: float):
    """Smoothed-max solution of u_t + kappa Laplacian(u) = 0 at time t < 0."""
    sigma = _check_fixed_args(t, kappa)
    X, single = _as_batch(x)
    vals = _time_sum(_heat_value_batch, X, np.array([sigma]), np.ones(1))
    return float(vals[0]) if single else vals


def max_potential_fixed(x, t: float, kappa: float):
    """Ranked closed-form solution of u_t + kappa max_i u_{x_i x_i} = 0 at t < 0."""
    sigma = _check_fixed_args(t, kappa)
    X, single = _as_batch(x)
    vals = _time_sum(_max_value_batch, X, np.array([sigma]), np.ones(1))
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# geometric-horizon interface


def _geometric_value(X, handle, kernel):
    t, w = exp_time_nodes(handle.delta)
    sigmas = np.sqrt(2.0 * handle.kappa * (-t))
    vals = _time_sum(kernel, X, sigmas, w)
    if handle.side == "lower":
        return vals - handle.shift_constant
    return vals + handle.shift_constant


def _geometric_gradient(X, handle, kernel):
    t, w = exp_time_nodes(handle.delta, order=_GRAD_TIME_ORDER)
    sigmas = np.sqrt(2.0 * handle.kappa * (-t))
    return clip_simplex(_time_sum(kernel, X, sigmas, w[:, None]))


# ---------------------------------------------------------------------------
# finite differences


_FD_STEP = {1: 1e-5, 2: 2e-4, 3: 2e-3, 4: 6e-3}


def fd_step(order: int, x) -> float:
    """Round-off-aware step for central differences of smooth potentials."""
    scale = max(1.0, float(np.max(np.abs(x))))
    return _FD_STEP[order] * scale


def _stencil_eval(value_batch, X, offsets, steps):
    """Evaluate value_batch at X[b] + steps[b] * offsets[s]; returns (b, s)."""
    b = X.shape[0]
    pts = X[:, None, :] + steps[:, None, None] * offsets[None, :, :]
    vals = value_batch(pts.reshape(b * offsets.shape[0], X.shape[1]))
    return np.asarray(vals).reshape(b, offsets.shape[0])


def fd_gradient_batch(value_batch, X) -> np.ndarray:
    """Central-difference gradient of a batch evaluator at each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[1]
    steps = np.array([fd_step(1, row) for row in X])
    eye = np.eye(n)
    offsets = np.concatenate([eye, -eye], axis=0)
    vals = _stencil_eval(value_batch, X, offsets, steps)
    return (vals[:, :n] - vals[:, n:]) / (2.0 * steps[:, None])


def fd_hessian_batch(value_batch, X) -> np.ndarray:
    """Central-difference Hessians, shape (b, n, n), one batched evaluation."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    b, n = X.shape
    steps = np.array([fd_step(2, row) for row in X])
    eye = np.eye(n)
    offs = [np.zeros((1, n)), eye, -eye]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        offs.append((eye[i] + eye[j])[None, :])
        offs.append((eye[i] - eye[j])[None, :])
        offs.append((-eye[i] + eye[j])[None, :])
        offs.append((-eye[i] - eye[j])[None, :])
    offsets = np.concatenate(offs, axis=0)
    vals = _stencil_eval(value_batch, X, offsets, steps)
    h2 = steps**2
    hess = np.empty((b, n, n))
    center = vals[:, 0]
    for i in range(n):
        hess[:, i, i] = (vals[:, 1 + i] - 2.0 * center + vals[:, 1 + n + i]) / h2
    base = 1 + 2 * n
    for k, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = (vals[:, base + 4 * k + r] for r in range(4))
        hess[:, i, j] = hess[:, j, i] = (pp - pm - mp + mm) / (4.0 * h2)
    return hess

