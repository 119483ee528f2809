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
fixed_value_batch evaluates the heat or max fixed-time solution at the
handle's own kappa, for the derivative-constant scans and the final-time
check.

A heat value multiplies CDF terms Phi(u - (x_k - max x)/sigma) that depend
on a state only through its differences from its maximum.  Each call
evaluates one column over the (sigma, u) nodes per distinct difference and
multiplies a row's columns in coordinate order; the finite-difference and
scan stencils of verify and bounds share most of their differences within
a call, and every value keeps its bits.

A heat weight multiplies log-CDF terms log Phi(y + (x_i - x_j)/sigma) that
depend on a state only through its pairwise differences, and the states a
game visits share few of them.  Each heat handle therefore keeps a memo of
these terms, one row over the (y, sigma) nodes per difference, filled as
gradient_batch meets new whole-number differences (those of the lattice
states that simulate and oracle pass) and bounded by _CHUNK_BUDGET
doubles; a call with any other difference computes its rows for itself.
The memo lives and dies with its handle.  The rows are computed with the
same arithmetic as the entries of the direct formula, and a weight adds
its n rows whole, in the order numpy sums a last axis of length n, so no
reduction runs over a short inner axis and every weight keeps its bits.

A max value or weight depends on a state only through its ranked gaps, and
the lattice states of oracle share few gap tuples (816 among the 14,911
states at n=4, radius 30).  Each call therefore evaluates the ranked
formula once per distinct gap tuple, found by a lexsort of their bits,
and gathers the results by row: a value before the row's mean is added, a
weight after its time sum and before it is unsorted to input order.  At a
single sigma (fixed_value_batch) the sort would cost more than it saves,
and every row is evaluated for itself.  Every value and weight keeps its
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

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
    # a heat handle's log-CDF rows, one per whole-number pairwise
    # difference met
    _log_cdf: _LogCdfRows | None = field(init=False, repr=False,
                                         compare=False)

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
        memo = _LogCdfRows() if self.family == "heat" else None
        object.__setattr__(self, "_log_cdf", memo)

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
        kernel = _heat_value_batch if self.family == "heat" else _max_value_batch
        return _geometric_value(_as_batch(X), self, kernel)

    def gradient_batch(self, X) -> np.ndarray:
        """Probability weights, the gradient at the rows of X, shape (b, n)."""
        if self.family == "exp_weights":
            X = np.asarray(X, dtype=float)
            return special.softmax(self.eta * X, axis=-1)
        if self.family == "heat":
            return _geometric_gradient(_as_batch(X), self, _heat_grad_batch,
                                       self._log_cdf)
        return _geometric_gradient(_as_batch(X), self, _max_grad_batch)

    def fixed_value_batch(self, X, t: float) -> np.ndarray:
        """Fixed-time solution u(x, t) at the handle's kappa and a time t < 0,
        at the rows of X, shape (b,); the exp family has none."""
        if self.family == "exp_weights":
            raise ValueError("exp_weights has no fixed-time solution")
        if not t < 0:
            raise ValueError("t must be negative")
        kernel = _heat_value_batch if self.family == "heat" else _max_value_batch
        sigma = np.array([math.sqrt(2.0 * self.kappa * (-t))])
        return _time_sum(kernel, _as_batch(X), sigma, np.ones(1))


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
# batched fixed-time kernels


def _as_batch(x):
    X = np.asarray(x, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("states must have shape (b, n) with n >= 2")
    return X


def _heat_value_batch(X: np.ndarray, sigmas: np.ndarray,
                      w: np.ndarray) -> np.ndarray:
    """E[max_k (x_k - sigma Y_k)] for every row of X, summed over the sigmas
    with weights w.

    Returns shape (b,).  Uses the tail identity for the expectation of a
    maximum, integrating in units of sigma so one fixed rule serves all
    scales.  The CDF of coordinate k depends on the row only through
    x_k - max x, so its column over the (sigma, u) nodes is evaluated once
    per distinct difference in the call; each row's product takes its
    columns in coordinate order, the order of a product over a last axis.
    """
    b, n = X.shape
    m = X.max(axis=1)
    diffs, inv = np.unique(X - m[:, None], return_inverse=True)
    inv = inv.reshape(b, n)
    z = diffs[:, None] / sigmas[None, :]
    cols = _U_NODES[None, None, :] - z[:, :, None]
    special.ndtr(cols, out=cols)
    cdf = np.take(cols, inv[:, 0], axis=0)
    term = np.empty_like(cdf)
    for k in range(1, n):
        np.take(cols, inv[:, k], axis=0, out=term, mode="clip")
        cdf *= term
    # g = 1 - cdf on the positive nodes and -cdf on the others, in place
    upper = _U_NODES > 0.0
    np.subtract(1.0, cdf, out=cdf, where=upper)
    np.negative(cdf, out=cdf, where=~upper)
    cdf *= _U_WEIGHTS
    return ((m[:, None] + sigmas[None, :] * cdf.sum(-1)) * w).sum(axis=1)


def _heat_grad_batch(X: np.ndarray, sigmas: np.ndarray, w: np.ndarray,
                     memo: _LogCdfRows | None = None) -> np.ndarray:
    """Gradient of the smoothed max: entry i is P-like weight of coordinate i.

    Returns the sum over the sigmas with weights w, shape (b, n).  Entry i
    equals the Gaussian integral of prod_{j != i} Phi(y + (x_i - x_j)/sigma)
    against the standard normal density, so entries are nonnegative and sum
    to one.  The log-CDF depends on x_i - x_j only, so it is evaluated once
    per distinct difference (once per handle given its memo and
    whole-number differences), as one (y, t) row per difference.  For each
    i the n rows of its terms are gathered one at a time and added as whole
    rows in the order numpy sums a last axis of length n; the sums over y
    and then t follow as whole (b, y, t) and (b, t, n) reductions over a
    middle axis, left to right.
    """
    b, n = X.shape
    if b == 0:  # np.take cannot gather into out from an empty table
        return np.zeros((0, n))
    diffs, inv = np.unique(X[:, :, None] - X[:, None, :], return_inverse=True)
    # only whole-number differences, those of lattice states, recur across
    # calls; a call with any other difference computes all its rows
    if memo is None or not np.array_equal(diffs, np.floor(diffs)):
        rows, slots = _log_cdf_rows(diffs, sigmas), inv.reshape(b, n * n)
    else:
        rows, slots = memo.lookup(diffs, sigmas)
        slots = slots[inv.reshape(b, n * n)]
    # the row of term k = i * n + j for every state, contiguous
    term_rows = slots.T.copy()

    def fetch(k, out):
        np.take(rows, term_rows[k], axis=0, out=out, mode="clip")

    per_t = np.empty((b, sigmas.size, n))
    acc = np.empty((b, rows.shape[1]))
    for i in range(n):
        s = _sum_like_numpy(fetch, i * n, n, acc).reshape(b, _YG_NODES.size, -1)
        s -= _LOG_NDTR_YG[:, None]
        np.exp(s, out=s)
        s *= _YG_PDF_W[:, None]
        per_t[:, :, i] = s.sum(axis=1)
    return (per_t * w[:, None]).sum(axis=1)


def _sum_like_numpy(fetch, lo: int, n: int, out: np.ndarray) -> np.ndarray:
    """The terms lo, ..., lo + n - 1 added into out in the order in which
    numpy sums a contiguous last axis of length n, so with the bits of that
    sum (a sum of -0.0 terms alone may give -0.0 where numpy gives +0.0).

    fetch(k, buf) writes term k to buf.  Below 8 terms numpy adds left to
    right; up to 128 in eight lanes that it then adds pairwise, followed by
    the remainder left to right; above that it sums two halves, the first
    a multiple of eight long, and adds them.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        rest = _sum_like_numpy(fetch, lo + half, n - half, np.empty_like(out))
        _sum_like_numpy(fetch, lo, half, out)
        out += rest
        return out
    term = np.empty_like(out)
    fetch(lo, out)
    if n < 8:
        for k in range(lo + 1, lo + n):
            fetch(k, term)
            out += term
        return out
    lanes = [out] + [np.empty_like(out) for _ in range(7)]
    for k in range(1, 8):
        fetch(lo + k, lanes[k])
    stop = lo + n - n % 8
    for k in range(lo + 8, stop):
        fetch(k, term)
        lanes[(k - lo) % 8] += term
    for step in (1, 2, 4):
        for k in range(0, 8, 2 * step):
            lanes[k] += lanes[k + step]
    for k in range(stop, lo + n):
        fetch(k, term)
        out += term
    return out


def _log_cdf_rows(diffs: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """log_ndtr(y + d/sigma) over the (y, t) nodes, y-major, one row per d:
    shape (m, y * t), with the arithmetic of the direct formula's entries."""
    z = diffs[:, None] / sigmas[None, :]
    args = _YG_NODES[None, :, None] + z[:, None, :]
    return special.log_ndtr(args, out=args).reshape(diffs.size,
                                                    _YG_NODES.size * sigmas.size)


class _LogCdfRows:
    """A heat handle's log-CDF rows, keyed by pairwise difference.

    The rows belong to the handle's gradient sigmas and sit one above the
    other in one (capacity, y * t) table of at most _CHUNK_BUDGET doubles;
    past that, a call computes all its rows for itself.  The table grows by
    replacement.
    """

    def __init__(self):
        self._index = {}  # difference -> row of the table
        self._table = np.zeros((0, 0))

    def lookup(self, diffs: np.ndarray, sigmas: np.ndarray):
        """A table and the row that holds each of the distinct diffs."""
        slots = np.fromiter(map(self._index.get, diffs.tolist(), repeat(-1)),
                            dtype=np.int64, count=diffs.size)
        miss = slots < 0
        if not miss.any():
            return self._table, slots
        width = sigmas.size * _YG_NODES.size
        first = len(self._index)
        stop = first + int(miss.sum())
        if stop * width > _CHUNK_BUDGET:
            # the memo is full: this call computes its own rows
            return _log_cdf_rows(diffs, sigmas), np.arange(diffs.size)
        if stop > self._table.shape[0]:
            size = min(max(stop, 2 * self._table.shape[0]),
                       _CHUNK_BUDGET // width)
            table = np.empty((size, width))
            if first:
                table[:first] = self._table[:first]
            self._table = table
        self._table[first:stop] = _log_cdf_rows(diffs[miss], sigmas)
        slots[miss] = np.arange(first, stop)
        self._index.update(zip(diffs[miss].tolist(), range(first, stop)))
        return self._table, slots


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


def _distinct_gaps(gaps: np.ndarray, sigmas: np.ndarray):
    """Distinct rows of gaps, bit for bit, and the index of each row's.

    A lexsort of the rows' bits and a compare of neighbours find them.  At
    a single sigma the sort costs more than the evaluations it saves, so
    there, as with fewer than two rows, every row stands for itself.
    """
    b = gaps.shape[0]
    if sigmas.size == 1 or b < 2:
        return gaps, np.arange(b)
    bits = gaps.view(np.int64)
    order = np.lexsort(bits.T)
    runs = bits[order]
    first = np.empty(b, dtype=bool)
    first[0] = True
    np.any(runs[1:] != runs[:-1], axis=1, out=first[1:])
    inverse = np.empty(b, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return gaps[order[first]], inverse


def _max_value_batch(X: np.ndarray, sigmas: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Closed-form ranked potential for every row of X, summed over the
    sigmas with weights w; (b,).

    The ranked sum depends on a row only through its gaps, so it is
    evaluated once per distinct gap tuple and gathered before the mean of
    the row is added.
    """
    _, gaps = _ranked(X)
    gaps, inv = _distinct_gaps(gaps, sigmas)
    coeff = _rank_coeffs(X.shape[1])
    z = gaps[:, None, :] / sigmas[None, :, None]
    sig_f = (_SQRT_2_PI * sigmas[None, :, None] * np.exp(-0.5 * z * z)
             + gaps[:, None, :] * special.erf(z / _SQRT2))
    vals = X.mean(axis=1)[:, None] + (coeff * sig_f).sum(axis=-1)[inv]
    return (vals * w).sum(axis=1)


def _max_grad_batch(X: np.ndarray, sigmas: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """Gradient of the ranked potential summed over the sigmas with weights
    w, unsorted back to input order; (b, n).

    In ranked position k (1-based) the derivative is
    1/n + sum_{l >= k} erf(z_l / sqrt 2)/(l(l+1)) - erf(z_{k-1}/sqrt 2)/k,
    the last term only for k >= 2.  Entries are nonnegative and sum to one.
    The ranked weights depend on a row only through its gaps, so they are
    evaluated and summed over time once per distinct gap tuple, then
    gathered and unsorted; the time sum adds the same terms in the same
    order in every position, so unsorting after it moves no bit.
    """
    n = X.shape[1]
    order, gaps = _ranked(X)
    gaps, inv = _distinct_gaps(gaps, sigmas)
    coeff = _rank_coeffs(n)
    z = gaps[:, None, :] / sigmas[None, :, None]
    e = special.erf(z / _SQRT2)
    tail = np.cumsum((coeff * e)[..., ::-1], axis=-1)[..., ::-1]
    g = np.full((gaps.shape[0], sigmas.size, n), 1.0 / n)
    g[..., :-1] += tail
    g[..., 1:] -= e / np.arange(2, n + 1)
    ranked = (g * w[:, None]).sum(axis=1)[inv]
    return np.take_along_axis(ranked, np.argsort(order, axis=-1), axis=-1)


# doubles one row keeps live per sigma, given n: for heat values its CDF
# columns (at most n - 1 new differences a row), the running product and
# one gathered operand; for heat weights its log-CDF rows (at most n * n
# new differences a row), the running sum and one gathered term, and from
# n = 8 seven more lanes of the sum, above the n * n - n + 2 and
# n * n - n + 9 rows of y nodes seen on rows that share no difference; for
# the max kernels, 4n (values) and 5n (weights), above the 4(n - 1) and
# 5n - 3 seen on rows that share no gap tuple (all as tracemalloc sees
# them)
_ROW_DOUBLES = {
    _heat_value_batch: lambda n: (n + 1) * _U_NODES.size,
    _heat_grad_batch: lambda n: (n * n + (2 if n < 8 else 9)) * _YG_NODES.size,
    _max_value_batch: lambda n: 4 * n,
    _max_grad_batch: lambda n: 5 * n,
}


def _time_sum(kernel, X, sigmas, w, *args):
    """kernel(X, sigmas, w, *args), evaluated in blocks of rows.

    Every kernel returns sum_i w[i] * (its fixed-time result at sigmas[i])
    per row.  A block holds at most _CHUNK_BUDGET doubles as _ROW_DOUBLES
    counts them.  Rows are computed independently, so the blocking changes
    no bit of the result.
    """
    per_row = sigmas.size * _ROW_DOUBLES[kernel](X.shape[1])
    step = max(1, _CHUNK_BUDGET // per_row)
    if X.shape[0] <= step:
        return kernel(X, sigmas, w, *args)
    return np.concatenate([kernel(X[lo:lo + step], sigmas, w, *args)
                           for lo in range(0, X.shape[0], step)])


# ---------------------------------------------------------------------------
# geometric-horizon interface


def _geometric_value(X, handle, kernel):
    t, w = exp_time_nodes(handle.delta)
    sigmas = np.sqrt(2.0 * handle.kappa * (-t))
    vals = _time_sum(kernel, X, sigmas, w)
    if handle.side == "lower":
        return vals - handle.shift_constant
    return vals + handle.shift_constant


def _geometric_gradient(X, handle, kernel, *args):
    t, w = exp_time_nodes(handle.delta, order=_GRAD_TIME_ORDER)
    sigmas = np.sqrt(2.0 * handle.kappa * (-t))
    return clip_simplex(_time_sum(kernel, X, sigmas, w, *args))


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

