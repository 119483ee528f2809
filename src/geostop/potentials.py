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

A max weight depends on a state only through its ranked gaps and a max
value through its (mean, gaps) key, and the lattice states of oracle
share few keys (816 gap tuples among the 14,911 states at n=4, radius 30).
Each call finds its distinct keys over the whole batch by a lexsort of
their bits, time-sums the ranked formula once per key, in blocks of keys,
and gathers by row; weights are then unsorted to input order.  At a single
sigma (fixed_value_batch) every row stands for itself.  Every value and
weight keeps its bits.
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
_GRAD_TIME_ORDER = 6


def _space_rule(nodes, weights):
    """Nodes y, weights times the normal density, and log Phi(y)."""
    pdf_w = np.exp(-0.5 * nodes**2) / math.sqrt(2.0 * math.pi) * weights
    return nodes, pdf_w, special.log_ndtr(nodes)


# The weights at a tie sum to n int phi Phi^(n-1) on the space rule, which
# errs by 7.1e-7 at n = 15 on the 48 nodes above and by 1.1e-6, past
# clip_simplex's 1e-6 tolerance, at n = 16.  From n = 16 the weights take
# the value rule's 128 nodes, whose tie sum errs by 1.1e-15 at n = 16 and
# 3.0e-12 at n = 50; below, every weight keeps the bits of the 48 nodes.
_WEIGHT_RULES = (_space_rule(_YG_NODES, _YG_WEIGHTS),
                 _space_rule(_U_NODES, _U_WEIGHTS))


def _weight_rule(n: int):
    """The space rule of the heat weights at n experts, as _space_rule."""
    return _WEIGHT_RULES[n >= 16]


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
    check_stopping_rate(delta, allow_one=False)
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
        check_stopping_rate(self.delta, allow_one=False)
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
        t, w = exp_time_nodes(self.delta)
        sigmas = np.sqrt(2.0 * self.kappa * (-t))
        vals = self._fixed_sum(_as_batch(X), sigmas, w)
        if self.side == "lower":
            return vals - self.shift_constant
        return vals + self.shift_constant

    def gradient_batch(self, X) -> np.ndarray:
        """Probability weights, the gradient at the rows of X, shape (b, n)."""
        if self.family == "exp_weights":
            X = np.asarray(X, dtype=float)
            return special.softmax(self.eta * X, axis=-1)
        t, w = exp_time_nodes(self.delta, order=_GRAD_TIME_ORDER)
        sigmas = np.sqrt(2.0 * self.kappa * (-t))
        return clip_simplex(self._fixed_sum(_as_batch(X), sigmas, w, True))

    def fixed_value_batch(self, X, t: float) -> np.ndarray:
        """Fixed-time solution u(x, t) at the handle's kappa and a time t < 0,
        at the rows of X, shape (b,); the exp family has none."""
        if self.family == "exp_weights":
            raise ValueError("exp_weights has no fixed-time solution")
        if not t < 0:
            raise ValueError("t must be negative")
        sigma = np.array([math.sqrt(2.0 * self.kappa * (-t))])
        return self._fixed_sum(_as_batch(X), sigma, np.ones(1))

    def _fixed_sum(self, X, sigmas, w, weights=False):
        """Per row of X, the w-weighted sum over sigmas of u or its weights."""
        if self.family == "max":
            kernel = _max_grad_batch if weights else _max_value_batch
            return kernel(X, sigmas, w)
        if weights:
            return _time_sum(_heat_grad_batch, X, sigmas, w, self._log_cdf)
        return _time_sum(_heat_value_batch, X, sigmas, w)


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
    y, pdf_w, log_ndtr_y = _weight_rule(n)
    diffs, inv = np.unique(X[:, :, None] - X[:, None, :], return_inverse=True)
    # only whole-number differences, those of lattice states, recur across
    # calls; a call with any other difference computes all its rows
    if memo is None or not np.array_equal(diffs, np.floor(diffs)):
        rows, slots = _log_cdf_rows(diffs, sigmas, y), inv.reshape(b, n * n)
    else:
        rows, slots = memo.lookup(diffs, sigmas, y)
        slots = slots[inv.reshape(b, n * n)]
    # the row of term k = i * n + j for every state, contiguous
    term_rows = slots.T.copy()

    def fetch(k, out):
        np.take(rows, term_rows[k], axis=0, out=out, mode="clip")

    per_t = np.empty((b, sigmas.size, n))
    acc = np.empty((b, rows.shape[1]))
    for i in range(n):
        s = _sum_like_numpy(fetch, i * n, n, acc).reshape(b, y.size, -1)
        s -= log_ndtr_y[:, None]
        np.exp(s, out=s)
        s *= pdf_w[:, None]
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


def _log_cdf_rows(diffs: np.ndarray, sigmas: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """log_ndtr(y + d/sigma) over the (y, t) nodes, y-major, one row per d:
    shape (m, y * t), with the arithmetic of the direct formula's entries."""
    z = diffs[:, None] / sigmas[None, :]
    args = y[None, :, None] + z[:, None, :]
    return special.log_ndtr(args, out=args).reshape(diffs.size,
                                                    y.size * sigmas.size)


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

    def lookup(self, diffs: np.ndarray, sigmas: np.ndarray, y: np.ndarray):
        """A table and the row that holds each of the distinct diffs, over
        the space nodes y."""
        slots = np.fromiter(map(self._index.get, diffs.tolist(), repeat(-1)),
                            dtype=np.int64, count=diffs.size)
        miss = slots < 0
        if not miss.any():
            return self._table, slots
        width = sigmas.size * y.size
        first = len(self._index)
        stop = first + int(miss.sum())
        if stop * width > _CHUNK_BUDGET:
            # the memo is full: this call computes its own rows
            return _log_cdf_rows(diffs, sigmas, y), np.arange(diffs.size)
        if stop > self._table.shape[0]:
            size = min(max(stop, 2 * self._table.shape[0]),
                       _CHUNK_BUDGET // width)
            table = np.empty((size, width))
            if first:
                table[:first] = self._table[:first]
            self._table = table
        self._table[first:stop] = _log_cdf_rows(diffs[miss], sigmas, y)
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


def _distinct_rows(keys: np.ndarray):
    """Distinct rows of keys, bit for bit, and the index of each row's,
    found by a lexsort of the rows' bits and a compare of neighbours."""
    b = keys.shape[0]
    bits = keys.view(np.int64)
    order = np.lexsort(bits.T)
    runs = bits[order]
    first = np.empty(b, dtype=bool)
    first[:1] = True
    np.any(runs[1:] != runs[:-1], axis=1, out=first[1:])
    inverse = np.empty(b, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return keys[order[first]], inverse


def _by_key(kernel, keys, sigmas, w):
    """kernel over the distinct rows of keys, in blocks, gathered by row; at
    one sigma, or below two rows, every row stands for itself (unsorted)."""
    if sigmas.size == 1 or keys.shape[0] < 2:
        return _time_sum(kernel, keys, sigmas, w)
    distinct, inverse = _distinct_rows(keys)
    return _time_sum(kernel, distinct, sigmas, w)[inverse]


def _max_value_batch(X: np.ndarray, sigmas: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Closed-form ranked potential for every row of X, summed over the
    sigmas with weights w; (b,).  A value depends on a row only through its
    mean and its gaps, so it is evaluated once per distinct (mean, gaps)."""
    _, gaps = _ranked(X)
    return _by_key(_max_key_values, np.column_stack([X.mean(axis=1), gaps]),
                   sigmas, w)


def _max_key_values(keys: np.ndarray, sigmas: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """The time-summed value of each (mean, gaps) row of keys; (k,)."""
    gaps = keys[:, 1:]
    z = gaps[:, None, :] / sigmas[None, :, None]
    sig_f = (_SQRT_2_PI * sigmas[None, :, None] * np.exp(-0.5 * z * z)
             + gaps[:, None, :] * special.erf(z / _SQRT2))
    vals = keys[:, :1] + (_rank_coeffs(keys.shape[1]) * sig_f).sum(axis=-1)
    return (vals * w).sum(axis=1)


def _max_grad_batch(X: np.ndarray, sigmas: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """Gradient of the ranked potential summed over the sigmas with weights
    w, unsorted back to input order; (b, n).

    The ranked weights are time-summed once per distinct gap tuple, then
    gathered and unsorted; the time sum adds the same terms in the same
    order in every position, so unsorting after it moves no bit.
    """
    order, gaps = _ranked(X)
    ranked = _by_key(_max_key_weights, gaps, sigmas, w)
    return np.take_along_axis(ranked, np.argsort(order, axis=-1), axis=-1)


def _max_key_weights(gaps: np.ndarray, sigmas: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Time-summed ranked weights of each gap tuple, (k, n).  In ranked
    position k (1-based) the derivative is
    1/n + sum_{l >= k} erf(z_l / sqrt 2)/(l(l+1)) - erf(z_{k-1}/sqrt 2)/k,
    the last term only for k >= 2.  Entries are nonnegative and sum to one.
    """
    n = gaps.shape[1] + 1
    z = gaps[:, None, :] / sigmas[None, :, None]
    e = special.erf(z / _SQRT2)
    tail = np.cumsum((_rank_coeffs(n) * e)[..., ::-1], axis=-1)[..., ::-1]
    g = np.full((gaps.shape[0], sigmas.size, n), 1.0 / n)
    g[..., :-1] += tail
    g[..., 1:] -= e / np.arange(2, n + 1)
    return (g * w[:, None]).sum(axis=1)


# doubles one row, or one distinct max key, keeps live per sigma, given its
# width m: for heat values (m = n) its CDF columns (at most n - 1 new
# differences a row), the running product and one gathered operand; for
# heat weights its log-CDF rows (at most n * n new differences a row), the
# running sum and one gathered term, and from n = 8 seven more lanes of the
# sum, above the n * n - n + 2 and n * n - n + 9 rows of y nodes seen on
# rows that share no difference; 4n for a max (mean, gaps) key of width n,
# 5n for a gap key of width n - 1, above the 4(n - 1) and 5n - 3 seen (all
# as tracemalloc sees them).  Max key steps keep ~5n a row of the batch.
_ROW_DOUBLES = {
    _heat_value_batch: lambda m: (m + 1) * _U_NODES.size,
    _heat_grad_batch: lambda m: ((m * m + (2 if m < 8 else 9))
                                 * _weight_rule(m)[0].size),
    _max_key_values: lambda m: 4 * m,
    _max_key_weights: lambda m: 5 * (m + 1),
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

