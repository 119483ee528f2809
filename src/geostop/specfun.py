"""Special functions and shared quadrature rules.

Everything here is deterministic numerics: Gaussian order statistics,
the exponentially weighted time integrals of the error terms

    I_2(d) = int_{-inf}^{-d} e^t |t|^{-3/2} dt     (closed form)
    I_3(d) = e^d int_{-inf}^{-d} e^t |t|^{-1} dt   (bounded, not evaluated)

and the composite Gauss-Legendre rules, among them the one time rule that
pushes a fixed-horizon potential through the same exponential weighting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .game import check_stopping_rate


@dataclass(frozen=True)
class QuadratureSettings:
    """Truncation of the exponential time weight.

    e**-tail_cutoff bounds the discarded relative mass, so 30 is the
    smallest value that keeps truncation below double round-off scale.
    """

    tail_cutoff: float = 40.0

    def __post_init__(self):
        if self.tail_cutoff < 30.0:
            raise ValueError("tail_cutoff below 30 risks visible truncation")


DEFAULT_QUAD = QuadratureSettings()


def composite_gauss_legendre(edges, order: int):
    """Gauss-Legendre nodes/weights on consecutive panels [e0,e1],[e1,e2],...

    Returns flat arrays (nodes, weights) covering [edges[0], edges[-1]].
    """
    edges = np.asarray(edges, dtype=float)
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


@functools.lru_cache(maxsize=256)
def gaussian_max_expectation(n: int) -> float:
    """E[max of n independent standard normals], to better than 1e-8.

    Computed from the tail identity E[max] = int_0^inf (1 - F^n) du
    - int_{-inf}^0 F^n du with F the standard normal CDF.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return 0.0
    hi = math.sqrt(2.0 * math.log(n)) + 12.0
    edges = np.arange(-14.0, hi + 1.0, 1.0)
    nodes, weights = composite_gauss_legendre(edges, 16)
    cdf_pow = np.exp(n * special.log_ndtr(nodes))
    integrand = np.where(nodes > 0.0, 1.0 - cdf_pow, -cdf_pow)
    return float(np.sum(weights * integrand))


def laplace_inv32_integral(delta: float) -> float:
    """int_{-inf}^{-delta} e^t |t|^{-3/2} dt = 2 e^-d / sqrt(d) - 2 sqrt(pi) erfc(sqrt(d))."""
    d = check_stopping_rate(delta)
    rd = math.sqrt(d)
    return 2.0 * math.exp(-d) / rd - 2.0 * math.sqrt(math.pi) * special.erfc(rd)


def laplace_inv1_bound(delta: float) -> float:
    """Upper bound 1 + log(1/delta) for e^d int_{-inf}^{-d} e^t |t|^{-1} dt.

    The left side is e^d E1(d); the bound is checked before returning.
    """
    d = check_stopping_rate(delta)
    bound = 1.0 + math.log(1.0 / d)
    exact = math.exp(d) * float(special.exp1(d))
    if exact > bound + 1e-12:
        raise ArithmeticError("claimed bound on the log-weighted tail failed")
    return bound


@functools.lru_cache(maxsize=512)
def exp_time_nodes(delta: float, quad: QuadratureSettings = DEFAULT_QUAD,
                   order: int = 12):
    """Nodes t_i < 0 and weights w_i with e^d int e^t g(t) dt ~ sum w_i g(t_i),
    truncated at -tail_cutoff.

    With t = -s^2 the integral becomes int_{sqrt(d)}^{sqrt(cutoff)}
    2 s e^{-s^2} g(-s^2) ds, which has no endpoint singularity.  Panels
    double in width from sqrt(d) up to 1 to resolve any boundary layer of
    the integrand there, then continue at width 1/3; each carries an
    order-point Gauss-Legendre rule.
    """
    d = check_stopping_rate(delta, allow_one=False)
    hi = math.sqrt(quad.tail_cutoff)  # above 5, as tail_cutoff >= 30
    edges = [math.sqrt(d)]
    step = edges[0]
    while edges[-1] < 1.0:
        step *= 2.0
        edges.append(min(edges[-1] + step, 1.0))
    while edges[-1] < hi - 1e-12:
        edges.append(min(edges[-1] + 1.0 / 3.0, hi))
    edges[-1] = hi
    s, w = composite_gauss_legendre(np.array(edges), order)
    return -(s**2), w * 2.0 * s * np.exp(d - s**2)


def time_truncation_bound(delta: float, quad: QuadratureSettings,
                          scale: float) -> float:
    """Bound on the mass dropped past -tail_cutoff for |g(t)| <= scale*(1+sqrt(-t))."""
    c = quad.tail_cutoff
    return scale * math.exp(delta - c) * (2.0 + math.sqrt(c))
