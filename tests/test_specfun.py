import math

import numpy as np
import pytest
from scipy import integrate, special

from geostop.specfun import (
    DEFAULT_QUAD,
    QuadratureSettings,
    composite_gauss_legendre,
    exp_time_nodes,
    gaussian_max_expectation,
    laplace_inv1_bound,
    laplace_inv32_integral,
    time_truncation_bound,
)

# expected maximum of n iid standard normals, exact for small n
SQRT_PI = math.sqrt(math.pi)
EXPECTED_MAX = {1: 0.0, 2: 1.0 / SQRT_PI, 3: 1.5 / SQRT_PI}


def laplace_sqrt_integral(delta: float) -> float:
    """Closed-form reference: int_{-inf}^{-delta} e^t sqrt(-t) dt
    = e^-d sqrt(d) + (sqrt(pi)/2) erfc(sqrt(d))."""
    rd = math.sqrt(delta)
    return math.exp(-delta) * rd + 0.5 * SQRT_PI * special.erfc(rd)


def _quad_expected_max(n):
    """Independent oracle: E max = int (1 - F^n) on [0, inf) - int F^n on (-inf, 0]."""
    upper = integrate.quad(lambda v: 1.0 - special.ndtr(v) ** n, 0, np.inf)[0]
    lower = integrate.quad(lambda v: special.ndtr(v) ** n, -np.inf, 0)[0]
    return upper - lower


@pytest.mark.parametrize("n,value", sorted(EXPECTED_MAX.items()))
def test_gaussian_max_expectation_closed_forms(n, value):
    np.testing.assert_allclose(gaussian_max_expectation(n), value, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 7, 16, 50])
def test_gaussian_max_expectation_vs_quadrature(n):
    np.testing.assert_allclose(gaussian_max_expectation(n),
                               _quad_expected_max(n), atol=1e-10)


def test_gaussian_max_expectation_monotone():
    vals = [gaussian_max_expectation(n) for n in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_laplace_sqrt_integral_at_one():
    np.testing.assert_allclose(laplace_sqrt_integral(1.0),
                               0.5072822338117733, atol=1e-12)


def test_laplace_sqrt_integral_small_delta_limit():
    np.testing.assert_allclose(laplace_sqrt_integral(1e-14),
                               0.5 * SQRT_PI, rtol=1e-6)


def test_laplace_closed_forms_match_quadrature():
    # substituting t = -s**2 tames both the infinite range and the small
    # endpoint scale, keeping scipy's adaptive rule honest at tiny delta
    rng = np.random.default_rng(2024)
    for _ in range(20):
        d = float(np.exp(rng.uniform(np.log(1e-6), 0.0)))
        s0 = math.sqrt(d)
        ref_sqrt = integrate.quad(lambda s: 2.0 * s * s * math.exp(-s * s),
                                  s0, np.inf)[0]
        np.testing.assert_allclose(laplace_sqrt_integral(d), ref_sqrt,
                                   atol=1e-9)
        ref_inv = integrate.quad(lambda s: 2.0 * math.exp(-s * s) / (s * s),
                                 s0, np.inf)[0]
        np.testing.assert_allclose(laplace_inv32_integral(d), ref_inv,
                                   atol=1e-9, rtol=1e-9)


def test_laplace_inv32_at_one():
    expected = 2.0 / math.e - 2.0 * SQRT_PI * special.erfc(1.0)
    np.testing.assert_allclose(laplace_inv32_integral(1.0), expected,
                               atol=1e-12)


def test_laplace_inv32_positive():
    for d in (1e-6, 1e-3, 0.1, 0.5, 1.0):
        assert laplace_inv32_integral(d) > 0.0


def test_laplace_inv1_bound_values():
    assert laplace_inv1_bound(1.0) == 1.0
    np.testing.assert_allclose(laplace_inv1_bound(0.1), 1.0 + math.log(10.0),
                               atol=1e-12)
    np.testing.assert_allclose(laplace_inv1_bound(1e-6), 14.815510557964274,
                               atol=1e-9)


def test_laplace_inv1_really_bounds_the_integral():
    for d in (1e-5, 1e-3, 0.05, 0.4, 1.0):
        lhs = math.exp(d) * integrate.quad(lambda t: math.exp(t) / (-t),
                                           -np.inf, -d)[0]
        assert lhs <= laplace_inv1_bound(d) + 1e-12


@pytest.mark.parametrize("delta", [0.0, -0.2, 1.5])
def test_laplace_domain_errors(delta):
    message = rf"delta must lie in \(0, 1\], got {delta}"
    with pytest.raises(ValueError, match=message):
        laplace_inv32_integral(delta)
    with pytest.raises(ValueError, match=message):
        laplace_inv1_bound(delta)


@pytest.mark.parametrize("delta", [0.0, -0.2, 1.0, 1.5])
def test_exp_time_nodes_domain_errors(delta):
    with pytest.raises(ValueError,
                       match=rf"delta must lie in \(0, 1\), got {delta}"):
        exp_time_nodes(delta)


def test_composite_gauss_legendre_polynomial_exact():
    edges = np.array([0.0, 0.3, 1.0])
    nodes, weights = composite_gauss_legendre(edges, 6)
    np.testing.assert_allclose(np.sum(weights * nodes ** 2), 1.0 / 3.0,
                               atol=1e-14)
    np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-14)


def test_exp_time_nodes_total_mass():
    """Weights integrate e^delta e^t over (-cutoff, -delta)."""
    for d in (1e-6, 1e-3, 0.1, 0.5):
        t, w = exp_time_nodes(d)
        assert np.all(t < 0) and np.all(t >= -DEFAULT_QUAD.tail_cutoff)
        expected = 1.0 - math.exp(d - DEFAULT_QUAD.tail_cutoff)
        np.testing.assert_allclose(w.sum(), expected, atol=1e-10)


def test_exp_time_nodes_reproduce_laplace_integrals():
    for d in (1e-6, 1e-2, 0.3):
        t, w = exp_time_nodes(d)
        got = float(np.sum(w * np.sqrt(-t)))
        want = math.exp(d) * laplace_sqrt_integral(d)
        np.testing.assert_allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("order", [6, 12])
@pytest.mark.parametrize("delta", [1e-8, 1e-4, 0.01, 0.111, 0.307, 0.99])
def test_exp_time_nodes_agree_with_doubled_order(delta, order):
    # values use order 12 and weights order 6; on sqrt(-t), the growth of a
    # potential, and 1/sqrt(-t), steepest at the near end -delta, each
    # agrees with the rule of twice its order to 1e-10 + 1e-9 |b|
    t, w = exp_time_nodes(delta, order=order)
    t2, w2 = exp_time_nodes(delta, order=2 * order)
    for probe in (lambda u: np.sqrt(-u), lambda u: 1.0 / np.sqrt(-u)):
        a = float(np.sum(w * probe(t)))
        b = float(np.sum(w2 * probe(t2)))
        assert abs(a - b) <= 1e-10 + 1e-9 * abs(b)


def test_quadrature_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(tail_cutoff=10.0)
    q = QuadratureSettings(tail_cutoff=35.0)
    assert q.tail_cutoff == 35.0


def test_time_truncation_bound_is_tiny_by_default():
    assert time_truncation_bound(0.5, DEFAULT_QUAD, 1.0) < 1e-15
    loose = QuadratureSettings(tail_cutoff=30.0)
    assert time_truncation_bound(0.5, loose, 1.0) \
        > time_truncation_bound(0.5, DEFAULT_QUAD, 1.0)
