import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from geostop import potentials
from geostop.bounds import ErrorConstants, heat_bounds, max_bounds
from geostop.game import clip_simplex
from geostop.potentials import (
    PotentialHandle,
    _heat_grad_batch,
    _max_grad_batch,
    default_eta,
    exp_handle,
    fd_gradient_batch,
    fd_hessian_batch,
    heat_lower_handle,
    heat_potential_fixed,
    heat_shift_constant,
    heat_upper_handle,
    kappa_m,
    kappa_s,
    max_lower_handle,
    max_potential_fixed,
    max_shift_constant,
    max_upper_handle,
)
from geostop.specfun import composite_gauss_legendre

RATIO = lambda d: (1.0 - d) / d


def _fixed_gradient(kernel, x, t, kappa):
    """Fixed-time weights of one state at sigma = sqrt(2 kappa |t|), renormalized."""
    sigma = np.array([math.sqrt(2.0 * kappa * -t)])
    X = np.asarray(x, dtype=float)[None, :]
    return clip_simplex(kernel(X, sigma)[:, 0, :])[0]


def test_kappa_s_values():
    d = 0.2
    np.testing.assert_allclose(kappa_s(2, d), RATIO(d))
    np.testing.assert_allclose(kappa_s(3, d), RATIO(d) * (0.5 + 1.0 / 6.0))
    np.testing.assert_allclose(kappa_s(4, d), RATIO(d) * (0.5 + 1.0 / 6.0))
    np.testing.assert_allclose(kappa_s(5, d), RATIO(d) * 0.6)
    with pytest.raises(ValueError):
        kappa_s(1, d)


def test_kappa_m_values():
    d = 0.2
    np.testing.assert_allclose(kappa_m(2, d), RATIO(d) * 2.0)
    np.testing.assert_allclose(kappa_m(3, d), RATIO(d) * 2.0)
    np.testing.assert_allclose(kappa_m(4, d), RATIO(d) * 8.0 / 3.0)
    np.testing.assert_allclose(kappa_m(5, d), RATIO(d) * 3.0)
    for n in range(2, 12):
        assert kappa_m(n, d) >= 2.0 * RATIO(d) - 1e-12


def test_default_eta():
    np.testing.assert_allclose(default_eta(4, 0.5),
                               math.sqrt(2.0 * 0.5 * math.log(4) / 0.5))
    with pytest.raises(ValueError):
        default_eta(2, 1.0)


def test_shift_constants():
    np.testing.assert_allclose(
        heat_shift_constant(2, 0.1, 9.0),
        math.sqrt(1.8) / math.sqrt(math.pi))
    np.testing.assert_allclose(
        max_shift_constant(3, 0.1, 18.0),
        2.0 * math.sqrt(1.8 / math.pi) * 2.0 / 3.0)


# ---------------------------------------------------------------------------
# fixed-horizon values against independent quadrature


def _heat_two_expert_oracle(x1, x2, sigma):
    """E max of two independent normals via the classic closed form."""
    m = x1 - x2
    s = sigma * math.sqrt(2.0)
    z = m / s
    return x2 + m * special.ndtr(z) + s * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _heat_quad_oracle(x, sigma):
    def cdf(v):
        return np.prod(special.ndtr((v - np.asarray(x)) / sigma))
    hi = integrate.quad(lambda v: 1.0 - cdf(v), 0, np.inf)[0]
    lo = integrate.quad(cdf, -np.inf, 0)[0]
    return hi - lo


def test_heat_fixed_two_experts():
    for x1, x2, t, kappa in [(1.0, 0.0, -1.0, 1.0), (3.0, -2.0, -0.5, 4.0),
                             (0.0, 0.0, -2.0, 0.5)]:
        sigma = math.sqrt(2.0 * kappa * abs(t))
        want = _heat_two_expert_oracle(x1, x2, sigma)
        got = heat_potential_fixed(np.array([x1, x2]), t, kappa)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_heat_fixed_three_experts_vs_quadrature():
    x = np.array([1.5, 0.0, -0.7])
    got = heat_potential_fixed(x, -2.0, 1.3)
    want = _heat_quad_oracle(x, math.sqrt(2.0 * 1.3 * 2.0))
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_heat_fixed_origin_two_experts():
    # E max(Y1, Y2) = 1/sqrt(pi) scaled by sigma
    got = heat_potential_fixed(np.zeros(2), -1.0, 1.0)
    np.testing.assert_allclose(got, math.sqrt(2.0 / math.pi), atol=1e-12)


def test_heat_fixed_dominant_coordinate():
    got = heat_potential_fixed(np.array([10.0, 0.0]), -0.005, 1.0)
    np.testing.assert_allclose(got, 10.0, atol=1e-8)


def test_heat_fixed_dominates_max():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=4) * 3.0
        val = heat_potential_fixed(x, -1.0, 2.0)
        assert val >= x.max() - 1e-12


def test_heat_gradient_fixed_symmetry_and_dominance():
    np.testing.assert_allclose(
        _fixed_gradient(_heat_grad_batch, np.zeros(3), -1.0, 1.0),
        np.full(3, 1.0 / 3.0), atol=1e-12)
    g = _fixed_gradient(_heat_grad_batch, np.array([10.0, 0.0]), -0.005, 1.0)
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-10)


def test_heat_gradient_fixed_vs_quadrature():
    """Component i is P(coordinate i attains the smoothed max)."""
    x = np.array([0.8, 0.0, -0.5])
    sigma = math.sqrt(2.0 * 1.0 * 1.5)
    got = _fixed_gradient(_heat_grad_batch, x, -1.5, 1.0)
    for i in range(3):
        others = np.delete(x, i)
        want = integrate.quad(
            lambda y: math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
            * np.prod(special.ndtr(y + (x[i] - others) / sigma)),
            -np.inf, np.inf)[0]
        np.testing.assert_allclose(got[i], want, atol=1e-8)
    np.testing.assert_allclose(got.sum(), 1.0, atol=1e-8)


def test_max_fixed_origin_closed_form():
    for n in (2, 3, 6):
        want = 2.0 * (n - 1) / n * math.sqrt(1.0 / math.pi)
        got = max_potential_fixed(np.zeros(n), -1.0, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(max_potential_fixed(np.zeros(2), -math.pi, 1.0),
                               1.0, atol=1e-14)


def test_max_fixed_translation_and_permutation():
    rng = np.random.default_rng(9)
    x = rng.normal(size=4) * 2.0
    base = max_potential_fixed(x, -1.0, 3.0)
    np.testing.assert_allclose(max_potential_fixed(x + 2.5, -1.0, 3.0),
                               base + 2.5, atol=1e-12)
    perm = rng.permutation(4)
    np.testing.assert_allclose(max_potential_fixed(x[perm], -1.0, 3.0),
                               base, atol=1e-12)


def test_max_fixed_solves_its_equation():
    """u_t + kappa max_i u_ii vanishes away from rank ties."""
    x = np.array([2.0, 0.5, -1.0])
    kappa, t = 1.7, -2.0
    h = 1e-4
    u_t = (max_potential_fixed(x, t + h, kappa)
           - max_potential_fixed(x, t - h, kappa)) / (2.0 * h)
    diag = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        diag.append((max_potential_fixed(x + e, t, kappa)
                     - 2.0 * max_potential_fixed(x, t, kappa)
                     + max_potential_fixed(x - e, t, kappa)) / h ** 2)
    residual = u_t + kappa * max(diag)
    assert abs(residual) < 1e-5


def test_max_gradient_sums_to_one_exactly():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.normal(size=5) * 4.0
        g = _fixed_gradient(_max_grad_batch, x, -0.7, 2.0)
        assert abs(g.sum() - 1.0) < 1e-14
        assert np.all(g >= 0.0)


def test_max_gradient_matches_finite_differences():
    xs = np.array([[2.0, 0.5, -1.0], [4.0, 1.0, 0.0], [-1.0, -2.0, -4.0]])
    got = np.array([_fixed_gradient(_max_grad_batch, x, -1.0, 2.0) for x in xs])
    want = fd_gradient_batch(
        lambda X: np.array([max_potential_fixed(x, -1.0, 2.0) for x in X]), xs)
    np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("func", [heat_potential_fixed, max_potential_fixed])
def test_fixed_time_domain_errors(func):
    with pytest.raises(ValueError):
        func(np.zeros(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        func(np.zeros(2), -1.0, -2.0)


# ---------------------------------------------------------------------------
# geometric-horizon potentials


def test_exp_potential_and_gradient_identities():
    h = exp_handle(3, 0.25)
    x = np.array([1.0, 0.0, -2.0])
    eta = h.eta
    want = special.logsumexp(eta * x) / eta \
        + (1.0 - 0.25) * eta / (2.0 * 0.25)
    np.testing.assert_allclose(h.value(x), want, atol=1e-12)
    soft = np.exp(eta * x) / np.exp(eta * x).sum()
    np.testing.assert_allclose(h.gradient(x), soft, atol=1e-12)


def test_heat_geometric_origin_matches_closed_form():
    for n, d in [(2, 1e-2), (3, 1e-4), (5, 1e-2)]:
        got = heat_lower_handle(n, d).value(np.zeros(n))
        want = heat_bounds(n, d, ErrorConstants.zero())[0].potential_at_zero
        np.testing.assert_allclose(got, want, atol=1e-7)


def test_max_geometric_origin_matches_closed_form():
    for n, d in [(2, 1e-2), (4, 1e-4)]:
        got = max_upper_handle(n, d).value(np.zeros(n))
        want = max_bounds(n, d, ErrorConstants.zero())[1].potential_at_zero
        np.testing.assert_allclose(got, want, atol=1e-7)


def test_geometric_translation_covariance():
    rng = np.random.default_rng(17)
    x = rng.normal(size=3) * 5.0
    for h in (heat_lower_handle(3, 0.1), max_lower_handle(3, 0.1),
              heat_upper_handle(3, 0.1), max_upper_handle(3, 0.1)):
        base = h.value(x)
        np.testing.assert_allclose(h.value(x + 4.0), base + 4.0, atol=1e-9)


def test_geometric_sides_differ_by_twice_the_shift():
    x = np.array([1.0, -1.0, 0.5])
    lo = heat_lower_handle(3, 0.1)
    hi = replace(lo, side="upper")
    np.testing.assert_allclose(hi.value(x) - lo.value(x),
                               2.0 * lo.shift_constant, atol=1e-10)


def test_small_delta_asymptote_two_experts():
    """sqrt(delta)-scaled origin values approach 1/sqrt(2) as delta -> 0."""
    d = 1e-6
    target = 1.0 / math.sqrt(2.0)
    for h in (heat_lower_handle(2, d), max_lower_handle(2, d),
              max_upper_handle(2, d)):
        assert abs(math.sqrt(d) * h.value(np.zeros(2)) - target) < 0.01 * target


def test_geometric_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    xs = rng.normal(size=(4, 3)) * 3.0
    for h in (heat_lower_handle(3, 0.1), max_upper_handle(3, 0.1),
              exp_handle(3, 0.1)):
        got = h.gradient_batch(xs)
        want = fd_gradient_batch(h.value_batch, xs)
        np.testing.assert_allclose(got, want, atol=1e-6)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-9)


def test_heat_geometric_gradient_permutes_with_input():
    h = heat_upper_handle(3, 0.2)
    x = np.array([2.0, -1.0, 0.5])
    g = h.gradient(x)
    perm = np.array([2, 0, 1])
    np.testing.assert_allclose(h.gradient(x[perm]), g[perm], atol=1e-12)


def _heat_weights_full_rule(X, sigma):
    """Fixed-time heat weights by 16 Gauss-Legendre nodes on each of six
    panels of [-9, 9], with the products of normal CDFs taken directly."""
    nodes, weights = composite_gauss_legendre(
        np.array([-9.0, -5.0, -2.0, 0.0, 2.0, 5.0, 9.0]), 16)
    pdf_w = np.exp(-0.5 * nodes**2) / math.sqrt(2.0 * math.pi) * weights
    z = (X[:, :, None] - X[:, None, :]) / sigma
    cdf = special.ndtr(nodes[:, None, None, None] + z[None])
    # the j = i factor of the product is Phi(y); divide it back out
    prod = cdf.prod(axis=-1) / special.ndtr(nodes)[:, None, None]
    return np.tensordot(pdf_w, prod, axes=1)


def test_lean_weight_rule_tracks_the_full_rule():
    # The weight path runs an 8-node rule; keep it within 1e-7 of a rule
    # twice its size (its measured error is 1.3e-8 against mpmath values)
    # or weights drift.
    rng = np.random.default_rng(77)
    xs = rng.normal(size=(50, 3)) * 4.0
    np.testing.assert_allclose(_heat_grad_batch(xs, np.array([1.7]))[:, 0, :],
                               _heat_weights_full_rule(xs, 1.7), atol=1e-7)


# Values and weights of every handle factory at n = 2..5 and two rates,
# compared exactly: seeded simulations and oracle brackets depend on every
# bit, so a change in the arithmetic or its order must show here.
_PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_handles.json").read_text())
_FACTORIES = {f.__name__: f for f in (exp_handle, heat_lower_handle,
                                      heat_upper_handle, max_lower_handle,
                                      max_upper_handle)}


def _pinned_states(n):
    k = np.arange(n)
    return np.array([np.zeros(n), 2 * k - n, np.where(k < 2, 4, -2),
                     (-1) ** k * (6 * k + 2)], dtype=float)


def test_pinned_handle_outputs():
    assert len(_PINNED) == len(_FACTORIES) * 4 * 2
    for key, want in _PINNED.items():
        name, n, delta = key.split("/")
        h = _FACTORIES[name](int(n), float(delta))
        X = _pinned_states(int(n))
        assert h.value_batch(X).tolist() == want["value"], key
        assert h.gradient_batch(X).tolist() == want["gradient"], key


def test_row_blocks_leave_every_bit_alone(monkeypatch):
    # a tiny budget splits 40 rows into blocks of one to a few rows
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(40, 4)) * 6.0)
    handles = [f(4, 0.05) for f in _FACTORIES.values()]
    whole = [(h.value_batch(X), h.gradient_batch(X)) for h in handles]
    monkeypatch.setattr(potentials, "_CHUNK_BUDGET", 20_000)
    for h, (value, grad) in zip(handles, whole):
        assert np.array_equal(h.value_batch(X), value), h
        assert np.array_equal(h.gradient_batch(X), grad), h
        assert h.value_batch(X[:0]).shape == (0,)


def test_handle_validation():
    with pytest.raises(ValueError):
        PotentialHandle("bogus", 3, 0.1, "lower", kappa=1.0)
    with pytest.raises(ValueError):
        PotentialHandle("heat", 3, 0.1, "sideways", kappa=1.0)
    with pytest.raises(ValueError):
        heat_lower_handle(1, 0.1)


# ---------------------------------------------------------------------------
# derivative helpers


def test_fd_hessian_symmetric_and_heat_convex():
    h = heat_lower_handle(3, 0.2)
    x = np.array([[1.0, 0.0, -1.0]])
    hess = fd_hessian_batch(h.value_batch, x)[0]
    np.testing.assert_allclose(hess, hess.T, atol=1e-7)
    eigs = np.linalg.eigvalsh(hess)
    assert eigs.min() > -1e-6
