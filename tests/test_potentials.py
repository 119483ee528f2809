import json
import math
import tracemalloc
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
    heat_shift_constant,
    heat_upper_handle,
    kappa_m,
    kappa_s,
    max_lower_handle,
    max_shift_constant,
    max_upper_handle,
)
from geostop.specfun import composite_gauss_legendre, exp_time_nodes
from geostop.strategies import make_player

RATIO = lambda d: (1.0 - d) / d


def _fixed(family, x, t, kappa):
    """Fixed-time solution at one state, through a handle with that kappa."""
    x = np.asarray(x, dtype=float)
    h = PotentialHandle(family, x.size, 0.5, "lower", kappa=kappa)
    return float(h.fixed_value_batch(x[None, :], t)[0])


def _fixed_gradient(kernel, x, t, kappa):
    """Fixed-time weights of one state at sigma = sqrt(2 kappa |t|), renormalized."""
    sigma = np.array([math.sqrt(2.0 * kappa * -t)])
    X = np.asarray(x, dtype=float)[None, :]
    return clip_simplex(kernel(X, sigma, np.ones(1)))[0]


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
        got = _fixed("heat", np.array([x1, x2]), t, kappa)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_heat_fixed_three_experts_vs_quadrature():
    x = np.array([1.5, 0.0, -0.7])
    got = _fixed("heat", x, -2.0, 1.3)
    want = _heat_quad_oracle(x, math.sqrt(2.0 * 1.3 * 2.0))
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_heat_fixed_origin_two_experts():
    # E max(Y1, Y2) = 1/sqrt(pi) scaled by sigma
    got = _fixed("heat", np.zeros(2), -1.0, 1.0)
    np.testing.assert_allclose(got, math.sqrt(2.0 / math.pi), atol=1e-12)


def test_heat_fixed_dominant_coordinate():
    got = _fixed("heat", np.array([10.0, 0.0]), -0.005, 1.0)
    np.testing.assert_allclose(got, 10.0, atol=1e-8)


def test_heat_fixed_dominates_max():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=4) * 3.0
        val = _fixed("heat", x, -1.0, 2.0)
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
        got = _fixed("max", np.zeros(n), -1.0, 1.0)
        np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(_fixed("max", np.zeros(2), -math.pi, 1.0),
                               1.0, atol=1e-14)


def test_max_fixed_translation_and_permutation():
    rng = np.random.default_rng(9)
    x = rng.normal(size=4) * 2.0
    base = _fixed("max", x, -1.0, 3.0)
    np.testing.assert_allclose(_fixed("max", x + 2.5, -1.0, 3.0),
                               base + 2.5, atol=1e-12)
    perm = rng.permutation(4)
    np.testing.assert_allclose(_fixed("max", x[perm], -1.0, 3.0),
                               base, atol=1e-12)


def test_max_fixed_solves_its_equation():
    """u_t + kappa max_i u_ii vanishes away from rank ties."""
    x = np.array([2.0, 0.5, -1.0])
    kappa, t = 1.7, -2.0
    h = 1e-4
    u_t = (_fixed("max", x, t + h, kappa)
           - _fixed("max", x, t - h, kappa)) / (2.0 * h)
    diag = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        diag.append((_fixed("max", x + e, t, kappa)
                     - 2.0 * _fixed("max", x, t, kappa)
                     + _fixed("max", x - e, t, kappa)) / h ** 2)
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
    h = PotentialHandle("max", 3, 0.5, "lower", kappa=2.0)
    want = fd_gradient_batch(lambda X: h.fixed_value_batch(X, -1.0), xs)
    np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("family", ["heat", "max"])
def test_fixed_time_domain_errors(family):
    with pytest.raises(ValueError):
        _fixed(family, np.zeros(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        _fixed(family, np.zeros(2), -1.0, -2.0)


def test_geometric_value_mixes_the_fixed_time_solutions():
    # value_batch is the exp_time_nodes mixture of fixed_value_batch, less
    # (lower side) or plus (upper side) the shift constant
    d = 0.1
    t, w = exp_time_nodes(d)
    for n in (2, 3, 4):
        k = np.arange(n, dtype=float)
        X = np.array([np.zeros(n), 3.0 * k - n, 1e-3 * k, np.where(k < 1, 8.0, -1.0)])
        for factory in (heat_lower_handle, heat_upper_handle,
                        max_lower_handle, max_upper_handle):
            h = factory(n, d)
            mix = sum(wi * h.fixed_value_batch(X, ti) for ti, wi in zip(t, w))
            shift = -h.shift_constant if h.side == "lower" else h.shift_constant
            np.testing.assert_allclose(h.value_batch(X), mix + shift,
                                       rtol=1e-12, err_msg=f"{h}")
    with pytest.raises(ValueError, match="no fixed-time solution"):
        exp_handle(3, d).fixed_value_batch(np.zeros((1, 3)), -1.0)


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
    np.testing.assert_allclose(_heat_grad_batch(xs, np.array([1.7]), np.ones(1)),
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


_PINNED_HEAT_GRADIENTS = json.loads(
    (Path(__file__).parent / "data" / "pinned_heat_gradients.json").read_text())


@pytest.mark.parametrize("key", sorted(_PINNED_HEAT_GRADIENTS))
def test_pinned_heat_gradients_at_eight_and_ten_experts(key):
    # n = 8 and 10 straddle the length from which numpy sums the n
    # log-CDF terms of a weight pairwise instead of left to right
    name, n, delta = key.split("/")
    h = _FACTORIES[name](int(n), float(delta))
    got = h.gradient_batch(_pinned_states(int(n))).tolist()
    assert got == _PINNED_HEAT_GRADIENTS[key]


_PINNED_HEAT_VALUES = json.loads(
    (Path(__file__).parent / "data" / "pinned_heat_values.json").read_text())


@pytest.mark.parametrize("key", sorted(_PINNED_HEAT_VALUES))
def test_pinned_heat_values_at_eight_and_ten_experts(key):
    name, n, delta = key.split("/")
    h = _FACTORIES[name](int(n), float(delta))
    got = h.value_batch(_pinned_states(int(n))).tolist()
    assert got == _PINNED_HEAT_VALUES[key]


_PINNED_MAX = json.loads(
    (Path(__file__).parent / "data" / "pinned_max_outputs.json").read_text())


@pytest.mark.parametrize("key", sorted(_PINNED_MAX))
def test_pinned_max_outputs_at_eight_and_ten_experts(key):
    name, n, delta = key.split("/")
    h = _FACTORIES[name](int(n), float(delta))
    X = _pinned_states(int(n))
    assert h.value_batch(X).tolist() == _PINNED_MAX[key]["value"]
    assert h.gradient_batch(X).tolist() == _PINNED_MAX[key]["gradient"]


def _direct_heat_value(X, sigmas):
    """The heat value kernel without its dedupe: one ndtr per entry."""
    m = X.max(axis=1)
    z = (X - m[:, None])[:, None, :] / sigmas[None, :, None]
    args = potentials._U_NODES[None, None, :, None] - z[:, :, None, :]
    cdf = special.ndtr(args).prod(axis=-1)
    g = np.where(potentials._U_NODES[None, None, :] > 0.0, 1.0 - cdf, -cdf)
    return m[:, None] + sigmas[None, :] * (g * potentials._U_WEIGHTS).sum(-1)


def _direct_value(h, X):
    t, w = potentials.exp_time_nodes(h.delta)
    sigmas = np.sqrt(2.0 * h.kappa * (-t))
    vals = (_direct_heat_value(X, sigmas) * w).sum(axis=1)
    if h.side == "lower":
        return vals - h.shift_constant
    return vals + h.shift_constant


def _hessian_stencil(X):
    """The rows fd_hessian_batch hands to its evaluator for the rows of X."""
    seen = []
    fd_hessian_batch(lambda pts: seen.append(pts) or np.zeros(len(pts)), X)
    return seen[0]


def _direct_heat_grad(X, sigmas):
    """The heat weight kernel without its memo: one log_ndtr per entry."""
    diffs = X[:, :, None] - X[:, None, :]
    z = diffs[:, None, :, :] / sigmas[None, :, None, None]
    args = potentials._YG_NODES[None, None, :, None, None] + z[:, :, None, :, :]
    logcdf = special.log_ndtr(args)
    s = logcdf.sum(axis=-1) - potentials._LOG_NDTR_YG[None, None, :, None]
    return (np.exp(s) * potentials._YG_PDF_W[None, None, :, None]).sum(axis=2)


def _direct_gradient(h, X):
    t, w = potentials.exp_time_nodes(h.delta, order=potentials._GRAD_TIME_ORDER)
    sigmas = np.sqrt(2.0 * h.kappa * (-t))
    return clip_simplex((_direct_heat_grad(X, sigmas) * w[:, None]).sum(axis=1))


def _three_time_nodes(delta, order=12):
    """The first, middle and last node of the time rule, weights renormalized,
    to keep tests short."""
    t, w = exp_time_nodes(delta, order=order)
    pick = [0, t.size // 2, t.size - 1]
    return t[pick], w[pick] / w[pick].sum()


def _assert_one_memo_row_per_difference(h, X):
    """Each difference of X's rows holds one row of h's memo, computed
    afresh by _log_cdf_rows."""
    memo = h._log_cdf
    diffs = np.unique(X[:, :, None] - X[:, None, :])
    assert sorted(memo._index) == diffs.tolist()
    assert sorted(memo._index.values()) == list(range(diffs.size))
    t, _ = potentials.exp_time_nodes(h.delta, order=potentials._GRAD_TIME_ORDER)
    sigmas = np.sqrt(2.0 * h.kappa * (-t))
    rows = [memo._index[d] for d in diffs.tolist()]
    assert np.array_equal(memo._table[rows],
                          potentials._log_cdf_rows(diffs, sigmas))


@pytest.mark.parametrize("n", range(2, 13))
def test_memoized_heat_weights_match_the_direct_formula(n, monkeypatch):
    monkeypatch.setattr(potentials, "exp_time_nodes", _three_time_nodes)
    rng = np.random.default_rng(n)
    rows = {"integer": np.round(rng.normal(size=(64, n)) * 5.0),
            "real": rng.normal(size=(64, n)) * 5.0}
    for factory in (heat_lower_handle, heat_upper_handle):
        for kind, X in rows.items():
            want = _direct_gradient(factory(n, 0.05), X)
            h = factory(n, 0.05)
            assert np.array_equal(h.gradient_batch(X[:1]), want[:1]), kind  # cold
            assert np.array_equal(h.gradient_batch(X), want), kind  # partly warm
            assert np.array_equal(h.gradient_batch(X), want), kind  # warm
            assert np.array_equal(factory(n, 0.05).gradient_batch(X), want), kind
            fresh = factory(n, 0.05)
            for _ in range(2):  # each row cold, then warm
                one_by_one = np.array([fresh.gradient_batch(x[None, :])[0]
                                       for x in X])
                assert np.array_equal(one_by_one, want), kind
            if kind == "integer":
                _assert_one_memo_row_per_difference(h, X)
                _assert_one_memo_row_per_difference(fresh, X)


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
def test_heat_weights_match_the_direct_formula_on_the_full_time_rule(n):
    # either side of the lengths 8 and 16 at which numpy's sum of the n
    # log-CDF terms takes its eight lanes and its first full round of them
    rng = np.random.default_rng(300 + n)
    real = rng.normal(size=(2, n)) * 5.0
    for factory in (heat_lower_handle, heat_upper_handle):
        for kind, X in (("integer", np.round(real)), ("real", real)):
            want = _direct_gradient(factory(n, 0.05), X)
            h = factory(n, 0.05)
            assert np.array_equal(h.gradient_batch(X), want), kind  # cold
            assert np.array_equal(h.gradient_batch(X), want), kind  # warm


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="ROADMAP item 4: from n = 16 the 48-node weight rule's "
                          "weights at a tie sum past clip_simplex's 1e-6 tolerance")
def test_heat_weights_at_sixteen_tied_experts():
    weights = heat_upper_handle(16, 0.01).gradient(np.zeros(16))
    np.testing.assert_allclose(weights, np.full(16, 1.0 / 16.0), rtol=1e-12)


def test_whole_row_sums_add_in_numpy_order():
    # numpy sums a contiguous last axis left to right below length 8, in
    # eight lanes up to 128 and in halves above; the weight kernel adds its
    # log-CDF terms as whole rows in that order
    rng = np.random.default_rng(31)
    for length in range(1, 301):
        A = rng.normal(size=(5, length)) * 10.0 ** rng.uniform(-3, 3, (5, length))
        fetch = lambda k, out: np.copyto(out, A[:, k - 3])
        got = potentials._sum_like_numpy(fetch, 3, length, np.empty(5))
        assert np.array_equal(got, A.sum(axis=-1)), length


@pytest.mark.parametrize("n", range(2, 13))
def test_deduplicated_heat_values_match_the_direct_formula(n, monkeypatch):
    monkeypatch.setattr(potentials, "exp_time_nodes", _three_time_nodes)
    rng = np.random.default_rng(100 + n)
    real = rng.normal(size=(64, n)) * 5.0
    ties = np.round(real[:16])
    ties[:, 1] = ties[:, 0]
    ties[8:, 2 % n] += 1e-13
    rows = {"integer": np.round(real), "real": real,
            "stencils": _hessian_stencil(real[:2]), "near ties": ties,
            "duplicates": np.repeat(real[:8], 3, axis=0), "single": real[:1]}
    for factory in (heat_lower_handle, heat_upper_handle):
        h = factory(n, 0.05)
        for kind, X in rows.items():
            assert np.array_equal(h.value_batch(X), _direct_value(h, X)), kind
        sigma = np.array([math.sqrt(2.0 * h.kappa * 0.3)])
        for kind, X in rows.items():
            want = (_direct_heat_value(X, sigma) * np.ones(1)).sum(axis=1)
            assert np.array_equal(h.fixed_value_batch(X, -0.3), want), kind


def _direct_max_value(X, sigmas):
    """The max value kernel without its dedupe: the ranked formula per row."""
    _, gaps = potentials._ranked(X)
    coeff = potentials._rank_coeffs(X.shape[1])
    z = gaps[:, None, :] / sigmas[None, :, None]
    sig_f = (potentials._SQRT_2_PI * sigmas[None, :, None] * np.exp(-0.5 * z * z)
             + gaps[:, None, :] * special.erf(z / potentials._SQRT2))
    return X.mean(axis=1)[:, None] + (coeff * sig_f).sum(axis=-1)


def _direct_max_grad(X, sigmas):
    """The max weight kernel without its dedupe: (b, t, n), unsorted per row
    before the time sum."""
    b, n = X.shape
    order, gaps = potentials._ranked(X)
    coeff = potentials._rank_coeffs(n)
    z = gaps[:, None, :] / sigmas[None, :, None]
    e = special.erf(z / potentials._SQRT2)
    tail = np.cumsum((coeff * e)[..., ::-1], axis=-1)[..., ::-1]
    g = np.full((b, sigmas.size, n), 1.0 / n)
    g[..., :-1] += tail
    g[..., 1:] -= e / np.arange(2, n + 1)
    inv = np.argsort(order, axis=-1)
    return np.take_along_axis(g, inv[:, None, :], axis=-1)


@pytest.mark.parametrize("n", range(2, 11))
def test_deduplicated_max_kernels_match_the_direct_formula(n):
    rng = np.random.default_rng(200 + n)
    lattice = 2.0 * rng.integers(-5, 6, size=(300, n))
    lattice[:, -1] = 0.0
    real = rng.normal(size=(64, n)) * 5.0
    ties = np.round(real[:16])
    ties[:, 1] = ties[:, 0]
    ties[8:, 2 % n] = ties[8:, 0]
    perms = np.array([rng.permutation(row) for row in np.repeat(real[:6], 4, 0)])
    nudged = real[:8].copy()
    nudged[:, 0] += 1e-13  # gap tuples that differ in their last bits only
    rows = {"lattice": lattice, "real": real, "ties": ties,
            "duplicates": np.repeat(real[:8], 3, axis=0), "permutations": perms,
            "near duplicates": np.vstack([real[:8], nudged]),
            "signed zeros": np.array([[0.0] * n, [-0.0] * n]),
            "single": real[:1], "empty": real[:0]}
    t, w = exp_time_nodes(0.05)
    tg, wg = exp_time_nodes(0.05, order=potentials._GRAD_TIME_ORDER)
    for factory in (max_lower_handle, max_upper_handle):
        h = factory(n, 0.05)
        shift = -h.shift_constant if h.side == "lower" else h.shift_constant
        sigmas = np.sqrt(2.0 * h.kappa * (-t))
        sigmas_g = np.sqrt(2.0 * h.kappa * (-tg))
        sigma = np.array([math.sqrt(2.0 * h.kappa * 0.3)])
        for kind, X in rows.items():
            want = (_direct_max_value(X, sigmas) * w).sum(axis=1) + shift
            assert np.array_equal(h.value_batch(X), want), kind
            want = (_direct_max_value(X, sigma) * np.ones(1)).sum(axis=1)
            assert np.array_equal(h.fixed_value_batch(X, -0.3), want), kind
            want = clip_simplex((_direct_max_grad(X, sigmas_g)
                                 * wg[:, None]).sum(axis=1))
            assert np.array_equal(h.gradient_batch(X), want), kind
            if factory is max_upper_handle:  # the max player's handle
                weights = make_player("max", n, 0.05).weights_batch(X)
                assert np.array_equal(weights, want), kind


def test_only_whole_number_differences_enter_the_weight_memo(monkeypatch):
    monkeypatch.setattr(potentials, "exp_time_nodes", _three_time_nodes)
    real = np.random.default_rng(12).normal(size=(50, 3)) * 5.0
    whole = np.round(real)
    h = heat_upper_handle(3, 0.01)
    memo = h._log_cdf
    want_real = _direct_gradient(h, real)
    assert np.array_equal(h.gradient_batch(real), want_real)
    assert not memo._index and memo._table.size == 0
    want_whole = _direct_gradient(h, whole)
    assert np.array_equal(h.gradient_batch(whole), want_whole)
    filled = len(memo._index)
    assert filled == np.unique(whole[:, :, None] - whole[:, None, :]).size
    # one real row keeps the whole call out of the memo, and off its bits
    mixed = np.vstack([real[:1] + 100.0, whole])
    assert np.array_equal(h.gradient_batch(mixed), _direct_gradient(h, mixed))
    assert len(memo._index) == filled
    assert np.array_equal(h.gradient_batch(real), want_real)
    assert np.array_equal(h.gradient_batch(whole), want_whole)


def test_a_full_memo_keeps_its_bound_and_every_bit(monkeypatch):
    monkeypatch.setattr(potentials, "exp_time_nodes", _three_time_nodes)
    rows = 3 * potentials._YG_NODES.size
    budget = 10 * rows
    X = np.round(np.random.default_rng(3).normal(size=(40, 4)) * 8.0)
    want = _direct_gradient(heat_upper_handle(4, 0.05), X)
    monkeypatch.setattr(potentials, "_CHUNK_BUDGET", budget)
    h = heat_upper_handle(4, 0.05)
    memo = h._log_cdf
    for _ in range(2):
        assert np.array_equal(h.gradient_batch(X), want)
        assert np.array_equal(np.array([h.gradient_batch(x[None, :])[0] for x in X]),
                              want)
        assert 0 < len(memo._index) <= 10
        assert memo._table.size <= budget


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


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_empty_batches_give_empty_gradients(name):
    grads = _FACTORIES[name](3, 0.1).gradient_batch(np.zeros((0, 3)))
    assert grads.shape == (0, 3)


def test_heat_blocks_stay_inside_the_budget(monkeypatch):
    # every heat tensor alive at a block's peak counts against the budget,
    # also for real rows, whose differences repeat in no other row
    budget = 2_000_000
    monkeypatch.setattr(potentials, "_CHUNK_BUDGET", budget)
    rng = np.random.default_rng(8)
    for n in (2, 3, 8):  # from n = 8 a weight sums its terms in eight lanes
        real = rng.normal(size=(100, n)) * 10.0
        for X in (np.round(real), real):
            for evaluate in (make_player("heat", n, 0.01).weights_batch,
                             heat_upper_handle(n, 0.01).value_batch):
                tracemalloc.start()
                try:
                    evaluate(X)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1.25 * 8 * budget, (n, evaluate, peak / 2**20)


def test_max_blocks_stay_inside_the_budget(monkeypatch):
    # real rows share no gap tuple, so every row of a block is evaluated;
    # lattice rows share most of theirs
    budget = 2_000_000
    monkeypatch.setattr(potentials, "_CHUNK_BUDGET", budget)
    rng = np.random.default_rng(18)
    for n in (2, 3, 5):
        real = rng.normal(size=(3000, n)) * 10.0
        lattice = 2.0 * np.round(real / 4.0)
        lattice -= lattice[:, -1:]
        for X in (lattice, real):
            for evaluate in (make_player("max", n, 0.01).weights_batch,
                             max_upper_handle(n, 0.01).value_batch):
                tracemalloc.start()
                try:
                    evaluate(X)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1.25 * 8 * budget, (n, evaluate, peak / 2**20)


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
