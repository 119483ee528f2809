import math

import numpy as np
import pytest

from geostop.bounds import (
    BoundReport,
    ErrorConstants,
    REPORT_FIELDS,
    all_bounds,
    comparison_curves,
    estimate_error_constants,
    exp_weights_bound,
    heat_bounds,
    max_bounds,
    ratio_to_sqrt_2logN,
)
from geostop.potentials import (heat_lower_handle, heat_upper_handle,
                                max_lower_handle, max_upper_handle)
from geostop.specfun import gaussian_max_expectation, laplace_inv1_bound


def test_diffusion_constants_for_game():
    ratio = 9.0
    np.testing.assert_allclose(heat_lower_handle(3, 0.1).kappa,
                               ratio * (0.5 + 1.0 / 6.0))
    np.testing.assert_allclose(heat_upper_handle(3, 0.1).kappa, ratio)
    np.testing.assert_allclose(max_lower_handle(3, 0.1).kappa, 2.0 * ratio)
    np.testing.assert_allclose(max_upper_handle(3, 0.1).kappa, 2.0 * ratio)


def test_exp_weights_bound_formula_identity():
    for n, d in [(2, 0.5), (3, 0.05), (10, 1e-4)]:
        rep = exp_weights_bound(n, d)
        assert rep.bound == math.sqrt(2.0 * (1.0 - d) * math.log(n) / d)
        assert rep.error_term == 0.0
        assert rep.error_mode == "exact"
        np.testing.assert_allclose(rep.c_n, rep.bound * math.sqrt(d),
                                   atol=1e-15)


def test_heat_bounds_zero_error_closed_form():
    n, d = 3, 0.1
    lo, hi = heat_bounds(n, d, ErrorConstants.zero())
    assert lo.side == "lower" and hi.side == "upper"
    assert lo.bound == lo.potential_at_zero
    assert hi.bound == hi.potential_at_zero
    # lower uses the smaller diffusion factor, so it sits below the upper
    assert lo.bound < hi.bound
    emax = gaussian_max_expectation(n)
    # value scales linearly in E[max of n normals]
    np.testing.assert_allclose(lo.potential_at_zero / emax,
                               heat_bounds(2, d, ErrorConstants.zero())[0]
                               .potential_at_zero
                               / gaussian_max_expectation(2) * math.sqrt(
                                   (0.5 + 1.0 / 6.0)), rtol=1e-12)


def test_max_bounds_zero_error_ordering():
    lo, hi = max_bounds(4, 0.05, ErrorConstants.zero())
    assert lo.family == "max" and hi.family == "max"
    assert 0.0 < lo.bound < hi.bound


def test_error_terms_enter_with_the_right_sign():
    ec = ErrorConstants(k3_heat_lower=0.1, k4_heat_lower=0.05,
                        k3_heat_upper=0.1, k3_max_lower=0.1,
                        k3_max_upper=0.1, mode="user_supplied")
    zero = ErrorConstants.zero()
    for make in (heat_bounds, max_bounds):
        lo0, hi0 = make(3, 0.1, zero)
        lo1, hi1 = make(3, 0.1, ec)
        assert lo1.bound < lo0.bound  # lower bounds shrink
        assert hi1.bound > hi0.bound  # upper bounds grow
        assert lo1.error_term > 0.0 and hi1.error_term > 0.0


def test_third_order_error_magnitude():
    d, k3 = 0.1, 0.2
    _, hi = heat_bounds(3, d, ErrorConstants(0.0, 0.0, k3, 0.0, 0.0,
                                             mode="user_supplied"))
    want = (1.0 - d) / (6.0 * d) * k3 * laplace_inv1_bound(d)
    np.testing.assert_allclose(hi.error_term, want, atol=1e-12)


def test_heat_lower_takes_the_smaller_error():
    # a huge third-order constant should lose to a moderate fourth-order one
    ec = ErrorConstants(k3_heat_lower=50.0, k4_heat_lower=0.01,
                        k3_heat_upper=0.0, k3_max_lower=0.0,
                        k3_max_upper=0.0, mode="user_supplied")
    lo_mixed, _ = heat_bounds(3, 0.1, ec)
    only3 = ErrorConstants(50.0, np.inf, 0.0, 0.0, 0.0, mode="user_supplied")
    lo_third, _ = heat_bounds(3, 0.1, only3)
    assert lo_mixed.error_term < lo_third.error_term


def test_estimate_error_constants_deterministic():
    a = estimate_error_constants(2, 0.2, seed=1)
    b = estimate_error_constants(2, 0.2, seed=1)
    assert a == b
    assert a.mode == "numerically_estimated"
    for value in (a.k3_heat_lower, a.k4_heat_lower, a.k3_heat_upper,
                  a.k3_max_lower, a.k3_max_upper):
        assert 0.0 < value < 10.0


# estimate_error_constants(n, 0.01, seed=1) as (k3_heat_lower,
# k4_heat_lower, k3_heat_upper, k3_max_lower, k3_max_upper), compared
# exactly: the fourth difference amplifies rounding, so any change to the
# stencils, steps or grid shows as changed bits
_PINNED_CONSTANTS = {
    2: (0.004879041113463547, 0.0008668724613769634, 0.004879041113463547,
        0.004879041115101769, 0.004879041115101769),
    3: (0.008842109713476402, 0.003120740860957068, 0.0058221702590098515,
        0.013017781024919123, 0.013017781024919123),
    4: (0.010712251126340588, 0.004507736799160209, 0.0071261981609317855,
        0.02111700100104839, 0.016462441934623893),
}


def test_pinned_error_constants():
    for n, want in _PINNED_CONSTANTS.items():
        got = estimate_error_constants(n, 0.01, seed=1)
        assert (got.k3_heat_lower, got.k4_heat_lower, got.k3_heat_upper,
                got.k3_max_lower, got.k3_max_upper) == want, n


def test_all_bounds_families_and_sides():
    reports = all_bounds(3, 0.2, ErrorConstants.zero())
    tags = {(r.family, r.side) for r in reports}
    assert tags == {("heat", "lower"), ("heat", "upper"), ("max", "lower"),
                    ("max", "upper"), ("exp_weights", "upper")}


def test_comparison_curves_values():
    d = 1e-4
    curves = comparison_curves(5, d)
    np.testing.assert_allclose(curves["gravin_lower_asymptote"],
                               math.sqrt(math.log(5) / (2.0 * d)))
    np.testing.assert_allclose(curves["gravin_upper"],
                               math.sqrt(2.0 * math.log(5) / d))


def test_ratio_increasing_in_n():
    d = 1e-8
    r10 = ratio_to_sqrt_2logN(10, d)
    r100 = ratio_to_sqrt_2logN(100, d)
    assert 0.0 < r10 < r100 < 1.0


def test_bound_report_round_trip():
    rep = exp_weights_bound(4, 0.3)
    again = BoundReport.from_dict(rep.to_dict())
    assert again == rep
    row = rep.csv_row()
    assert len(row) == len(REPORT_FIELDS)
    assert row[0] == "exp_weights"
    assert all(isinstance(v, (str, int)) for v in row)
