import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostop.potentials import (
    exp_handle,
    heat_lower_handle,
    max_upper_handle,
)
from geostop.strategies import make_adversary
from geostop.verify import (
    SUITES,
    _cube_form_bound,
    check_final_time,
    check_gradient_consistency,
    check_lower_condition,
    check_translation_and_monotone,
    check_upper_condition,
    run_suite,
    sample_states,
)


def test_sample_states_layout():
    rng = np.random.default_rng(5)
    xs = sample_states(3, 0.1, 50, rng)
    assert xs.shape == (50, 3)
    np.testing.assert_array_equal(xs[0], np.zeros(3))
    np.testing.assert_array_equal(xs[1], np.full(3, 3.0))
    np.testing.assert_array_equal(xs[2], np.full(3, -3.0))
    # a near-tie pair is present to stress the ranked potentials
    assert np.any(np.abs(xs[:, 0] - xs[:, 1] - 1e-3) < 1e-12)
    radius = 20.0 / np.sqrt(0.1)
    assert np.all(np.linalg.norm(xs, axis=1) <= radius + 1e-9)
    again = sample_states(3, 0.1, 50, np.random.default_rng(5))
    np.testing.assert_array_equal(xs, again)


def test_sample_states_small_count_keeps_structured_rows():
    xs = sample_states(4, 0.2, 3, np.random.default_rng(0))
    assert xs.shape == (3, 4)
    np.testing.assert_array_equal(xs[0], np.zeros(4))


@pytest.mark.parametrize("count", [0, -5])
def test_a_count_below_one_is_refused(count):
    with pytest.raises(ValueError, match="at least 1"):
        sample_states(3, 0.1, count, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least 1"):
        run_suite("final-time", n=3, delta=0.1, samples=count)


def test_lower_condition_is_nearly_an_equality_for_heat():
    # The diffusion factor is chosen so the matching adversary attains the
    # curvature budget; the margin should sit at finite-difference noise,
    # not at some comfortable negative slack.
    rng = np.random.default_rng(0)
    xs = sample_states(2, 0.1, 40, rng)
    report = check_lower_condition(heat_lower_handle(2, 0.1),
                                   make_adversary("heat", 2), xs)
    assert report.passed
    assert abs(report.worst_margin) < 1e-5
    assert report.samples == 40
    assert "detail_worst_state" in report.to_dict()


def test_upper_condition_reports_the_softmax_cap():
    rng = np.random.default_rng(2)
    xs = sample_states(3, 0.1, 30, rng)
    report = check_upper_condition(exp_handle(3, 0.1), xs, 1e-4)
    assert report.passed
    assert report.details["eta_cap_margin"] <= 1e-4
    assert report.details["diagonal_slack"] <= 1e-6


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_cube_form_bound_brackets_the_cube_maximum(n, data):
    # The grid holds every vertex, so its maximum lies between the vertex
    # scan (the bound minus its slack) and the bound, even where the
    # diagonal is negative and the maximum sits inside the cube.
    entries = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                                 max_size=n * n))
    a = np.array(entries).reshape(n, n)
    hess = np.triu(a) + np.triu(a, 1).T
    bound, slack = _cube_form_bound(hess[None])
    axis = np.linspace(-1.0, 1.0, 9)
    grid = np.array(list(itertools.product(axis, repeat=n)))
    grid_max = np.einsum("ki,ij,kj->k", grid, hess, grid).max()
    assert bound[0] - slack[0] - 1e-12 <= grid_max <= bound[0] + 1e-12


def test_gradient_check_of_only_near_ties_reports_no_states():
    report = check_gradient_consistency(max_upper_handle(3, 0.1),
                                        [[5.0, 5.0 - 1e-6, 0.0]])
    assert report.samples == 0
    assert report.details["skipped_near_ties"] == 1
    assert report.passed


def test_final_time_bounds_by_family():
    rng = np.random.default_rng(3)
    xs = sample_states(3, 0.1, 60, rng)
    heat = check_final_time(heat_lower_handle(3, 0.1), xs)
    assert heat.passed
    ranked = check_final_time(max_upper_handle(3, 0.1), xs)
    assert ranked.passed
    with pytest.raises(ValueError):
        check_final_time(exp_handle(3, 0.1), xs)


def test_translation_and_monotonicity():
    rng = np.random.default_rng(4)
    xs = sample_states(3, 0.2, 40, rng)
    report = check_translation_and_monotone(max_upper_handle(3, 0.2), xs, rng)
    assert report.passed
    assert report.name == "translation_monotone"


def test_gradient_consistency_skips_near_ties_for_the_ranked_family():
    # A gap inside the difference stencil would poison the comparison for
    # the ranked family; such rows are dropped and counted instead.
    xs = np.array([[5.0, 5.0 - 1e-6, 0.0], [4.0, 0.0, -2.0], [0.0, 0.0, 0.0]])
    report = check_gradient_consistency(max_upper_handle(3, 0.1), xs)
    assert report.passed
    assert report.details["skipped_near_ties"] == 1
    assert report.samples == 2
    smooth = check_gradient_consistency(heat_lower_handle(3, 0.1), xs)
    assert smooth.passed
    assert smooth.details["skipped_near_ties"] == 0
    assert smooth.samples == 3


def test_run_suite_covers_every_check():
    reports = run_suite("all", n=2, delta=0.1, samples=16, seed=0)
    assert set(reports) == {
        "lower_heat", "lower_max",
        "upper_heat", "upper_max", "upper_exp",
        "final_time_heat_lower", "final_time_heat_upper",
        "final_time_max_lower", "final_time_max_upper",
        "translation_heat_lower", "translation_heat_upper",
        "translation_max_lower", "translation_max_upper", "translation_exp",
        "gradients_heat_lower", "gradients_heat_upper",
        "gradients_max_lower", "gradients_max_upper", "gradients_exp",
    }
    assert all(r.passed for r in reports.values())


@pytest.mark.parametrize("suite, names", [
    ("translation", 5), ("gradients", 5), ("lower", 2), ("upper", 3),
    ("final-time", 4),
])
def test_run_suite_subsets(suite, names):
    reports = run_suite(suite, n=2, delta=0.2, samples=12, seed=1)
    assert len(reports) == names
    assert all(r.passed for r in reports.values())


def test_run_suite_rejects_unknown_names():
    assert "all" in SUITES
    with pytest.raises(ValueError):
        run_suite("everything")


def test_check_report_dict_round_trip():
    rng = np.random.default_rng(7)
    xs = sample_states(2, 0.1, 10, rng)
    report = check_final_time(heat_lower_handle(2, 0.1), xs)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["violations"] == 0
    assert isinstance(d["worst_margin"], float)
    assert len(d["detail_worst_state"]) == 2
