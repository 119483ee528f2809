"""End-to-end gate: every advertised guarantee at its stated tolerance.

Each test prints one pass/fail line under pytest -v.  Budgeted tests
assert their own wall-clock limit so a performance regression fails
loudly rather than silently eating CI time.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from geostop.bounds import (
    ErrorConstants,
    estimate_error_constants,
    exp_weights_bound,
    heat_bounds,
    max_bounds,
    ratio_to_sqrt_2logN,
)
from geostop.oracle import (
    adversary_sandwich,
    player_sandwich,
    value_iteration_adversary,
    value_iteration_player,
)
from geostop.potentials import (
    exp_handle,
    heat_lower_handle,
    heat_upper_handle,
    max_lower_handle,
    max_upper_handle,
)
from geostop.simulate import SimulationConfig, run
from geostop.specfun import gaussian_max_expectation, laplace_inv32_integral
from geostop.strategies import make_adversary, make_player
from geostop.verify import (
    check_final_time,
    check_lower_condition,
    check_upper_condition,
    sample_states,
)
from test_specfun import laplace_sqrt_integral

_SQRT_2_PI = math.sqrt(2.0 / math.pi)


def _closed_origin(handle) -> float:
    """Shift-free origin value of the time-integrated potential.

    Both families reduce at the origin to e^delta sqrt(2 kappa) L(delta)
    times a size-dependent constant, with L the exponentially weighted
    integral of sqrt(-t)."""
    n, delta = handle.n, handle.delta
    if handle.family == "heat":
        const = gaussian_max_expectation(n)
    else:
        const = _SQRT_2_PI * (n - 1) / n
    return (math.exp(delta) * math.sqrt(2.0 * handle.kappa)
            * laplace_sqrt_integral(delta) * const)


def _shift_free(handle) -> float:
    value = handle.value(np.zeros(handle.n))
    sign = 1.0 if handle.side == "lower" else -1.0
    return value + sign * handle.shift_constant


def test_transform_integrals_and_origin_closed_forms():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(20):
        d = 10.0 ** rng.uniform(-8.0, math.log10(0.5))
        root = math.sqrt(d)
        want_sqrt = integrate.quad(lambda s: 2.0 * s * s * math.exp(-s * s),
                                   root, np.inf, epsabs=1e-13, epsrel=1e-12)[0]
        np.testing.assert_allclose(laplace_sqrt_integral(d), want_sqrt,
                                   rtol=1e-9)
        want_inv32 = integrate.quad(lambda s: 2.0 * math.exp(-s * s) / (s * s),
                                    root, np.inf, epsabs=1e-13, epsrel=1e-12)[0]
        np.testing.assert_allclose(laplace_inv32_integral(d), want_inv32,
                                   rtol=1e-9)

    for n in range(2, 9):
        for delta in (1e-2, 1e-4, 1e-6):
            for factory in (heat_lower_handle, heat_upper_handle,
                            max_lower_handle, max_upper_handle):
                h = factory(n, delta)
                np.testing.assert_allclose(_shift_free(h), _closed_origin(h),
                                           rtol=1e-7)
    assert time.monotonic() - start < 60.0


def test_small_size_constants_are_asymptotically_tight():
    delta = 1e-6
    scale = math.sqrt(delta)
    two = 1.0 / math.sqrt(2.0)
    for factory in (heat_upper_handle, max_lower_handle, max_upper_handle):
        h = factory(2, delta)
        np.testing.assert_allclose(scale * h.value(np.zeros(2)), two,
                                   rtol=0.01)
    three = (4.0 / 3.0) / math.sqrt(2.0)
    for factory in (max_lower_handle, max_upper_handle):
        h = factory(3, delta)
        np.testing.assert_allclose(scale * h.value(np.zeros(3)), three,
                                   rtol=0.01)


def test_softmax_bound_formula_and_restricted_oracle():
    for n in (2, 5, 30):
        for delta in (0.5, 0.1, 1e-4):
            rep = exp_weights_bound(n, delta)
            want = math.sqrt(2.0 * (1.0 - delta) * math.log(n) / delta)
            np.testing.assert_allclose(rep.bound, want, rtol=1e-12)
            assert rep.error_term == 0.0
            assert rep.error_mode == "exact"

    lvf = value_iteration_player(make_player("exp", 2, 0.5), 2, 0.5, radius=20)
    bound = exp_weights_bound(2, 0.5).bound
    assert lvf.bracket([0])[1] <= bound + 1e-6


def test_normalized_lower_constant_grows_with_size():
    vals = [ratio_to_sqrt_2logN(n, 1e-12) for n in (10, 100, 1000, 10000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert 0.75 <= vals[-1] <= 0.89
    assert all(0.5 < v < 0.89 for v in vals)


def test_curvature_conditions_across_sizes_and_rates():
    start = time.monotonic()
    tol = 1e-4
    for n in (2, 3, 4):
        for delta in (0.05, 0.1):
            rng = np.random.default_rng(1000 * n + int(100 * delta))
            xs = sample_states(n, delta, 200, rng)
            reports = [
                check_lower_condition(heat_lower_handle(n, delta),
                                      make_adversary("heat", n), xs, tol),
                check_lower_condition(max_lower_handle(n, delta),
                                      make_adversary("max", n), xs, tol),
                check_upper_condition(heat_upper_handle(n, delta), xs, tol),
                check_upper_condition(max_upper_handle(n, delta), xs, tol),
                check_upper_condition(exp_handle(n, delta), xs, tol),
            ]
            bad = [(r.name, r.family, n, delta, r.worst_margin)
                   for r in reports if not r.passed]
            assert not bad, bad
    assert time.monotonic() - start < 300.0


def test_final_time_proximity_to_the_score():
    for n in range(2, 7):
        rng = np.random.default_rng(n)
        xs = sample_states(n, 0.1, 500, rng)
        for factory in (heat_lower_handle, heat_upper_handle,
                        max_lower_handle, max_upper_handle):
            report = check_final_time(factory(n, 0.1), xs)
            assert report.passed, (factory.__name__, n, report.worst_margin)


def test_lattice_sandwich_matrix():
    start = time.monotonic()
    radius, tol = 60, 1e-8
    failures = []
    for n in (2, 3):
        for delta in (0.05, 0.1, 0.2):
            constants = estimate_error_constants(n, delta, seed=0)
            h_lo, h_hi = heat_bounds(n, delta, constants)
            m_lo, m_hi = max_bounds(n, delta, constants)

            for kind, handle, err in (("heat", heat_lower_handle(n, delta),
                                       h_lo.error_term),
                                      ("max", max_lower_handle(n, delta),
                                       m_lo.error_term)):
                lvf = value_iteration_adversary(make_adversary(kind, n), n,
                                                delta, radius, tol)
                rep = adversary_sandwich(lvf, handle, err,
                                         "numerically_estimated", tol)
                assert rep.error_mode == "numerically_estimated"
                if not rep.passed:
                    failures.append(("adversary", kind, n, delta,
                                     rep.worst_margin))

            player_cases = (
                ("exp", 0.0, "exact"),
                ("heat", h_hi.error_term, "numerically_estimated"),
                ("max", m_hi.error_term, "numerically_estimated"),
            )
            for kind, err, mode in player_cases:
                player = make_player(kind, n, delta)
                lvf = value_iteration_player(player, n, delta, radius, tol,
                                             error_term=err)
                rep = player_sandwich(lvf, player.handle, err, mode, tol)
                assert rep.error_term == err
                if not rep.passed:
                    failures.append(("player", kind, n, delta,
                                     rep.worst_margin))
    assert not failures, failures
    assert time.monotonic() - start < 600.0


def test_long_horizon_player_oracle_within_budget():
    # 113,521 states at delta=0.01; its sweeps took 31 s, policy iteration
    # with every target projected 2.2 s
    n, delta = 4, 0.01
    player = make_player("max", n, delta)
    start = time.monotonic()
    lvf = value_iteration_player(player, n, delta, radius=60)
    assert time.monotonic() - start < 4.0
    assert lvf.states.shape[0] == 31 ** 4 - 30 ** 4
    assert lvf.fixed_point_gap <= 1e-8


def test_long_horizon_adversary_oracle_within_budget():
    # 113,521 states at delta=0.01; its 1,980 sweeps took 4.7 s
    n, delta = 4, 0.01
    start = time.monotonic()
    lvf = value_iteration_adversary(make_adversary("max", n), n, delta,
                                    radius=60)
    assert time.monotonic() - start < 4.0
    assert lvf.states.shape[0] == 31 ** 4 - 30 ** 4
    assert lvf.fixed_point_gap <= 1e-8


def test_monte_carlo_regret_lands_between_the_bounds():
    start = time.monotonic()
    n, delta, trials = 3, 0.01, 100_000
    zero = ErrorConstants.zero()

    cfg = SimulationConfig(n=n, delta=delta,
                           player=make_player("heat", n, delta),
                           adversary=make_adversary("heat", n),
                           trials=trials, seed=20)
    res = run(cfg, collect_outcomes=True)
    lo, hi = heat_bounds(n, delta, zero)
    assert lo.bound - 3.0 * res.std_error <= res.mean_regret
    assert res.mean_regret <= hi.bound + 3.0 * res.std_error
    assert np.all(np.abs(res.outcome_mean) <= 4.0 * res.outcome_se)

    cfg = SimulationConfig(n=n, delta=delta,
                           player=make_player("max", n, delta),
                           adversary=make_adversary("max", n),
                           trials=trials, seed=21)
    res = run(cfg)
    lo, hi = max_bounds(n, delta, zero)
    assert lo.bound - 3.0 * res.std_error <= res.mean_regret
    assert res.mean_regret <= hi.bound + 3.0 * res.std_error
    assert time.monotonic() - start < 300.0


def test_invariant_suites_run_standalone():
    proc = subprocess.run([sys.executable, "-m", "geostop", "verify",
                           "--suite", "all"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 19
    assert all(r["violations"] == 0 for r in payload["reports"].values())
