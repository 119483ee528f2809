import numpy as np
import pytest

from geostop.oracle import (
    adversary_sandwich,
    build_states,
    ordering_check,
    player_sandwich,
    potential_upper_source,
    project_state,
    value_iteration_adversary,
    value_iteration_player,
)
from geostop.potentials import exp_handle
from geostop.strategies import make_adversary, make_player


@pytest.fixture(scope="module")
def adv_half():
    return value_iteration_adversary(make_adversary("heat", 2), 2, 0.5,
                                     radius=20)


@pytest.fixture(scope="module")
def ply_half():
    handle = exp_handle(2, 0.5)
    lvf = value_iteration_player(make_player("exp", 2, 0.5), 2, 0.5, radius=20,
                                 upper_bound=potential_upper_source(handle))
    return lvf, handle


@pytest.mark.parametrize("n, radius, count", [(2, 4, 5), (3, 2, 7),
                                              (2, 20, 21), (4, 4, 65)])
def test_build_states_counts(n, radius, count):
    states = build_states(n, radius)
    assert states.shape == (count, n - 1)
    # even lattice, inside the span budget, lexicographically sorted
    assert not np.any(states % 2)
    hi = np.maximum(states.max(axis=1), 0)
    lo = np.minimum(states.min(axis=1), 0)
    assert np.all(hi - lo <= radius)
    order = np.lexsort(states.T[::-1])
    np.testing.assert_array_equal(order, np.arange(len(states)))


def test_build_states_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_states(1, 4)
    with pytest.raises(ValueError):
        build_states(2, 3)
    with pytest.raises(ValueError):
        build_states(2, 0)


def test_build_states_fails_fast_on_huge_grids():
    # 61^5 grid points at the CLI's default radius; must raise before
    # enumerating any of them, naming the (31^6 - 30^6) states it would keep
    with pytest.raises(ValueError, match=r"n=6, radius=60 .* 158503681 states"):
        build_states(6, 60)


def test_oracle_command_rejects_a_huge_lattice():
    from geostop.cli import main

    assert main(["oracle", "--n", "6", "--delta", "0.1",
                 "--adversary", "max"]) == 2


def test_project_state_examples():
    proj, moved = project_state(np.array([10]), 4)
    np.testing.assert_array_equal(proj, [4])
    assert moved == 6
    proj, moved = project_state(np.array([6, -6]), 8)
    np.testing.assert_array_equal(proj, [4, -4])
    assert moved == 2
    inside = np.array([2, -2])
    proj, moved = project_state(inside, 8)
    np.testing.assert_array_equal(proj, inside)
    assert moved == 0


def test_project_state_random_targets_land_in_domain():
    rng = np.random.default_rng(3)
    radius = 8
    for _ in range(200):
        d = 2 * rng.integers(-12, 13, size=3)
        proj, moved = project_state(d, radius)
        hi = max(proj.max(), 0)
        lo = min(proj.min(), 0)
        assert hi - lo <= radius
        assert not np.any(proj % 2)
        assert moved == np.max(np.abs(d - proj))


def test_immediate_stop_returns_the_score():
    # delta = 1 stops before any move, so the value is the score itself.
    adv = value_iteration_adversary(make_adversary("heat", 2), 2, 1.0,
                                    radius=8)
    g = np.maximum(adv.states.max(axis=1), 0)
    np.testing.assert_array_equal(adv.lower, g)
    np.testing.assert_array_equal(adv.upper, g)
    ply = value_iteration_player(make_player("uniform", 2, 1.0), 2, 1.0,
                                 radius=8)
    np.testing.assert_array_equal(ply.lower, g)
    np.testing.assert_array_equal(ply.upper, g)


def test_adversary_origin_value_frozen(adv_half):
    # Direct simulation of the same matchup gives 0.578 +- 0.003.
    np.testing.assert_allclose(adv_half.value_at_origin(),
                               0.5773488716267821, rtol=1e-9)
    lo, hi = adv_half.bracket([0])
    assert hi - lo < 1e-4
    assert adv_half.fixed_point_gap <= 1e-8
    # balanced outcomes make the score a submartingale, so the value
    # dominates the score away from the truncation boundary
    g = np.maximum(adv_half.states.max(axis=1), 0)
    mask = adv_half.interior_mask()
    assert np.all(adv_half.lower[mask] >= g[mask] - 0.01)


def test_adversary_swap_symmetry():
    adv = value_iteration_adversary(make_adversary("heat", 3), 3, 0.2,
                                    radius=8)
    idx = {tuple(s): i for i, s in enumerate(adv.states.tolist())}
    for (a, b), i in idx.items():
        j = idx[(b, a)]
        np.testing.assert_allclose(adv.lower[i], adv.lower[j], atol=1e-12)
        np.testing.assert_allclose(adv.upper[i], adv.upper[j], atol=1e-12)


def test_relabeling_identity_inside_brackets():
    # Moving the pinned expert from slot 3 to slot 1 maps state (a, b) to
    # (-a, b - a) and shifts the value by a.  Truncation breaks the exact
    # identity, but certified brackets must still overlap after the shift.
    adv = value_iteration_adversary(make_adversary("heat", 3), 3, 0.5,
                                    radius=16)
    idx = {tuple(s): i for i, s in enumerate(adv.states.tolist())}
    mids = 0.5 * (adv.lower + adv.upper)
    widths = adv.upper - adv.lower
    checked = 0
    for (a, b), i in idx.items():
        if max(abs(a), abs(b)) > 6 or (-a, b - a) not in idx:
            continue
        j = idx[(-a, b - a)]
        checked += 1
        err = abs(mids[i] - a - mids[j])
        assert err <= 0.5 * (widths[i] + widths[j]) + 1e-6
    assert checked >= 40


def test_player_origin_value_frozen_and_dominated(ply_half):
    lvf, handle = ply_half
    np.testing.assert_allclose(lvf.value_at_origin(), 0.6088777192585593,
                               rtol=1e-9)
    bound0 = handle.value([0.0, 0.0])
    np.testing.assert_allclose(bound0, 1.1774100225154747, rtol=1e-9)
    assert lvf.value_at_origin() <= bound0 + 1e-6
    assert np.all(lvf.lower <= lvf.upper + 1e-12)


def test_boundary_source_tames_the_optimistic_run():
    # With a long mean horizon the projection-distance bonus compounds and
    # the plain optimistic run overshoots even the softmax bound it is
    # meant to test; reading boundary data from the bound itself keeps the
    # run below it.  The pessimistic run is shared and must not care.
    delta = 0.05
    handle = exp_handle(2, delta)
    player = make_player("exp", 2, delta)
    src = value_iteration_player(player, 2, delta, radius=20,
                                 upper_bound=potential_upper_source(handle))
    chg = value_iteration_player(player, 2, delta, radius=20)
    i0 = src.state_index([0])
    bound0 = handle.value([0.0, 0.0])
    assert src.upper[i0] <= bound0 + 1e-6
    assert chg.upper[i0] > bound0 + 10.0
    np.testing.assert_allclose(src.lower, chg.lower, atol=1e-7)


def test_vertex_subsets_only_lower_the_best_response():
    player = make_player("uniform", 2, 0.3)
    full = value_iteration_player(player, 2, 0.3, radius=12)
    pair = value_iteration_player(player, 2, 0.3, radius=12,
                                  outcomes=np.array([[-1, 1], [1, -1]]))
    assert np.all(pair.lower <= full.lower + 1e-6)
    assert np.all(pair.upper <= full.upper + 1e-6)


def test_player_sandwich_certifies_the_softmax_bound(ply_half):
    lvf, handle = ply_half
    report = player_sandwich(lvf, handle, 0.0, "exact")
    assert report.passed
    assert report.violations == 0
    assert report.worst_margin <= 0.0
    d = report.to_dict()
    assert d["passed"] is True
    assert d["kind"] == "player_upper"
    assert set(d) == {"kind", "family", "side", "n", "delta", "checked_states",
                      "violations", "worst_margin", "error_term", "error_mode",
                      "max_bracket_width", "tol", "passed"}


def test_adversary_sandwich_flags_a_bad_lower_claim(adv_half):
    # The softmax potential sits far above the adversary value, so claiming
    # it as a lower bound must fail at every checked state.
    report = adversary_sandwich(adv_half, exp_handle(2, 0.5), 0.0, "exact")
    assert not report.passed
    assert report.violations == report.checked_states
    assert report.worst_margin > 0.5


def test_ordering_of_the_two_oracles(adv_half, ply_half):
    lvf, _ = ply_half
    report = ordering_check(adv_half, lvf)
    assert report.passed
    assert report.kind == "ordering"
    small = value_iteration_adversary(make_adversary("heat", 2), 2, 0.5,
                                      radius=8)
    with pytest.raises(ValueError):
        ordering_check(small, lvf)


def test_lattice_accessors(adv_half):
    i = adv_half.state_index([4])
    assert adv_half.state_index([6.0, 2.0]) == i  # full state, pinned shift
    with pytest.raises(KeyError):
        adv_half.state_index([40])
    lo, hi = adv_half.bracket([4])
    assert lo <= hi
    assert adv_half.value([4]) == 0.5 * (lo + hi)
    assert np.all(adv_half.width() >= 0.0)
    assert adv_half.interior_mask(4).sum() > adv_half.interior_mask(8).sum()


def test_potential_upper_source_offsets_by_the_error_term():
    handle = exp_handle(2, 0.5)
    base = potential_upper_source(handle)
    lifted = potential_upper_source(handle, 2.5)
    X = np.array([[2.0, 0.0], [0.0, 0.0], [-4.0, 0.0]])
    np.testing.assert_allclose(lifted(X), base(X) + 2.5, rtol=1e-14)
