import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostop import oracle
from geostop.oracle import (
    _transition_tables,
    adversary_sandwich,
    build_states,
    ordering_check,
    player_sandwich,
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
    player = make_player("exp", 2, 0.5)
    lvf = value_iteration_player(player, 2, 0.5, radius=20)
    return lvf, player.handle


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


def test_build_states_five_experts():
    states = build_states(5, 30)
    assert states.shape == (16 ** 5 - 15 ** 5, 4) == (289201, 4)
    assert not np.any(states % 2)
    hi = np.maximum(states.max(axis=1), 0)
    lo = np.minimum(states.min(axis=1), 0)
    assert np.all(hi - lo <= 30)
    # strictly increasing in lexicographic order: sorted, no duplicates
    step = np.diff(states, axis=0)
    first = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
    assert np.all(first > 0)


def test_build_states_refuses_by_table_size():
    # 4,329,151 states times 32 vertex outcomes exceed the 10^7 limit
    with pytest.raises(ValueError, match=r"n=5, radius=60 .* 4329151 states"):
        build_states(5, 60)


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


def _project_one(d, radius):
    """Scalar reference for project_state: one state at a time."""
    hi = int(max(d.max(), 0))
    lo = int(min(d.min(), 0))
    excess = hi - lo - radius
    if excess <= 0:
        return d, 0
    m_top = min(hi, 2 * ((excess // 2 + 1) // 2))
    m_bot = excess - m_top
    if m_bot > -lo:
        m_bot = -lo
        m_top = excess - m_bot
    return np.clip(d, lo + m_bot, hi - m_top), max(m_top, m_bot)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 5), half=st.integers(1, 10), data=st.data())
def test_batched_projection_matches_the_scalar_reference(n, half, data):
    radius = 2 * half
    rows = data.draw(st.integers(1, 12))
    coords = data.draw(st.lists(st.integers(-radius - 4, radius + 4),
                                min_size=rows * (n - 1),
                                max_size=rows * (n - 1)))
    d = 2 * np.array(coords, dtype=np.int64).reshape(rows, 1, n - 1)
    proj, moved = project_state(d, radius)
    assert proj.shape == d.shape and moved.shape == (rows, 1)
    for r in range(rows):
        want, want_moved = _project_one(d[r, 0], radius)
        np.testing.assert_array_equal(proj[r, 0], want)
        assert moved[r, 0] == want_moved


def _tables_by_loop(states, shifts, radius):
    """Dict-and-loop reference for _transition_tables."""
    index = {tuple(s): i for i, s in enumerate(states.tolist())}
    per_state = shifts if shifts.ndim == 3 else np.broadcast_to(
        shifts, (len(states),) + shifts.shape)
    nxt = np.empty(per_state.shape[:2], dtype=np.int64)
    dist = np.zeros(per_state.shape[:2])
    for si, d in enumerate(states):
        for ki, shift in enumerate(per_state[si]):
            proj, moved = _project_one(d + shift, radius)
            nxt[si, ki] = index[tuple(proj.tolist())]
            dist[si, ki] = moved
    return nxt, dist


@pytest.mark.parametrize("block", [2**20, 20])
@pytest.mark.parametrize("law", ["vertices", "heat", "max"])
def test_transition_tables_match_the_loop(law, block, monkeypatch):
    # a 20-entry block splits the 61 states into many projection batches
    monkeypatch.setattr(oracle, "_TABLE_BLOCK", block)
    n, radius = 3, 8
    states = build_states(n, radius)
    if law == "vertices":
        outcomes = np.array(list(itertools.product((-1, 1), repeat=n)))
        shifts = outcomes[:, -1:] - outcomes[:, :-1]
    else:
        x_full = np.hstack([states, np.zeros((len(states), 1))])
        support, _ = make_adversary(law, n).outcomes_batch(x_full)
        shifts = (support[:, :, -1:] - support[:, :, :-1]).astype(np.int64)
    nxt, dist = _transition_tables(states, shifts, radius)
    want_nxt, want_dist = _tables_by_loop(states, shifts, radius)
    np.testing.assert_array_equal(nxt, want_nxt)
    np.testing.assert_array_equal(dist, want_dist)
    assert np.any(dist > 0)


# sweeps, residual, fixed_point_gap and the origin bracket at n=3, r=20,
# delta=0.1, as the loop-built tables and (S, K) sweeps gave them with exits
# read from the player's potential; any change in the order of the sweep
# arithmetic shows up here
_PINNED = {
    ("adversary", "heat"): (179, 1.0349889834060377e-09, 9.31490085065434e-09,
                            2.4228216118855586, 2.5157065942138184),
    ("adversary", "max"): (177, 1.0210445822167458e-09, 9.189401239950712e-09,
                           2.588724311910788, 2.721753941220505),
    ("player", "exp"): (180, 1.0853291598778014e-09, 9.767962438900213e-09,
                        3.1735874473429275, 3.218342059951989),
    ("player", "max"): (151, 1.0938290273543316e-09, 9.844461246188985e-09,
                        2.8911065771376565, 3.2008669779216627),
    ("player", "heat"): (153, 1.0314771259345434e-09, 9.283294133410891e-09,
                         3.118950212983792, 3.4759294536511645),
}


@pytest.mark.parametrize("role, kind", list(_PINNED))
def test_pinned_outputs(role, kind):
    n, radius, delta = 3, 20, 0.1
    if role == "adversary":
        lvf = value_iteration_adversary(make_adversary(kind, n), n, delta,
                                        radius=radius)
    else:
        lvf = value_iteration_player(make_player(kind, n, delta), n, delta,
                                     radius=radius)
    got = (lvf.sweeps, lvf.residual, lvf.fixed_point_gap) + lvf.bracket([0, 0])
    assert got == _PINNED[role, kind]


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
    # With a long mean horizon a projection-distance bonus at exits would
    # compound far past the softmax bound; reading exits from the bound
    # itself keeps the optimistic run below it.
    delta = 0.05
    player = make_player("exp", 2, delta)
    src = value_iteration_player(player, 2, delta, radius=20)
    bound0 = player.handle.value([0.0, 0.0])
    assert src.upper[src.state_index([0])] <= bound0 + 1e-6


def test_error_term_lifts_only_the_optimistic_run():
    player = make_player("exp", 2, 0.1)
    base = value_iteration_player(player, 2, 0.1, radius=12)
    lifted = value_iteration_player(player, 2, 0.1, radius=12, error_term=2.5)
    np.testing.assert_array_equal(lifted.lower, base.lower)
    assert np.all(lifted.upper >= base.upper)
    assert np.any(lifted.upper > base.upper)


def test_player_without_a_potential_is_refused():
    with pytest.raises(ValueError, match="no potential"):
        value_iteration_player(make_player("uniform", 2, 0.3), 2, 0.3,
                               radius=12)


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
    # off-lattice points raise instead of sharing a neighbour's key
    for off in ([3], [4.5], [-21], [0, 0, 0]):
        with pytest.raises(KeyError):
            adv_half.state_index(off)
    assert adv_half.state_index([4.0]) == i
    lo, hi = adv_half.bracket([4])
    assert lo <= hi
    assert adv_half.value([4]) == 0.5 * (lo + hi)
    assert np.all(adv_half.width() >= 0.0)
