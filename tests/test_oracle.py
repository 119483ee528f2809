import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostop import oracle
from geostop.bounds import estimate_error_constants, max_bounds
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
    """Dict-and-loop reference for _transition_tables, shape (K, S)."""
    index = {tuple(s): i for i, s in enumerate(states.tolist())}
    per_state = shifts if shifts.ndim == 3 else np.broadcast_to(
        shifts, (len(states),) + shifts.shape)
    nxt = np.empty(per_state.shape[1::-1], dtype=np.int64)
    dist = np.zeros(per_state.shape[1::-1])
    for si, d in enumerate(states):
        for ki, shift in enumerate(per_state[si]):
            proj, moved = _project_one(d + shift, radius)
            nxt[ki, si] = index[tuple(proj.tolist())]
            dist[ki, si] = moved
    return nxt, dist


def _tables_by_projection(states, shifts, radius):
    """_transition_tables as it was before it projected edge targets only:
    every (state, outcome) target projected, then searched by its key."""
    shifts = np.broadcast_to(shifts, states.shape[:1] + shifts.shape[-2:])
    shifts = shifts.swapaxes(0, 1)
    keys = oracle._lattice_key(states, radius)
    nxt = np.empty(shifts.shape[:2], dtype=np.int64)
    dist = np.empty(shifts.shape[:2])
    step = max(1, oracle._TABLE_BLOCK // shifts.shape[0])
    for start in range(0, states.shape[0], step):
        rows = slice(start, start + step)
        proj, moved = project_state(states[rows] + shifts[:, rows], radius)
        nxt[:, rows] = np.searchsorted(keys, oracle._lattice_key(proj, radius))
        dist[:, rows] = moved
    return nxt, dist


def _law_shifts(law, states, n):
    """(K, n-1) vertex shifts, or (S, K, n-1) shifts of an adversary law."""
    if law == "vertices":
        outcomes = np.array(list(itertools.product((-1, 1), repeat=n)))
        return outcomes[:, -1:] - outcomes[:, :-1]
    x_full = np.hstack([states, np.zeros((len(states), 1))])
    support, _ = make_adversary(law, n).outcomes_batch(x_full)
    return (support[:, :, -1:] - support[:, :, :-1]).astype(np.int64)


@pytest.mark.parametrize("block", [2**20, 20])
@pytest.mark.parametrize("n, radius, law", [
    pytest.param(3, 8, "vertices", id="vertices"),
    pytest.param(3, 8, "heat", id="heat"),
    pytest.param(3, 8, "max", id="max"),
    pytest.param(4, 10, "vertices", id="n4-r10-vertices"),
    pytest.param(4, 10, "max", id="n4-r10-max"),
    pytest.param(5, 6, "heat", id="n5-r6-heat"),  # 20 outcomes a state
    # every state but the origin on the edge
    pytest.param(3, 2, "vertices", id="n3-r2-vertices"),
    pytest.param(4, 2, "max", id="n4-r2-max"),
])
def test_transition_tables_match_the_loop(n, radius, law, block,
                                          monkeypatch):
    # a 20-entry block splits the states into many projection batches
    monkeypatch.setattr(oracle, "_TABLE_BLOCK", block)
    projected = []

    def counting(d, r):
        projected.append(d.shape[-2])
        return project_state(d, r)

    states = build_states(n, radius)
    shifts = _law_shifts(law, states, n)
    monkeypatch.setattr(oracle, "project_state", counting)
    nxt, dist = _transition_tables(states, shifts, radius)
    assert nxt.flags.c_contiguous and dist.flags.c_contiguous
    want_nxt, want_dist = _tables_by_loop(states, shifts, radius)
    np.testing.assert_array_equal(nxt, want_nxt)
    np.testing.assert_array_equal(dist, want_dist)
    old_nxt, old_dist = _tables_by_projection(states, shifts, radius)
    assert np.array_equal(nxt, old_nxt) and np.array_equal(dist, old_dist)
    # targets leave the domain only from states within their shifts'
    # largest span of the edge, and only those states' targets are projected
    edge = oracle._span(states) + oracle._span(shifts).max(axis=-1) > radius
    assert np.all(dist[:, ~edge] == 0) and np.any(dist > 0)
    assert sum(projected) == edge.sum() < len(states)
    if radius == 2:
        assert edge.sum() == len(states) - 1


# sweeps, residual, fixed_point_gap and the certified origin bracket at
# n=3, r=20, delta=0.1: the adversary's as BiCGSTAB and its certifying sweep
# give them, the player's as policy iteration gives them with exits read
# from the player's potential; any change in the order of the arithmetic
# shows up here
_PINNED = {
    ("adversary", "heat"): (76, 7.105427357601002e-15, 6.394884621840902e-14,
                            2.422821603929156, 2.5157066019232857),
    ("adversary", "max"): (93, 3.552713678800501e-15, 3.197442310920451e-14,
                           2.5887243049318913, 2.721753948103425),
    ("player", "exp"): (20, 7.105427357601002e-15, 6.394884621840902e-14,
                        3.1735874548001175, 3.2183420599520516),
    ("player", "max"): (5, 7.105427357601002e-15, 6.394884621840902e-14,
                        2.8911065833983365, 3.2008669779217267),
    ("player", "heat"): (9, 7.105427357601002e-15, 6.394884621840902e-14,
                         3.1189502169793415, 3.4759294536512275),
}
# The same for the heat adversary at n=5, r=10, whose law has 20 outcomes
_PINNED_N5 = (67, 5.329070518200751e-15, 4.796163466380676e-14,
              1.2448872077919257, 3.909443330078758)


@pytest.mark.parametrize("role, kind, n, radius, want", [
    pytest.param(role, kind, 3, 20, want, id=f"{role}-{kind}")
    for (role, kind), want in _PINNED.items()
] + [pytest.param("adversary", "heat", 5, 10, _PINNED_N5,
                  id="adversary-heat-n5")])
def test_pinned_outputs(role, kind, n, radius, want):
    delta = 0.1
    if role == "adversary":
        lvf = value_iteration_adversary(make_adversary(kind, n), n, delta,
                                        radius=radius)
    else:
        lvf = value_iteration_player(make_player(kind, n, delta), n, delta,
                                     radius=radius)
    got = (lvf.sweeps, lvf.residual, lvf.fixed_point_gap) \
        + lvf.bracket([0] * (n - 1))
    assert got == want


# Every bit of both runs of `oracle --n 4 --delta 0.05 --radius 30` for the
# max adversary, the exp player and the max player: sweeps and the SHA-256
# of the certified lower and upper.  The max player's exits carry the error
# term that `--errors estimated` gives at the default seed.
_PINNED_N4 = {
    ("adversary", "max"): (
        143, "49cf1aaf246e05ff6ef509762a441783af0eccc24ccf9b960caeee70dc5959e4",
        "48210a4f6bc4fdf8652f436e792d3d70d72d2bee94efd9b6c77f057d49fbfd26"),
    ("player", "exp"): (
        26, "4c6536a96a11cfbc912ae86e311537fadd82c9d181cc4f0b37a538b7e343c04b",
        "0e3fe8175bb313b7779467003b7b9284d677a1828af897f585752df4d170ec68"),
    ("player", "max"): (
        18, "44fd3928645e7be397819735774481afef79f4a6d8dac5d929c9d6f1ca24e310",
        "a1c914d102ba83da56d28a3c260c817483b228e1ee73a12243ac119f58f649d5"),
}
_MAX_UPPER_ERROR_N4 = 0.9115363240315796


@pytest.mark.parametrize("role, kind", list(_PINNED_N4),
                         ids=[f"{r}-{k}" for r, k in _PINNED_N4])
def test_pinned_lattice_n4_runs(role, kind):
    n, delta, radius = 4, 0.05, 30
    if role == "adversary":
        lvf = value_iteration_adversary(make_adversary(kind, n), n, delta,
                                        radius)
    else:
        err = _MAX_UPPER_ERROR_N4 if kind == "max" else 0.0
        lvf = value_iteration_player(make_player(kind, n, delta), n, delta,
                                     radius, error_term=err)
    got = (lvf.sweeps, hashlib.sha256(lvf.lower.tobytes()).hexdigest(),
           hashlib.sha256(lvf.upper.tobytes()).hexdigest())
    assert got == _PINNED_N4[role, kind]


def test_the_pinned_error_term_is_the_estimated_one():
    constants = estimate_error_constants(4, 0.05, seed=0)
    assert max_bounds(4, 0.05, constants)[1].error_term == _MAX_UPPER_ERROR_N4


def _sweep_reference(player, n, delta, radius, error_term=0.0, tol=1e-8):
    """The player's Jacobi sweeps from before policy iteration: both runs
    from the score until ((1-delta)/delta) times the sup-norm update is at
    most tol.  Returns lower, upper, that gap and the sweeps."""
    states = build_states(n, radius)
    rows = np.hstack([states, np.zeros_like(states[:, :1])]).astype(float)
    outcomes = np.array(list(itertools.product((-1, 1), repeat=n)))
    shifts = outcomes[:, -1:] - outcomes[:, :-1]
    lin = (player.weights_batch(rows) * outcomes[:, None, :]).sum(axis=2) \
        - outcomes[:, -1:]
    nxt, dist = _transition_tables(states, shifts, radius)
    si, ki = np.nonzero(dist.T > 0)
    targets = states[si] + shifts[ki]
    exit_vals = np.zeros(dist.shape)
    exit_vals[ki, si] = player.handle.value_batch(np.hstack(
        [targets, np.zeros_like(targets[:, :1])]).astype(float)) + error_term
    exits = dist > 0
    g = rows.max(axis=1)
    lo, hi = g.copy(), g.copy()
    for sweeps in itertools.count(1):
        cand_lo = lo[nxt] + lin
        cand_lo[exits] -= dist[exits]
        cand_hi = np.where(exits, exit_vals, hi[nxt]) + lin
        new_lo = delta * g + (1.0 - delta) * cand_lo.max(axis=0)
        new_hi = delta * g + (1.0 - delta) * cand_hi.max(axis=0)
        diff = max(np.max(np.abs(new_lo - lo)), np.max(np.abs(new_hi - hi)))
        lo, hi = new_lo, new_hi
        if (1.0 - delta) / delta * diff <= tol:
            return lo, hi, (1.0 - delta) / delta * diff, sweeps


def _sha(values):
    return hashlib.sha256(values.tobytes()).hexdigest()


# What the sweeps gave the player before policy iteration, and what
# _sweep_reference must reproduce: sweeps and the SHA-256 of lower and upper
# at n=3, r=20, delta=0.1 and in the lattice-n4 game, n=4, r=30, delta=0.05
_SWEPT = {
    ("exp", 3): (
        180, "cace97c938dcb4feabcf745389e6d62bfd8f71ba589329d4e7e6976494087702",
        "63ee1e8e037fbbc281bfd0629c48a456b5a60af2313cd7220201ef09defe9b93"),
    ("max", 3): (
        151, "250eb3945f9581f03f3210cfcf2581e83242cec61f5b77dbb7554ddd31362509",
        "804f706f146fcc8466df77768c86328ebf32bc79aace888bf3ff5e6e6cf11605"),
    ("heat", 3): (
        153, "a9afea92bc36fe4be3dfb35dbe3181e9e7a6b937d77c1e9e23209634ca439bfb",
        "e2c913c8b8bf643ebc63fc083def86fb697161d8b9d382d1875c36f42a1ed66d"),
    ("exp", 4): (
        382, "f77d9adb61a944be3f5c3f7037b6a2f8c0ec2662a4398491787b37221a0d556a",
        "f43818220c5b28ba8ac8aaf17ca47018c98b234062f45610080fc22c3e9499b1"),
    ("max", 4): (
        317, "6f621d34ea8588444000120880006720243c1985e00c5e34214a11e433d13be5",
        "e6c4b7793b5ceebd4efdf51bff13050ca7453a0b41450c0aa346ec0c3ae82a6e"),
}


@pytest.mark.parametrize("kind, n", list(_SWEPT),
                         ids=[f"{k}-n{n}" for k, n in _SWEPT])
def test_repinned_player_values_moved_within_the_old_gap(kind, n):
    delta, radius = (0.1, 20) if n == 3 else (0.05, 30)
    err = _MAX_UPPER_ERROR_N4 if (kind, n) == ("max", 4) else 0.0
    player = make_player(kind, n, delta)
    lo, hi, gap, sweeps = _sweep_reference(player, n, delta, radius, err)
    assert (sweeps, _sha(lo), _sha(hi)) == _SWEPT[kind, n]
    lvf = value_iteration_player(player, n, delta, radius, error_term=err)
    assert np.all(np.abs(lvf.lower - lo) <= gap)
    assert np.all(np.abs(lvf.upper - hi) <= gap)
    assert lvf.fixed_point_gap <= 1e-11


@pytest.mark.parametrize("err", [0.0, 0.7])
@pytest.mark.parametrize("n, radius", [(2, 16), (3, 8), (4, 6)])
@pytest.mark.parametrize("kind", ["exp", "max", "heat"])
def test_policy_iteration_agrees_with_the_sweeps(kind, n, radius, err):
    delta = 0.1
    player = make_player(kind, n, delta)
    lo, hi, gap, _ = _sweep_reference(player, n, delta, radius, err)
    lvf = value_iteration_player(player, n, delta, radius, error_term=err)
    both = gap + lvf.fixed_point_gap
    assert np.all(np.abs(lvf.lower - lo) <= both)
    assert np.all(np.abs(lvf.upper - hi) <= both)


def _adversary_sweep_reference(adversary, n, delta, radius, tol=1e-8):
    """The adversary's Bellman sweeps from before BiCGSTAB: both runs from
    the score until ((1-delta)/delta) times the sup-norm update is at most
    tol.  Returns lower, upper, that gap and the sweeps."""
    states = build_states(n, radius)
    rows = np.hstack([states, np.zeros_like(states[:, :1])]).astype(float)
    support, probs = adversary.outcomes_batch(rows)
    shifts = (support[:, :, -1:] - support[:, :, :-1]).astype(np.int64)
    means = (probs[None, :, None] * support).sum(axis=1)
    lin = np.minimum(means[:, :-1].min(axis=1) - means[:, -1], 0.0)
    nxt, dist = _transition_tables(states, shifts, radius)
    g = np.maximum(states.max(axis=1), 0).astype(float)
    lo, hi = g.copy(), g.copy()
    for sweeps in itertools.count(1):
        new_lo = delta * g + (1.0 - delta) * (
            lin + (probs[:, None] * (lo[nxt] - dist)).sum(axis=0))
        new_hi = delta * g + (1.0 - delta) * (
            lin + (probs[:, None] * (hi[nxt] + dist)).sum(axis=0))
        diff = max(np.max(np.abs(new_lo - lo)), np.max(np.abs(new_hi - hi)))
        lo, hi = new_lo, new_hi
        if (1.0 - delta) / delta * diff <= tol:
            return lo, hi, (1.0 - delta) / delta * diff, sweeps


# What the sweeps gave the adversary before BiCGSTAB, and what
# _adversary_sweep_reference must reproduce: sweeps and the SHA-256 of lower
# and upper at every pinned config, (n, delta, radius) by key
_ADVERSARY_SWEPT = {
    ("heat", 3, 0.1, 20): (
        179, "d5e76bc0c07d61446243996d493828fddb48a8be67d61b7f0147b264a7859c28",
        "5c40e5e68697df64e11e77b0eb2ce553f10dc714ab8b5d5a3b707bf6ebf2b0bc"),
    ("max", 3, 0.1, 20): (
        177, "eeb81270a97a6bceaa5f88a839f5432e8f119e343fdcbe55638df00367fbe700",
        "e3aa7978f1dfbf8844d1e96daa30bb812533eec99cbc0ce4465a19e9d940680d"),
    ("heat", 5, 0.1, 10): (
        189, "aefd2c1db765a83161b613d03695fec449c89310cbb50c00b1addf8562fd1184",
        "74a94fcd48e44be58cf3b906215017334c374160aaf94f5000a78f1965b17c5e"),
    ("max", 4, 0.05, 30): (
        372, "a876e9eab4617dee15970e821a1675a2f5fc663e8427d879848aba65b3046cfe",
        "ec052e6d313909438b99a901bf9269acca8064b1469cc0a858598565f0ed9e39"),
}


@pytest.mark.parametrize("kind, n, delta, radius", list(_ADVERSARY_SWEPT),
                         ids=[f"{k}-n{n}" for k, n, _, _ in _ADVERSARY_SWEPT])
def test_repinned_adversary_values_moved_within_the_old_gap(kind, n, delta,
                                                            radius):
    adversary = make_adversary(kind, n)
    lo, hi, gap, sweeps = _adversary_sweep_reference(adversary, n, delta,
                                                     radius)
    assert (sweeps, _sha(lo), _sha(hi)) == \
        _ADVERSARY_SWEPT[kind, n, delta, radius]
    lvf = value_iteration_adversary(adversary, n, delta, radius)
    assert np.all(np.abs(lvf.lower - lo) <= gap)
    assert np.all(np.abs(lvf.upper - hi) <= gap)
    assert lvf.fixed_point_gap <= 2e-12


@pytest.mark.parametrize("n, radius", [(2, 16), (3, 8), (4, 6)])
@pytest.mark.parametrize("delta", [0.5, 0.1, 0.02])
@pytest.mark.parametrize("kind", ["heat", "max"])
def test_bicgstab_agrees_with_the_sweeps(kind, delta, n, radius):
    adversary = make_adversary(kind, n)
    lo, hi, gap, _ = _adversary_sweep_reference(adversary, n, delta, radius)
    lvf = value_iteration_adversary(adversary, n, delta, radius)
    # the widened brackets contain both runs' fixed points, which the swept
    # values lie within their gap of
    assert np.all(lvf.lower <= lo + gap)
    assert np.all(hi - gap <= lvf.upper)
    assert np.all(lvf.lower >= lo - gap - 2 * lvf.fixed_point_gap)
    assert np.all(lvf.upper <= hi + gap + 2 * lvf.fixed_point_gap)


def test_bicgstab_iterations_are_limited():
    # v = b + 0.99 C v, C a cyclic shift: two iterations stop short of the
    # target
    step = 0.99 * np.roll(np.eye(50), 1, axis=0)
    b = np.linspace(1.0, 2.0, 50)
    tx, residual, sweeps = oracle._bicgstab(step, b, np.zeros(50), 500)
    assert 2 < sweeps < 500
    np.testing.assert_allclose(tx - step @ tx, b, rtol=0, atol=1e-11)
    assert residual <= 1e-11
    with pytest.raises(ValueError, match="in 2 iterations"):
        oracle._bicgstab(step, b, np.zeros(50), 2)


@pytest.fixture
def player_tables(monkeypatch):
    """The (g, delta, gain, target) tables and the radius of each policy
    iteration run."""
    tables, solve = [], oracle._policy_iteration

    def recording(*args):
        tables.append([np.copy(a) for a in args])
        return solve(*args)

    monkeypatch.setattr(oracle, "_policy_iteration", recording)
    return tables


def test_path_doubling_matches_a_dense_solve(player_tables):
    delta = 0.01
    value_iteration_player(make_player("exp", 2, delta), 2, delta, radius=60)
    pessimistic, optimistic = player_tables
    assert np.any(optimistic[3] == optimistic[0].size)  # exits to the sink
    rng = np.random.default_rng(5)
    for g, _, gain, target, _ in (pessimistic, optimistic):
        size, cols = g.size, np.arange(g.size)
        policy = rng.integers(gain.shape[0], size=size)
        got = oracle._policy_value(delta * g, 1.0 - delta, gain, target,
                                   policy)
        step = np.zeros((size + 1, size + 1))
        step[cols, target[policy, cols]] = 1.0
        step[size, size] = 1.0  # the sink keeps its value 0
        rhs = np.append(delta * g + (1.0 - delta) * gain[policy, cols], 0.0)
        want = np.linalg.solve(np.eye(size + 1) - (1.0 - delta) * step, rhs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_ties_end_policy_iteration(player_tables):
    lvf = value_iteration_player(make_player("max", 3, 0.1), 3, 0.1, radius=10)
    assert lvf.sweeps <= 20
    for g, delta, gain, target, radius in player_tables[:2]:
        # all -1 and all +1 leave the state in place, and their E[q_I] - q_n
        # are -+(sum of weights - 1): tied to within a few ulps
        np.testing.assert_array_equal(target[0], np.arange(g.size))
        np.testing.assert_array_equal(target[-1], target[0])
        np.testing.assert_array_equal(gain[-1], -gain[0])
        assert np.any(gain[0] != 0.0)
        assert np.abs(gain[0]).max() <= 4 * np.finfo(float).eps
        # making the tie exact changes no sweep and no bit
        full = oracle._policy_iteration(g, delta, gain, target, int(radius))
        gain[-1] = gain[0]
        exact = oracle._policy_iteration(g, delta, gain, target, int(radius))
        np.testing.assert_array_equal(full[0], exact[0])
        assert full[1:] == exact[1:]


def _full_argmax_iteration(g, delta, gain, target, radius):
    """_policy_iteration as it was before it took the argmax over the
    switched columns only: a full argmax every round."""
    stop, cols = delta * g, np.arange(g.size)
    v, policy = np.append(g, 0.0), None
    for sweeps in range(1, 2 * radius + 21):
        q = v[target]
        q += gain
        best = q.argmax(axis=0)
        top = q[best, cols]
        new = stop + (1.0 - delta) * top
        if policy is not None:
            switch = top - q[policy, cols] > 4 * np.spacing(np.abs(top).max())
            if not switch.any():
                return new, float(np.max(np.abs(new - v[:-1]))), sweeps
            best = np.where(switch, best, policy)
        policy = best
        v = oracle._policy_value(stop, 1.0 - delta, gain, target, policy)
    raise AssertionError("no policy iteration fixed point")


@pytest.mark.parametrize("kind", ["exp", "max"])
def test_switched_argmax_matches_the_full_one(kind, player_tables):
    # both runs of the lattice-n4 game, the pinned error term on max's exits
    n, delta, radius = 4, 0.05, 30
    err = _MAX_UPPER_ERROR_N4 if kind == "max" else 0.0
    value_iteration_player(make_player(kind, n, delta), n, delta, radius,
                           error_term=err)
    assert len(player_tables) == 2
    for args in player_tables[:2]:
        got = oracle._policy_iteration(*args)
        want = _full_argmax_iteration(*args)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        assert want[2] > 2  # policies switched after the first round


def test_a_tol_below_the_rounding_floor_fails_fast():
    from geostop.cli import main

    start = time.perf_counter()
    with pytest.raises(ValueError, match="below the rounding floor"):
        value_iteration_adversary(make_adversary("heat", 2), 2, 0.01,
                                  radius=400, tol=1e-12)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="below the rounding floor"):
        value_iteration_player(make_player("exp", 2, 0.01), 2, 0.01,
                               radius=40, tol=1e-14)
    assert main(["oracle", "--n", "2", "--delta", "0.01", "--radius", "400",
                 "--adversary", "heat", "--tol", "1e-12"]) == 2


@pytest.mark.parametrize("delta, tol", [(0.2, 1e-8), (0.05, 1e-8),
                                        (0.01, 1e-8), (0.2, 1e-12)])
def test_n2_brackets_contain_the_exact_value(delta, tol):
    # against the n=2 heat adversary d is a +-2 walk whatever the player
    # does, stopped at an independent geometric time, so d_T - d = 2K with
    # P(K = k) = c rho^|k|, c = (1-rho)/(1+rho), and x_2 is a martingale:
    # V(d) = sum_k c rho^|k| max(d + 2k, 0)
    #      = max(d, 0) + 2 rho^(|d|/2 + 1) / (1 - rho^2)
    # at every even d; the published brackets, widened by the gap, hold it
    # everywhere
    rho = (1.0 - math.sqrt(delta * (2.0 - delta))) / (1.0 - delta)
    widths = []
    for radius in (40, 120, 400):
        lvf = value_iteration_adversary(make_adversary("heat", 2), 2, delta,
                                        radius, tol)
        d = lvf.states[:, 0]
        assert d.size == radius + 1 and not np.any(d % 2)
        exact = (np.maximum(d, 0)
                 + 2.0 * rho ** (np.abs(d) // 2 + 1) / (1.0 - rho * rho))
        assert np.all(lvf.lower <= exact), radius
        assert np.all(exact <= lvf.upper), radius
        lo, hi = lvf.bracket([0])
        # the truncation width: the bracket's without its two gaps, which
        # leave a few ulps of rounding where it has shrunk to 0
        widths.append(hi - lo - 2 * lvf.fixed_point_gap)
    assert widths[0] > widths[1] > widths[2] - 1e-14


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
                               0.5773488726109757, rtol=1e-9)
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
    np.testing.assert_allclose(lvf.value_at_origin(), 0.6088777257481774,
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


def test_player_for_another_game_is_refused():
    with pytest.raises(ValueError, match="player built for"):
        value_iteration_player(make_player("exp", 3, 0.1), 2, 0.1, radius=12)
    with pytest.raises(ValueError, match="player built for"):
        value_iteration_player(make_player("exp", 2, 0.2), 2, 0.1, radius=12)


def test_adversary_for_another_game_is_refused():
    with pytest.raises(ValueError, match="adversary built for"):
        value_iteration_adversary(make_adversary("max", 3), 2, 0.1, radius=12)


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
    for other in (exp_handle(3, 0.5), exp_handle(2, 0.2)):
        with pytest.raises(ValueError, match="potential built for"):
            player_sandwich(lvf, other, 0.0)


def test_adversary_sandwich_flags_a_bad_lower_claim(adv_half):
    # The softmax potential sits far above the adversary value, so claiming
    # it as a lower bound must fail at every checked state.
    report = adversary_sandwich(adv_half, exp_handle(2, 0.5), 0.0, "exact")
    assert not report.passed
    assert report.violations == report.checked_states
    assert report.worst_margin > 0.5
    for other in (exp_handle(3, 0.5), exp_handle(2, 0.2)):
        with pytest.raises(ValueError, match="potential built for"):
            adversary_sandwich(adv_half, other, 0.0)


def test_ordering_of_the_two_oracles(adv_half, ply_half):
    lvf, _ = ply_half
    report = ordering_check(adv_half, lvf)
    assert report.passed
    assert report.kind == "ordering"
    small = value_iteration_adversary(make_adversary("heat", 2), 2, 0.5,
                                      radius=8)
    with pytest.raises(ValueError, match="lattices differ"):
        ordering_check(small, lvf)
    # the same states in another game: delta 0.5 against 0.2
    other = value_iteration_player(make_player("exp", 2, 0.2), 2, 0.2,
                                   radius=20)
    assert np.array_equal(other.states, adv_half.states)
    with pytest.raises(ValueError, match="lattices differ"):
        ordering_check(adv_half, other)


def test_lattices_know_their_role(adv_half, ply_half):
    lvf, handle = ply_half
    assert (adv_half.role, lvf.role) == ("adversary", "player")
    # swapped, the two lattices used to report false violations
    with pytest.raises(ValueError, match="expected the adversary lattice"):
        ordering_check(lvf, adv_half)
    with pytest.raises(ValueError, match="expected the player lattice"):
        player_sandwich(adv_half, handle, 0.0)
    with pytest.raises(ValueError, match="expected the adversary lattice"):
        adversary_sandwich(lvf, handle, 0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
def test_a_tolerance_that_certifies_nothing_is_refused(tol, adv_half,
                                                       ply_half):
    lvf, handle = ply_half
    message = "tol must be a finite number at least 0"
    with pytest.raises(ValueError, match=message):
        value_iteration_adversary(make_adversary("heat", 2), 2, 0.5,
                                  radius=8, tol=tol)
    with pytest.raises(ValueError, match=message):
        value_iteration_player(make_player("exp", 2, 0.5), 2, 0.5,
                               radius=8, tol=tol)
    with pytest.raises(ValueError, match=message):
        player_sandwich(lvf, handle, 0.0, tol=tol)
    with pytest.raises(ValueError, match=message):
        ordering_check(adv_half, lvf, tol=tol)


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


def test_state_keys_are_computed_once_per_lattice(monkeypatch):
    lvf = value_iteration_adversary(make_adversary("heat", 3), 3, 0.5, radius=8)
    sizes, key = [], oracle._lattice_key

    def counting(d, radius):
        sizes.append(np.asarray(d).reshape(-1, 2).shape[0])
        return key(d, radius)

    monkeypatch.setattr(oracle, "_lattice_key", counting)
    for _ in range(3):
        lvf.value_at_origin()
    lvf.bracket([2, 0])
    assert sizes.count(lvf.states.shape[0]) == 1
    assert sizes.count(1) == 4
