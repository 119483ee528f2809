import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import special

from geostop.potentials import default_eta, heat_upper_handle
from geostop.strategies import (
    ADVERSARY_KINDS,
    PLAYER_KINDS,
    PlayerStrategy,
    heat_adversary_support,
    make_adversary,
    make_player,
    sign_vertices,
)


def _law(adversary, x):
    """Outcome rows and probabilities the adversary plays at state x."""
    support, probs = adversary.outcomes_batch(np.asarray(x, dtype=float))
    return support[0], probs


def _is_balanced(support, probs):
    """Every coordinate of E[q] agrees."""
    mean = probs @ support
    return np.ptp(mean) <= 1e-12


def _is_symmetric(support, probs):
    """The law of q equals the law of -q."""
    law = {}
    for row, p in zip(map(tuple, support), probs):
        law[row] = law.get(row, 0.0) + p
    return all(abs(law.get(tuple(-np.array(row)), 0.0) - p) <= 1e-12
               for row, p in law.items())


def test_exp_weights_player_is_softmax():
    x = np.array([2.0, 0.0, -1.0])
    w = make_player("exp", 3, 0.3).weights(x)
    np.testing.assert_allclose(w, special.softmax(default_eta(3, 0.3) * x),
                               atol=1e-15)
    assert w[0] > w[1] > w[2]
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
    # translation along the all-ones direction leaves weights alone
    np.testing.assert_allclose(make_player("exp", 3, 0.3).weights(x + 7.0), w,
                               atol=1e-12)


@pytest.mark.parametrize("kind", PLAYER_KINDS)
def test_make_player_kinds(kind):
    p = make_player(kind, 3, 0.2)
    w = p.weights(np.array([1.0, 0.0, -1.0]))
    assert w.shape == (3,)
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)
    assert np.all(w >= 0.0)


def test_unknown_player_kind():
    with pytest.raises(ValueError):
        make_player("psychic", 3, 0.2)


def test_potential_player_requires_handle():
    with pytest.raises(ValueError):
        PlayerStrategy("heat", 3, 0.2)
    PlayerStrategy("uniform", 3, 0.2)  # fine without one


def test_uniform_and_follow_best():
    u = make_player("uniform", 4, 0.1)
    np.testing.assert_array_equal(u.weights(np.array([3.0, 0.0, 0.0, -1.0])),
                                  np.full(4, 0.25))
    fb = make_player("follow_best", 4, 0.1)
    np.testing.assert_array_equal(fb.weights(np.array([3.0, 0.0, 5.0, -1.0])),
                                  [0.0, 0.0, 1.0, 0.0])
    # ties go to the lowest index
    np.testing.assert_array_equal(fb.weights(np.array([2.0, 2.0, 0.0, 0.0])),
                                  [1.0, 0.0, 0.0, 0.0])


def test_weights_batch_matches_single():
    p = make_player("heat", 3, 0.2)
    X = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [4.0, 4.0, -2.0]])
    batch = p.weights_batch(X)
    for row, x in zip(batch, X):
        np.testing.assert_allclose(row, p.weights(x), atol=1e-12)


def test_heat_player_weights_follow_the_gradient():
    h = heat_upper_handle(3, 0.2)
    p = PlayerStrategy("heat", 3, 0.2, h)
    x = np.array([2.0, 1.0, -1.0])
    np.testing.assert_allclose(p.weights(x), h.gradient(x), atol=1e-12)


def test_heat_adversary_support_two_experts():
    np.testing.assert_array_equal(heat_adversary_support(2),
                                  [[-1.0, 1.0], [1.0, -1.0]])


def test_heat_adversary_support_properties():
    for n in (2, 3, 4, 5):
        rows = heat_adversary_support(n)
        sums = rows.sum(axis=1)
        if n % 2 == 0:
            assert np.all(sums == 0)
        else:
            assert set(np.unique(sums)) == {-1.0, 1.0}
        # closed under negation
        keys = {tuple(r) for r in rows}
        assert all(tuple(-r) in keys for r in rows)


def test_law_checks_reject_tilted_and_shifted_laws():
    pair = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert _is_balanced(pair, np.array([0.5, 0.5]))
    assert _is_symmetric(pair, np.array([0.5, 0.5]))
    assert not _is_balanced(pair, np.array([0.75, 0.25]))
    assert not _is_symmetric(pair, np.array([0.75, 0.25]))
    # balanced but not symmetric: constant shift on every expert
    assert _is_balanced(np.array([[0.5, 0.5]]), np.array([1.0]))
    assert not _is_symmetric(np.array([[0.5, 0.5]]), np.array([1.0]))


def test_heat_adversary_distribution_balanced_and_symmetric():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        heat = make_adversary("heat", n)
        for x in (np.zeros(n), rng.normal(size=n) * 4.0):
            support, probs = _law(heat, x)
            assert _is_balanced(support, probs)
            assert _is_symmetric(support, probs)


def test_max_adversary_targets_leader():
    mx = make_adversary("max", 3)
    support, probs = _law(mx, [0.0, 3.0, -1.0])
    assert _is_balanced(support, probs) and _is_symmetric(support, probs)
    up = support[support[:, 1] == 1.0][0]
    np.testing.assert_array_equal(up, [-1.0, 1.0, -1.0])
    # ties resolve to the lowest index, mirroring follow_best
    support, _ = _law(make_adversary("max", 2), [2.0, 2.0])
    np.testing.assert_array_equal(support, [[1.0, -1.0], [-1.0, 1.0]])
    support, probs = _law(make_adversary("max", 4), [1.0, 5.0, 5.0, 5.0])
    assert _is_balanced(support, probs) and _is_symmetric(support, probs)
    np.testing.assert_array_equal(support[0], [-1.0, 1.0, -1.0, -1.0])


def test_adversary_strategy_outcomes_batch():
    X = np.array([[0.0, 1.0, 0.0], [5.0, 0.0, 0.0]])
    heat = make_adversary("heat", 3)
    support, probs = heat.outcomes_batch(X)
    assert support.shape == (2, 6, 3)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
    # heat outcomes ignore the state
    np.testing.assert_array_equal(support[0], support[1])

    mx = make_adversary("max", 3)
    support, probs = mx.outcomes_batch(X)
    assert support.shape == (2, 2, 3)
    np.testing.assert_array_equal(support[0, 0], [-1.0, 1.0, -1.0])
    np.testing.assert_array_equal(support[1, 0], [1.0, -1.0, -1.0])


def test_unknown_adversary_kind():
    with pytest.raises(ValueError):
        make_adversary("chaotic", 3)
    assert set(ADVERSARY_KINDS) == {"heat", "max"}


def test_support_enumeration_limit():
    with pytest.raises(ValueError):
        heat_adversary_support(24)


def test_sign_vertices_in_product_order():
    for n in range(1, 11):
        v = sign_vertices(n)
        assert v.dtype == np.int64
        np.testing.assert_array_equal(
            v, np.array(list(itertools.product((-1, 1), repeat=n))))
        # row 2^n - 1 - k is minus row k; the upper half has q_1 = +1
        np.testing.assert_array_equal(v[::-1], -v)
        assert np.all(v[2 ** (n - 1):, 0] == 1)


def test_sign_vertices_refuse_past_twenty_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n <= 20"):
            sign_vertices(21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_heat_adversary_support_is_the_filtered_product():
    for n in range(2, 13):
        target = {0} if n % 2 == 0 else {-1, 1}
        rows = [q for q in itertools.product((-1.0, 1.0), repeat=n)
                if sum(q) in target]
        got = heat_adversary_support(n)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.array(rows))
