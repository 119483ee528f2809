import numpy as np
import pytest

from geostop.game import check_stopping_rate, clip_simplex


def test_clip_simplex_removes_round_off():
    p = clip_simplex(np.array([0.5, 0.5 + 1e-13, -1e-13]))
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) < 1e-15


def test_clip_simplex_rejects_real_negatives():
    with pytest.raises(ValueError):
        clip_simplex(np.array([0.6, 0.5, -0.1]))
    with pytest.raises(ValueError):
        clip_simplex(np.array([0.3, 0.3]))  # sums to 0.6, not round-off


def test_clip_simplex_batch_rows():
    batch = np.array([[0.25, 0.75], [1.0 + 1e-13, -1e-13]])
    p = clip_simplex(batch)
    np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-15)
    assert p[1, 1] == 0.0


@pytest.mark.parametrize("delta", [1e-9, 0.5, 1.0])
def test_stopping_rate_accepts(delta):
    assert check_stopping_rate(delta) == delta


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0 + 1e-9])
def test_stopping_rate_rejects(delta):
    with pytest.raises(ValueError):
        check_stopping_rate(delta)


def test_stopping_rate_strict_mode():
    with pytest.raises(ValueError, match=r"\(0, 1\), got 1.0"):
        check_stopping_rate(1.0, allow_one=False)
