import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from geostop.simulate import (
    SimulationConfig,
    SimulationResult,
    _select,
    horizon_from_uniform,
    play_episode,
    run,
    thread_count,
    trial_rng,
)
from geostop.strategies import make_adversary, make_player


def _config(n=2, delta=0.2, player="heat", adversary="heat", trials=256,
            seed=0, **kw):
    return SimulationConfig(n=n, delta=delta,
                            player=make_player(player, n, delta),
                            adversary=make_adversary(adversary, n),
                            trials=trials, seed=seed, **kw)


def test_horizon_from_uniform_inverts_the_geometric_law():
    delta = 0.3
    assert horizon_from_uniform(0.0, delta) == 0
    assert horizon_from_uniform(delta - 1e-12, delta) == 0
    assert horizon_from_uniform(delta + 1e-12, delta) == 1
    # P(T >= t) = (1-delta)^t; check the t=2 edge too
    edge = 1.0 - (1.0 - delta) ** 2
    assert horizon_from_uniform(edge - 1e-12, delta) == 1
    assert horizon_from_uniform(edge + 1e-12, delta) == 2
    assert horizon_from_uniform(0.5, 1.0) == 0


def test_sample_horizon_mean():
    delta = 0.25
    rng = np.random.default_rng(7)
    draws = np.array([horizon_from_uniform(rng.random(), delta)
                      for _ in range(4000)])
    want = (1.0 - delta) / delta
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - want) < 4.0 * se


def test_trial_rng_streams_are_stable_and_distinct():
    a = trial_rng(123, 5).random(4)
    b = trial_rng(123, 5).random(4)
    c = trial_rng(123, 6).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_select_matches_cumulative_bins():
    # the draw contract of both simulate paths: index i with
    # cum[i-1] <= u < cum[i]
    cum = np.cumsum([0.2, 0.3, 0.5])[None, :]
    u = np.array([0.0, 0.1999, 0.2, 0.4999, 0.5, 0.999999])
    np.testing.assert_array_equal(_select(cum.repeat(len(u), 0), u),
                                  [0, 0, 1, 1, 2, 2])
    # cumulative round-off can push u past the last edge; index must clamp
    assert _select(np.array([[0.5, 1.0]]), np.array([1.0]))[0] == 1


def test_run_is_reproducible():
    cfg = _config(trials=300, seed=11)
    r1 = run(cfg)
    r2 = run(cfg)
    assert r1.mean_regret == r2.mean_regret
    assert r1.std_error == r2.std_error
    assert r1.mean_rounds == r2.mean_rounds


@pytest.mark.parametrize("kind,collect", [("heat", False), ("max", False),
                                          ("heat", True)])
def test_run_is_thread_invariant(kind, collect):
    # chunks on different threads share one state graph; a short switch
    # interval makes them interleave inside its updates
    cfg = _config(n=3, delta=0.1, player=kind, adversary=kind, trials=5000,
                  seed=3)
    serial = run(cfg, threads=1, collect_outcomes=collect)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run(cfg, threads=4, collect_outcomes=collect)
    finally:
        sys.setswitchinterval(interval)
    assert serial.to_dict() == parallel.to_dict()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["heat", "max"])
def test_run_matches_episode_by_episode_replay(kind, n):
    """The batched runner must reproduce the one-trial reference bitwise."""
    cfg = _config(n=n, delta=0.25, player=kind, adversary=kind, trials=64,
                  seed=9)
    batched = run(cfg)
    replay = np.array([play_episode(cfg, trial_rng(cfg.seed, t))
                       for t in range(cfg.trials)])
    assert batched.mean_regret == replay.mean()


def test_truncation_is_counted():
    cfg = _config(delta=0.05, trials=300, seed=2, max_rounds_cap=3)
    res = run(cfg)
    assert res.truncated_trials > 0
    assert res.mean_rounds <= 3.0


def test_outcome_collection_shape_and_balance():
    cfg = _config(n=3, delta=0.1, trials=4000, seed=5)
    res = run(cfg, collect_outcomes=True)
    assert res.outcome_mean.shape == (3,)
    assert res.outcome_se.shape == (3,)
    # the balanced adversary has componentwise mean zero
    assert np.all(np.abs(res.outcome_mean) < 4.0 * res.outcome_se + 1e-12)


def test_outcomes_skipped_by_default():
    res = run(_config(trials=32))
    assert res.outcome_mean is None


def test_mean_regret_in_sane_range():
    # expected regret is nonnegative for a balanced adversary and bounded by
    # twice the expected number of rounds
    cfg = _config(n=2, delta=0.3, trials=2000, seed=1)
    res = run(cfg)
    assert 0.0 <= res.mean_regret <= 2.0 * (1.0 - 0.3) / 0.3 + 3.0 * res.std_error


def test_follow_best_ratchets_against_the_leader_adversary():
    # Both sides break argmax ties toward the lowest index, so the expert
    # the player follows is exactly the coordinate the vertex adversary
    # singles out.  That coordinate's regret never moves, the others take
    # +-2 steps, and the running maximum can only ratchet upward: every
    # final score is a nonnegative even integer.  A uniform player has no
    # such guarantee and does go negative.
    cfg = _config(n=2, delta=0.2, player="follow_best", adversary="max",
                  trials=1, seed=4)
    finals = np.array([play_episode(cfg, trial_rng(9, k)) for k in range(300)])
    assert np.all(finals >= 0.0)
    np.testing.assert_array_equal(finals, 2.0 * np.round(finals / 2.0))
    assert finals.mean() > 0.3

    loose = _config(n=2, delta=0.2, player="uniform", adversary="max",
                    trials=1, seed=4)
    mixed = np.array([play_episode(loose, trial_rng(9, k)) for k in range(300)])
    assert (mixed < 0.0).any()


def test_config_validation():
    p = make_player("uniform", 2, 0.2)
    a = make_adversary("heat", 2)
    with pytest.raises(ValueError):
        SimulationConfig(n=2, delta=0.2, player=p, adversary=a, trials=0,
                         seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(n=2, delta=0.0, player=p, adversary=a, trials=16,
                         seed=0)
    with pytest.raises(ValueError):
        make_player("heat", 2, 0.0)
    for player, adversary in ((make_player("heat", 2, 0.05), a),
                              (make_player("uniform", 3, 0.2), a),
                              (p, make_adversary("heat", 3))):
        with pytest.raises(ValueError, match="do not match"):
            SimulationConfig(n=2, delta=0.2, player=player,
                             adversary=adversary, trials=16, seed=0)
    cfg = _config(delta=0.1)
    assert cfg.max_rounds_cap == math.ceil(50 / 0.1)


def test_result_to_dict_round_trips_json_types():
    res = run(_config(trials=16), collect_outcomes=True)
    d = res.to_dict()
    assert isinstance(d["mean_regret"], float)
    assert isinstance(d["outcome_mean"], list)
    assert d["trials_used"] == 16


_PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_simulate.json").read_text())


def test_pinned_outputs():
    # every float must match; re-record only in a change that moves outputs
    assert len(_PINNED) == 7
    for key, want in _PINNED.items():
        player, adversary, n, delta, trials, seed, cap, outcomes = key.split("/")
        cfg = _config(n=int(n), delta=float(delta), player=player,
                      adversary=adversary, trials=int(trials), seed=int(seed),
                      max_rounds_cap=None if cap == "None" else int(cap))
        assert run(cfg, collect_outcomes=outcomes == "True").to_dict() == want, key


def test_thread_count_env_cap(monkeypatch):
    monkeypatch.setenv("GEOSTOP_THREADS", "2")
    assert thread_count(8) == 2
    assert thread_count() == 2
    monkeypatch.delenv("GEOSTOP_THREADS")
    assert thread_count() == 1
    assert thread_count(3) == 3
