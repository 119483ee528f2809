"""Regret bounds, strategies and verification for geometrically stopped
prediction with expert advice.

The game: a player spreads weight over n experts each round, an adversary
picks a loss vector in [-1, 1]^n, and play stops with probability delta
before every round.  This package evaluates the potential functions that
certify upper and lower bounds on the expected final regret, the players
and adversaries they induce, Monte Carlo simulation of matchups, an exact
lattice value-iteration oracle, and numerical verification of the
differential conditions behind each bound.
"""

from .game import clip_simplex
from .specfun import (
    QuadratureSettings,
    gaussian_max_expectation,
    laplace_inv1_bound,
    laplace_inv32_integral,
)
from .potentials import (
    PotentialHandle,
    default_eta,
    exp_handle,
    heat_lower_handle,
    heat_potential_fixed,
    heat_upper_handle,
    kappa_m,
    kappa_s,
    max_lower_handle,
    max_potential_fixed,
    max_upper_handle,
)
from .strategies import (
    AdversaryStrategy,
    PlayerStrategy,
    heat_adversary_support,
    make_adversary,
    make_player,
)
from .bounds import (
    BoundReport,
    ErrorConstants,
    all_bounds,
    comparison_curves,
    estimate_error_constants,
    exp_weights_bound,
    heat_bounds,
    max_bounds,
    ratio_to_sqrt_2logN,
)
from .simulate import (
    SimulationConfig,
    SimulationResult,
    play_episode,
    run,
)
from .oracle import (
    LatticeValueFunction,
    SandwichReport,
    adversary_sandwich,
    ordering_check,
    player_sandwich,
    value_iteration_adversary,
    value_iteration_player,
)
from .verify import CheckReport, run_suite, sample_states

__version__ = "0.1.0"
