"""Squeeze the exact game value between the potential bounds.

Dynamic programming on the even integer lattice of regret gaps computes,
to certified precision, what a fixed adversary forces from a best-response
player (by value iteration) and what a fixed player concedes to a
vertex-restricted best response (by policy iteration).  The potentials
then have to bracket those numbers on the interior of the truncation
window: adversary value above the lower potential minus its error, player
value below the upper potential plus its error, and the two oracle runs
in the right order state by state.

This is the same machinery behind `geostop oracle` and the end-to-end
tests, run here at a small radius so it finishes in seconds.

Run:  python3 demos/oracle_sandwich.py
"""

import numpy as np

from geostop import (
    adversary_sandwich,
    estimate_error_constants,
    heat_bounds,
    heat_lower_handle,
    make_adversary,
    make_player,
    max_bounds,
    max_upper_handle,
    ordering_check,
    player_sandwich,
    value_iteration_adversary,
    value_iteration_player,
)

N, DELTA, RADIUS = 3, 0.1, 30


def describe(tag, rep):
    state = "ok" if rep.passed else f"{rep.violations} VIOLATIONS"
    print(f"  {tag:<18} {state:<14} worst margin {rep.worst_margin:>+10.2e}"
          f"   states {rep.checked_states}")


print(f"n = {N}, delta = {DELTA}, lattice radius {RADIUS}")
errors = estimate_error_constants(N, DELTA)
lower = heat_lower_handle(N, DELTA)
upper = max_upper_handle(N, DELTA)
# The bound reports fold the Taylor remainder constants into usable error
# terms; the player oracle reads its exits from the upper potential plus
# its term, and the sandwich checks below use the same terms.
lo_rep, _ = heat_bounds(N, DELTA, errors)
_, hi_rep = max_bounds(N, DELTA, errors)

adv = value_iteration_adversary(make_adversary("heat", N), N, DELTA,
                                radius=RADIUS)
ply = value_iteration_player(make_player("max", N, DELTA), N, DELTA,
                             radius=RADIUS, error_term=hi_rep.error_term)

lo0, hi0 = adv.bracket([0] * (N - 1))
print(f"adversary oracle at the origin: [{lo0:.6f}, {hi0:.6f}] "
      f"after {adv.sweeps} BiCGSTAB iterations and sweeps")
lo0, hi0 = ply.bracket([0] * (N - 1))
print(f"player oracle at the origin:    [{lo0:.6f}, {hi0:.6f}] "
      f"after {ply.sweeps} policy-iteration sweeps")

x0 = np.zeros(N)
print(f"heat lower potential at 0:      {lower.value(x0):.6f} "
      f"(error term {lo_rep.error_term:.3f}, {errors.mode})")
print(f"max upper potential at 0:       {upper.value(x0):.6f} "
      f"(error term {hi_rep.error_term:.3f}, {errors.mode})")
print()

describe("adversary lower", adversary_sandwich(adv, lower, lo_rep.error_term,
                                               errors.mode))
describe("player upper", player_sandwich(ply, upper, hi_rep.error_term,
                                         errors.mode))
describe("ordering", ordering_check(adv, ply))
print()
print("All three checks compare every interior lattice state, not just")
print("the origin.  The margins above are the closest approaches; a")
print("positive margin would be a counterexample to the bound.")
