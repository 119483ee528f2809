"""Watch the normalized regret constants settle onto their limits.

Two experiments, both about the scale sqrt(1/delta) that the expected
regret lives on when the game stops with probability delta per round.

First: for n = 2 and n = 3 experts, evaluate each potential at the
origin and multiply by sqrt(delta).  As delta shrinks the lower and
upper members of each family pinch together, at 1/sqrt(2) for two
experts and at (4/3)/sqrt(2) for the max family with three.

Second: hold delta tiny and grow n.  The heat lower bound divided by
sqrt(2 log n / delta) climbs toward sqrt(pi)/2, which is the sense in
which exponential weights (ratio 1/2 at the lower asymptote) leaves a
constant factor on the table.

Run:  python3 demos/asymptotic_constants.py   (about half a second)
"""

import math

import numpy as np

from geostop import (
    heat_lower_handle,
    heat_upper_handle,
    max_lower_handle,
    max_upper_handle,
    ratio_to_sqrt_2logN,
)

RATES = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])


def scaled_origin(handle):
    x = np.zeros(handle.n)
    return math.sqrt(handle.delta) * handle.value(x)


print("sqrt(delta) * potential(0), two experts; limit 1/sqrt(2) = "
      f"{1 / math.sqrt(2):.6f}")
print(f"{'delta':>8} {'heat lower':>12} {'heat upper':>12} "
      f"{'max lower':>12} {'max upper':>12}")
for d in RATES:
    row = [scaled_origin(h(2, d)) for h in
           (heat_lower_handle, heat_upper_handle,
            max_lower_handle, max_upper_handle)]
    print(f"{d:>8.0e} {row[0]:>12.6f} {row[1]:>12.6f} "
          f"{row[2]:>12.6f} {row[3]:>12.6f}")

print()
print("same for the max family with three experts; limit (4/3)/sqrt(2) = "
      f"{(4 / 3) / math.sqrt(2):.6f}")
print(f"{'delta':>8} {'max lower':>12} {'max upper':>12}")
for d in RATES:
    lo = scaled_origin(max_lower_handle(3, d))
    hi = scaled_origin(max_upper_handle(3, d))
    print(f"{d:>8.0e} {lo:>12.6f} {hi:>12.6f}")

# The heat family is not tight for three experts: its diffusion speeds
# differ by the fixed factor sqrt(2 kappa_s / (2 (1-d)/d)) < 1, so the
# scaled gap survives the limit.  The max family closes it by splitting
# the potential across ranked gaps instead of smoothing isotropically.

print()
print("heat lower bound over sqrt(2 log n / delta) at delta = 1e-12;")
print(f"limit sqrt(pi)/2 = {math.sqrt(math.pi) / 2:.6f}, exp weights "
      "reaches 1/2")
print(f"{'n':>8} {'ratio':>10}")
for n in (10, 100, 1000, 10_000, 100_000):
    print(f"{n:>8} {ratio_to_sqrt_2logN(n, 1e-12):>10.4f}")
