#!/usr/bin/env python3
"""Linear-quadratic control with a nontrivial optimal feedback.

Minimize the expected quadratic terminal cost plus accumulated u^2 with
dX = u dt + dB.  The closed form is x^2/(1+T-t) + ln(1+T-t) and the optimal
feedback pulls the state toward the origin.  The demo also recovers the
feedback from the lattice field's gradient: u*(t,x) = -V_x / 2.
"""

import numpy as np

from grobust import Grid1D, catalog_entry, lq_value, solve_dpp

entry = catalog_entry("lq")
p = entry.problem
grid = Grid1D(-2.0, 2.0, 201)
field = solve_dpp(p, grid, 100)

print("value vs closed form at t = 0:")
for x in (-1.5, -0.5, 0.0, 0.5, 1.0, 1.5):
    got = field.value_at(0.0, x)
    want = lq_value(0.0, x, 1.0, 1.0)
    print(f"  x={x:+.1f}: lattice {got:.5f}  closed form {want:.5f}  "
          f"error {abs(got-want):.1e}")

print("\nrecovered feedback at t = 0 (expect u* = -x/(1+T-t) = -x/2):")
row = field.values[0]
slope = grid.slope(row)
for x in (-1.0, -0.5, 0.5, 1.0):
    i = int(np.argmin(np.abs(grid.nodes - x)))
    print(f"  x={x:+.1f}: -V_x/2 = {-0.5 * slope[i]:+.4f}")
