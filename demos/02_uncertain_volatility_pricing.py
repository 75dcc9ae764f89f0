#!/usr/bin/env python3
"""Uncertain-volatility call pricing: two solvers against the closed form.

With a convex payoff the adversary always selects the high volatility, so
the robust value collapses to the classical call value at the upper
endpoint; a concave payoff flips the selection to the lower endpoint.  Both
the dynamic-programming lattice and the monotone finite-difference scheme
should land on those closed forms.
"""

from grobust import Grid1D, bs_value, catalog_entry, solve_dpp, solve_hjb

N_X = 200
K = 200

for name, vol, sign in (("bsb-call", 1.0, +1.0), ("bsb-concave", 0.5, -1.0)):
    entry = catalog_entry(name)
    p = entry.problem
    grid = Grid1D(p.x_min, p.x_max, N_X)
    lattice = solve_dpp(p, grid, K)
    hjb = solve_hjb(p, grid, K)
    target = sign * bs_value(1.0, 1.0, vol, 1.0)
    print(f"{name}: worst case sits at vol {vol}")
    print(f"  closed form      V(0,1) = {target:+.5f}")
    v_lat = lattice.value_at(0.0, 1.0)
    v_hjb = hjb.value_at(0.0, 1.0)
    print(f"  lattice          V(0,1) = {v_lat:+.5f}   (error {abs(v_lat-target):.1e})")
    print(f"  finite difference V(0,1) = {v_hjb:+.5f}   (error {abs(v_hjb-target):.1e})")
    print(f"  max gap between solvers at probes along x:")
    for x in (0.5, 1.0, 2.0):
        print(f"    x={x:>3}: |lattice - hjb| = "
              f"{abs(lattice.value_at(0.0, x) - hjb.value_at(0.0, x)):.2e}")
    print()
