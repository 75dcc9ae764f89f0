#!/usr/bin/env python3
"""Scenario Monte Carlo as a one-sided sanity check.

Freezing any admissible volatility profile (and any feedback control) and
simulating forward gives a statistical lower bound for the worst case of
that control.  No single scenario can beat the robust value by more than
discretization noise - and the constant high-volatility scenario should
come close for the convex payoff.
"""

from grobust import Grid1D, bs_value, catalog_entry, mc_lower_bound, solve_dpp

entry = catalog_entry("bsb-call")
p = entry.problem
robust = solve_dpp(p, Grid1D(p.x_min, p.x_max, 200), 200).value_at(0.0, 1.0)
print(f"robust value (lattice): {robust:.5f}")
print(f"closed form at the high endpoint: {bs_value(1, 1, 1, 1):.5f}\n")

for profile in ([0.5], [0.75], [1.0], [0.5, 1.0, 0.75]):
    res = mc_lower_bound(p, 1.0, "0", profile, n_paths=20000, K=200, seed=42)
    tag = "tight" if profile == [1.0] else "slack"
    print(f"  scenario {str(profile):<17} mean {res.mean:.5f} "
          f"+- {1.96 * res.stderr:.5f}   ({tag}, below robust: "
          f"{res.mean - 3 * res.stderr <= robust + 0.05})")

print("\nthe same runs are bit-reproducible, one stream per (seed, step):")
a = mc_lower_bound(p, 1.0, "0", [1.0], 5000, 100, seed=7)
b = mc_lower_bound(p, 1.0, "0", [1.0], 5000, 100, seed=7)
print(f"  identical means: {a.mean == b.mean}")
