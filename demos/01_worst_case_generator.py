#!/usr/bin/env python3
"""Tour of the worst-case volatility generator G.

G(a) = 1/2 sup over volatilities q in [s_lo, s_hi] of q^2 a.  It has the
closed form G(a) = (s_hi^2 a+ - s_lo^2 a-) / 2: the adversary runs hot
(q = s_hi) when the argument rewards variance and cold (q = s_lo) when it
penalizes it.
"""

import numpy as np

from grobust import GammaSet
from grobust.gexp import generator, uniform_ellipticity_bounds

interval = GammaSet.interval(np.sqrt(1.0 / 3.0), 1.0)
bounds = uniform_ellipticity_bounds(interval)
print("interval set [sqrt(1/3), 1]")
for a in (2.0, 0.0, -3.0):
    q = interval.sigma_hi if a >= 0.0 else interval.sigma_lo
    print(f"  G({a:+.0f}) = {generator(*bounds, a):+.4f}"
          f"   worst-case vol = {q:.4f}")
print(f"  uniform ellipticity constant: {bounds[0]:.4f}")

print("\nsublinearity in action (random scalar arguments)")
rng = np.random.default_rng(0)
for _ in range(3):
    a, b = rng.normal(size=2)
    lhs = generator(*bounds, a + b)
    rhs = generator(*bounds, a) + generator(*bounds, b)
    print(f"  G(a+b) = {lhs:+.4f}  <=  G(a)+G(b) = {rhs:+.4f}")
