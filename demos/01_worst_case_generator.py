#!/usr/bin/env python3
"""Tour of the worst-case volatility generator G.

G(A) = 1/2 sup over scenario matrices Q of tr[A Q Q^T].  For a 1-D interval
of volatilities it has the closed form G(a) = (s_hi a+ - s_lo a-) / 2: the
adversary runs hot when the argument rewards variance and cold when it
penalizes it.
"""

import numpy as np

from grobust import GammaSet, SymMatrix, argmax_q, g_of
from grobust.gexp import uniform_ellipticity_bounds

interval = GammaSet.interval(np.sqrt(1.0 / 3.0), 1.0)
print("interval set [sqrt(1/3), 1]")
for a in (2.0, 0.0, -3.0):
    q = argmax_q(interval, SymMatrix.scalar(a))[0, 0]
    print(f"  G({a:+.0f}) = {g_of(interval, SymMatrix.scalar(a)):+.4f}"
          f"   worst-case vol = {q:.4f}")
print("  uniform ellipticity constant: "
      f"{uniform_ellipticity_bounds(interval)[0]:.4f}")

print("\nfinite scenario list in two dimensions")
scenarios = GammaSet.from_matrices([np.diag([0.5, 1.0]), np.diag([1.0, 0.5])])
arg = SymMatrix(np.diag([1.0, 0.0]))
print(f"  G(diag(1, 0)) = {g_of(scenarios, arg):.4f}")
print(f"  maximizer:\n{argmax_q(scenarios, arg)}")

print("\nsublinearity in action (random symmetric arguments)")
rng = np.random.default_rng(0)
for _ in range(3):
    a = SymMatrix(rng.normal(size=(2, 2)))
    b = SymMatrix(rng.normal(size=(2, 2)))
    lhs = g_of(scenarios, SymMatrix(a.entries + b.entries))
    rhs = g_of(scenarios, a) + g_of(scenarios, b)
    print(f"  G(A+B) = {lhs:+.4f}  <=  G(A)+G(B) = {rhs:+.4f}")
