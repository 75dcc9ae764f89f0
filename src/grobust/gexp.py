"""The volatility uncertainty set and the sublinear generator G.

The uncertainty set is the interval of volatilities ``[sigma_lo,
sigma_hi]`` the adversary may pick from.  The generator

    G(a) = 1/2 * sup_{q in [sigma_lo, sigma_hi]} q^2 a

is the worst-case second-order coefficient; it depends on the set only
through the hull ``[sigma_lo^2, sigma_hi^2]`` and has the closed form
``G(a) = 1/2 (sigma_hi^2 a+ - sigma_lo^2 a-)``: the worst case is
``sigma_hi`` where ``a >= 0`` and ``sigma_lo`` where ``a < 0``, so
:func:`generator` computes ``max(sigma_hi^2 a, sigma_lo^2 a) / 2``; it is
the only code that computes G: the HJB step and the short-window ODE call it.

All objects are immutable after construction and every operation here is
pure (the generator's ``out=`` form writes only its ``out`` and
``scratch``), so they can be shared freely across parallel grid sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "GammaSet",
    "generator",
    "uniform_ellipticity_bounds",
    "vol_grid",
]

_HALF = np.array(0.5)  # a ufunc takes a 0-d array faster than a float
_mul, _max = np.multiply, np.maximum  # looked up once, not per call


@dataclass(frozen=True)
class GammaSet:
    """Bounded closed volatility interval ``[sigma_lo, sigma_hi]``.

    Non-degeneracy is enforced at construction: ``0 < sigma_lo <=
    sigma_hi``, both finite.
    """

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        lo, hi = self.sigma_lo, self.sigma_hi
        if lo is None or hi is None:
            raise ValueError("interval set needs sigma_lo and sigma_hi")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if not (0.0 < lo <= hi):
            raise ValueError(
                f"need 0 < sigma_lo <= sigma_hi, got [{lo}, {hi}] "
                "(degenerate volatility sets are rejected)"
            )

    @staticmethod
    def interval(sigma_lo: float, sigma_hi: float) -> "GammaSet":
        return GammaSet(float(sigma_lo), float(sigma_hi))

    def is_singleton(self) -> bool:
        return self.sigma_lo == self.sigma_hi


def generator(s_lo, s_hi, a, out=None, scratch=None):
    """``max(s_hi a, s_lo a) / 2`` elementwise for the bounds ``s_lo <= s_hi``
    of :func:`uniform_ellipticity_bounds`; a zero ``a`` keeps its sign.  The
    four operations write into ``out`` (may be ``a``) with ``scratch``, or
    into new arrays where these are None."""
    lo_a = _mul(s_lo, a, scratch)
    m = _max(_mul(s_hi, a, out), lo_a, out=out)
    return _mul(_HALF, m, out)


def uniform_ellipticity_bounds(gamma: GammaSet) -> Tuple[float, float]:
    """``(sigma_lo^2, sigma_hi^2)``, the hull of q^2 over the set.

    The first is the non-degeneracy constant, strictly positive by
    construction, and the uniform ellipticity constant of the worst-case
    generator.
    """
    return gamma.sigma_lo ** 2, gamma.sigma_hi ** 2


def vol_grid(gamma: GammaSet, n_q: int = 2) -> np.ndarray:
    """Volatility scenarios of the lattice family.

    Both endpoints (one level when the set is a singleton); ``n_q > 2``
    adds equally spaced interior points, which no solver asks for.
    """
    if gamma.is_singleton():
        return np.array([gamma.sigma_lo])
    return np.linspace(gamma.sigma_lo, gamma.sigma_hi, max(2, int(n_q)))
