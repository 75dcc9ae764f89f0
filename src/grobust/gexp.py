"""Volatility uncertainty sets and the sublinear generator G.

The uncertainty set captures which covariance scenarios the adversary may
pick: either a one-dimensional interval of volatilities ``[sigma_lo,
sigma_hi]`` or an explicit finite list of d x d scenario matrices ``Q``.  The
generator

    G(A) = 1/2 * sup_{Q in the set} tr[A Q Q^T]

is the worst-case second-order coefficient; in one dimension it reduces to
the closed form ``G(a) = 1/2 (sigma_hi^2 a+ - sigma_lo^2 a-)``.
:func:`generator` is that closed form, elementwise, and the only code that
computes it: :func:`g_of`, the HJB step and the short-window ODE all call it.

All objects are immutable after construction and every operation here is
pure, so they can be shared freely across parallel grid sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GammaSet",
    "SymMatrix",
    "g_of",
    "generator",
    "argmax_q",
    "uniform_ellipticity_bounds",
    "vol_grid",
]


class DimensionMismatchError(ValueError):
    """Uncertainty set and symmetric argument have incompatible dimensions."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GammaSet:
    """Bounded closed volatility uncertainty set.

    ``kind`` is ``"interval"`` (1-D, endpoints ``sigma_lo <= sigma_hi``) or
    ``"matrix-list"`` (finite list of d x d matrices).  Non-degeneracy is
    enforced at construction: interval sets need ``sigma_lo > 0`` and every
    listed ``Q Q^T`` must have a strictly positive smallest eigenvalue.
    """

    kind: str
    sigma_lo: Optional[float] = None
    sigma_hi: Optional[float] = None
    matrices: Tuple[np.ndarray, ...] = field(default=())

    def __post_init__(self):
        if self.kind == "interval":
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
        elif self.kind == "matrix-list":
            if not self.matrices:
                raise ValueError("matrix-list set needs at least one matrix")
            d = None
            frozen = []
            for k, q in enumerate(self.matrices):
                arr = np.asarray(q, dtype=np.float64)
                if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                    raise ValueError(f"matrix {k} is not square: shape {arr.shape}")
                if d is None:
                    d = arr.shape[0]
                elif arr.shape[0] != d:
                    raise ValueError("all matrices must share one dimension")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"matrix {k} has non-finite entries")
                smallest = float(np.linalg.eigvalsh(arr @ arr.T)[0])
                if smallest <= 0.0:
                    raise ValueError(
                        f"matrix {k}: smallest eigenvalue of QQ^T is {smallest:g}, "
                        "need strictly positive (non-degeneracy)"
                    )
                frozen.append(_frozen(arr))
            object.__setattr__(self, "matrices", tuple(frozen))
        else:
            raise ValueError(f"unknown GammaSet kind {self.kind!r}")

    @staticmethod
    def interval(sigma_lo: float, sigma_hi: float) -> "GammaSet":
        return GammaSet(kind="interval", sigma_lo=float(sigma_lo),
                        sigma_hi=float(sigma_hi))

    @staticmethod
    def from_matrices(matrices: Sequence[np.ndarray]) -> "GammaSet":
        return GammaSet(kind="matrix-list", matrices=tuple(matrices))

    @property
    def dim(self) -> int:
        if self.kind == "interval":
            return 1
        return self.matrices[0].shape[0]

    def is_singleton(self) -> bool:
        if self.kind == "interval":
            return self.sigma_lo == self.sigma_hi
        return len(self.matrices) == 1


@dataclass(frozen=True)
class SymMatrix:
    """Exactly symmetric d x d matrix; the lower triangle mirrors the upper."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"need a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("symmetric matrix has non-finite entries")
        upper = np.triu(arr)
        sym = upper + upper.T - np.diag(np.diag(arr))
        object.__setattr__(self, "entries", _frozen(sym))

    @staticmethod
    def scalar(a: float) -> "SymMatrix":
        return SymMatrix(np.array([[float(a)]]))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_dims(gamma: GammaSet, a: SymMatrix):
    if gamma.kind == "interval" and a.dim != 1:
        raise DimensionMismatchError(
            f"interval uncertainty set is 1-D but argument has dim {a.dim}"
        )
    if gamma.kind == "matrix-list" and a.dim != gamma.dim:
        raise DimensionMismatchError(
            f"uncertainty set has dim {gamma.dim} but argument has dim {a.dim}"
        )


def generator(s_lo, s_hi, a):
    """``(s_hi a+ - s_lo a-) / 2`` elementwise for the bounds ``(s_lo, s_hi)``
    of :func:`uniform_ellipticity_bounds`; a zero ``a`` keeps its sign."""
    return 0.5 * (s_hi * np.maximum(0.0, a) - s_lo * np.maximum(0.0, -a))


def g_of(gamma: GammaSet, a: SymMatrix) -> float:
    """G(A) = 1/2 sup over the set of tr[A Q Q^T]."""
    _check_dims(gamma, a)
    if a.dim == 1:
        return float(generator(*uniform_ellipticity_bounds(gamma),
                               a.entries[0, 0]))
    vals = [float(np.trace(a.entries @ q @ q.T)) for q in gamma.matrices]
    return 0.5 * max(vals)


def argmax_q(gamma: GammaSet, a: SymMatrix) -> np.ndarray:
    """A matrix Q attaining the supremum in :func:`g_of`.

    Ties break deterministically: the interval kind returns ``[[sigma_hi]]``
    when the argument vanishes, the list kind returns the first maximizer.
    """
    _check_dims(gamma, a)
    if gamma.kind == "interval":
        s = float(a.entries[0, 0])
        q = gamma.sigma_lo if s < 0.0 else gamma.sigma_hi
        return np.array([[q]])
    vals = [float(np.trace(a.entries @ q @ q.T)) for q in gamma.matrices]
    return np.array(gamma.matrices[int(np.argmax(vals))])


def uniform_ellipticity_bounds(gamma: GammaSet) -> Tuple[float, float]:
    """(smallest, largest) eigenvalue bounds of Q Q^T over the set.

    The first is the non-degeneracy constant: the largest s with
    Q Q^T >= s I for every scenario Q, strictly positive by construction,
    and the uniform ellipticity constant of the worst-case generator.
    """
    if gamma.kind == "interval":
        return gamma.sigma_lo ** 2, gamma.sigma_hi ** 2
    los = [float(np.linalg.eigvalsh(q @ q.T)[0]) for q in gamma.matrices]
    his = [float(np.linalg.eigvalsh(q @ q.T)[-1]) for q in gamma.matrices]
    return min(los), max(his)


def vol_grid(gamma: GammaSet, n_q: int = 2) -> np.ndarray:
    """Scalar volatility scenarios of the lattice family (1-D sets only).

    Interval sets give both endpoints (one level when degenerate); ``n_q >
    2`` adds equally spaced interior points, which no solver asks for.
    Matrix-list sets contribute every listed scenario, in list order.
    """
    if gamma.kind == "interval":
        if gamma.is_singleton():
            return np.array([gamma.sigma_lo])
        n = max(2, int(n_q))
        return np.linspace(gamma.sigma_lo, gamma.sigma_hi, n)
    if gamma.dim != 1:
        raise DimensionMismatchError(
            "scalar volatility grid requires a 1-D uncertainty set"
        )
    return np.array([abs(float(q[0, 0])) for q in gamma.matrices])
