"""Monotone explicit finite-difference solver for the robust HJB equation.

The value function solves, in the viscosity sense,

    dV/dt + inf_u H(t, x, V, dV/dx, d2V/dx2, u) = 0,     V(T, x) = payoff,

with Hamiltonian

    H = G(F) + p b(t,x,u) + f(t, x, v, sigma p, u),
    F = sigma^2 A + 2 p h(t,x,u) + 2 g(t, x, v, sigma p, u),

where G is the worst-case generator of the volatility set.  The scheme is
explicit Euler with a Kushner-Dupuis style upwind gradient: the second
difference is central, while the first difference is one-sided against the
sign of the effective transport speed dH/dp (drift plus driver z-slopes plus
the bracket-drift channel through the active scenario).  Under the CFL bound
every update is a nonnegative combination of the next-row values followed by
a min over controls, hence monotone; with consistency and stability this is
the classical route to the viscosity solution.

No boundary data is prescribed by the problem (the equation lives on the
whole line); the scheme closes the stencil with linear-extrapolation ghost
values, which makes the boundary second difference vanish and leaves a
one-sided first difference there.

:func:`solve_hjb` is called as the lattice's
:func:`~grobust.lattice.solve_dpp` is, ``(problem, grid, K, n_u=None)``: it
returns K + 1 rows T / K apart and takes, per row, the fewest equal substeps
within ``cfl_theta`` (default 0.9) times the sampled CFL bound.  The two
solvers share the backward march (:func:`~grobust.problem.march`: the payoff
row, the growth envelope check, the field) and differ only in the row step.

Coefficients come from :class:`~grobust.problem.CoefficientGrid` on the
(control x state) grid, so a coefficient free of t, y and z is evaluated once
per solve, and one that is the constant 0 adds no term.  The CFL bound reads
the driver slopes from the problem's construction-time Lipschitz report.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .gexp import generator
from .grids import Grid1D, ValueField
from .problem import CoefficientGrid, ControlProblem, march

__all__ = [
    "cfl_max_dt",
    "hjb_coefficients",
    "march_hjb",
    "solve_hjb",
    "hjb_residual",
    "hjb_time_stepping",
]


# the HJB step checks these coefficients for finiteness; its drivers are
# guarded by the check on the updated row
_CHECKED = ("b", "h", "sigma")
# the CFL bound samples the coefficients at this many equally spaced times
_CFL_T_SAMPLES = 5


# ---------------------------------------------------------------------------
# CFL bound


def hjb_coefficients(problem: ControlProblem, grid: Grid1D,
                     n_u: Optional[int] = None) -> CoefficientGrid:
    """The (control x state) coefficients of an HJB solve on ``grid``.

    ``n_u`` overrides the problem's control grid size.  One solve builds
    this once: the CFL bound and the march both read it.
    """
    return CoefficientGrid(problem, grid, problem.u_grid(n_u),
                           checked=_CHECKED)


def cfl_max_dt(coefs: CoefficientGrid) -> float:
    """Largest explicit step keeping the update monotone, by sampling.

    dx^2 / (s_hi max sigma^2 + dx max|effective drift| + dx^2 y-Lipschitz)
    where the effective drift includes b, the bracket-drift channel s_hi |h|
    and the driver z-slopes, all maximized over sampled (t, x, u) of the
    coefficient grid ``coefs`` (its state grid gives dx).  The driver slopes
    are :meth:`~grobust.problem.ControlProblem.driver_slope`.
    """
    problem = coefs.problem
    s_hi = coefs.s_hi
    z_slope = problem.driver_slope("z")
    ts = np.linspace(0.0, problem.horizon, _CFL_T_SAMPLES)
    max_sig2 = 0.0
    max_drift = 0.0
    for t in ts.tolist():
        sig, b, h = coefs("sigma", t), coefs("b", t), coefs("h", t)
        max_sig2 = max(max_sig2, float(np.max(sig * sig)))
        drift = np.abs(b) + s_hi * np.abs(h) + np.abs(sig) * z_slope
        max_drift = max(max_drift, float(np.max(drift)))
    dx = coefs.grid.dx
    den = (s_hi * max_sig2 + dx * max_drift
           + dx * dx * problem.driver_slope("y"))
    if den <= 0.0:
        raise ValueError(
            "degenerate problem for the explicit scheme: zero diffusion, "
            "drift and driver slopes"
        )
    return dx * dx / den


def hjb_time_stepping(coefs: CoefficientGrid, K: int, cfl_theta: float
                      ) -> Tuple[int, int, float, float]:
    """(output rows K, substeps per row, internal dt, CFL bound).

    Each of the K rows T / K apart takes the fewest equal substeps that
    stay within ``cfl_theta`` times the CFL bound of the solve's coefficient
    grid ``coefs``.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    if not (0.0 < cfl_theta <= 1.0):
        raise ValueError(f"cfl_theta must be in (0, 1], got {cfl_theta}")
    bound = cfl_max_dt(coefs)
    dt_out = coefs.problem.horizon / K
    m_sub = max(1, math.ceil(dt_out / (cfl_theta * bound) - 1e-12))
    return K, m_sub, dt_out / m_sub, bound


# ---------------------------------------------------------------------------
# the explicit monotone step


def _plus(*terms):
    """The left-to-right sum of the terms that are not None (left-out 0s)."""
    total = None
    for term in terms:
        if term is not None:
            total = term if total is None else total + term
    return total


def _hjb_step(coefs: CoefficientGrid, W: np.ndarray, t: float, dt: float
              ) -> np.ndarray:
    """One explicit backward step: W + dt * min_u H(t, x, W, p_up, A, u).

    The second difference uses linear-extrapolation ghosts (so it vanishes at
    the two boundary nodes); the gradient is upwinded per (node, control)
    against the sign of the effective transport speed.  A coefficient that
    is the constant 0 adds no term to F, H or the speed (an exact zero, so
    no value changes), nor does the z-slope of a driver free of z.
    """
    dx = coefs.grid.dx
    on, use_z = coefs.nonzero, coefs.drivers_use_z

    A = np.empty(len(W))
    A[1:-1] = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / (dx * dx)
    A[0] = A[-1] = 0.0
    # p_b[j] = d[j-1] and p_f[j] = d[j], the edge differences repeated
    d = np.empty(len(W) + 1)
    d[1:-1] = (W[1:] - W[:-1]) / dx
    d[0], d[-1] = d[1], d[-2]
    p_b, p_f = d[:-1], d[1:]

    sig = coefs("sigma", t)
    sig2A = (sig * sig if coefs.sigma2 is None else coefs.sigma2) * A
    b = coefs("b", t) if "b" in on else None
    h = coefs("h", t) if "h" in on else None
    v = W[None, :]

    def bracket(p, z):  # F = sigma^2 A + 2 p h + 2 g(z)
        return _plus(sig2A, None if h is None else 2.0 * p * h,
                     2.0 * coefs("g", t, v, z) if "g" in on else None)

    # the speed b + f_z sigma + qhat2 (h + g_z sigma)
    speed = b
    if h is not None or use_z:
        p_c = 0.5 * (p_f + p_b)
        zc = sig * p_c
        if h is not None or "g" in use_z:
            qhat2 = np.where(bracket(p_c, zc) >= 0.0, coefs.s_hi, coefs.s_lo)
        dz = 1e-6 * (1.0 + np.abs(zc))
        slope = {c: (coefs(c, t, v, zc + dz) - coefs(c, t, v, zc - dz))
                 / (2.0 * dz) * sig for c in sorted(use_z)}
        q_term = _plus(h, slope.get("g"))
        speed = _plus(b, slope.get("f"),
                      None if q_term is None else qhat2 * q_term)

    p_up = p_f if speed is None else np.where(speed >= 0.0, p_f, p_b)
    z_up = sig * p_up if use_z else None
    H = _plus(generator(coefs.s_lo, coefs.s_hi, bracket(p_up, z_up)),
              None if b is None else p_up * b,
              coefs("f", t, v, z_up) if "f" in on else None)
    out = W + dt * (H[0] if H.shape[0] == 1 else H.min(axis=0))
    if "f" not in on:
        out += 0.0  # the +0.0 of f = 0 still turns a -0.0 into +0.0
    if not np.isfinite(out).all():
        raise ValueError("non-finite update in HJB step")
    return out


def solve_hjb(problem: ControlProblem, grid: Grid1D, K: int,
              n_u: Optional[int] = None, cfl_theta: float = 0.9
              ) -> ValueField:
    """March the monotone explicit scheme backward from the payoff.

    Output rows sit on the uniform grid t_k = k T / K, as the lattice's do;
    the solver substeps each row within ``cfl_theta`` times the CFL bound
    (:func:`hjb_time_stepping`).  ``n_u`` overrides the problem's control
    grid size.  A row outside the growth envelope raises GrowthCeilingError.
    The CFL bound and the march share one coefficient grid.
    """
    coefs = hjb_coefficients(problem, grid, n_u)
    return march_hjb(coefs, hjb_time_stepping(coefs, K, cfl_theta))


def march_hjb(coefs: CoefficientGrid,
              stepping: Tuple[int, int, float, float]) -> ValueField:
    """:func:`solve_hjb` on the coefficient grid ``coefs`` with its
    :func:`hjb_time_stepping` result ``stepping`` given."""
    k_out, m_sub, dt_int, _ = stepping
    dt_out = coefs.problem.horizon / k_out

    def step(row: np.ndarray, k: int) -> np.ndarray:
        t_right = (k + 1) * dt_out
        for j in range(m_sub):
            row = _hjb_step(coefs, row, t_right - (j + 1) * dt_int, dt_int)
        return row

    return march(coefs, k_out, step, "hjb")


def control_refinement_gap(problem: ControlProblem, grid: Grid1D, K: int,
                           probes: Tuple[Tuple[float, float], ...],
                           n_u: Optional[int] = None,
                           cfl_theta: float = 0.9) -> float:
    """Control-grid discretization estimate: rerun at 2 n_u - 1 points.

    Returns the largest probe-value change of :func:`solve_hjb` when the
    control grid is refined to twice the density (every original point is
    retained).
    """
    n_u = problem.n_u if n_u is None else n_u
    base = solve_hjb(problem, grid, K, n_u, cfl_theta)
    fine = solve_hjb(problem, grid, K, 2 * n_u - 1, cfl_theta)
    return max(abs(base.value_at(t, x) - fine.value_at(t, x))
               for t, x in probes)


def hjb_residual(V: ValueField, problem: ControlProblem,
                 n_u: Optional[int] = None) -> float:
    """Max discrete-PDE defect |(V_k - step(V_{k+1})) / dt| over interior nodes.

    Zero by construction on solver output whose rows are single internal
    steps apart; on lattice or closed-form fields it measures how far the
    field is from satisfying this scheme's discrete equation.  ``n_u``
    overrides the problem's control grid size.
    """
    coefs = hjb_coefficients(problem, V.grid, n_u)
    worst = 0.0
    for k in range(V.n_rows - 1):
        # same floating-point time arithmetic as the solver's stepping loop,
        # so the defect is bitwise zero on single-step output rows
        t_k = V.t0 + (k + 1) * V.dt - V.dt
        stepped = _hjb_step(coefs, V.values[k + 1], t_k, V.dt)
        defect = np.abs(V.values[k] - stepped)[1:-1] / V.dt
        worst = max(worst, float(np.max(defect)))
    return worst
