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

Every output row must stay in the lattice's growth envelope
(:func:`~grobust.grids.check_growth`), else GrowthCeilingError.

Coefficients come from :class:`~grobust.problem.CoefficientGrid` on the
(control x state) grid, so a coefficient free of t, y and z is evaluated once
per solve, not per substep.  The CFL bound reads the driver slopes from the
problem's construction-time Lipschitz report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .gexp import generator
from .grids import GROWTH_CEILING, Grid1D, ValueField, check_growth
from .problem import CoefficientGrid, ControlProblem, evaluate

__all__ = [
    "SchemeParams",
    "CFLViolationError",
    "cfl_max_dt",
    "solve_hjb",
    "hjb_residual",
    "hjb_time_stepping",
]


# the HJB step checks these coefficients for finiteness; its drivers are
# guarded by the check on the updated row
_CHECKED = ("b", "h", "sigma")
# the CFL bound samples the coefficients at this many equally spaced times
_CFL_T_SAMPLES = 5


class CFLViolationError(ValueError):
    """Requested time step exceeds the monotonicity (CFL) bound."""


@dataclass(frozen=True)
class SchemeParams:
    """Finite-difference configuration.

    ``n_t_out`` fixes the number of output rows (the solver substeps
    internally whenever the CFL bound demands a smaller step); ``dt`` is an
    optional upper bound on the internal step; ``n_u`` overrides the
    problem's control grid size.
    """

    grid: Grid1D
    cfl_theta: float = 0.9
    n_t_out: Optional[int] = None
    dt: Optional[float] = None
    n_u: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.cfl_theta <= 1.0):
            raise ValueError(f"cfl_theta must be in (0, 1], got {self.cfl_theta}")
        if self.n_t_out is not None and self.n_t_out < 1:
            raise ValueError("n_t_out must be >= 1")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")


# ---------------------------------------------------------------------------
# CFL bound


def cfl_max_dt(problem: ControlProblem, grid: Grid1D,
               u_grid: Optional[np.ndarray] = None) -> float:
    """Largest explicit step keeping the update monotone, by sampling.

    dx^2 / (s_hi max sigma^2 + dx max|effective drift| + dx^2 y-Lipschitz)
    where the effective drift includes b, the bracket-drift channel s_hi |h|
    and the driver z-slopes, all maximized over sampled (t, x, u).  The
    driver slopes are those of the problem's Lipschitz report (zero for a
    driver free of that variable).
    """
    coefs = CoefficientGrid(problem, grid, u_grid, checked=_CHECKED)
    s_hi = coefs.s_hi
    lip = problem.lipschitz.constants
    ts = np.linspace(0.0, problem.horizon, _CFL_T_SAMPLES)
    max_sig2 = 0.0
    max_drift = 0.0
    for t in ts.tolist():
        sig, b, h = coefs("sigma", t), coefs("b", t), coefs("h", t)
        max_sig2 = max(max_sig2, float(np.max(sig * sig)))
        drift = (np.abs(b) + s_hi * np.abs(h)
                 + np.abs(sig) * (lip["f"]["z"] + s_hi * lip["g"]["z"]))
        max_drift = max(max_drift, float(np.max(drift)))
    dx = grid.dx
    den = (s_hi * max_sig2 + dx * max_drift
           + dx * dx * (lip["f"]["y"] + s_hi * lip["g"]["y"]))
    if den <= 0.0:
        raise ValueError(
            "degenerate problem for the explicit scheme: zero diffusion, "
            "drift and driver slopes"
        )
    return dx * dx / den


def hjb_time_stepping(problem: ControlProblem, sp: SchemeParams
                      ) -> Tuple[int, int, float, float]:
    """(output rows, substeps per row, internal dt, CFL bound)."""
    bound = cfl_max_dt(problem, sp.grid, problem.u_grid(sp.n_u))
    dt_cap = sp.cfl_theta * bound
    if sp.dt is not None:
        if sp.dt > dt_cap * (1.0 + 1e-12):
            raise CFLViolationError(
                f"requested dt={sp.dt:g} exceeds theta * CFL bound {dt_cap:g}"
            )
        dt_cap = sp.dt
    if sp.n_t_out is None:
        k_out = max(1, math.ceil(problem.horizon / dt_cap - 1e-12))
        return k_out, 1, problem.horizon / k_out, bound
    k_out = sp.n_t_out
    dt_out = problem.horizon / k_out
    m_sub = max(1, math.ceil(dt_out / dt_cap - 1e-12))
    return k_out, m_sub, dt_out / m_sub, bound


# ---------------------------------------------------------------------------
# the explicit monotone step


def _hjb_step(coefs: CoefficientGrid, W: np.ndarray, t: float, dt: float
              ) -> np.ndarray:
    """One explicit backward step: W + dt * min_u H(t, x, W, p_up, A, u).

    The second difference uses linear-extrapolation ghosts (so it vanishes at
    the two boundary nodes); the gradient is upwinded per (node, control)
    against the sign of the effective transport speed.
    """
    grid = coefs.grid
    dx = grid.dx
    n = grid.n_x

    A = np.empty(n)
    A[1:-1] = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / (dx * dx)
    A[0] = 0.0
    A[-1] = 0.0
    d = np.diff(W) / dx
    p_f = np.concatenate([d, d[-1:]])
    p_b = np.concatenate([d[:1], d])
    p_c = 0.5 * (p_f + p_b)

    b, h, sig = coefs("b", t), coefs("h", t), coefs("sigma", t)
    v = W[None, :]
    zc = sig * p_c[None, :]
    g_c = coefs("g", t, v, zc)
    F_c = sig * sig * A[None, :] + 2.0 * p_c[None, :] * h + 2.0 * g_c
    s_lo, s_hi = coefs.s_lo, coefs.s_hi
    qhat2 = np.where(F_c >= 0.0, s_hi, s_lo)

    if coefs.drivers_use_z:
        dz = 1e-6 * (1.0 + np.abs(zc))
        f_hi = coefs("f", t, v, zc + dz)
        f_lo = coefs("f", t, v, zc - dz)
        g_hi = coefs("g", t, v, zc + dz)
        g_lo = coefs("g", t, v, zc - dz)
        fz = (f_hi - f_lo) / (2.0 * dz)
        gz = (g_hi - g_lo) / (2.0 * dz)
        beta = b + fz * sig + qhat2 * (h + gz * sig)
    else:
        beta = b + qhat2 * h

    p_up = np.where(beta >= 0.0, p_f[None, :], p_b[None, :])
    z_up = sig * p_up
    g_up = coefs("g", t, v, z_up)
    f_up = coefs("f", t, v, z_up)
    F = sig * sig * A[None, :] + 2.0 * p_up * h + 2.0 * g_up
    H = generator(s_lo, s_hi, F) + p_up * b + f_up
    H_min = np.min(H, axis=0)
    out = W + dt * H_min
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite update in HJB step")
    return out


def solve_hjb(problem: ControlProblem, sp: SchemeParams) -> ValueField:
    """March the monotone explicit scheme backward from the payoff.

    Output rows sit on the uniform grid t_k = k T / n_t_out (the solver
    substeps internally whenever the CFL bound requires it).  A row outside
    the growth envelope raises GrowthCeilingError.
    """
    return _march(problem, sp, hjb_time_stepping(problem, sp))


def _march(problem: ControlProblem, sp: SchemeParams,
           stepping: Tuple[int, int, float, float]) -> ValueField:
    """:func:`solve_hjb` with its :func:`hjb_time_stepping` result given."""
    k_out, m_sub, dt_int, _ = stepping
    grid = sp.grid
    x = grid.nodes
    coefs = CoefficientGrid(problem, grid, problem.u_grid(sp.n_u),
                            checked=_CHECKED)
    values = np.empty((k_out + 1, grid.n_x))
    row = evaluate(problem.phi, {"x": x}, x.shape, "terminal payoff").copy()
    values[k_out] = row
    dt_out = problem.horizon / k_out
    for k in range(k_out - 1, -1, -1):
        t_right = (k + 1) * dt_out
        for j in range(m_sub):
            t_new = t_right - (j + 1) * dt_int
            row = _hjb_step(coefs, row, t_new, dt_int)
        check_growth(k, row, x, GROWTH_CEILING)
        values[k] = row
    return ValueField(grid=grid, t0=0.0, dt=dt_out, values=values,
                      provenance="hjb")


def control_refinement_gap(problem: ControlProblem, sp: SchemeParams,
                           probes: Tuple[Tuple[float, float], ...]
                           ) -> float:
    """Control-grid discretization estimate: rerun at 2 n_u - 1 points.

    Returns the largest probe-value change when the control grid is refined
    to twice the density (every original point is retained).
    """
    base = solve_hjb(problem, sp)
    n_u = sp.n_u if sp.n_u is not None else problem.n_u
    fine = solve_hjb(problem, replace(sp, n_u=2 * n_u - 1))
    return max(abs(base.value_at(t, x) - fine.value_at(t, x))
               for t, x in probes)


def hjb_residual(V: ValueField, problem: ControlProblem,
                 u_grid: Optional[np.ndarray] = None) -> float:
    """Max discrete-PDE defect |(V_k - step(V_{k+1})) / dt| over interior nodes.

    Zero by construction on solver output whose rows are single internal
    steps apart; on lattice or closed-form fields it measures how far the
    field is from satisfying this scheme's discrete equation.
    """
    coefs = CoefficientGrid(problem, V.grid, u_grid, checked=_CHECKED)
    worst = 0.0
    for k in range(V.n_rows - 1):
        # same floating-point time arithmetic as the solver's stepping loop,
        # so the defect is bitwise zero on single-step output rows
        t_k = V.t0 + (k + 1) * V.dt - V.dt
        stepped = _hjb_step(coefs, V.values[k + 1], t_k, V.dt)
        defect = np.abs(V.values[k] - stepped)[1:-1] / V.dt
        worst = max(worst, float(np.max(defect)))
    return worst
