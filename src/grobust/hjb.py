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
within ``CFL_THETA`` (0.9) times the sampled CFL bound.  The two
solvers share the backward march (:func:`~grobust.problem.march`: the payoff
row, the growth envelope check, the field) and differ only in the row step.
The field's :class:`~grobust.grids.SolveRecord` keeps n_u and the stepping;
:func:`hjb_residual` replays them through the march's own row step, so it
reads zero on every HJB field.

Coefficients come from :class:`~grobust.problem.CoefficientGrid` on the
(control x state) grid, each in the shape numpy gives it: a coefficient free
of u is one row, and the terms built from such rows only (G(F) for lq, say)
are computed once, not once per control.  The min over controls is taken
where a control axis exists.  A coefficient free of t, y and z is evaluated
(and checked finite) once per solve, as the lattice's are, and one that is
the constant 0 adds no term; a driver that reads t, y or z is guarded by the
check on the updated row.  The CFL bound reads the driver slopes from the
problem's Lipschitz constants table (``problem.lipschitz``).

Each solve plans its explicit step once (:func:`_make_step`): the exact
z-slope of a driver affine in z, the upwind direction where qhat2 cannot
change the transport speed's sign, and work buffers of its own, so two
solves can run at once.  A step works in place, in the order and with the
bits of the sums it replaces; G is :func:`~grobust.gexp.generator`.  The
march and :func:`hjb_residual` run the step.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .expr import compile_expr, derivative
from .gexp import generator
from .grids import Grid1D, ValueField
from .problem import (CoefficientGrid, ControlProblem, evaluate, march,
                      min_over_controls)

__all__ = [
    "cfl_max_dt",
    "march_hjb",
    "solve_hjb",
    "hjb_residual",
    "hjb_time_stepping",
]


# the CFL bound samples the coefficients at this many equally spaced times
_CFL_T_SAMPLES = 5
# an internal step takes at most this share of the sampled CFL bound
CFL_THETA = 0.9


# ---------------------------------------------------------------------------
# CFL bound


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


def hjb_time_stepping(coefs: CoefficientGrid, K: int
                      ) -> Tuple[int, int, float, float]:
    """(output rows K, substeps per row, internal dt, CFL bound).

    Each of the K rows T / K apart takes the fewest equal substeps that
    stay within ``CFL_THETA`` times the CFL bound of the solve's coefficient
    grid ``coefs``.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    bound = cfl_max_dt(coefs)
    dt_out = coefs.problem.horizon / K
    m_sub = max(1, math.ceil(dt_out / (CFL_THETA * bound) - 1e-12))
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


def _make_step(coefs: CoefficientGrid
               ) -> Callable[[np.ndarray, float, float], np.ndarray]:
    """The explicit backward step on ``coefs``, ``step(W, t, dt)``.

    ``step`` returns W + dt * min_u H(t, x, W, p_up, A, u) as a new row.  The
    second difference uses linear-extrapolation ghosts (so it vanishes at
    the two boundary nodes); the gradient is upwinded per (node, control)
    against the sign of the effective transport speed

        b + f_z sigma + qhat2 (h + g_z sigma),

    where qhat2 is s_hi or s_lo as the bracket F at the central gradient is
    >= 0 or not.  What reads the problem alone is settled here, once:

    - the terms: a coefficient that is the constant 0 adds no term to F, H
      or the speed (an exact zero), nor does the z-slope of a driver free
      of z; with b = h = 0 and no driver in z no gradient is formed;
    - b, h and sigma free of t, and f and g free of t, y and z, are the
      coefficient grid's stored (checked) arrays; f and g that read t, y or
      z are evaluated through this step's own bindings dict;
    - the exact z-slope of a driver affine in z (:func:`~grobust.expr.
      derivative`) when it is free of t, y and z; any other driver in z
      takes a central difference per step;
    - the upwind direction, when b, h and sigma are free of t, every driver
      in z has an exact slope, and the speed at qhat2 = s_lo and at s_hi is
      >= 0 at the same entries: the per-step speed equals one of the two,
      with the same operands in the same order, so it has their sign;
    - the work buffers, one row or n_u as their terms read u, filled in
      place in the order of the sums they replace.

    The exact slope and the central difference of an affine driver differ
    by rounding only, so a field keeps the bits of the central-difference
    step unless a speed sits so near 0 that that rounding set its sign.
    """
    problem, dx = coefs.problem, np.array(coefs.grid.dx)
    compiled, s_lo, s_hi = problem.compiled, coefs.s_lo, coefs.s_hi
    use_z = {c for c in ("f", "g") if "z" in compiled[c].free}
    # this step's own bindings: two solves may run at once (validate's pool)
    bind = dict(coefs.xu)

    def coef(c):  # c at (t, y, z); None for a b, h, f or g that is 0
        fn = compiled[c]
        if c != "sigma" and fn.is_zero:
            return lambda t, y=None, z=None: None
        if not fn.free & {"t", "y", "z"}:
            value = coefs(c, 0.0)
            return lambda t, y=None, z=None: value
        if c not in ("f", "g"):
            return lambda t, y=None, z=None: coefs(c, t)

        def at(t, y, z):
            bind["t"], bind["y"], bind["z"] = t, y, z
            return fn(bind)
        return at

    sig_at, b_at, h_at, f, g = map(coef, ("sigma", "b", "h", "f", "g"))
    sig2 = None if "t" in compiled["sigma"].free else sig_at(0.0) * sig_at(0.0)
    exact = {}  # z-slopes free of t, y and z, on the (u, x) grid
    for c in sorted(use_z):
        d = derivative(getattr(problem, c), "z")
        fn = None if d is None else compile_expr(d)
        if fn is not None and not fn.free & {"t", "y", "z"}:
            exact[c] = evaluate(fn, coefs.xu)
    numeric = sorted(use_z - exact.keys())  # central differences
    has_b, has_h = (not compiled[c].is_zero for c in ("b", "h"))
    gradient = bool(use_z) or has_b or has_h

    def speed(b, h, slope, qhat2):  # b + f_z sigma + qhat2 (h + g_z sigma)
        q_term = _plus(h, slope.get("g"))
        return _plus(b, slope.get("f"),
                     None if q_term is None else qhat2 * q_term)

    # the upwind direction: True for p_f, a mask, or None (per step)
    upwind = None if gradient else True
    if gradient and not numeric and not any(
            "t" in compiled[c].free for c in ("b", "h", "sigma")):
        slope = {c: s * sig_at(0.0) for c, s in exact.items()}
        lo, hi = (speed(b_at(0.0), h_at(0.0), slope, s) for s in (s_lo, s_hi))
        if np.array_equal(lo >= 0.0, hi >= 0.0):
            upwind = True if (hi >= 0.0).all() else hi >= 0.0

    # the buffers, (rows, n_x): n_u rows where a term reads u, directly or
    # through p_up or z = sigma p_up, else 1
    n_u, n_x = coefs.shape
    u = {c for c in compiled if "u" in compiled[c].free}
    p_u = (bool(u & {"b", "h", "sigma", "g", *use_z}) if upwind is None
           else np.shape(upwind)[:1] == (n_u,))
    z_u = p_u or "sigma" in u
    F_u = (bool(u & {"sigma", "h", "g"}) or p_u and has_h
           or z_u and "g" in use_z)
    H_u = (F_u or bool(u & {"b", "f"}) or p_u and has_b
           or z_u and "f" in use_z)
    F, T = np.empty((2, n_u if F_u else 1, n_x))
    H = np.empty((n_u if H_u else 1, n_x))
    A, d = np.zeros(n_x), np.empty(n_x + 1)
    A_in, A_row, d_in = A[1:-1], A[None, :], d[1:-1]
    # p_b[j] = d[j-1] and p_f[j] = d[j], the edge differences repeated
    p_b, p_f = d[None, :-1], d[None, 1:]
    # a ufunc takes a 0-d array faster than a float, and counting into a
    # kept bool row beats isfinite(out).all(): each saves 8-13 % of a
    # bsb-call solve at n_x = K = 120
    two, zero, dx2, lo2, hi2 = map(np.array, (2.0, 0.0, dx * dx, s_lo, s_hi))
    ok = np.empty(n_x, dtype=bool)

    def step(W: np.ndarray, t: float, dt: float) -> np.ndarray:
        np.multiply(W[1:-1], two, out=A_in)
        np.subtract(W[2:], A_in, out=A_in)
        np.add(A_in, W[:-2], out=A_in)
        np.divide(A_in, dx2, out=A_in)
        if gradient:  # with b = h = 0 and no driver in z, unread
            np.subtract(W[1:], W[:-1], out=d_in)
            np.divide(d_in, dx, out=d_in)
            d[0], d[-1] = d[1], d[-2]

        sig = sig_at(t)
        b, h = b_at(t), h_at(t)
        v = W[None, :]
        # a g free of z takes one value per step
        g_v = None if "g" in use_z else g(t, v, None)

        def bracket(p, z):  # F = sigma^2 A + 2 p h + 2 g(z), in F
            np.multiply(sig * sig if sig2 is None else sig2, A_row, out=F)
            if h is not None:
                np.multiply(p, two, out=T)
                np.add(F, np.multiply(T, h, out=T), out=F)
            gz = g(t, v, z) if "g" in use_z else g_v
            if gz is not None:
                np.add(F, np.multiply(gz, two, out=T), out=F)
            return F

        if upwind is None:
            slope, qhat2 = {c: s * sig for c, s in exact.items()}, None
            if h is not None or use_z:
                p_c = 0.5 * (p_f + p_b)
                zc = sig * p_c
                if h is not None or "g" in use_z:
                    qhat2 = np.where(bracket(p_c, zc) >= 0.0, s_hi, s_lo)
                if numeric:
                    dz = 1e-6 * (1.0 + np.abs(zc))
                    for c in numeric:
                        fn = f if c == "f" else g
                        slope[c] = ((fn(t, v, zc + dz) - fn(t, v, zc - dz))
                                    / (2.0 * dz) * sig)
            p_up = np.where(speed(b, h, slope, qhat2) >= 0.0, p_f, p_b)
        else:
            p_up = p_f if upwind is True else np.where(upwind, p_f, p_b)

        z_up = sig * p_up if use_z else None
        f_up = f(t, v, z_up)
        # H = G(F) + p_up b + f, in H: G(F) is the generator's new array
        H_sum = generator(lo2, hi2, bracket(p_up, z_up))
        if b is not None:
            H_sum = np.add(H_sum, np.multiply(p_up, b, out=H), out=H)
        if f_up is not None:
            H_sum = np.add(H_sum, f_up, out=H)
        out = W + dt * min_over_controls(H_sum)
        if f_up is None:  # the +0.0 of f = 0 still turns a -0.0 into +0.0
            out += zero
        if np.count_nonzero(np.isfinite(out, out=ok)) < n_x:
            raise ValueError("non-finite update in HJB step")
        return out

    return step


def solve_hjb(problem: ControlProblem, grid: Grid1D, K: int,
              n_u: Optional[int] = None) -> ValueField:
    """March the monotone explicit scheme backward from the payoff.

    Output rows sit on the uniform grid t_k = k T / K, as the lattice's do;
    the solver substeps each row within ``CFL_THETA`` times the CFL bound
    (:func:`hjb_time_stepping`).  ``n_u`` overrides the problem's control
    grid size.  A row outside the growth envelope raises GrowthCeilingError.
    The CFL bound and the march share one coefficient grid.
    """
    coefs = CoefficientGrid(problem, grid, problem.u_grid(n_u))
    return march_hjb(coefs, hjb_time_stepping(coefs, K))


def march_hjb(coefs: CoefficientGrid,
              stepping: Tuple[int, int, float, float]) -> ValueField:
    """:func:`solve_hjb` on the coefficient grid ``coefs`` with its
    :func:`hjb_time_stepping` result ``stepping``."""
    k_out, m_sub, dt_int, bound = stepping
    dt_out = coefs.problem.horizon / k_out
    step = _make_step(coefs)
    return march(coefs, k_out,
                 lambda W, k: _hjb_row(step, W, (k + 1) * dt_out, m_sub,
                                       dt_int),
                 "hjb", dt_int, substeps_per_row=m_sub, cfl_bound=bound)


def _hjb_row(step: Callable[[np.ndarray, float, float], np.ndarray],
             W: np.ndarray, t_right: float, m_sub: int, dt: float
             ) -> np.ndarray:
    """The row before ``W``: ``m_sub`` explicit steps ``step`` (of
    :func:`_make_step`) of ``dt`` back from ``t_right``, the time of
    ``W``'s row.  The march and :func:`hjb_residual` both build a row with
    it."""
    for j in range(m_sub):
        W = step(W, t_right - (j + 1) * dt, dt)
    return W


def hjb_residual(V: ValueField, problem: ControlProblem) -> float:
    """Max discrete-PDE defect |(V_k - row(V_{k+1})) / dt| over interior nodes.

    Replays the march's row step with the n_u of V's record (else the
    problem's) and, for an HJB field, its substeps per row and internal
    dt, so it is zero on every HJB field.  Any other field takes one step
    of V.dt per row: the defect measures how far it is from this scheme's
    discrete equation.
    """
    rec = V.solve
    step = _make_step(CoefficientGrid(problem, V.grid,
                                      problem.u_grid(rec and rec.n_u)))
    m_sub, dt = ((rec.substeps_per_row, rec.dt)
                 if rec and rec.method == "hjb" else (1, V.dt))
    worst = 0.0
    for k in range(V.n_rows - 1):
        stepped = _hjb_row(step, V.values[k + 1], (k + 1) * V.dt, m_sub, dt)
        defect = np.abs(V.values[k] - stepped)[1:-1] / V.dt
        worst = max(worst, float(np.max(defect)))
    return worst
