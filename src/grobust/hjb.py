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
within ``CFL_THETA`` (0.9) times the sampled CFL bound.  A solve that would
take more than ``MAX_SUBSTEPS`` (1e8) substeps in all, as a large constant
sigma asks, is refused before it starts; the lattice has no such bound.
The two solvers share the backward march (:func:`~grobust.problem.march`:
the payoff row, the growth envelope check, the field) and differ only in
the row step.  The field's :class:`~grobust.grids.SolveRecord` keeps n_u
and the stepping; :func:`hjb_residual` replays them through the march's own
row step, so it reads zero on every HJB field.

Coefficients come from :class:`~grobust.problem.CoefficientGrid` on the
(control x state) grid, each in the shape numpy gives it, so a term built
from rows free of u (G(F) for lq, say) is computed once, not once per
control.  A coefficient free of t, y and z (the grid's ``static``) is
evaluated and checked finite once per solve, as the lattice's are; a driver
that reads t, y or z is guarded by the check on the updated row.  The CFL
bound reads the driver slopes from the problem's Lipschitz constants table
(``problem.lipschitz``).  Each solve plans its explicit step once
(:func:`_make_step`), with buffers of its own, so two solves can run at
once; the march and :func:`hjb_residual` run it, one straight run of
in-place ufunc calls in the order and with the bits of the sums it
replaces (G is :func:`~grobust.gexp.generator`).  Where H is convex in
u, as on lq, the min over u may take two controls per run of the upwind
mask, with the scan's bits, as :func:`~grobust.convex.plan_candidates`
plans.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .expr import compile_expr, derivative
from .gexp import generator
from .grids import Grid1D, ValueField
from .problem import CoefficientGrid, ControlProblem, evaluate, march

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
# a solve takes at most this many internal steps (K times substeps per row)
MAX_SUBSTEPS = 1e8


# ---------------------------------------------------------------------------
# CFL bound


def cfl_max_dt(coefs: CoefficientGrid) -> float:
    """Largest explicit step keeping the update monotone, by sampling.

    dx^2 / (s_hi max sigma^2 + dx max|effective drift| + dx^2 y-Lipschitz)
    where the effective drift includes b, the bracket-drift channel s_hi |h|
    and the driver z-slopes, all maximized over sampled (t, x, u) of the
    coefficient grid ``coefs`` (its state grid gives dx).  The driver slopes
    are :meth:`~grobust.problem.ControlProblem.driver_slope`.  A maximum
    that overflows is inf, without a warning, and gives a bound of 0.
    """
    problem = coefs.problem
    s_hi = coefs.s_hi
    z_slope = problem.driver_slope("z")
    ts = np.linspace(0.0, problem.horizon, _CFL_T_SAMPLES)
    max_sig2 = 0.0
    max_drift = 0.0
    for t in ts.tolist():
        sig, b, h = coefs("sigma", t), coefs("b", t), coefs("h", t)
        with np.errstate(over="ignore"):
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
    grid ``coefs``.  A bound that is not positive (0 where a maximum
    overflows), or more than ``MAX_SUBSTEPS`` substeps in all, raises
    ValueError; an infinite bound (its denominator underflows) takes one
    substep per row.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    bound = cfl_max_dt(coefs)
    dt_out = coefs.problem.horizon / K
    per_row = dt_out / (CFL_THETA * bound) if bound > 0.0 else math.inf
    m_sub = (max(1, math.ceil(per_row - 1e-12)) if per_row <= MAX_SUBSTEPS
             else per_row)
    if K * m_sub > MAX_SUBSTEPS:
        raise ValueError(f"{K * m_sub:.6g} substeps ({K} rows of {m_sub:.6g})"
                         f" exceed the explicit scheme's cap {MAX_SUBSTEPS:g};"
                         " solve with the lattice")
    return K, m_sub, dt_out / m_sub, bound


# ---------------------------------------------------------------------------
# the explicit monotone step


def _make_step(coefs: CoefficientGrid
               ) -> Callable[[np.ndarray, float, float], np.ndarray]:
    """The explicit backward step on ``coefs``, ``step(W, t, dt)``.

    ``step`` returns W + dt * min_u H(t, x, W, p_up, A, u) as a new row.  The
    second difference uses linear-extrapolation ghosts (so it vanishes at
    the two boundary nodes); the gradient is upwinded per (node, control)
    against the sign of the effective transport speed

        b + f_z sigma + qhat2 (h + g_z sigma),

    where qhat2 is s_hi or s_lo as the bracket F at the central gradient is
    >= 0 or not.  The plan takes every decision once, so a step is one
    straight run of in-place ufunc calls on buffers of its own:

    - terms: a coefficient that is the constant 0 adds no term to F or H,
      nor does the z-slope of a driver free of z (in the speed, read
      through its sign only, each adds an exact 0.0); with b = h = 0 and
      no driver in z no gradient is formed;
    - operands: the grid's ``static`` (checked) arrays, each not 0-d at the
      full shape of the buffer it meets; a b, h or sigma that reads t is
      evaluated at each step, an f or g that reads t, y or z is called
      through the plan's one bindings dict, and a z-slope is exact
      (:func:`~grobust.expr.derivative`) where it is free of t, y and z,
      else a central difference at each step;
    - the upwind direction: static where b, h and sigma are, every z-slope
      is exact, and the speed at qhat2 = s_lo and at s_hi is >= 0 at the
      same entries (the per-step speed equals one of the two, operand for
      operand); one run of equal controls is a view of p_f or p_b, and
      several runs, or a mask that changes along x, fill one kept gradient
      buffer; a per-step direction takes ``np.where``;
    - buffers: a copy of the input row, which the differences read; F and
      H, one row or n_u as their terms read u; G over F; the min over u a
      view of H's one row or reduced into a kept row; the update written
      into the row the step returns;
    - the min over u: a route of :func:`~grobust.convex.plan_candidates`,
      which decides when H is convex in u, else (and on a step whose
      rounding bound fails) the scan over every control.

    The exact slope and the central difference of an affine driver differ
    by rounding only, so a field keeps the bits of the central-difference
    step unless a speed sits so near 0 that that rounding set its sign.
    """
    problem, dx = coefs.problem, np.array(coefs.grid.dx)
    compiled, s_lo, s_hi = problem.compiled, coefs.s_lo, coefs.s_hi
    use_z = {c for c in ("f", "g") if "z" in compiled[c].free}
    # this plan's own bindings: two solves may run at once (validate's pool)
    bind = dict(coefs.xu)
    # the static coefficients, None for a b, h, f or g that is 0
    static = {c: None if c != "sigma" and compiled[c].is_zero else v
              for c, v in coefs.static.items()}
    exact = {}  # z-slopes free of t, y and z, on the (u, x) grid
    for c in sorted(use_z):
        d = derivative(getattr(problem, c), "z")
        fn = None if d is None else compile_expr(d)
        if fn is not None and not fn.free & {"t", "y", "z"}:
            exact[c] = evaluate(fn, coefs.xu)
    numeric = sorted(use_z - exact.keys())  # central differences
    has_b, has_h, has_f = (not compiled[c].is_zero for c in ("b", "h", "f"))
    gradient = bool(use_z) or has_b or has_h

    def speed(b, h, slope, qhat2):  # b + f_z sigma + qhat2 (h + g_z sigma)
        # read through >= 0 only, where an absent term's exact 0.0 is a no-op
        b, h = (0.0 if c is None else c for c in (b, h))
        return b + slope.get("f", 0.0) + qhat2 * (h + slope.get("g", 0.0))

    # the upwind direction: a static mask, p_f where True, or None (per step)
    upwind = None if gradient else np.array(True)
    if gradient and not numeric and {"b", "h", "sigma"} <= static.keys():
        slope = {c: s * static["sigma"] for c, s in exact.items()}
        lo, hi = (speed(static["b"], static["h"], slope, s)
                  for s in (s_lo, s_hi))
        if np.array_equal(lo >= 0.0, hi >= 0.0):
            upwind = hi >= 0.0

    n_u, n_x = coefs.shape
    # V: the input row's copy, its views taken once; d stays 0 where no
    # gradient is formed, as the candidates' p_up reads it
    V, A, d = np.empty(n_x), np.zeros(n_x), np.zeros(n_x + 1)
    A_in, A_row, d_in, V_row = A[1:-1], A[None, :], d[1:-1], V[None, :]
    V_in, V_hi, V_lo, V_f, V_b = V[1:-1], V[2:], V[:-2], V[1:], V[:-1]
    # p_b[j] = d[j-1] and p_f[j] = d[j], the edge differences repeated
    p_b, p_f = d[None, :-1], d[None, 1:]
    # a static mask: one run's view, or a buffer the blocks fill per step;
    # runs (first row, end row, forward) where the mask is free of x
    p_kept, blocks, runs = None, [], None
    if upwind is not None:
        fwd = np.atleast_2d(upwind)  # a 0-d mask has no axis 1
        if (fwd == fwd[:, :1]).all():  # runs of equal controls
            fwd = fwd[:, 0]
            cut = [0, *(np.flatnonzero(fwd[1:] != fwd[:-1]) + 1).tolist(),
                   n_u]
            runs = [(i, j, bool(fwd[i])) for i, j in zip(cut, cut[1:])]
            if len(cut) == 2:
                p_kept = p_f if fwd[0] else p_b
            else:
                p_kept = np.empty((n_u, n_x))
                blocks = [(p_kept[i:j], p_f if fwd[i] else p_b, True)
                          for i, j in zip(cut, cut[1:])]
        else:
            p_kept = np.empty(fwd.shape)
            blocks = [(p_kept, p_b, True), (p_kept, p_f, fwd)]

    # the buffers, (rows, n_x): n_u rows where a term reads u, directly or
    # through p_up or z = sigma p_up, else 1
    u = {c for c in compiled if "u" in compiled[c].free}
    p_u = (bool(u & {"b", "h", "sigma", "g", *use_z}) if upwind is None
           else len(p_kept) == n_u)
    z_u = p_u or "sigma" in u
    F_u = (bool(u & {"sigma", "h", "g"}) or p_u and has_h
           or z_u and "g" in use_z)
    H_u = (F_u or bool(u & {"b", "f"}) or p_u and has_b
           or z_u and "f" in use_z)
    F, T = np.empty((2, n_u if F_u else 1, n_x))
    H = np.empty((n_u if H_u else 1, n_x))
    Z = np.empty((n_u if z_u else 1, n_x)) if use_z else None

    def full(a, buf):  # a static operand at buf's contiguous shape
        if a is None or buf is None or np.ndim(a) == 0:
            return a
        return np.ascontiguousarray(np.broadcast_to(a, buf.shape))

    # the static operands at the buffers they meet: b and f meet H, h and g
    # T, and sigma Z in z = sigma p_up on a static direction (sigma^2 meets
    # F); a per-step direction reads sigma as numpy gives it
    meets = {"b": H, "f": H, "h": T, "g": T,
             "sigma": None if upwind is None else Z}
    kept = {c: full(v, meets[c]) for c, v in static.items()}
    sig2 = (full(static["sigma"] * static["sigma"], F) if "sigma" in static
            else None)
    # static values (None for a 0); the rest evaluated or called per step
    timed = {"sigma", "b", "h"} - kept.keys()
    fixed = tuple(kept.get(c) for c in ("sigma", "b", "h"))
    f_s, g_s = kept.get("f"), kept.get("g")
    f_fn, g_fn = (None if c in kept else compiled[c] for c in ("f", "g"))
    # H = G(F) + p_up b + f in H (G alone stays in F); its min over u in m
    H_in, H_sum = H if has_b else F, H if has_b or has_f else F
    one_row = len(H_sum) == 1
    m = H_sum[0] if one_row else np.empty(n_x)
    # a ufunc takes a 0-d array faster than a float, and its output as a
    # third positional argument faster than as out= (np.maximum and
    # np.minimum take only out=); counting into a kept bool row beats
    # isfinite(out).all(), and a bound ufunc beats np.<name>
    two, zero, dx2, lo2, hi2 = map(np.array, (2.0, 0.0, dx * dx, s_lo, s_hi))
    ok = np.empty(n_x, dtype=bool)
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    isfinite, count_nonzero = np.isfinite, np.count_nonzero

    def bracket(p, sig, h):  # F = sigma^2 A + 2 p h + 2 g, in F; z bound
        mul(sig * sig if sig2 is None else sig2, A_row, F)
        if h is not None:
            add(F, mul(mul(p, two, T), h, T), F)
        gz = g_s if g_fn is None else g_fn(bind)
        if gz is not None:
            add(F, mul(gz, two, T), F)
        return F

    # the min over u at two candidates per run, into m, where H is convex
    # in u: convex.plan_candidates decides, imported here, so that a solve
    # of no such problem (and every import of grobust) compiles none of it
    route = None
    if runs and "f" in u:
        from .convex import plan_candidates
        route = plan_candidates(coefs, runs, d, m)

    def candidates():  # the route's min over u into m, if its bound holds
        # F reads neither p_up nor sigma, which is static: no argument
        generator(lo2, hi2, bracket(None, None, None), out=F, scratch=T)
        return route(F[0])

    def step(W: np.ndarray, t: float, dt: float) -> np.ndarray:
        V[...] = W
        mul(V_in, two, A_in)
        sub(V_hi, A_in, A_in)
        add(A_in, V_lo, A_in)
        div(A_in, dx2, A_in)
        if gradient:  # with b = h = 0 and no driver in z, unread
            sub(V_f, V_b, d_in)
            div(d_in, dx, d_in)
            d[0], d[-1] = d[1], d[-2]
        sig, b, h = fixed if not timed else [
            coefs(c, t) if c in timed else v
            for c, v in zip(("sigma", "b", "h"), fixed)]
        if f_fn or g_fn:
            bind["t"], bind["y"] = t, V_row

        if not (route and candidates()):  # the scan over every control
            if upwind is None:
                slope, qhat2 = {c: s * sig for c, s in exact.items()}, s_hi
                if h is not None or use_z:
                    p_c = 0.5 * (p_f + p_b)
                    bind["z"] = zc = sig * p_c
                    if h is not None or "g" in use_z:
                        qhat2 = np.where(bracket(p_c, sig, h) >= 0.0,
                                         s_hi, s_lo)
                    if numeric:
                        dz = 1e-6 * (1.0 + np.abs(zc))
                        for c in numeric:
                            fn = f_fn if c == "f" else g_fn
                            bind["z"] = zc + dz
                            hi = fn(bind)
                            bind["z"] = zc - dz
                            slope[c] = (hi - fn(bind)) / (2.0 * dz) * sig
                p_up = np.where(speed(b, h, slope, qhat2) >= 0.0, p_f, p_b)
            else:
                for block, p, where in blocks:
                    np.copyto(block, p, where=where)
                p_up = p_kept

            if use_z:
                bind["z"] = mul(sig, p_up, Z)
            generator(lo2, hi2, bracket(p_up, sig, h), out=F, scratch=T)
            if has_b:
                add(F, mul(p_up, b, H), H)
            if has_f:  # f's row made after g's is freed: one at a time
                add(H_in, f_s if f_fn is None else f_fn(bind), H)
            if not one_row:
                np.minimum.reduce(H_sum, axis=0, out=m)
        out = mul(dt, m)
        add(W, out, out)
        if not has_f:  # the +0.0 of f = 0 still turns a -0.0 into +0.0
            add(out, zero, out)
        if count_nonzero(isfinite(out, ok)) < n_x:
            raise ValueError("non-finite update in HJB step")
        return out

    # the candidates' route, None where not planned; a call replays the
    # last step's and tells whether its certificate held
    step.candidates = candidates if route else None
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
    dt_0d = np.array(dt)  # a ufunc takes a 0-d array faster than a float
    for j in range(m_sub):
        W = step(W, t_right - (j + 1) * dt, dt_0d)
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
