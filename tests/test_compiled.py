"""Compiled expressions and the lean HJB and lattice steps against references.

``_walk`` is the tree-walking evaluator and ``_ref_hjb_step`` the explicit
step that evaluated every term, as they stood before coefficients were
compiled and zero terms dropped; ``_ref_generator`` is G in the split form
the step used then.  ``_ref_dpp_step`` is the lattice step
that rebuilt its stencil at every step, before the stencil was planned
once per solve.  They are kept here, unchanged, as references: the
compiled closures and the two steps must reproduce their bytes.
The walker shares the package's domain check, whose report of the offending
value is tested on its own below.
"""

import math

import numpy as np
import pytest

from grobust.expr import (Bin, Expr, ExprError, ExprEvalError, Lit, Un, Var,
                          _domain_check, compile_expr, eval_expr, parse_expr)
from grobust.gexp import (GammaSet, generator, uniform_ellipticity_bounds,
                          vol_grid)
from grobust.grids import Grid1D, GrowthCeilingError, check_growth
from grobust.hjb import (_make_step as hjb_make_step, hjb_time_stepping,
                         solve_hjb)
from grobust.lattice import (_driver_update, _make_step as lattice_step,
                             _step_law, solve_dpp)
from grobust.problem import (CoefficientGrid, ControlProblem, catalog_entry,
                             march, min_over_controls)

# ---------------------------------------------------------------------------
# the references


def _walk(e: Expr, bindings: dict):
    """Evaluate ``e`` at ``bindings`` (floats or broadcastable numpy arrays).

    Returns a ``np.float64`` scalar for scalar bindings, an ndarray otherwise.
    """
    if isinstance(e, Lit):
        return np.float64(e.value)
    if isinstance(e, Var):
        if e.name not in bindings:
            raise ExprEvalError(f"unbound variable {e.name!r}", bindings)
        v = bindings[e.name]
        return np.float64(v) if np.ndim(v) == 0 else np.asarray(v, dtype=np.float64)
    if isinstance(e, Un):
        a = _walk(e.a, bindings)
        if e.op == "-":
            return -a
        if e.op == "abs":
            return np.abs(a)
        if e.op == "exp":
            return np.exp(a)
        if e.op == "log":
            _domain_check("log", a, np.greater(a, 0.0), bindings)
            return np.log(a)
        if e.op == "sqrt":
            _domain_check("sqrt", a, np.greater_equal(a, 0.0), bindings)
            return np.sqrt(a)
        if e.op == "sin":
            return np.sin(a)
        if e.op == "cos":
            return np.cos(a)
        if e.op == "pos":
            return np.maximum(a, 0.0)
        if e.op == "neg":
            return np.maximum(-a, 0.0)
        raise ExprError(f"unknown unary op {e.op!r}")
    if isinstance(e, Bin):
        a = _walk(e.a, bindings)
        b = _walk(e.b, bindings)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.divide(a, b)
        if e.op == "^":
            with np.errstate(invalid="ignore"):
                r = np.power(a, b)
            # negative base with non-integer exponent yields nan
            _domain_check("power", a, np.logical_not(np.isnan(r)), bindings)
            return r
        if e.op == "min":
            return np.minimum(a, b)
        if e.op == "max":
            return np.maximum(a, b)
        raise ExprError(f"unknown binary op {e.op!r}")
    raise ExprError(f"not an expression node: {e!r}")


class _RefCoefs:
    """Every coefficient walked on the (control x state) grid at every call."""

    def __init__(self, problem, grid, n_u):
        self.problem = problem
        self.grid = grid
        us = problem.u_grid(n_u)
        self.shape = (len(us), grid.n_x)
        self.s_lo, self.s_hi = uniform_ellipticity_bounds(problem.gamma)
        self.drivers_use_z = any(
            "z" in compile_expr(getattr(problem, c)).free for c in ("f", "g"))
        self._xu = {"x": grid.nodes[None, :], "u": us[:, None]}

    def __call__(self, name, t, y=None, z=None):
        bindings = dict(self._xu, t=t, y=y, z=z)
        out = np.broadcast_to(np.asarray(
            _walk(getattr(self.problem, name), bindings), dtype=np.float64),
            self.shape)
        if name in ("b", "h", "sigma") and not np.all(np.isfinite(out)):
            raise ValueError(f"non-finite {name}")
        return out


def _ref_generator(s_lo, s_hi, a):
    """G(a) = (s_hi a+ - s_lo a-) / 2, elementwise."""
    return 0.5 * (s_hi * np.maximum(0.0, a) - s_lo * np.maximum(0.0, -a))


def _ref_hjb_step(coefs, W: np.ndarray, t: float, dt: float
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
    H = _ref_generator(s_lo, s_hi, F) + p_up * b + f_up
    H_min = np.min(H, axis=0)
    out = W + dt * H_min
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite update in HJB step")
    return out


def _ref_solve(problem, grid, K, n_u=None):
    """The marching loop of ``solve_hjb`` around the reference step."""
    k_out, m_sub, dt_int, _ = hjb_time_stepping(
        CoefficientGrid(problem, grid, problem.u_grid(n_u)), K)
    x = grid.nodes
    coefs = _RefCoefs(problem, grid, n_u)
    values = np.empty((k_out + 1, grid.n_x))
    row = np.broadcast_to(np.asarray(_walk(problem.phi, {"x": x}),
                                     dtype=np.float64), x.shape).copy()
    values[k_out] = row
    dt_out = problem.horizon / k_out
    for k in range(k_out - 1, -1, -1):
        t_right = (k + 1) * dt_out
        for j in range(m_sub):
            t_new = t_right - (j + 1) * dt_int
            row = _ref_hjb_step(coefs, row, t_new, dt_int)
        check_growth(k, row, x)
        values[k] = row
    return values


# ---------------------------------------------------------------------------
# the HJB step: same bytes as the reference on and off the catalog


def _problem(n_u, box=(0.5, 2.0), gamma=(0.2, 0.3), **coefs):
    kw = dict(b="0", h="0", sigma="x", f="0", g="0", phi="pos(x-1)")
    kw.update(coefs)
    u_max = 0.5 if n_u > 1 else -0.5
    return ControlProblem(horizon=0.5, x_min=box[0], x_max=box[1],
                          u_min=-0.5, u_max=u_max, n_u=n_u,
                          gamma=GammaSet.interval(*gamma), **kw)


OFF_CATALOG = {
    "b=0, h!=0": dict(h="0.05*x"),
    "b!=0, h=0, g!=0": dict(b="0.1*x + 0.05*u", g="0.02*x - 0.01*y"),
    # the payoff's slope is <= 0, so the f z-slope turns the speed negative
    "drivers in z": dict(f="-0.05*y + 0.02*abs(z)", g="0.01*z",
                         phi="-pos(x-1)"),
    "f in z only": dict(b="0.05*u", f="0.05*z + 0.1*u^2"),
    "t-dependent sigma": dict(sigma="x*(1+0.1*t)", h="0.05*x"),
    "all terms": dict(b="0.1*x + 0.05*u", h="0.05*x", sigma="x*(1+0.1*t)",
                      f="-0.05*y + 0.02*abs(z) + 0.1*u^2", g="0.01*z",
                      phi="sqrt(x) + log(x)"),
    "negated payoff": dict(b="0.05*u", phi="-pos(x-1)"),
    # sigma = 0 at the node x = 0, where the payoff is -0.0 and A < 0
    "signed zero": dict(box=(-1.0, 1.0), phi="-x^2"),
    # static upwind directions: h changes sign inside the box, so one mask
    # mixes p_f and p_b; exact z-slopes of g, negative, beside z-free
    # terms, and reading x
    "h changes sign": dict(h="0.05*(x-1)"),
    "g slope negative": dict(g="-0.01*z"),
    "g affine in z plus z-free terms": dict(g="0.01*z - 0.02*y + 0.01*x"),
    "g slope reads x": dict(g="0.01*x*z"),
    # a slope that reads y keeps the central difference
    "g slope reads y": dict(g="0.01*y*z"),
    # b against the g-slope: the scenario qhat2 sets the speed's sign, so
    # the upwind direction is taken per step
    "b against the g slope": dict(b="-0.0006*x", g="0.01*z",
                                  phi="-pos(x-1)"),
    # s_lo = 1e-340 underflows to 0, so s_lo h is -0.0 >= 0 where s_hi h
    # < 0: the scenario qhat2 sets the direction, per step
    "s_lo underflows": dict(gamma=(1e-170, 0.3), h="-0.2*x",
                            phi="sin(4*x)"),
    # a t-dependent h: an exact slope, but an upwind direction per step
    "t-dependent h, g affine in z": dict(h="0.05*(x-1) + 0.1*t",
                                         g="0.01*z"),
    # a drift beside qhat2's term, of one sign at s_lo and s_hi: static
    "b=0.1x, g=0.05z": dict(b="0.1*x", g="0.05*z"),
    "b=-0.2, g=0.05z": dict(b="-0.2", g="0.05*z"),
    "b=0.1x, h=0.05x": dict(b="0.1*x", h="0.05*x"),
    # the speed 0.05 x (qhat2 - 1) is < 0 at s_lo = 0.25 and > 0 at s_hi =
    # 2.25, so the direction is taken per step
    "b=-0.05x, g=0.05z, sign set by qhat2": dict(
        b="-0.05*x", g="0.05*z", gamma=(0.5, 1.5), phi="sin(4*x)"),
    # the speed's sign differs between the controls: one mask per control
    "b=0.1u, g=0.05z": dict(b="0.1*u", g="0.05*z"),
    # b alone in the speed, its sign varying over the controls and the
    # nodes: one static mask, taken by np.where
    "b=0.1ux, box straddles 0": dict(b="0.1*u*x", box=(-1.0, 1.0),
                                     phi="sin(4*x)"),
    # static masks free of x, taken as runs of controls: a 0-d mask, all
    # backward, is one run (a view of p_b)
    "b=-0.2 alone": dict(b="-0.2"),
    # three runs, +, - and + at u = -0.5, 0 and 0.5, into one kept buffer
    "b=u^2-0.1, three runs": dict(b="u^2 - 0.1"),
    # a kept buffer that feeds the bracket's 2 p h
    "b=0.1u, h=0.02": dict(b="0.1*u", h="0.02"),
    # static b and f stored at full shape beside a two-run mask
    "b=0.1u, f=u^2": dict(b="0.1*u", f="u^2"),
    # a static mask that changes along x beside a sigma that reads u: free
    # of u without a driver in z, one mask per control with g = 0.01 z
    "h changes sign, sigma reads u": dict(h="0.05*(x-1)", sigma="x + 0.1*u"),
    "h changes sign, sigma reads u, g=0.01z": dict(
        h="0.05*(x-1)", sigma="x + 0.1*u", g="0.01*z"),
    # a driver quadratic in z: its slope reads z, a central difference
    "g quadratic in z": dict(g="0.01*z^2"),
}


@pytest.mark.parametrize("n_u", [1, 3])
@pytest.mark.parametrize("case", sorted(OFF_CATALOG))
def test_step_matches_reference_off_catalog(case, n_u):
    p = _problem(n_u, **OFF_CATALOG[case])
    grid = Grid1D.for_problem(p, 41)
    assert (solve_hjb(p, grid, 20).values.tobytes()
            == _ref_solve(p, grid, 20).tobytes())


# 81 controls: two candidates per run where H is convex in u, against the
# reference's scan; with b = 0 no gradient is formed, b free of u places
# the candidates at the same rows every step, and a constant b is a 0-d
# operand
MANY_CONTROLS = {
    "b=0.1u, f=u^2": OFF_CATALOG["b=0.1u, f=u^2"],
    "b=0, f convex": dict(f="u^2 + 0.1*x*u"),
    "b free of u, f convex": dict(b="0.1*x", f="0.5*(u - 0.1*x)^2"),
    "b constant, f convex": dict(b="-0.05", f="u^2"),
    # these scan: H is linear in u, f reads z, or sigma reads t
    "b=0.1u, f constant": dict(b="0.1*u", f="0.02"),
    "f in z only": OFF_CATALOG["f in z only"],
    "sigma reads t, f convex": dict(sigma="x*(1+0.1*t)", f="u^2"),
}
SCANS = {"b=0.1u, f constant", "f in z only", "sigma reads t, f convex"}


@pytest.mark.parametrize("case", sorted(MANY_CONTROLS))
def test_step_matches_reference_at_81_controls(case):
    p = _problem(81, **MANY_CONTROLS[case])
    grid = Grid1D.for_problem(p, 41)
    assert (solve_hjb(p, grid, 20).values.tobytes()
            == _ref_solve(p, grid, 20).tobytes())
    step = hjb_make_step(CoefficientGrid(p, grid, p.u_grid()))
    assert (step.candidates is None) == (case in SCANS)


def _quadratic_control(rng, n_u, k, z):
    """b = a u + c(x), f = k u^2 + l(x) u + m(x) on u in [-0.5, 0.5]: c(x)
    keeps b's sign change between the same two controls at every node (or
    past the last control), so the upwind mask is runs of controls."""
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    du = 1.0 / (n_u - 1)
    # b = 0 at u = u_j + du (0.3 + 0.4 (x - 0.5) / 1.5), or past u = 0.5
    j = int(rng.integers(-1, n_u - 1)) if n_u > 2 else 0
    lo, span = -0.5 + du * (j + 0.3), 0.4 * du / 1.5
    c = f"{-a * (lo - 0.5 * span)!r} - {a * span!r}*x"
    l1, l0, m1 = rng.uniform(-0.5, 0.5, 3).tolist()
    coefs = dict(b=f"{a!r}*u + {c}",
                 f=f"{k!r}*u^2 + ({l1!r}*x + {l0!r})*u + {m1!r}*x^2",
                 phi="pos(x-1) - 0.2*x^2")
    if z:  # a driver in z free of u, weak enough to keep the mask's runs
        coefs["g"] = "0.0005*z"
    return _problem(n_u, **coefs)


@pytest.mark.parametrize("z", [False, True], ids=["no z", "z"])
@pytest.mark.parametrize("k", [0.0, "random"])
@pytest.mark.parametrize("n_u", [2, 3, 9, 81, 321])
def test_candidates_match_the_scan_on_quadratic_controls(n_u, k, z):
    rng = np.random.default_rng([n_u, z, k == 0.0])
    kk = 0.0 if k == 0.0 else float(rng.uniform(0.05, 2.0))
    p = _quadratic_control(rng, n_u, kk, z)
    grid = Grid1D.for_problem(p, 41)
    coefs = CoefficientGrid(p, grid, p.u_grid())
    step = hjb_make_step(coefs)
    # the plan scans where no run has more than 16 controls, where H is
    # linear in u (k = 0) and where a driver reads z
    assert (step.candidates is None) == (n_u < 33 or not kk or z)
    field = solve_hjb(p, grid, 20)
    assert field.values.tobytes() == _ref_solve(p, grid, 20).tobytes()
    if step.candidates:  # the certificate holds on every field row
        for W in field.values[1:]:
            step(W, 0.25, 1e-4)
            assert step.candidates()


@pytest.mark.parametrize("b", ["u + 0.48", "u - 0.48"])
def test_candidates_on_one_control_runs(b):
    # u = -0.5, -0.46875, ..., 0.5: b < 0 at the first control only (a run
    # of one, whose candidates are that control twice, beside a run of 32),
    # or b >= 0 at the last only
    p = _problem(33, b=b, f="0.3*u^2 + 0.1*x*u")
    grid = Grid1D.for_problem(p, 41)
    assert hjb_make_step(CoefficientGrid(p, grid, p.u_grid())).candidates
    assert (solve_hjb(p, grid, 20).values.tobytes()
            == _ref_solve(p, grid, 20).tobytes())


# G's edge cases: signed zeros, subnormals, overflow, infinities and NaN
G_EDGES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, -1e-300, 5e-324,
                    -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
G_BOUNDS = [(0.04, 0.09), (1e-300, 1e300), (0.0, 0.09), (0.0, 0.0),
            (1.0, 1.0)]


@pytest.mark.parametrize("s", G_BOUNDS)
def test_generator_against_the_split_form(s):
    # the same bits but where s_lo a rounds to 0 for an a < 0 (-0.0 for
    # +0.0) and at a = +inf with s_lo = 0 < s_hi (NaN for inf; the HJB step
    # raises "non-finite update" on either)
    a = G_EDGES
    with np.errstate(all="ignore"):
        got, ref, lo_a = generator(*s, a), _ref_generator(*s, a), s[0] * a
    same = ((got.view(np.int64) == ref.view(np.int64))
            | np.isnan(got) & np.isnan(ref))
    flip, nan = ((a < 0.0) & (lo_a == 0.0),
                 (a == math.inf) & (s[0] == 0.0 < s[1]))
    assert (~same == flip | nan).all()
    assert (got[flip] == 0.0).all() and np.signbit(got[flip]).all()
    assert not np.signbit(ref[flip]).any()
    assert np.isnan(got[nan]).all() and (ref[nan] == math.inf).all()


@pytest.mark.parametrize("s", G_BOUNDS)
def test_generator_out_form_keeps_the_bits(s):
    # the HJB step writes G over its own input, with 0-d bounds
    with np.errstate(all="ignore"):
        ref = generator(*s, G_EDGES)
        out, scratch = np.empty((2, G_EDGES.size))
        into = generator(*s, G_EDGES, out=out, scratch=scratch)
        a = G_EDGES.copy()
        over = generator(*map(np.array, s), a, out=a, scratch=scratch)
    assert into is out and over is a
    assert into.tobytes() == ref.tobytes() == over.tobytes()


def test_left_out_zero_keeps_values_at_a_signed_zero():
    # sigma = 0 at x = 0, where the payoff is -0.0 and A < 0: with g = 0 left
    # out of F and f(-0.0) = -0.0 the row can keep a -0.0 where the full sum
    # gave +0.0; the values are equal
    p = _problem(1, box=(-1.0, 1.0), phi="-x^2", f="0.1*y")
    grid = Grid1D.for_problem(p, 41)
    assert np.array_equal(solve_hjb(p, grid, 20).values,
                          _ref_solve(p, grid, 20))


@pytest.mark.parametrize("name", ["bsb-call", "bsb-concave", "lq",
                                  "recursive-g"])
def test_step_matches_reference_on_catalog(name):
    p = catalog_entry(name).problem
    grid = Grid1D.for_problem(p, 40)
    assert (solve_hjb(p, grid, 20, n_u=9).values.tobytes()
            == _ref_solve(p, grid, 20, n_u=9).tobytes())


# ---------------------------------------------------------------------------
# the lattice step: same bytes as the per-step reference


def _ref_interp_inside(W, grid, xq):
    pos = (xq - grid.x_min) / grid.dx
    idx = np.clip(pos.astype(np.int64), 0, grid.n_x - 2)
    lam = np.clip(pos - idx, 0.0, 1.0)
    return W[idx] + lam * (W[idx + 1] - W[idx])


def _ref_central_slope(W, dx):
    out = np.empty_like(W)
    out[..., 1:-1] = (W[..., 2:] - W[..., :-2]) / (2.0 * dx)
    out[..., 0] = (W[..., 1] - W[..., 0]) / dx
    out[..., -1] = (W[..., -1] - W[..., -2]) / dx
    return out


def _ref_stencil_mean(W, grid, mu, s):
    """The monotone stencil closure, every cell and rule rebuilt per call."""
    lo, hi = grid.x_min, grid.x_max
    mu, s = np.broadcast_arrays(mu, s)
    xp, xm = mu + s, mu - s
    up, down = xp > hi, xm < lo
    edge = up | down
    mu_e, s_e, up_e, down_e = mu[edge], s[edge], up[edge], down[edge]
    right = up_e & ~down_e
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray(0.5 * (_ref_interp_inside(W, grid, xp)
                                + _ref_interp_inside(W, grid, xm)))
        a = np.where(right, hi - mu_e, mu_e - lo)
        s2 = s_e * s_e
        b_off = s2 / a
        inner = np.where(right, mu_e - b_off, mu_e + b_off)
        weight = s2 / (a ** 2 + s2)
        base = _ref_interp_inside(W, grid, inner)
        one_sided = base + weight * (np.where(right, W[-1], W[0]) - base)
        end = (W[0] + np.clip((mu_e - lo) / (hi - lo), 0.0, 1.0)
               * (W[-1] - W[0]))
        finite = np.isfinite(xp - xm)
    reachable = np.where(right, inner >= lo, inner <= hi)
    out[edge] = np.where((up_e != down_e) & (a > 0.0) & reachable,
                         one_sided, end)
    return np.where(finite, out, np.nan)


def _ref_dpp_step(coefs, W, t, delta):
    """One backward lattice step: min over controls of the max over the
    scenarios of the driver-augmented stencil average, zeta always formed."""
    b, h, sig = coefs("b", t), coefs("h", t), coefs("sigma", t)
    zeta = sig * _ref_central_slope(W, coefs.grid.dx)
    best = None
    for q in vol_grid(coefs.problem.gamma):
        mu, shift = _step_law(coefs.x, b, h, sig, q, delta)
        m = _ref_stencil_mean(W, coefs.grid, mu, np.abs(shift))
        cand = _driver_update(m, coefs("f", t, m, zeta),
                              coefs("g", t, m, zeta), q, delta)
        best = cand if best is None else np.maximum(best, cand)
    return min_over_controls(best)


def _assert_lattice_steps_match(p, n_x, K, n_u=None):
    """The planned step against the reference on a random row and every row
    of the solve, at the row times; then the whole field."""
    grid = Grid1D.for_problem(p, n_x)
    coefs = CoefficientGrid(p, grid, p.u_grid(n_u))
    delta = p.horizon / K
    step = lattice_step(coefs, delta)
    field = solve_dpp(p, grid, K, n_u)
    rows = [np.random.default_rng(K).normal(size=n_x), *field.values]
    for k, W in enumerate(rows):
        t = (k % K) * delta
        assert step(W, t).tobytes() == _ref_dpp_step(coefs, W, t,
                                                     delta).tobytes()
    ref = march(coefs, K, lambda W, k: _ref_dpp_step(coefs, W, k * delta,
                                                     delta), "lattice", delta)
    assert field.values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("n_u", [1, None])
@pytest.mark.parametrize("name", ["bsb-call", "bsb-concave", "lq",
                                  "recursive-g"])
def test_lattice_step_matches_reference_on_catalog(name, n_u):
    _assert_lattice_steps_match(catalog_entry(name).problem, 40, 20, n_u)


LATTICE_OFF_CATALOG = {
    # sigma reads t: a plan per step
    "all terms": dict(OFF_CATALOG["all terms"]),
    "b reads t": dict(b="0.1*x + 0.2*t*u", g="0.01*z"),
    # b = h = 0: the two end nodes are edge lanes with a = 0
    "a = 0": dict(),
    # b pushes the right end node's mean past x_max: a < 0
    "a < 0": dict(b="0.4*x"),
    # s >= 50 * 0.2 sqrt(0.025) = 1.58 on a box 1 wide: both points exit
    # at every node
    "both points exit": dict(sigma="50", box=(-0.5, 0.5), phi="sin(4*x)"),
}


@pytest.mark.parametrize("n_u", [1, 3])
@pytest.mark.parametrize("case", sorted(LATTICE_OFF_CATALOG))
def test_lattice_step_matches_reference_off_catalog(case, n_u):
    _assert_lattice_steps_match(_problem(n_u, **LATTICE_OFF_CATALOG[case]),
                                21, 20)


@pytest.mark.filterwarnings(
    "ignore:overflow encountered in multiply:RuntimeWarning")
def test_lattice_non_finite_lane_matches_reference():
    # b delta = 5e6 x overflows to +-inf at every node but x = 0: those
    # lanes are NaN, x = 0 keeps its value, and the solve stops at row 0
    p = ControlProblem(
        horizon=1e4, x_min=-1e304, x_max=1e304, u_min=0.0, u_max=0.0,
        n_u=1, gamma=GammaSet.interval(1.0, 1.0), b="500*x", h="0",
        sigma="1", f="0", g="0", phi="x")
    grid = Grid1D(-1e304, 1e304, 11)
    coefs = CoefficientGrid(p, grid, p.u_grid())
    W = grid.nodes.copy()
    got = lattice_step(coefs, 1e4)(W, 0.0)
    assert got.tobytes() == _ref_dpp_step(coefs, W, 0.0, 1e4).tobytes()
    assert np.isnan(np.delete(got, 5)).all() and np.isfinite(got[5])
    with pytest.raises(GrowthCeilingError) as err:
        solve_dpp(p, grid, 1)
    assert err.value.k == 0


# ---------------------------------------------------------------------------
# the compiler: same bytes and errors as the walker


UNARY = ("-", "abs", "exp", "log", "sqrt", "sin", "cos", "pos", "neg")
BINARY = ("+", "-", "*", "/", "^", "min", "max")
VARS = ("t", "x", "u", "y", "z")
# signed zeros, infinities and NaN as well as ordinary values
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Lit(float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0,
                                         round(rng.uniform(0, 4), 3)])))
        return Var(str(rng.choice(VARS)))
    if rng.random() < 0.4:
        return Un(str(rng.choice(UNARY)), _random_tree(rng, depth - 1))
    return Bin(str(rng.choice(BINARY)), _random_tree(rng, depth - 1),
               _random_tree(rng, depth - 1))


def _bindings(rng, arrays):
    if not arrays:
        return {v: float(rng.choice(SPECIAL)) if rng.random() < 0.3
                else float(rng.uniform(-3, 3)) for v in VARS}
    out = {}
    for v in VARS:
        col = rng.uniform(-3, 3, size=6)
        special = rng.random(6) < 0.3
        col[special] = rng.choice(SPECIAL, size=int(special.sum()))
        out[v] = col
    out["x"] = out["x"][:, None]  # broadcasts against the (6,) columns
    return out


def _outcome(fn):
    """The value, or the error's type and message, with warnings muted."""
    with np.errstate(all="ignore"):
        try:
            return "value", fn()
        except ExprError as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("arrays", [False, True], ids=["scalar", "array"])
def test_compiled_matches_walker_bytes(arrays):
    rng = np.random.default_rng(1107 + arrays)
    ops = set()
    for _ in range(1500):
        tree = _random_tree(rng, int(rng.integers(1, 6)))
        bind = _bindings(rng, arrays)
        kind, want = _outcome(lambda: _walk(tree, bind))
        got_kind, got = _outcome(lambda: compile_expr(tree)(bind))
        assert got_kind == kind
        if kind == "value":
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        else:
            assert got == want
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, (Un, Bin)):
                ops.add(node.op)
                stack.extend([node.a] + ([node.b] if isinstance(node, Bin)
                                         else []))
    assert ops == set(UNARY) | set(BINARY)


@pytest.mark.parametrize("text,bind", [
    ("log(x)", {"x": -1.0}),
    ("log(x)", {"x": np.array([1.0, 0.0, 2.0])}),
    ("sqrt(x - 1)", {"x": 0.5}),
    ("sqrt(x)", {"x": np.array([[4.0], [-0.25]])}),
    ("x^0.5", {"x": -2.0}),
    ("(x - 3)^u", {"x": np.array([1.0, 4.0]), "u": 1.5}),
    ("x + log(0 - 1)", {"x": 2.0}),
    ("sqrt(-1) * x", {"x": np.array([1.0])}),
    ("(0 - 2)^0.5 + x", {"x": 1.0}),
    ("x + y", {"x": 1.0}),
])
def test_domain_errors_match_walker(text, bind):
    e = parse_expr(text)
    fn = compile_expr(e)  # a failing constant subtree does not fail here
    with pytest.raises(ExprEvalError) as want:
        _walk(e, bind)
    with pytest.raises(ExprEvalError) as got:
        fn(bind)
    assert str(got.value) == str(want.value)
    assert got.value.bindings.keys() == bind.keys()
    with pytest.raises(ExprEvalError) as via_eval:
        eval_expr(e, bind)
    assert str(via_eval.value) == str(want.value)


def test_domain_error_reports_a_broadcast_argument():
    # the power's mask has the broadcast shape of base and exponent
    fn = compile_expr(parse_expr("x^u"))
    bind = {"x": np.array([2.0, -1.0]), "u": np.array([[1.0], [0.5]])}
    with pytest.raises(ExprEvalError, match="power of out-of-domain "
                                            "argument -1.0"):
        fn(bind)


def test_constant_overflow_warns_at_the_call():
    fn = compile_expr(parse_expr("exp(1000) + x"))
    with pytest.warns(RuntimeWarning):
        assert fn({"x": 1.0}) == math.inf


def test_zero_and_free_variables():
    cases = {"0": True, "-0": False, "1 - 1": True, "0*x": False,
             "x": False, "0.5": False, "log(0 - 1)": False}
    for text, zero in cases.items():
        assert compile_expr(parse_expr(text)).is_zero is zero, text
    assert compile_expr(parse_expr("u*y + 0.5*sin(z) + 2^3")).free == {
        "u", "y", "z"}
    assert compile_expr(parse_expr("exp(1)*2")).free == frozenset()
