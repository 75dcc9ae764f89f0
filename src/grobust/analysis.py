"""Independent oracles and estimators for cross-validating the solvers.

Nothing in here runs the lattice or finite-difference machinery except where
explicitly stated (the small-horizon rate check drives the lattice semigroup
on purpose).  The closed forms are hand-derived and validated by residual
substitution in the test suite, never trusted bare:

* ``bs_value``   - zero-rate call value; the uncertain-volatility problems
  reduce to it because a convex (concave) value profile makes the worst case
  sit at the high (low) volatility endpoint.
* ``lq_value``   - singleton-volatility linear-quadratic value
  x^2/(1+T-t) + s^2 ln(1+T-t), from the quadratic ansatz P(t) x^2 + r(t)
  with P' = P^2 and r' = -s^2 P.
* ``f0_ode_solve`` - the backward scalar ODE -dY = F0(s, x, Y, 0) ds whose
  solution matches the frozen-state control value over a short window; F0 is
  the HJB Hamiltonian of :mod:`grobust.hjb` at the test function, the
  worst-case generator applied to the whole quadratic-variation bracket
  sigma^2 phi_xx + 2 h phi_x + 2 g.
* ``delta32_check`` - measures |semigroup value - test function - ODE value|
  over a shrinking window; the defect should vanish like delta^(3/2).
* ``mc_lower_bound`` - forward Euler scenario simulation; any single
  admissible volatility profile bounds the worst case from below; it
  steps and backs up its path nodes by the DPP tree's arithmetic with
  Z = 0, and reads no solver field.  It and ``sde_moment_scaling`` check
  and map their scenario profile in one pass, ``_scenario_levels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .expr import Expr, compile_expr, parse_expr
from .gexp import generator, uniform_ellipticity_bounds, vol_grid
from .grids import Grid1D, ValueField, check_range
from .lattice import _finite_nodes, _node_backup, _step_law, semigroup_apply
from .problem import ControlProblem, evaluate

__all__ = [
    "bs_value",
    "lq_value",
    "lq_closed_form_residual",
    "closed_form_field",
    "check_probe",
    "oracle_probe_value",
    "f0_ode_solve",
    "fit_loglog_slope",
    "delta32_check",
    "Delta32Report",
    "mc_lower_bound",
    "McResult",
    "sde_moment_scaling",
    "regularity_report",
    "RegularityReport",
    "verify_oracle_tag",
]

_SQRT2 = math.sqrt(2.0)
# the closed-form oracle tags and the method their artifacts record
CLOSED_FORMS = {"bsb-convex": "bs-closed-form",
                "bsb-concave": "bs-closed-form", "lq-riccati": "riccati"}
# the strike of the bsb-* payoff pos(x - STRIKE) that the closed forms price
STRIKE = 1.0


def _norm_cdf(d: float) -> float:
    return 0.5 * (1.0 + math.erf(d / _SQRT2))


def bs_value(spot: float, strike: float, vol: float, tau: float) -> float:
    """Zero-rate call value spot N(d1) - strike N(d2)."""
    if not (spot > 0.0 and strike > 0.0 and vol > 0.0 and tau > 0.0):
        raise ValueError(
            f"need spot, strike, vol, tau > 0, got "
            f"({spot}, {strike}, {vol}, {tau})"
        )
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + 0.5 * vol * vol * tau) / sq
    d2 = d1 - sq
    return spot * _norm_cdf(d1) - strike * _norm_cdf(d2)


def lq_value(t: float, x: float, horizon: float, s: float) -> float:
    """x^2/(1+T-t) + s^2 ln(1+T-t); terminal condition x^2 at t = T."""
    if t > horizon:
        raise ValueError(f"need t <= horizon, got t={t} > {horizon}")
    tau = horizon - t
    return x * x / (1.0 + tau) + s * s * math.log(1.0 + tau)


def lq_closed_form_residual(t: float, x: float, horizon: float, s: float) -> float:
    """Pointwise defect of lq_value in its reduced equation, by hand-coded
    analytic derivatives: dV/dt + min_u [u Vx + u^2] + s^2/2 Vxx."""
    tau = horizon - t
    one = 1.0 + tau
    v_t = x * x / (one * one) - s * s / one
    v_x = 2.0 * x / one
    v_xx = 2.0 / one
    return v_t + (-0.25 * v_x * v_x) + 0.5 * s * s * v_xx


def closed_form_field(tag: str, problem: ControlProblem, grid: Grid1D,
                      K: int) -> ValueField:
    """ValueField built from a closed-form oracle (no solve record)."""
    dt = problem.horizon / K
    vals = np.array([[oracle_probe_value(tag, problem, k * dt, x)
                      for x in grid.nodes] for k in range(K + 1)])
    return ValueField(grid=grid, dt=dt, values=vals)


def check_probe(problem: ControlProblem, t: float, x: float) -> None:
    """Raise unless t in [0, T] and x in the state box (value_at's rule)."""
    check_range("t", t, 0, problem.horizon, "horizon")
    check_range("x", x, problem.x_min, problem.x_max, "state box")


def oracle_probe_value(tag: str, problem: ControlProblem, t: float,
                       x: float) -> float:
    """The closed form ``tag`` at (t, x), a point that passes check_probe."""
    check_probe(problem, t, x)
    s_lo, s_hi = uniform_ellipticity_bounds(problem.gamma)
    tau = problem.horizon - t
    if tag in ("bsb-convex", "bsb-concave"):
        sign, s2 = (1.0, s_hi) if tag == "bsb-convex" else (-1.0, s_lo)
        # sigma = x keeps a state at x <= 0 there, below the strike, so its
        # value is the payoff 0
        return sign * (max(x - STRIKE, 0.0) if tau <= 0.0 or x <= 0.0
                       else bs_value(x, STRIKE, math.sqrt(s2), tau))
    if tag == "lq-riccati":
        return lq_value(min(t, problem.horizon), x, problem.horizon,
                        math.sqrt(s_lo))
    raise ValueError(f"no closed form for oracle tag {tag!r}")


def _tx_function(e: Union[str, Expr, Callable], what: str) -> Callable:
    """The closure of a (t, x) expression given as a string, a tree or a
    :func:`compile_expr` closure; ValueError names ``what`` when it reads
    u, y or z."""
    fn = e if callable(e) else compile_expr(
        parse_expr(e) if isinstance(e, str) else e)
    extra = fn.free - {"t", "x"}
    if extra:
        raise ValueError(f"{what} may use (t, x) only, found {sorted(extra)}")
    return fn


# ---------------------------------------------------------------------------
# frozen-state backward ODE (short-window characterization)


def f0_ode_solve(problem: ControlProblem, x: float, t: float, delta: float,
                 phi: Union[str, Expr, Callable], n_rk: int) -> float:
    """Integrate -dY = F0(s, x, Y, 0) ds backward over [t, t+delta], Y(t+delta)=0.

    F0 is the HJB Hamiltonian of :mod:`grobust.hjb` at the test function,
    the min over the whole control grid (evaluated at once) of

        d_s phi + f + b d_x phi + G(sigma^2 d2_xx phi + 2 h d_x phi + 2 g),

    f and g at (s, x, y + phi, z + sigma d_x phi, u); phi's derivatives are
    central differences at relative step 1e-5 of the state box (the state
    stays frozen at x).  Classical 4-stage Runge-Kutta with ``n_rk`` steps.
    ``phi`` is a string, a tree or a :func:`compile_expr` closure.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if n_rk < 1:
        raise ValueError("n_rk must be >= 1")
    phi_c = _tx_function(phi, "test function")
    c = problem.compiled
    hx = 1e-5 * (problem.x_max - problem.x_min)
    ht = 1e-5 * problem.horizon
    s_lo, s_hi = uniform_ellipticity_bounds(problem.gamma)
    us = problem.u_grid()
    # offsets of phi's samples: (0, 0), (0, +-hx) and (+-ht, 0) in (t, x)
    dts, dxs = np.array([[0.0, 0.0, 0.0, ht, -ht], [0.0, hx, -hx, 0.0, 0.0]])

    def f0(s: float, y: float) -> float:
        p0, p_r, p_l, p_next, p_prev = evaluate(
            phi_c, {"t": s + dts, "x": x + dxs}, dts.shape)
        px = (p_r - p_l) / (2.0 * hx)
        pxx = (p_r - 2.0 * p0 + p_l) / (hx * hx)
        ps = (p_next - p_prev) / (2.0 * ht)
        bind = {"t": s, "x": x, "u": us}
        b, h, sig = (evaluate(c[name], bind, us.shape)
                     for name in ("b", "h", "sigma"))
        drivers = dict(bind, y=y + p0, z=sig * px)
        f = evaluate(c["f"], drivers, us.shape)
        g = evaluate(c["g"], drivers, us.shape)
        F = sig * sig * pxx + 2.0 * px * h + 2.0 * g
        best = float(np.min(ps + f + b * px + generator(s_lo, s_hi, F)))
        if not math.isfinite(best):
            raise ValueError(f"non-finite F0 at s={s}")
        return best

    # backward integration: with tau = t + delta - s,  dY/dtau = F0(s(tau), Y)
    y = 0.0
    hstep = delta / n_rk
    for j in range(n_rk):
        tau = j * hstep
        s0 = t + delta - tau

        k1 = f0(s0, y)
        k2 = f0(s0 - 0.5 * hstep, y + 0.5 * hstep * k1)
        k3 = f0(s0 - 0.5 * hstep, y + 0.5 * hstep * k2)
        k4 = f0(s0 - hstep, y + hstep * k3)
        y += (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def fit_loglog_slope(deltas: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(deltas)."""
    ld = np.log(np.asarray(deltas, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(ld, lv, 1)[0])


@dataclass(frozen=True)
class Delta32Report:
    deltas: Tuple[float, ...]
    defects: Tuple[float, ...]
    slope: Optional[float]
    below_noise_floor: bool
    passed: bool


def _is_driftless_constant_vol(problem: ControlProblem) -> Optional[float]:
    """Constant sigma if the state law is exactly x + sigma q B, else None:
    sigma reads no variable, and b and h are the constant 0."""
    c = problem.compiled
    if c["sigma"].free or not (c["b"].is_zero and c["h"].is_zero):
        return None
    return float(c["sigma"]({"t": 0.0, "x": 0.0, "u": 0.0}))


# delta32_check: lattice substeps per window, nodes on the problem box, RK4
# steps, the defect that passes outright and the least passing decay slope
_D32_N_SUB = 64
_D32_N_X = 4001
_D32_N_RK = 256
_D32_NOISE_FLOOR = 1e-10
_D32_SLOPE = 1.4


def delta32_check(problem: ControlProblem, x: float, t: float,
                  phi: Union[str, Expr], deltas: Sequence[float]
                  ) -> Delta32Report:
    """Fit the decay rate of the short-window defect D(delta).

    D(delta) = | min_u semigroup[phi(t+delta, .)](x)  -  phi(t, x)  -  Y0 |
    with the semigroup evaluated on a fine lattice (constant controls) and Y0
    from :func:`f0_ode_solve`.  When the state law is exactly a constant-
    volatility random walk with a singleton scenario set, the lattice is
    aligned with the walk so D sits at the rounding floor.  (t, x) and the
    end of the largest window, (t + deltas[0], x), must pass
    :func:`check_probe`.
    """
    deltas = [float(d) for d in deltas]
    if len(deltas) < 4:
        raise ValueError("need at least 4 window sizes")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("window sizes must be strictly decreasing")
    check_probe(problem, t, x)
    check_probe(problem, t + deltas[0], x)
    phi_c = _tx_function(phi, "test function")
    const_sig = _is_driftless_constant_vol(problem)
    qs = vol_grid(problem.gamma)
    aligned = const_sig is not None and len(qs) == 1

    defects = []
    for delta in deltas:
        dsub = delta / _D32_N_SUB
        if aligned:
            # the lattice's own shift, so the walk lands on the nodes
            spacing = abs(_step_law(x, 0.0, 0.0, const_sig, qs[0], dsub)[1])
            half = (_D32_N_SUB + 1) * spacing
            grid = Grid1D(x - half, x + half, 2 * (_D32_N_SUB + 1) + 1)
        else:
            grid = Grid1D(problem.x_min, problem.x_max, _D32_N_X)
        eta = evaluate(phi_c, {"t": t + delta, "x": grid.nodes},
                       grid.nodes.shape)
        best = math.inf
        for u in problem.u_grid():
            row = semigroup_apply(eta, grid, t, t + delta, _D32_N_SUB,
                                  problem, float(u))
            best = min(best, float(np.interp(x, grid.nodes, row)))
        y0 = f0_ode_solve(problem, x, t, delta, phi_c, _D32_N_RK)
        phi_tx = float(phi_c({"t": t, "x": x}))
        defects.append(abs(best - phi_tx - y0))

    if min(defects) <= _D32_NOISE_FLOOR:
        return Delta32Report(tuple(deltas), tuple(defects), None, True, True)
    slope = fit_loglog_slope(deltas, defects)
    return Delta32Report(tuple(deltas), tuple(defects), slope, False,
                         slope >= _D32_SLOPE)


# ---------------------------------------------------------------------------
# forward Monte Carlo lower bound


@dataclass(frozen=True)
class McResult:
    mean: float
    stderr: float
    n_paths: int
    ci_low: float
    ci_high: float


def _step_signs(seed: int, k: int, n_paths: int) -> np.ndarray:
    """The +-1 increments of Euler step k for paths 0, ..., n_paths - 1.

    Path i's increment is +1 or -1 as bit i % 64 of word i // 64 of
    ``Philox(key=[seed, k]).random_raw((n_paths + 63) // 64)`` is 1 or 0,
    read little-endian on every platform.  Each increment is thus a pure
    function of (seed, i, k), and the first n paths of a draw do not depend
    on how many paths it has.
    """
    words = np.random.Philox(key=np.array([seed, k], dtype=np.uint64)
                             ).random_raw((n_paths + 63) // 64)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), count=n_paths,
                         bitorder="little")
    return bits * 2.0 - 1.0


def _control(problem: ControlProblem, pol: Callable, t: float,
             xs: np.ndarray) -> np.ndarray:
    """The feedback control at time t in states xs, clipped to [u_min,
    u_max]; it keeps its own shape, 0-d for a policy free of x."""
    return np.clip(evaluate(pol, {"t": t, "x": xs}), problem.u_min,
                   problem.u_max)


def _scenario_levels(problem: ControlProblem, q_profile: Sequence[float],
                     K: int) -> List[float]:
    """The level of each of K steps: q_profile[j] holds on the j-th of
    m = len(q_profile) equal slices of the horizon, so step k, which starts
    at k T / K, reads q_profile[m k // K] (exact in integers).  ValueError
    unless the profile is nonempty and within the volatility set
    (check_range)."""
    if len(q_profile) == 0:
        raise ValueError("q_profile must be nonempty")
    gamma, m = problem.gamma, len(q_profile)
    for q in q_profile:
        check_range("q", q, gamma.sigma_lo, gamma.sigma_hi, "volatility set")
    return [float(q_profile[m * k // K]) for k in range(K)]


def _euler_paths(problem: ControlProblem, pol: Callable, xs: np.ndarray,
                 steps: range, levels: Sequence[float], seed: int):
    """Forward Euler scenario paths with +-1 increments, one step at a time.

    From the states ``xs`` at the first of ``steps``, yields ``(k, x_{k+1})``
    for each step k: level ``levels[k]``, delta = T / len(levels), the
    control ``_control`` and the increments ``_step_signs(seed, k,
    len(xs))``.  The control, b, h and sigma keep their own shapes (a
    constant stays 0-d); only the states span the paths.  Raises
    ValueError on a non-finite state.
    """
    delta = problem.horizon / len(levels)
    c = problem.compiled
    for k in steps:
        t_k = k * delta
        bind = {"t": t_k, "x": xs, "u": _control(problem, pol, t_k, xs)}
        mu, shift = _step_law(xs, c["b"](bind), c["h"](bind),
                              c["sigma"](bind), levels[k], delta)
        xs = mu + shift * _step_signs(seed, k, len(xs))
        if not np.all(np.isfinite(xs)):
            raise ValueError(f"non-finite state at step {k}")
        yield k, xs


def mc_lower_bound(problem: ControlProblem, x0: float,
                   u_policy: Union[str, Expr], q_profile: Sequence[float],
                   n_paths: int, K: int, seed: int) -> McResult:
    """Scenario value of a fixed feedback control under a fixed vol profile.

    Forward Euler with +-1 increments, then a backward sweep that backs each
    path node up by the tree's ``_node_backup`` with Z = 0, recomputing each
    step's control from the path states.  The increments of step k come
    from :func:`_step_signs` under the Philox key (seed, k), so results are
    bit-for-bit reproducible.  The sample mean under any
    single admissible scenario is a lower bound for the worst case of that
    control, hence (up to discretization artifacts) for no control can it
    materially exceed the robust value.  A non-finite node value raises
    ValueError, as in the tree and brute force.

    Memory: no (K+1) x n_paths array of states is kept, only the state row
    at every C-th step, C = ceil(sqrt(K)).  The backward sweep takes the
    segments between checkpoints last to first: it replays a segment's
    Euler steps from its checkpoint, redrawing each step's increments from
    its key, through the same :func:`_euler_paths` as the forward pass (so
    every state has the same bits), and then sweeps that segment backward.
    At most about 2 sqrt(K) state rows are alive at once.
    """
    if n_paths < 1000:
        raise ValueError("need n_paths >= 1000")
    if K < 1:
        raise ValueError("need K >= 1")
    levels = _scenario_levels(problem, q_profile, K)
    pol = _tx_function(u_policy, "feedback policy")
    delta = problem.horizon / K

    stride = math.isqrt(K - 1) + 1  # ceil(sqrt(K))
    checkpoints = [np.full(n_paths, float(x0))]
    for k, xs in _euler_paths(problem, pol, checkpoints[0], range(K), levels,
                              seed):
        if (k + 1) % stride == 0 and k + 1 < K:
            checkpoints.append(xs)

    ys = evaluate(problem.phi, {"x": xs}, (n_paths,)).copy()
    for j in range(len(checkpoints) - 1, -1, -1):
        first, end = j * stride, min((j + 1) * stride, K)
        rows = [checkpoints[j]]  # drops the previous segment's rows first
        rows += [xk for _, xk in _euler_paths(problem, pol, rows[0],
                                              range(first, end - 1), levels,
                                              seed)]
        for k in range(end - 1, first - 1, -1):
            t_k, xk = k * delta, rows[k - first]
            ys = _node_backup(problem, t_k, xk,
                              _control(problem, pol, t_k, xk), levels[k],
                              delta, ys, 0.0)
    _finite_nodes(ys)  # the affine backup carries a non-finite value here

    mean = float(np.mean(ys))
    stderr = float(np.std(ys, ddof=1) / math.sqrt(n_paths))
    return McResult(mean=mean, stderr=stderr, n_paths=n_paths,
                    ci_low=mean - 1.96 * stderr, ci_high=mean + 1.96 * stderr)


def sde_moment_scaling(problem: ControlProblem, x0: float, q_level: float,
                       K: int, n_paths: int = 2000, seed: int = 7
                       ) -> Dict[Tuple[int, float], float]:
    """Normalized running-sup second moments at two time resolutions.

    For resolution in {K, 2K} and each horizon fraction in 1/4, 1/2 and 1,
    returns E[ sup_{s <= frac T} |X_s - x0|^2 ] / ((1 + x0^2) frac T ) under
    the control u = 0; the proportionality constant should be insensitive
    to halving the step.
    """
    fractions = (0.25, 0.5, 1.0)
    out: Dict[Tuple[int, float], float] = {}
    T = problem.horizon
    for res in (K, 2 * K):
        levels = _scenario_levels(problem, [q_level], res)
        delta = T / res
        running = np.zeros(n_paths)
        marks = {f: None for f in fractions}
        for k, xs in _euler_paths(problem, _tx_function("0", "control"),
                                  np.full(n_paths, float(x0)), range(res),
                                  levels, seed):
            running = np.maximum(running, (xs - x0) ** 2)
            for f in fractions:
                if marks[f] is None and (k + 1) * delta >= f * T - 1e-12:
                    marks[f] = float(np.mean(running))
        for f in fractions:
            out[(res, f)] = marks[f] / ((1.0 + x0 * x0) * f * T)
    return out


# ---------------------------------------------------------------------------
# regularity estimation


@dataclass(frozen=True)
class RegularityReport:
    lip_x: float        # max |dV / dx|, interior two-thirds window
    holder_t: float     # envelope |V(t) - V(t')| / sqrt(|t-t'|), dyadic gaps
    holder_t_fit: float  # least-squares coefficient of the same row maxima
    growth: float       # max |V| / (1 + |x|), interior two-thirds window


def regularity_report(V: ValueField, skip_terminal_row: bool = False
                      ) -> RegularityReport:
    """Estimate the space Lipschitz, time-Hölder and growth constants.

    All three are measured on the interior two-thirds of the state window
    (the outermost cells carry the one-sided boundary closures of the
    schemes, not the field's own regularity).  The Hölder constants come in
    two flavors: the envelope (tightest constant dominating every interior
    sample over dyadic row gaps) and a least-squares fit of the per-gap
    maxima against sqrt(gap * dt), which is robust to single-sample
    alignment artifacts at payoff kinks.  ``skip_terminal_row`` drops the
    raw payoff row from the scan, restricting it to solver-produced rows.
    """
    n = V.grid.n_x
    third = max(1, n // 6)
    inner = slice(third, n - third)
    vals = V.values[:-1] if skip_terminal_row else V.values
    lip_x = float(np.max(np.abs(np.diff(vals[:, inner], axis=1))
                         / np.diff(V.grid.nodes[inner])))
    denom = 1.0 + np.abs(V.grid.nodes[inner])
    growth = float(np.max(np.abs(vals[:, inner]) / denom[None, :]))
    env = 0.0
    gaps = []
    maxima = []
    gap = 1
    while gap < vals.shape[0]:
        d = float(np.max(np.abs(vals[:-gap, inner] - vals[gap:, inner])))
        gaps.append(gap * V.dt)
        maxima.append(d)
        env = max(env, d / math.sqrt(gap * V.dt))
        gap *= 2
    g_arr = np.asarray(gaps)
    m_arr = np.asarray(maxima)
    fit = float(np.sum(m_arr * np.sqrt(g_arr)) / np.sum(g_arr)) if gaps else 0.0
    return RegularityReport(lip_x=lip_x, holder_t=env, holder_t_fit=fit,
                            growth=growth)


# ---------------------------------------------------------------------------
# oracle bookkeeping


def _samples_equal(fn: Callable, reference, problem: ControlProblem, rng,
                   tol: float = 1e-12) -> bool:
    boxes = problem.boxes()
    for _ in range(32):
        bind = {"t": rng.uniform(0.0, problem.horizon)}
        bind.update((s, rng.uniform(*box)) for s, box in boxes.items())
        if abs(float(fn(bind)) - reference(bind)) > tol:
            return False
    return True


def verify_oracle_tag(problem: ControlProblem, tag: str) -> bool:
    """Sample-based consistency of the oracle ``tag`` with the coefficients
    of ``problem``."""
    rng = np.random.default_rng(0)
    p, c = problem, problem.compiled
    if tag == "none":
        return True
    if tag in ("bsb-convex", "bsb-concave"):
        sign = 1.0 if tag == "bsb-convex" else -1.0
        return (
            all(_samples_equal(c[name], lambda s: 0.0, p, rng)
                for name in ("b", "h", "f", "g"))
            and _samples_equal(c["sigma"], lambda s: s["x"], p, rng)
            and _samples_equal(c["phi"],
                               lambda s: sign * max(s["x"] - STRIKE, 0.0),
                               p, rng)
        )
    if tag == "lq-riccati":
        # the closed form's feedback -x/(1+T-t) must be admissible
        return (
            p.gamma.is_singleton()
            and _samples_equal(c["b"], lambda s: s["u"], p, rng)
            and _samples_equal(c["h"], lambda s: 0.0, p, rng)
            and _samples_equal(c["g"], lambda s: 0.0, p, rng)
            and _samples_equal(c["f"], lambda s: s["u"] ** 2, p, rng)
            and _samples_equal(c["phi"], lambda s: s["x"] ** 2, p, rng)
            and _samples_equal(c["sigma"], lambda s: 1.0, p, rng)
            and p.u_min <= -p.x_max and p.u_max >= -p.x_min
        )
    raise ValueError(f"unknown oracle tag {tag!r}")
