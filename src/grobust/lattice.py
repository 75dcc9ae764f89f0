"""Discrete-time sublinear expectation lattice and DPP value solver.

One backward step computes, at every grid node, the worst case over the
volatility scenarios q of

    m + delta * f(t, x, m, zeta, u) + q^2 delta * g(t, x, m, zeta, u)

where the pair x+- = x + b delta + h q^2 delta +- sigma q sqrt(delta) carries
the one-step state law (symmetric two-point distribution), m is the stencil
average of the next value row and zeta = sigma * D_c W approximates the
martingale integrand via the central difference D_c.  Minimizing over the
control grid and stepping backward realizes the dynamic programming
recursion; the worst-case sup at every step implicitly carries the
decreasing-martingale slack, which is never represented explicitly.

The step law and the driver update are written once, in :func:`_step_law`
and :func:`_driver_update`.  The lattice, the tree, brute force and the
Monte Carlo paths of :mod:`grobust.analysis` all call them, so every
evaluator rounds the same way.

A solve builds one (control x state) :class:`~grobust.problem.CoefficientGrid`
and hands :func:`_dpp_step` to :func:`~grobust.problem.march`, as the HJB
hands its substeps, so a coefficient free of t, y and z is evaluated once per
solve; each step takes the min over its control axis.  The stability margin
in :func:`solve_dpp` reads the problem's construction-time Lipschitz report.

Boundary rule (:func:`_stencil_mean`, Markov-chain-approximation style):
the symmetric pair where both displaced points stay in the grid; else,
where exactly one exits, the pair {exited edge, inner point} matching its
mean and variance; else the mean-matching mix of the two grid endpoints.
``np.where`` selects the rule, so there is no data-dependent branch and
any array shape works.  All stencil weights stay in [0, 1], which keeps
every update a monotone, stable convex combination; the price is a
one-sided consistency error confined to the outermost nodes.  A state
that is not finite yields NaN, which :func:`solve_dpp` rejects.

Tree-mode evaluators (no grid, nodes carry exact states) use the scenario
slope (Y+ - Y-) / (2 q sqrt(delta)) for zeta instead, which is exact on a
binary tree; they exist to cross-check the lattice against brute-force
enumeration of adapted control/volatility assignments.  The DPP tree works
on scalars and brute force on arrays with one axis per node choice, but
both expand a node with :func:`_successors` and back it up with
:func:`_tree_backup`.  Sharing one arithmetic, they agree to the last bit
wherever the backup is monotone in the children's values, which the DPP
itself requires.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .gexp import vol_grid
from .grids import Grid1D, GrowthCeilingError, ValueField
from .problem import CoefficientGrid, ControlProblem, evaluate, march

__all__ = [
    "one_step_gexp",
    "semigroup_apply",
    "solve_dpp",
    "solve_dpp_tree",
    "brute_force_value",
    "dpp_residual",
    "dpp_residual_profile",
    "GrowthCeilingError",
]

# brute force enumerates at most this many (control, scenario) assignments
MAX_ASSIGNMENTS = 6e6


def _step_law(x, b, h, sig, q, delta):
    """The one-step state law on floats or arrays: ``(mu, shift)``.

    The next state is ``mu + shift`` or ``mu - shift`` with weight 1/2 each,
    where ``mu = x + b delta + h q^2 delta`` and ``shift = sigma q
    sqrt(delta)`` (signed).
    """
    return x + b * delta + h * (q * q * delta), sig * (q * math.sqrt(delta))


def _driver_update(y, f, g, q, delta):
    """The recursive update ``y + f delta + g q^2 delta`` of one step."""
    return y + delta * f + (q * q * delta) * g


def _interp_inside(W: np.ndarray, grid: Grid1D, xq: np.ndarray) -> np.ndarray:
    """Linear interpolation of W at points xq inside [x_min, x_max].

    Difference form W[i] + lam * (W[i+1] - W[i]) so constants survive exactly.
    """
    pos = (xq - grid.x_min) / grid.dx
    idx = np.clip(pos.astype(np.int64), 0, grid.n_x - 2)
    lam = np.clip(pos - idx, 0.0, 1.0)
    return W[idx] + lam * (W[idx + 1] - W[idx])


def _central_slope(W: np.ndarray, dx: float) -> np.ndarray:
    """Central difference along the last axis, one-sided at the two ends."""
    out = np.empty_like(W)
    out[..., 1:-1] = (W[..., 2:] - W[..., :-2]) / (2.0 * dx)
    out[..., 0] = (W[..., 1] - W[..., 0]) / dx
    out[..., -1] = (W[..., -1] - W[..., -2]) / dx
    return out


def _stencil_mean(W: np.ndarray, grid: Grid1D, mu: np.ndarray,
                  s: np.ndarray) -> np.ndarray:
    """Expected next value under the two-point step law (monotone closure).

    Elementwise over arrays of any shape, by three rules picked in order:

    1. both points mu +- s inside the grid: the symmetric pair average;
    2. exactly one point exits: the pair {exited edge, inner point} with
       the same mean and variance, ``inner = mu -+ s^2/a`` and edge weight
       ``s^2 / (a^2 + s^2)`` for edge distance a, if a > 0 and the inner
       point lies in the grid;
    3. otherwise: the mean-matching combination of the two grid endpoints.

    Every rule is a convex combination of W values.  Where mu +- s is not
    finite (NaN or overflow) the result is NaN; the growth check rejects it.
    """
    lo, hi = grid.x_min, grid.x_max
    xp, xm = mu + s, mu - s
    up, down = xp > hi, xm < lo
    right = up & ~down
    # lanes that np.where discards may divide by a = 0, overflow a^2 or
    # cast +-inf or NaN to int in _interp_inside
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pair = 0.5 * (_interp_inside(W, grid, xp)
                      + _interp_inside(W, grid, xm))
        a = np.where(right, hi - mu, mu - lo)
        s2 = s * s
        b_off = s2 / a
        inner = np.where(right, mu - b_off, mu + b_off)
        weight = s2 / (a ** 2 + s2)
        base = _interp_inside(W, grid, inner)
        one_sided = base + weight * (np.where(right, W[-1], W[0]) - base)
        end = W[0] + np.clip((mu - lo) / (hi - lo), 0.0, 1.0) * (W[-1] - W[0])
        finite = np.isfinite(xp - xm)
    reachable = np.where(right, inner >= lo, inner <= hi)
    out = np.where(~(up | down), pair,
                   np.where((up != down) & (a > 0.0) & reachable,
                            one_sided, end))
    return np.where(finite, out, np.nan)


def _dpp_step(coefs: CoefficientGrid, W: np.ndarray, t: float, delta: float,
              n_q: int) -> np.ndarray:
    """One backward lattice step on the (control x state) grid ``coefs``.

    At every node: the min over the controls of the sup over the volatility
    grid of the driver-augmented stencil average of the module docstring.
    """
    b, h, sig = coefs("b", t), coefs("h", t), coefs("sigma", t)
    zeta = sig * _central_slope(W, coefs.grid.dx)
    best: Optional[np.ndarray] = None
    for q in vol_grid(coefs.problem.gamma, n_q):
        mu, shift = _step_law(coefs.x, b, h, sig, q, delta)
        m = _stencil_mean(W, coefs.grid, mu, np.abs(shift))
        cand = _driver_update(m, coefs("f", t, m, zeta), coefs("g", t, m, zeta),
                              q, delta)
        best = cand if best is None else np.maximum(best, cand)
    return np.min(best, axis=0)


def one_step_gexp(W: np.ndarray, grid: Grid1D, t: float, delta: float,
                  problem: ControlProblem, u: float, n_q: int = 2) -> np.ndarray:
    """One backward sublinear-expectation step under a fixed control value."""
    if delta <= 0.0:
        raise ValueError(f"step size must be positive, got {delta}")
    return _dpp_step(CoefficientGrid(problem, grid, [u]),
                     np.asarray(W, dtype=np.float64), t, delta, n_q)


def solve_dpp(problem: ControlProblem, grid: Grid1D, K: int, n_q: int = 2,
              n_u: Optional[int] = None) -> ValueField:
    """Full backward dynamic-programming recursion on the lattice.

    :func:`~grobust.problem.march` with one :func:`_dpp_step` per row, over
    ``n_u`` controls (default: the problem's own).  The stability margin
    delta * :meth:`ControlProblem.driver_slope` in y must stay <= 0.5.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    delta = problem.horizon / K
    margin = delta * problem.driver_slope("y")
    if margin > 0.5:
        raise ValueError(
            f"lattice stability bound violated: delta * driver y-Lipschitz = "
            f"{margin:.3g} > 0.5; increase K"
        )
    coefs = CoefficientGrid(problem, grid, problem.u_grid(n_u))
    return march(coefs, K,
                 lambda W, k: _dpp_step(coefs, W, k * delta, delta, n_q),
                 "lattice")


def semigroup_apply(eta: np.ndarray, grid: Grid1D, t: float, s: float,
                    n_sub: int, problem: ControlProblem,
                    u_policy: Union[float, str], n_q: int = 2) -> np.ndarray:
    """Compose one-step operators over [t, s] with a control policy.

    ``u_policy`` is a constant control value or the string ``"min"`` for
    per-node minimization at every substep.  Composing a+b substeps equals
    composing a then b; both run the identical code path.
    """
    if not (t < s):
        raise ValueError(f"need t < s, got t={t}, s={s}")
    if n_sub < 1:
        raise ValueError(f"need n_sub >= 1, got {n_sub}")
    if isinstance(u_policy, str) and u_policy != "min":
        raise ValueError(f"unknown policy {u_policy!r}")
    delta = (s - t) / n_sub
    W = np.asarray(eta, dtype=np.float64)
    coefs = CoefficientGrid(
        problem, grid, None if isinstance(u_policy, str) else [float(u_policy)])
    for j in range(n_sub - 1, -1, -1):
        W = _dpp_step(coefs, W, t + j * delta, delta, n_q)
    return W


def dpp_residual_profile(V: ValueField, problem: ControlProblem, k: int,
                         j: int, n_q: int = 2) -> np.ndarray:
    """Per-node dynamic-programming defect between rows k and j of V.

    Recomputes row k from row j by per-step control minimization (the fixed
    first-step control and the outer min collapse into the same pointwise
    minimization) and returns ``V[k] - recomputed``.  On solver output this
    is identically zero because it replays the solver's own code path.
    """
    if not (0 <= k < j < V.n_rows):
        raise ValueError(f"need 0 <= k < j <= {V.n_rows - 1}, got k={k}, j={j}")
    W = V.values[j]
    coefs = CoefficientGrid(problem, V.grid)
    for step in range(j - 1, k - 1, -1):
        W = _dpp_step(coefs, W, V.t0 + step * V.dt, V.dt, n_q)
    return V.values[k] - W


def dpp_residual(V: ValueField, problem: ControlProblem, k: int, j: int,
                 n_q: int = 2) -> float:
    """Max absolute dynamic-programming defect over the interior nodes."""
    prof = dpp_residual_profile(V, problem, k, j, n_q)
    return float(np.max(np.abs(prof[1:-1])))


# ---------------------------------------------------------------------------
# tree-mode evaluation (exact states, no interpolation)


def _successors(problem: ControlProblem, t, x, u, q, delta):
    """The child states ``(mu + shift, mu - shift)`` of tree node(s) x.

    Raises ``ValueError`` when a child state is not finite.
    """
    bind = {"t": t, "x": x, "u": u}
    c = problem.compiled
    mu, shift = _step_law(x, c["b"](bind), c["h"](bind), c["sigma"](bind),
                          q, delta)
    up, dn = mu + shift, mu - shift
    if not (np.all(np.isfinite(up)) and np.all(np.isfinite(dn))):
        raise ValueError(f"non-finite successor state at t={t:g}")
    return up, dn


def _tree_backup(problem: ControlProblem, t, x, u, q, delta, y_up, y_dn):
    """The value at tree node(s) x from the values at its two children.

    ``y_up`` and ``y_dn`` sit at ``mu + shift`` and ``mu - shift``; zeta is
    the scenario slope ``(y_up - y_dn) / (2 q sqrt(delta))``, exact on the
    tree whatever the sign of sigma.
    """
    m = 0.5 * (y_up + y_dn)
    zeta = (y_up - y_dn) / (2.0 * q * math.sqrt(delta))
    fb = {"t": t, "x": x, "y": m, "z": zeta, "u": u}
    c = problem.compiled
    return _driver_update(m, c["f"](fb), c["g"](fb), q, delta)


def solve_dpp_tree(problem: ControlProblem, x0: float, K: int,
                   n_u: Optional[int] = None, n_q: int = 2) -> float:
    """DPP recursion on exact binary-tree states (interpolation-free mode).

    Per node: min over the control grid of the max over volatility scenarios
    of :func:`_tree_backup`, the same node arithmetic as
    :func:`brute_force_value`.
    """
    delta = problem.horizon / K
    qs = [float(q) for q in vol_grid(problem.gamma, n_q)]
    us = problem.u_grid(n_u).tolist()

    def value(d: int, x: float) -> float:
        if d == K:
            return float(problem.compiled["phi"]({"x": x}))
        t_d = d * delta
        best = math.inf
        for u in us:
            worst = -math.inf
            for q in qs:
                up, dn = _successors(problem, t_d, x, u, q, delta)
                cand = _tree_backup(problem, t_d, x, u, q, delta,
                                    value(d + 1, up), value(d + 1, dn))
                worst = max(worst, float(cand))
            best = min(best, worst)
        return best

    return value(0, float(x0))


def brute_force_value(problem: ControlProblem, x0: float, K: int,
                      n_u_bf: int) -> float:
    """Exhaustive inf-sup over adapted control and volatility assignments.

    Assignments attach one control value and one scenario per binary-history
    node of the depth-K tree; for each of the (n_u)^(2^K - 1) control
    assignments all (n_q)^(2^K - 1) adapted volatility assignments are
    enumerated, the tree is rolled forward on exact states and the recursive
    value at the root evaluated backward.  Returns inf over controls of the
    sup over scenarios, for at most ``MAX_ASSIGNMENTS`` assignment pairs.

    Memory: each node's control and each node's scenario has its own
    broadcast axis (none for a choice with a single value), so a node's
    state is an array over its ancestors' choices only and its value over
    its ancestors' and descendants' choices.  Only the root's value spans
    every assignment pair; it alone is reshaped to the (n_u^nodes,
    n_q^nodes) table whose rows and columns follow
    ``itertools.product(us, repeat=nodes)`` and the same over scenarios.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    delta = problem.horizon / K
    qs = np.asarray(vol_grid(problem.gamma, 2), dtype=np.float64)
    us = problem.u_grid(n_u_bf)
    n_nodes = 2 ** K - 1
    n_uassign = len(us) ** n_nodes
    n_qassign = len(qs) ** n_nodes
    if n_uassign * n_qassign > MAX_ASSIGNMENTS:
        raise ValueError(
            f"enumeration of {n_uassign} x {n_qassign} adapted assignments "
            f"exceeds the cap {MAX_ASSIGNMENTS:g}; reduce K or n_u_bf"
        )
    # axes: the controls of nodes 0..n-1, then their scenarios, so a C-order
    # reshape of the root puts node 0's choice most significant, as in
    # itertools.product.  A single-valued choice gets no axis: lq with one
    # control would otherwise need 2 (2^K - 1) axes, past numpy's limit.
    axes = [len(us)] * (n_nodes if len(us) > 1 else 0)
    q_axis0 = len(axes)
    axes += [len(qs)] * (n_nodes if len(qs) > 1 else 0)

    def on_axis(choices: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * len(axes)
        if len(choices) > 1:
            shape[axis] = len(choices)
        return choices.reshape(shape)

    # node i's control and scenario, each on its own axis
    def node(i: int):
        return on_axis(us, i), on_axis(qs, q_axis0 + i)

    n_total = 2 ** (K + 1) - 1
    states: list = [None] * n_total
    states[0] = np.full((1,) * len(axes), float(x0))
    for d in range(K):
        for i in range(2 ** d - 1, 2 ** (d + 1) - 1):
            states[2 * i + 1], states[2 * i + 2] = _successors(
                problem, d * delta, states[i], *node(i), delta)

    values: list = [None] * n_total
    for i in range(2 ** K - 1, 2 ** (K + 1) - 1):
        values[i] = evaluate(problem.compiled["phi"], {"x": states[i]},
                             states[i].shape)
    for d in range(K - 1, -1, -1):
        for i in range(2 ** d - 1, 2 ** (d + 1) - 1):
            values[i] = _tree_backup(problem, d * delta, states[i], *node(i),
                                     delta, values[2 * i + 1],
                                     values[2 * i + 2])

    root = np.broadcast_to(values[0], axes).reshape(n_uassign, n_qassign)
    return float(np.min(np.max(root, axis=1)))
