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
decreasing-martingale slack, which is never represented explicitly.  The
volatility set alone picks the scenarios q: ``vol_grid(gamma)``, an
interval's two endpoints (the HJB's G chooses between the same two).

The step law and the driver update are written once, in :func:`_step_law`
and :func:`_driver_update`.  The lattice, the tree, brute force and the
Monte Carlo paths of :mod:`grobust.analysis` all call them, so every
evaluator rounds the same way.

A solve builds one (control x state) :class:`~grobust.problem.CoefficientGrid`
and one step (:func:`_make_step`), which :func:`~grobust.problem.march` runs,
as the HJB's, so a coefficient free of t, y and z is evaluated once per
solve.  Each coefficient keeps the shape numpy gives it, so a step's arrays
span the controls only where a coefficient reads u, and only there does it
take the min over controls.  The stability margin in :func:`solve_dpp` reads
the problem's construction-time Lipschitz report.

Boundary rule (:func:`_stencil_mean`, Markov-chain-approximation style):
the symmetric pair where both displaced points stay in the grid; else,
where exactly one exits, the pair {exited edge, inner point} matching its
mean and variance; else the mean-matching mix of the two grid endpoints.
The pair runs on every entry, the other two rules only on the edge entries
where a displaced point leaves the grid (a boolean index, possibly empty),
and ``np.where`` selects among them, so there is no data-dependent branch
and any array shape works.  :func:`_stencil_plan` fixes, from mu and s
alone, every cell, weight, edge entry and rule choice (the transition table
of a Markov chain approximation); :func:`_stencil_apply` gathers a row W on
it.  A step builds its plans once per solve where b, h and sigma are free
of t, else at every step.  All stencil weights stay in [0, 1], which keeps
every update a monotone, stable convex combination; the price is a
one-sided consistency error confined to the outermost nodes.  A state
that is not finite yields NaN, which :func:`solve_dpp` rejects.

Tree-mode evaluators (no grid, nodes carry exact states) use the scenario
slope (Y+ - Y-) / (2 q sqrt(delta)) for zeta instead, which is exact on a
binary tree; they exist to cross-check the lattice against brute-force
enumeration of adapted control/volatility assignments.  The DPP tree works
on one array per depth and brute force on arrays with one axis per node
choice, but both expand nodes with :func:`_successors` and back them up
with :func:`_node_backup` (as Monte Carlo backs up its path nodes) on the
children's :func:`_scenario_slope`.  Sharing one arithmetic, they agree to
the last bit wherever the backup is monotone in the children's values.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .gexp import vol_grid
from .grids import Grid1D, GrowthCeilingError, ValueField
from .problem import (CoefficientGrid, ControlProblem, evaluate, march,
                      min_over_controls)

__all__ = [
    "semigroup_apply",
    "solve_dpp",
    "solve_dpp_tree",
    "brute_force_value",
    "brute_force_size",
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


def _cell(grid: Grid1D, xq: np.ndarray):
    """The cell ``(idx, lam)`` of points xq inside [x_min, x_max]: linear
    interpolation reads W[idx] + lam * (W[idx+1] - W[idx]), so constants
    survive exactly."""
    pos = (xq - grid.x_min) / grid.dx
    idx = np.clip(pos.astype(np.int64), 0, grid.n_x - 2)
    return idx, np.clip(pos - idx, 0.0, 1.0)


def _central_slope(W: np.ndarray, dx: float) -> np.ndarray:
    """Central difference along the last axis, one-sided at the two ends."""
    out = np.empty_like(W)
    out[..., 1:-1] = (W[..., 2:] - W[..., :-2]) / (2.0 * dx)
    out[..., 0] = (W[..., 1] - W[..., 0]) / dx
    out[..., -1] = (W[..., -1] - W[..., -2]) / dx
    return out


def _stencil_plan(grid: Grid1D, mu: np.ndarray, s: np.ndarray) -> tuple:
    """What :func:`_stencil_mean` reads of the step law alone, for
    :func:`_stencil_apply` to apply to any row W."""
    lo, hi = grid.x_min, grid.x_max
    mu, s = np.broadcast_arrays(mu, s)
    xp, xm = mu + s, mu - s
    up, down = xp > hi, xm < lo
    # rules 2 and 3 run on the edge lanes only, where a point exits
    edge = up | down
    mu_e, s_e, up_e, down_e = mu[edge], s[edge], up[edge], down[edge]
    right = up_e & ~down_e
    # an edge lane may divide by a = 0 or overflow a^2 in a rule it does not
    # take, and a lane that is not finite casts +-inf or NaN to int in _cell
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.where(right, hi - mu_e, mu_e - lo)
        s2 = s_e * s_e
        b_off = s2 / a
        inner = np.where(right, mu_e - b_off, mu_e + b_off)
        reachable = np.where(right, inner >= lo, inner <= hi)
        # rule 2's cell, edge weight and edge; rule 3's weight; rule 2 or 3
        rules = (_cell(grid, inner), s2 / (a ** 2 + s2), right,
                 np.clip((mu_e - lo) / (hi - lo), 0.0, 1.0),
                 (up_e != down_e) & (a > 0.0) & reachable)
        finite = np.isfinite(xp - xm)
        pair = _cell(grid, xp) + _cell(grid, xm)
    return pair, edge, rules, None if finite.all() else finite


def _stencil_apply(plan: tuple, W: np.ndarray) -> np.ndarray:
    """:func:`_stencil_mean` of the row W on a :func:`_stencil_plan`."""
    (ip, lp, im, lm), edge, rules, finite = plan
    (ii, li), weight, right, end, rule2 = rules
    # a lane that is not finite reads garbage cells; W may overflow
    with np.errstate(invalid="ignore", over="ignore"):
        dW = W[1:] - W[:-1]
        out = np.asarray(0.5 * ((W[ip] + lp * dW[ip]) + (W[im] + lm * dW[im])))
        base = W[ii] + li * dW[ii]
        one_sided = base + weight * (np.where(right, W[-1], W[0]) - base)
        out[edge] = np.where(rule2, one_sided, W[0] + end * (W[-1] - W[0]))
    return out if finite is None else np.where(finite, out, np.nan)


def _stencil_mean(W: np.ndarray, grid: Grid1D, mu: np.ndarray,
                  s: np.ndarray) -> np.ndarray:
    """Expected next value under the two-point step law (monotone closure).

    Elementwise over ``mu`` and ``s`` broadcast together, of any shapes,
    by three rules picked in order (2 and 3 are computed on the edge lanes
    only, where a point exits):

    1. both points mu +- s inside the grid: the symmetric pair average;
    2. exactly one point exits: the pair {exited edge, inner point} with
       the same mean and variance, ``inner = mu -+ s^2/a`` and edge weight
       ``s^2 / (a^2 + s^2)`` for edge distance a, if a > 0 and the inner
       point lies in the grid;
    3. otherwise: the mean-matching combination of the two grid endpoints.

    Every rule is a convex combination of W values.  Where mu +- s is not
    finite (NaN or overflow) the result is NaN; the growth check rejects it.
    """
    return _stencil_apply(_stencil_plan(grid, mu, s), W)


def _make_step(coefs: CoefficientGrid, delta: float
               ) -> Callable[[np.ndarray, float], np.ndarray]:
    """The backward lattice step of ``delta`` on the (control x state) grid
    ``coefs``, ``step(W, t)``: at every node, the min over the controls of
    the max over the scenarios of the module docstring's driver-augmented
    stencil average.  The plans are built here, one per scenario, when b, h
    and sigma are free of t, else per step; zeta only for an f or g in z.
    """
    grid, compiled = coefs.grid, coefs.problem.compiled
    qs = vol_grid(coefs.problem.gamma)
    use_z = any("z" in compiled[c].free for c in ("f", "g"))

    def plans(t):
        b, h, sig = coefs("b", t), coefs("h", t), coefs("sigma", t)
        laws = (_step_law(coefs.x, b, h, sig, q, delta) for q in qs)
        return sig, [_stencil_plan(grid, mu, np.abs(shift))
                     for mu, shift in laws]

    static = (None if any("t" in compiled[c].free for c in ("b", "h", "sigma"))
              else plans(0.0))

    def step(W: np.ndarray, t: float) -> np.ndarray:
        sig, per_q = static or plans(t)
        zeta = sig * _central_slope(W, grid.dx) if use_z else None
        best: Optional[np.ndarray] = None
        for q, plan in zip(qs, per_q):
            m = _stencil_apply(plan, W)
            cand = _driver_update(m, coefs("f", t, m, zeta),
                                  coefs("g", t, m, zeta), q, delta)
            best = cand if best is None else np.maximum(best, cand)
        return min_over_controls(best)

    return step


def solve_dpp(problem: ControlProblem, grid: Grid1D, K: int,
              n_u: Optional[int] = None) -> ValueField:
    """Full backward dynamic-programming recursion on the lattice.

    :func:`~grobust.problem.march` with one :func:`_make_step` step per
    row, over ``n_u`` controls (default: the problem's own), as the field's
    solve record keeps.  delta * driver_slope("y") must be <= 0.5.
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
    step = _make_step(coefs, delta)
    return march(coefs, K, lambda W, k: step(W, k * delta), "lattice", delta)


def semigroup_apply(eta: np.ndarray, grid: Grid1D, t: float, s: float,
                    n_sub: int, problem: ControlProblem, u: float
                    ) -> np.ndarray:
    """Compose ``n_sub`` one-step operators over [t, s] under one constant
    control ``u`` from the row ``eta`` on ``grid``; composing a+b substeps
    equals composing a then b."""
    if not (t < s):
        raise ValueError(f"need t < s, got t={t}, s={s}")
    if n_sub < 1:
        raise ValueError(f"need n_sub >= 1, got {n_sub}")
    delta = (s - t) / n_sub
    W = np.asarray(eta, dtype=np.float64)
    if W.shape != (grid.n_x,):
        raise ValueError(f"eta has shape {W.shape}, the grid's rows "
                         f"have shape {(grid.n_x,)}")
    step = _make_step(CoefficientGrid(problem, grid, [float(u)]), delta)
    for j in range(n_sub - 1, -1, -1):
        W = step(W, t + j * delta)
    return W


def dpp_residual_profile(V: ValueField, problem: ControlProblem, k: int,
                         j: int) -> np.ndarray:
    """Per-node dynamic-programming defect between rows k and j of V.

    Recomputes row k from row j by per-step control minimization (the fixed
    first-step control and the outer min collapse into the same pointwise
    minimization) and returns ``V[k] - recomputed``, on the n_u of V's solve
    record (else the problem's).  On lattice output this is identically zero
    because it replays the solver's own code path.
    """
    if not (0 <= k < j < V.n_rows):
        raise ValueError(f"need 0 <= k < j <= {V.n_rows - 1}, got k={k}, j={j}")
    rec, W = V.solve, V.values[j]
    step = _make_step(CoefficientGrid(problem, V.grid,
                                      problem.u_grid(rec and rec.n_u)), V.dt)
    for i in range(j - 1, k - 1, -1):
        W = step(W, V.t0 + i * V.dt)
    return V.values[k] - W


def dpp_residual(V: ValueField, problem: ControlProblem, k: int, j: int
                 ) -> float:
    """Max absolute dynamic-programming defect over the interior nodes."""
    prof = dpp_residual_profile(V, problem, k, j)
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


def _scenario_slope(y_up, y_dn, q, delta):
    """``(m, zeta)`` from the children's values at ``mu +- shift``: their mean
    and ``(y_up - y_dn) / (2 q sqrt(delta))``, exact whatever sigma's sign."""
    return 0.5 * (y_up + y_dn), (y_up - y_dn) / (2.0 * q * math.sqrt(delta))


def _node_backup(problem: ControlProblem, t, x, u, q, delta, m, zeta):
    """:func:`_driver_update` of m at node(s) x, f and g at (t, x, m, zeta,
    u): the backup of the tree, brute force and the Monte Carlo sweep."""
    fb = {"t": t, "x": x, "y": m, "z": zeta, "u": u}
    c = problem.compiled
    return _driver_update(m, c["f"](fb), c["g"](fb), q, delta)


def _finite_nodes(values):
    """``values``; raises ``ValueError`` when a node value is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite node value")
    return values


def solve_dpp_tree(problem: ControlProblem, x0: float, K: int,
                   n_u: Optional[int] = None) -> float:
    """DPP recursion on exact binary-tree states (interpolation-free mode),
    one level at a time.

    One :func:`_successors` call expands every node of depth d on the axes
    (node, control, scenario); with the +- children stacked last, that array
    is depth d + 1.  Going back up, one :func:`_node_backup` per level on
    the children's :func:`_scenario_slope` gives every candidate, the node
    arithmetic of :func:`brute_force_value`; a node takes the min over
    controls of the max over scenarios.  The deepest level holds up to
    (2 n_u m)^K states for m scenarios; past ``MAX_ASSIGNMENTS`` the tree
    is refused with ``ValueError``, as is a non-finite state or node value.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    delta = problem.horizon / K
    qs = np.asarray(vol_grid(problem.gamma), dtype=np.float64)
    us = problem.u_grid(n_u)[:, None]
    leaves = (2 * len(us) * len(qs)) ** K
    if leaves > MAX_ASSIGNMENTS:
        raise ValueError(f"a depth-{K} tree of {leaves} leaves exceeds the "
                         f"cap {MAX_ASSIGNMENTS:g}; reduce K or n_u")
    # a control axis that the state law does not read keeps length 1
    states = [np.array(float(x0))]
    for d in range(K):
        states.append(np.stack(_successors(
            problem, d * delta, states[d].reshape(-1, 1, 1), us, qs, delta),
            axis=-1))
    values = evaluate(problem.compiled["phi"], {"x": states[K]},
                      states[K].shape)
    for d in range(K - 1, -1, -1):
        m, zeta = _scenario_slope(values[..., 0], values[..., 1], qs, delta)
        cand = _finite_nodes(_node_backup(
            problem, d * delta, states[d].reshape(-1, 1, 1), us, qs, delta, m,
            zeta))
        values = np.min(np.max(cand, axis=2), axis=1).reshape(states[d].shape)
    return float(values)


def brute_force_size(problem: ControlProblem, K: int, n_u: int
                     ) -> Tuple[int, int]:
    """(control, scenario) assignment counts of :func:`brute_force_value`
    at depth K over n_u controls; ValueError past ``MAX_ASSIGNMENTS`` pairs.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    n_nodes = 2 ** K - 1
    u_assign = n_u ** n_nodes
    q_assign = len(vol_grid(problem.gamma)) ** n_nodes
    if u_assign * q_assign > MAX_ASSIGNMENTS:
        raise ValueError(
            f"enumeration of {u_assign} x {q_assign} adapted assignments "
            f"exceeds the cap {MAX_ASSIGNMENTS:g}; reduce K or n_u"
        )
    return u_assign, q_assign


def brute_force_value(problem: ControlProblem, x0: float, K: int,
                      n_u: int) -> float:
    """Exhaustive inf-sup over adapted control and volatility assignments.

    Assignments attach one control value and one scenario per binary-history
    node of the depth-K tree; for each of the n_u^(2^K - 1) control
    assignments all m^(2^K - 1) adapted assignments of the m scenarios are
    enumerated, the tree is rolled forward on exact states and the recursive
    value at the root evaluated backward.  Returns inf over controls of the
    sup over scenarios, for at most ``MAX_ASSIGNMENTS`` assignment pairs.

    Memory: each node's control and each node's scenario has its own
    broadcast axis (none for a choice with a single value), so a node's
    state is an array over its ancestors' choices only and its value over
    its ancestors' and descendants' choices.  Only the root's value spans
    every assignment pair; it alone is reshaped to the (n_u^nodes,
    m^nodes) table whose rows and columns follow
    ``itertools.product(us, repeat=nodes)`` and the same over scenarios.
    """
    u_assign, q_assign = brute_force_size(problem, K, n_u)
    delta = problem.horizon / K
    qs = np.asarray(vol_grid(problem.gamma), dtype=np.float64)
    us = problem.u_grid(n_u)
    n_nodes = 2 ** K - 1
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
            u, q = node(i)
            m, zeta = _scenario_slope(values[2 * i + 1], values[2 * i + 2],
                                      q, delta)
            values[i] = _node_backup(problem, d * delta, states[i], u, q,
                                     delta, m, zeta)

    # a node value enters its parent's additively, so a non-finite one
    # reaches the root
    root = np.broadcast_to(_finite_nodes(values[0]), axes).reshape(
        u_assign, q_assign)
    return float(np.min(np.max(root, axis=1)))
