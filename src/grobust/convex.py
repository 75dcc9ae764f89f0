"""The exact min over u of an HJB Hamiltonian convex in u, planned.

:func:`~grobust.hjb._make_step` scans every control row for the min over u
of H, unless :func:`plan_candidates`, which states when, certifies at plan
time that H is convex in u: then a step sums H at two candidate controls
per run, the neighbours of the clipped continuous argmin, and the plan's
``route``, which checks a bound at each step and places the candidates,
certifies that the scan's min is among them, with the scan's bits (the
exact control minimization of monotone HJB schemes: Forsyth and Labahn,
J. Comput. Finance 11, 2007).
Only a plan whose static upwind mask is made of runs of controls, and whose
f reads u, imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import compile_expr, derivative
from .problem import CoefficientGrid, evaluate

# the unit roundoff and the smallest subnormal of float64
_U, _TINY = 2.0 ** -53, 2.0 ** -1074
# a plan scans every control where no run of its upwind mask is longer: the
# two candidates' min over u takes about 20 ufunc calls, which cost what a
# scan of 17 to 33 controls does (lq, n_x = 160)
SCAN_MAX_RUN = 16


def _off_model(vals: np.ndarray, *terms: np.ndarray) -> float:
    """The largest |vals - (terms summed left to right)|, with 8 ulps of
    every operand for the rounding of the sum and of the difference."""
    model = terms[0]
    for term in terms[1:]:
        model = model + term
    slack = np.abs(vals) + sum(np.abs(term) for term in terms)
    return float(np.max(np.abs(vals - model) + 8.0 * _U * slack))


def plan_candidates(coefs: CoefficientGrid, runs: list, d: np.ndarray,
                    m: np.ndarray):
    """The exact min over u of a Hamiltonian convex in u, planned, or None.

    When the route applies.  :func:`~grobust.hjb._make_step` asks for it
    where its upwind mask is static and made of ``runs`` of equal controls
    (first row, end row, forward) and f reads u.  This plan takes it only
    where one of at most two runs is longer than ``SCAN_MAX_RUN`` (16);
    h = 0, sigma and g are free of u and g of z; b, sigma and f are static
    (the grid's ``static``: free of t, and f of y and z, so no driver
    reads z); :func:`~grobust.expr.derivative` shows b affine in u (b_u
    free of u) and f with a variable-free second derivative kappa > 0;
    and the rounding bounds below leave a cap on M of 2^-300 or more;
    nothing is sampled.  Every other plan scans every control.

    On a run of the static upwind mask (rows i0 <= i < i1, one p_up) F is
    free of u and of p_up, and so is its G, one row; the scan sums

        H_i = (G + p b_i) + f_i

    from the static ``b`` and ``f`` (with no b term where b = 0).

    The model.  With du the control spacing, c = kappa du^2 > 0 and
    s = i - i0, let Q(s) = G + p (b_i0 + beta s) + f_i0 + phi s + c s^2 / 2,
    exactly, where beta = b_u du and phi = f_u(u_i0) du: a quadratic in s
    of curvature c.  The plan measures eps_b and eps_f, the largest
    distances of ``b`` and ``f`` from their parts of Q over each run (with
    8 ulps of every term for the rounding of the measure).  A step rounds
    three times, so its H at row i, with M >= |G| and |p|, is within

        E = M eps_b + eps_f + 4u (M + M max|b| + max|f|) + 4 * 2^-1074

    of Q(s) (u = 2^-53; the last term for underflow).

    The candidates are k = floor(s*) and k + 1, clipped into the run,
    where s* = -(p beta + phi) / c is Q's argmin; on lq (phi = 0,
    beta = du) s* = -p / (2 du).  A step computes s* as p alpha + shift in
    flat rows of the transposed ``b`` and ``f`` (alpha = 0 where b is free
    of u), off by at most delta = 5u (M max|alpha| + max(|shift| +
    |phi / c|)) rows.  As s* lies within delta of [k, k + 1], Q at any
    other row exceeds Q at the candidate on its side by at least
    c (1 - 2 delta) / 2 (a clipped s* only adds to that).  With
    delta <= 1/4 and E < c/8, then, every other row's H is above the best
    candidate's, and a min is exact: the candidates' min has the scan's
    bits.  Of equal values numpy's minimum keeps the later, so the step
    visits the candidates in row order, as the scan's reduction does.

    The step.  ``route(G)`` reads G's row, the step's edge differences
    ``d`` (every p_up is one of them) and p, p_up at the runs, which it
    copies from ``d`` into a buffer of its own.  M, the root of
    dot(G, G) + dot(d, d), is max(|G|, |p|) or more, up to a relative n u
    of the sums' rounding (n the count of terms), which the factor 2 below
    covers.  Where M is below a cap, the bounds on E and delta solved for
    M with a factor 2 to spare, ``route`` clips p alpha + shift into the
    run, truncates it to the first candidate's flat row, gathers b and f
    at both candidates, sums H there as the scan does, writes the min over
    the candidates into ``m`` and returns True; else it returns False, and
    the step scans.  The cap is 2^-300 or more, so no magnitude that
    reaches it squares to a subnormal; a non-finite M fails, so a step on
    a non-finite row scans, and raises as the scan does, before any index
    is cast.
    """
    problem, (n_u, n_x) = coefs.problem, coefs.shape
    compiled, static = problem.compiled, coefs.static
    # the runs first: a plan of one control has no spacing du, and p_up's
    # strided view below serves two runs (a b affine in u can make more
    # where its rounding flips its sign)
    if (len(runs) > 2 or max(i1 - i0 for i0, i1, _ in runs) <= SCAN_MAX_RUN
            or not compiled["h"].is_zero or "z" in compiled["g"].free
            or "u" in compiled["sigma"].free | compiled["g"].free
            or not {"sigma", "b", "f"} <= static.keys()):
        return None
    d1 = [derivative(getattr(problem, c), "u") for c in ("b", "f")]
    d2 = None if d1[1] is None else derivative(d1[1], "u")
    if None in d1 or d2 is None:
        return None
    b_u, f_u, f_uu = map(compile_expr, (*d1, d2))
    if "u" in b_u.free or f_uu.free:
        return None
    us = coefs.xu["u"][:, 0]
    du = (us[-1] - us[0]) / (n_u - 1)
    try:
        with np.errstate(all="ignore"):
            kappa = float(f_uu({}))
            b_u, f_u = [evaluate(fn, coefs.xu, coefs.shape, check="slope")
                        for fn in (b_u, f_u)]
    except ValueError:
        return None
    c = kappa * du * du
    if not 2.0 ** -1021 <= c < math.inf:
        return None
    b, f = (np.broadcast_to(static[v], coefs.shape) for v in ("b", "f"))
    beta = b_u[0] * du
    eps_b = eps_f = 0.0
    phi, lo = np.empty((2, len(runs), n_x))
    gap = np.empty(n_u, dtype=np.intp)  # a first candidate to the second
    for r, (i0, i1, _) in enumerate(runs):
        gap[i0:i1] = min(i1 - i0, 2) - 1
        s = np.arange(i1 - i0, dtype=float)[:, None]
        phi[r] = f_u[i0] * du
        eps_b = max(eps_b, _off_model(b[i0:i1], b[i0], beta * s))
        eps_f = max(eps_f, _off_model(f[i0:i1], f[i0], phi[r] * s,
                                      0.5 * c * (s * s)))
        lo[r] = i0 + n_u * np.arange(n_x)
    e1 = eps_b + 4.0 * _U * (1.0 + np.max(np.abs(b)))
    e0 = eps_f + 4.0 * _U * np.max(np.abs(f)) + 4.0 * _TINY
    span = np.array([[i1 - i0] for i0, i1, _ in runs])
    alpha = np.ascontiguousarray(np.broadcast_to(-beta / c, lo.shape))
    shift = -phi / c + lo
    hi = lo + (np.maximum(span, 2) - 2)
    a_max = float(np.max(np.abs(alpha)))
    delta = 5.0 * _U * float(np.max(np.abs(shift) + np.abs(phi / c)))
    M_cap = 0.5 * min((c / 8.0 - e0) / e1, (0.25 - delta)
                      / (5.0 * _U * a_max) if a_max else math.inf)
    if not (M_cap >= 2.0 ** -300 and delta <= 0.25):
        return None
    # a first candidate in a run's last row has no second: unread
    second = np.minimum(np.arange(n_u * n_x) + np.tile(gap, n_x),
                        n_u * n_x - 1)
    b_T, f_T = (a.T.ravel() for a in (b, f))
    table = np.stack([b_T, b_T[second], f_T, f_T[second]])
    # p_up at the runs: one strided view of d, copied per step
    o = [int(fwd) for _, _, fwd in runs]
    P_src = np.lib.stride_tricks.as_strided(
        d[o[0]:], lo.shape, ((o[-1] - o[0]) * d.itemsize, d.itemsize),
        writeable=False)
    cap2, has_b = M_cap * M_cap, not compiled["b"].is_zero
    K, (P, S) = np.empty(lo.shape, dtype=np.intp), np.empty((2, *lo.shape))
    BF, H = np.empty((4, *lo.shape)), np.empty((2, *lo.shape))
    B, Fv = BF[:2], BF[2:]  # b, then f, at the first candidate and the second
    add, mul, dot, fmax, fmin = np.add, np.multiply, np.dot, np.fmax, np.fmin
    minimum = np.minimum

    def route(G: np.ndarray) -> bool:
        if not dot(G, G) + dot(d, d) < cap2:  # NaN or inf fails
            return False
        np.copyto(P, P_src)
        mul(P, alpha, S)  # K = trunc(clip(p alpha + shift))
        add(S, shift, S)
        fmax(S, lo, out=S)
        fmin(S, hi, out=S)
        np.copyto(K, S, casting="unsafe")
        np.take(table, K, axis=1, out=BF, mode="clip")
        if has_b:  # H = (G + p b) + f at both candidates
            add(G, mul(P, B, H), H)
        add(H if has_b else G, Fv, H)
        # each run's min of its two candidates, then of the runs', in row
        # order: numpy's minimum keeps the later of two equal values, as
        # the scan's reduction does
        minimum(H[0], H[1], out=S)
        minimum(S[0], S[-1], out=m)
        return True

    return route
