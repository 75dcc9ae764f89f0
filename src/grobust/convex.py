"""The exact min over u of an HJB Hamiltonian convex in u, planned.

:func:`~grobust.hjb._make_step` scans every control row for the min over u
of H, unless :func:`plan_candidates` certifies at plan time that H is a
convex quadratic in u on each run of the static upwind mask: then a step
sums H at two candidate controls per run, the neighbours of the clipped
continuous argmin, and a bound this plan returns, checked at each step,
certifies that the scan's min is among them, with the scan's bits (the
exact control minimization of monotone HJB schemes: Forsyth and Labahn,
J. Comput. Finance 11, 2007).  Only such a plan imports this module.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .expr import compile_expr, derivative
from .problem import CoefficientGrid, evaluate

# the unit roundoff and the smallest subnormal of float64
_U, _TINY = 2.0 ** -53, 2.0 ** -1074


def _off_model(vals: np.ndarray, *terms: np.ndarray) -> float:
    """The largest |vals - (terms summed left to right)|, with 8 ulps of
    every operand for the rounding of the sum and of the difference."""
    model = terms[0]
    for term in terms[1:]:
        model = model + term
    slack = np.abs(vals) + sum(np.abs(term) for term in terms)
    return float(np.max(np.abs(vals - model) + 8.0 * _U * slack))


def plan_candidates(coefs: CoefficientGrid, b: Optional[np.ndarray],
                    f: Optional[np.ndarray], runs: list):
    """The exact min over u of a Hamiltonian convex in u, planned, or None.

    On a run of the static upwind mask (rows i0 <= i < i1, one p_up) with
    sigma, h and g free of u, F and G(F) are free of u, and the scan sums

        H_i = (G + p b_i) + f_i

    from the static full-shape ``b`` and ``f`` (None for a 0).  The plan
    takes this route only where :func:`~grobust.expr.derivative` shows b
    affine in u (b_u free of u) and f with a variable-free second
    derivative kappa >= 0; nothing is sampled.

    The model.  With du the control spacing, c = kappa du^2 and s = i - i0,
    let Q(s) = G + p (b_i0 + beta s) + f_i0 + phi s + c s^2 / 2, exactly,
    where beta = b_u du and phi = f_u(u_i0) du: a quadratic in s of
    curvature c.  The plan measures eps_b and eps_f, the largest distances
    of ``b`` and ``f`` from their parts of Q over each run (with 8 ulps of
    every term for the rounding of the measure).  A step rounds three
    times, so its H at row i, with M >= |G| and |p|, is within

        E = M eps_b + eps_f + 4u (M + M max|b| + max|f|) + 4 * 2^-1074

    of Q(s) (u = 2^-53; the last term for underflow).

    The candidates.  With c > 0 they are k = floor(s*) and k + 1, clipped
    into the run, where s* = -(p beta + phi) / c is Q's argmin; on lq
    (phi = 0, beta = du) s* = -p / (2 du).  A step computes s* as
    p alpha + shift in flat rows of the transposed ``b`` and ``f``, off by
    at most delta = 5u (M max|alpha| + max(|shift| + |phi / c|)) rows.  As
    s* lies within delta of [k, k + 1], Q at any other row exceeds Q at the
    candidate on its side by at least c (1 - 2 delta) / 2 (a clipped s* only
    adds to that).  With delta <= 1/4 and E < c/8, then, every other row's
    H is above the best candidate's, and a min is exact: the candidates'
    min has the scan's bits.  Of equal values numpy's minimum keeps the
    later, so the step visits the candidates in row order, as the scan's
    reduction does.  With c = 0 the candidates are the run's two ends; a
    row between them exceeds the better end by |p beta + phi|, so on a run
    of three rows or more a step also needs that slope above 2E plus its
    own rounding at every node (``ramp``: beta, phi and the bound X M + Y).

    The step.  M is the root of the sum of squares of the step's G and p
    rows: their largest magnitude or more, up to a relative n u of the
    sum's rounding (n the count of terms), which the factor 2 below covers;
    ``M_cap`` >= 2^-300, so no magnitude that reaches it squares to a
    subnormal (``ramp``'s Y adds X 2^-500 for the M that underflows to
    0).  A step takes the candidates where M is below ``M_cap``,
    the bounds on E and delta solved for M with a factor 2 to spare (and,
    for c = 0, where the slope test holds).  A non-finite M fails, so a
    step on a non-finite row scans, and raises as the scan does, before
    any index is cast.

    Returns ``(first, per_step, M_cap, ramp, table)``: the first
    candidate as floats (None where the step computes it from ``per_step``
    = (alpha, shift, lo, hi)), in flat rows j n_u + i of the transposed
    ``b`` and ``f``, and ``table``, whose four rows hold b and f at each
    flat row and at the second candidate of a first there; each array not
    flat at the full shape (runs, n_x).
    """
    problem, (n_u, n_x) = coefs.problem, coefs.shape
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
    if not (c == 0.0 or 2.0 ** -1021 <= c < math.inf):
        return None
    b, f = (np.zeros(coefs.shape) if a is None
            else np.broadcast_to(a, coefs.shape) for a in (b, f))
    beta = b_u[0] * du
    eps_b = eps_f = 0.0
    phi, lo = np.empty((2, len(runs), n_x))
    gap = np.empty(n_u, dtype=np.intp)  # a first candidate to the second
    for r, (i0, i1, _) in enumerate(runs):
        gap[i0:i1] = min(i1 - i0, 2) - 1 if c else i1 - i0 - 1
        s = np.arange(i1 - i0, dtype=float)[:, None]
        phi[r] = f_u[i0] * du
        eps_b = max(eps_b, _off_model(b[i0:i1], b[i0], beta * s))
        eps_f = max(eps_f, _off_model(f[i0:i1], f[i0], phi[r] * s,
                                      0.5 * c * (s * s)))
        lo[r] = i0 + n_u * np.arange(n_x)
    e1 = eps_b + 4.0 * _U * (1.0 + np.max(np.abs(b)))
    e0 = eps_f + 4.0 * _U * np.max(np.abs(f)) + 4.0 * _TINY
    span = np.array([[i1 - i0] for i0, i1, _ in runs])
    first, per_step, M_cap, ramp = lo, None, math.inf, None
    if c:
        alpha = np.ascontiguousarray(np.broadcast_to(-beta / c, lo.shape))
        shift = -phi / c + lo
        hi = lo + (np.maximum(span, 2) - 2)
        a_max = float(np.max(np.abs(alpha)))
        delta = 5.0 * _U * float(np.max(np.abs(shift) + np.abs(phi / c)))
        M_cap = 0.5 * min((c / 8.0 - e0) / e1, (0.25 - delta)
                          / (5.0 * _U * a_max) if a_max else math.inf)
        if not (M_cap >= 2.0 ** -300 and delta <= 0.25):
            return None
        if a_max:
            first, per_step = None, (alpha, shift, lo, hi)
        else:
            first = np.fmin(np.fmax(shift, lo), hi)
    elif (span >= 3).any():
        long = np.broadcast_to(span >= 3, lo.shape)
        X = 2.0 * (2.0 * e1 + 3.0 * _U * float(np.max(np.abs(beta))))
        Y = 2.0 * (2.0 * e0 + 3.0 * _U * float(np.max(np.abs(phi[long]))))
        ramp = (np.ascontiguousarray(np.broadcast_to(beta, lo.shape)),
                np.where(long, phi, math.inf), X, Y + X * 2.0 ** -500)
    # a first candidate in a run's last row has no second: unread
    second = np.minimum(np.arange(n_u * n_x) + np.tile(gap, n_x),
                        n_u * n_x - 1)
    b_T, f_T = (a.T.ravel() for a in (b, f))
    table = np.stack([b_T, b_T[second], f_T, f_T[second]])
    return first, per_step, M_cap, ramp, table
