"""Control problem instances: coefficients, control grid, Lipschitz probe.

A :class:`ControlProblem` bundles the horizon, state box, compact control
interval, volatility uncertainty set and the six coefficient expressions

    drift b(t,x,u), bracket drift h(t,x,u), diffusion sigma(t,x,u),
    running cost f(t,x,y,z,u), bracket cost g(t,x,y,z,u), payoff phi(x).

Coefficients must be Lipschitz in (x, y, z, u); since we only receive
expression trees, that is checked by randomized difference quotients at
construction time (a probe can falsify the assumption, never prove it).
The problem keeps the probe's constants table, ``lipschitz``, and its six
compiled expressions, ``compiled``; the stability bounds read the table.

:func:`evaluate` finiteness-checks one coefficient, and
:class:`CoefficientGrid` is where the grid solvers evaluate b, h, sigma, f
and g on a (control x state) grid: controls bind as a column and nodes as a
row, and each value keeps the shape numpy gives it, so a coefficient free of
u is one row, not one row per control.  Every value it evaluates must be
finite; a coefficient free of t, y and z is evaluated, and checked, once per
solve.  :func:`march` is the backward march of both grid solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import Expr, compile_expr, eval_expr, parse_expr
from .gexp import GammaSet, uniform_ellipticity_bounds
from .grids import Grid1D, SolveRecord, ValueField, check_growth

__all__ = [
    "ControlProblem",
    "ProblemCatalogEntry",
    "CoefficientGrid",
    "evaluate",
    "march",
    "lipschitz_probe",
    "catalog",
    "catalog_entry",
]

# variables each coefficient slot may reference
SLOT_VARS = {
    "b": {"t", "x", "u"},
    "h": {"t", "x", "u"},
    "sigma": {"t", "x", "u"},
    "f": {"t", "x", "y", "z", "u"},
    "g": {"t", "x", "y", "z", "u"},
    "phi": {"x"},
}

# the Lipschitz probe's quotient ceiling, and its pairs per slot and seed
LIPSCHITZ_CEILING = 1e3
LIPSCHITZ_SAMPLES = 200
LIPSCHITZ_SEED = 0


def _as_expr(e) -> Expr:
    return parse_expr(e) if isinstance(e, str) else e


@dataclass(frozen=True)
class ControlProblem:
    """One robust control problem on a 1-D state box with interval control set."""

    horizon: float
    x_min: float
    x_max: float
    u_min: float
    u_max: float
    n_u: int
    gamma: GammaSet
    b: Expr
    h: Expr
    sigma: Expr
    f: Expr
    g: Expr
    phi: Expr
    compiled: Dict[str, Callable] = field(init=False, repr=False,
                                          compare=False)
    lipschitz: Dict[str, Dict[str, float]] = field(init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        for name in SLOT_VARS:
            object.__setattr__(self, name, _as_expr(getattr(self, name)))
        object.__setattr__(self, "compiled", {
            name: compile_expr(getattr(self, name)) for name in SLOT_VARS})
        for name in ("horizon", "x_min", "x_max", "u_min", "u_max"):
            if not np.isfinite(v := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {v}")
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not (self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not (self.u_min <= self.u_max):
            raise ValueError(f"need u_min <= u_max, got [{self.u_min}, {self.u_max}]")
        if self.n_u < 1:
            raise ValueError(f"n_u must be >= 1, got {self.n_u}")
        for name, allowed in SLOT_VARS.items():
            extra = self.compiled[name].free - allowed
            if extra:
                raise ValueError(
                    f"coefficient {name!r} uses variables {sorted(extra)} "
                    f"outside its allowed set {sorted(allowed)}"
                )
        object.__setattr__(self, "lipschitz", lipschitz_probe(self))

    def u_grid(self, n_u: Optional[int] = None) -> np.ndarray:
        """``n_u`` equally spaced controls (default: the problem's own)."""
        n = self.n_u if n_u is None else n_u
        if n < 1:
            raise ValueError(f"control grid needs n_u >= 1, got {n}")
        return np.linspace(self.u_min, self.u_max, n)

    def driver_slope(self, var: str) -> float:
        """Lip f + s_hi Lip g in ``var`` ("y" or "z"), from the Lipschitz
        constants (zero for a driver free of ``var``); s_hi is the volatility
        set's upper ellipticity bound.  The stability bounds of both solvers
        read it."""
        lip = self.lipschitz
        s_hi = uniform_ellipticity_bounds(self.gamma)[1]
        return lip["f"][var] + s_hi * lip["g"][var]

    def boxes(self) -> Dict[str, Tuple[float, float]]:
        """The (lo, hi) boxes that probes sample x, u, y and z from, in the
        order they draw them; the unbounded y and z take +-2(1 + max|x|)."""
        yz = 2.0 * (1.0 + max(abs(self.x_min), abs(self.x_max)))
        return {"x": (self.x_min, self.x_max), "u": (self.u_min, self.u_max),
                "y": (-yz, yz), "z": (-yz, yz)}


@dataclass(frozen=True)
class ProblemCatalogEntry:
    name: str
    problem: ControlProblem
    oracle: str  # "bsb-convex" | "bsb-concave" | "lq-riccati" | "none"


# ---------------------------------------------------------------------------
# coefficient evaluation

COEFFICIENTS = ("b", "h", "sigma", "f", "g")


def evaluate(e, bindings: dict, shape=None,
             check: Optional[str] = None) -> np.ndarray:
    """``e`` at ``bindings`` as a float64 array.

    ``e`` is an expression tree (for a value needed once) or a compiled
    one.  The value keeps the shape numpy gives it, unless ``shape`` is
    set: a value of another shape is then broadcast (a read-only view).
    With ``check`` set, a non-finite value raises ValueError naming it.
    """
    out = np.asarray(e(bindings) if callable(e) else eval_expr(e, bindings),
                     dtype=np.float64)
    if shape is not None and out.shape != shape:
        out = np.broadcast_to(out, shape)
    if check is not None and not np.isfinite(out).all():
        raise ValueError(f"non-finite {check}")
    return out


def _read_only(a) -> np.ndarray:
    """A read-only view of the array (or numpy scalar) ``a``."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


class CoefficientGrid:
    """b, h, sigma, f and g of one problem on the (control x state) grid.

    Controls ``u_grid`` bind as a column, u of shape (n_u, 1), and the nodes
    of ``grid`` as a row, x of shape (1, n_x); ``shape`` is (n_u, n_x).  A
    value keeps the shape numpy gives it: ``b = u`` is (n_u, 1), ``sigma =
    x`` is (1, n_x) and a constant is 0-d, so a coefficient free of u holds
    one row for all controls.  A coefficient free of t, y and z (for b, h
    and sigma: free of t) is evaluated once, here, into ``static``, the
    solvers' one test of time invariance; the others at every call.  Every
    value it evaluates must be finite (else ValueError naming the
    coefficient), so a static one is checked once, at construction.  ``x``
    holds the grid nodes, ``xu`` the bindings of x and u, and ``(s_lo,
    s_hi)`` the volatility set's ellipticity bounds.  Every array it
    returns, ``x`` included, is read-only.
    """

    def __init__(self, problem: ControlProblem, grid: Grid1D,
                 u_grid: Sequence[float]):
        self.problem = problem
        self.grid = grid
        us = _read_only(np.array(u_grid, dtype=np.float64))
        self.shape = (len(us), grid.n_x)
        self.s_lo, self.s_hi = uniform_ellipticity_bounds(problem.gamma)
        self.x = _read_only(grid.nodes)
        self.xu = {"x": self.x[None, :], "u": us[:, None]}
        self.static = {}  # empty while __call__ evaluates the static ones
        self.static = {c: self(c, 0.0) for c in COEFFICIENTS
                       if not problem.compiled[c].free & {"t", "y", "z"}}

    def __call__(self, name: str, t: float, y=None, z=None) -> np.ndarray:
        """Coefficient ``name`` at time t (the drivers f, g also at y, z)."""
        out = self.static.get(name)
        if out is not None:
            return out
        # b, h and sigma do not read y and z
        return _read_only(evaluate(self.problem.compiled[name],
                                   dict(self.xu, t=t, y=y, z=z),
                                   check=f"coefficient {name!r} on the "
                                         "(u, x) grid"))


def march(coefs: CoefficientGrid, K: int,
          step: Callable[[np.ndarray, int], np.ndarray], method: str,
          dt: float, **stepping) -> ValueField:
    """K + 1 rows T / K apart on ``coefs``' state grid: the payoff at row K,
    then row k = ``step(row k+1, k)``, which must pass check_growth (else
    GrowthCeilingError).  The field's solve record holds ``method``, the
    control count, ``step``'s internal ``dt`` and the method's ``stepping``."""
    problem, grid, x = coefs.problem, coefs.grid, coefs.x
    values = np.empty((K + 1, grid.n_x))
    values[K] = evaluate(problem.phi, {"x": x}, x.shape, "terminal payoff")
    for k in range(K - 1, -1, -1):
        values[k] = step(values[k + 1], k)
        check_growth(k, values[k], x)
    return ValueField(grid, problem.horizon / K, values,
                      SolveRecord(method, coefs.shape[0], dt, **stepping))


# ---------------------------------------------------------------------------
# Lipschitz probe


def lipschitz_probe(p: ControlProblem) -> Dict[str, Dict[str, float]]:
    """Randomized difference-quotient estimate of the Lipschitz constants,
    ``{coefficient: {slot: estimate}}``.

    For each coefficient and each of its (x, u, y, z) slots, sample
    ``LIPSCHITZ_SAMPLES`` pairs that differ in that slot only and record the
    largest quotient.  Raises ValueError, "Lipschitz probe failed at
    construction: ...", listing every failure: a non-finite value or a
    quotient above ``LIPSCHITZ_CEILING`` (one that overflows is inf).
    """
    rng = np.random.default_rng(LIPSCHITZ_SEED)
    boxes = p.boxes()
    constants: Dict[str, Dict[str, float]] = {}
    failures: List[str] = []

    for name, allowed in SLOT_VARS.items():
        fn = p.compiled[name]
        # the coefficient's slots, in the order x, u, y, z that fixes the draws
        slots = tuple(s for s in boxes if s in allowed)
        per_slot = constants[name] = {}
        ts = rng.uniform(0.0, p.horizon, size=LIPSCHITZ_SAMPLES)
        base = {s: rng.uniform(*boxes[s], size=LIPSCHITZ_SAMPLES)
                for s in slots}
        if name != "phi":
            base["t"] = ts
        for vary in slots:
            lo, hi = boxes[vary]
            span = hi - lo
            if span == 0.0:
                per_slot[vary] = 0.0
                continue
            alt = rng.uniform(lo, hi, size=LIPSCHITZ_SAMPLES)
            dv = np.abs(alt - base[vary])
            keep = dv > 1e-6 * span
            try:
                v1 = evaluate(fn, base, dv.shape)
                v2 = evaluate(fn, dict(base, **{vary: alt}), dv.shape)
            except Exception as exc:  # noqa: BLE001 - report, do not crash
                failures.append(f"{name}: evaluation failed ({exc})")
                continue
            if not (np.all(np.isfinite(v1[keep])) and np.all(np.isfinite(v2[keep]))):
                failures.append(f"{name}: non-finite value while varying {vary}")
                continue
            with np.errstate(over="ignore"):
                quot = np.abs(v2[keep] - v1[keep]) / dv[keep]
            est = float(np.max(quot)) if quot.size else 0.0
            per_slot[vary] = est
            if est > LIPSCHITZ_CEILING:
                failures.append(
                    f"{name}: difference quotient {est:.3g} in {vary} "
                    f"exceeds ceiling {LIPSCHITZ_CEILING:g}"
                )

    if failures:
        raise ValueError("Lipschitz probe failed at construction: "
                         + "; ".join(failures))
    return constants


# ---------------------------------------------------------------------------
# benchmark catalog


def _bsb_base(phi: str, f: str = "0", g: str = "0") -> ControlProblem:
    return ControlProblem(
        horizon=1.0, x_min=0.01, x_max=4.0,
        u_min=0.0, u_max=0.0, n_u=1,
        gamma=GammaSet.interval(0.5, 1.0),
        b="0", h="0", sigma="x", f=f, g=g, phi=phi,
    )


def _lq() -> ControlProblem:
    return ControlProblem(
        horizon=1.0, x_min=-2.0, x_max=2.0,
        u_min=-4.0, u_max=4.0, n_u=81,
        gamma=GammaSet.interval(1.0, 1.0),
        b="u", h="0", sigma="1", f="u^2", g="0", phi="x^2",
    )


# name -> (problem constructor, oracle tag), in catalog order
_CATALOG = {
    "bsb-call": (lambda: _bsb_base("pos(x-1)"), "bsb-convex"),
    "bsb-concave": (lambda: _bsb_base("-pos(x-1)"), "bsb-concave"),
    "lq": (_lq, "lq-riccati"),
    "recursive-g": (lambda: _bsb_base("pos(x-1)", f="-0.1*y", g="0.05*z"),
                    "none"),
}


def catalog() -> List[ProblemCatalogEntry]:
    """Built-in benchmark problems used throughout the validation suite.

    * ``bsb-call``:    uncertain-volatility call; convex payoff, so the worst
      case is the high volatility and the classical closed form applies.
    * ``bsb-concave``: negated call payoff; the worst case flips to the low
      volatility endpoint.
    * ``lq``:          singleton volatility linear-quadratic control with a
      nontrivial optimal feedback and a quadratic-plus-log closed form.
    * ``recursive-g``: call payoff with a recursive driver in y and a
      quadratic-variation driver in z.
    """
    return [catalog_entry(name) for name in _CATALOG]


def catalog_entry(name: str) -> ProblemCatalogEntry:
    """Build (and probe) the named catalog problem only."""
    if name not in _CATALOG:
        known = ", ".join(_CATALOG)
        raise KeyError(f"unknown catalog entry {name!r} (known: {known})")
    build, oracle = _CATALOG[name]
    return ProblemCatalogEntry(name, build(), oracle)
