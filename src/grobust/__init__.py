"""Robust stochastic optimal control under volatility uncertainty.

Two independent numerical routes to the robust value function
V(t, x) = inf over controls of the worst-case recursive cost:

* a discrete sublinear-expectation lattice realizing the dynamic
  programming recursion (:mod:`grobust.lattice`), and
* a monotone explicit finite-difference scheme for the fully nonlinear
  HJB equation (:mod:`grobust.hjb`),

cross-validated against closed-form reductions, a brute-force inf-sup
enumeration and Monte Carlo scenario bounds (:mod:`grobust.analysis`).
"""

from .expr import ExprEvalError, ExprSyntaxError, eval_expr, parse_expr
from .gexp import GammaSet, vol_grid
from .grids import Grid1D, ValueField, write_field_csv
from .problem import (ControlProblem, ProblemCatalogEntry, catalog,
                      catalog_entry, lipschitz_probe)
from .lattice import (brute_force_value, dpp_residual, dpp_residual_profile,
                      semigroup_apply, solve_dpp, solve_dpp_tree)
from .hjb import cfl_max_dt, hjb_residual, solve_hjb
from .analysis import (bs_value, delta32_check, f0_ode_solve, lq_value,
                       mc_lower_bound, regularity_report)
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "GammaSet", "vol_grid", "parse_expr", "eval_expr", "ExprSyntaxError",
    "ExprEvalError",
    "ControlProblem", "ProblemCatalogEntry", "catalog", "catalog_entry",
    "lipschitz_probe", "Grid1D", "ValueField", "write_field_csv",
    "semigroup_apply", "solve_dpp", "solve_dpp_tree", "brute_force_value",
    "dpp_residual", "dpp_residual_profile",
    "cfl_max_dt", "solve_hjb", "hjb_residual", "bs_value", "lq_value",
    "f0_ode_solve", "delta32_check", "mc_lower_bound", "regularity_report",
    "RunConfig", "load_config", "__version__",
]
