"""Pinned bits of both grid solvers on the catalog and one explicit problem.

Each digest is the SHA-256 of ``values.tobytes()`` of a solve at n_x = 60,
with K = n_x.  A refactor that keeps the numerics keeps
every digest.  A change that alters numerics on purpose must update the
digests here and say why in CHANGES.md.
"""

import hashlib

import pytest

from grobust.gexp import GammaSet
from grobust.grids import Grid1D
from grobust.hjb import solve_hjb
from grobust.lattice import solve_dpp
from grobust.problem import ControlProblem, catalog_entry

N_X = 60

DIGESTS = {
    ("lattice", "bsb-call"):
        "6147a7ea07cc4fae8f26bd00b07c37fcc856dbb0896148378e1ff9a16867fcdc",
    ("lattice", "bsb-concave"):
        "ec8db145847ea0d9467586a284958555190c233a60bd06464f36fa94c9e9f9a5",
    ("lattice", "lq"):
        "e484aceac2601269dc9df58cb64f75e25c18f74ea5045d2fcd63ffaed7db291b",
    ("lattice", "recursive-g"):
        "d6a261515496b6d2a985a5980cae9f53105a04dafce51792fe25e3ac0b0962ff",
    ("hjb", "bsb-call"):
        "da755ec08e5696b7badc42e9130fc4e9e78ecaf12dd07f02085499fec3ed282b",
    ("hjb", "bsb-concave"):
        "18b10f081b14053a73660475f141b3a84567b15aea8bb6e44fd7971a83c49f40",
    ("hjb", "lq"):
        "cd8f50e6334a6050aa3cbbb5dc81822580f172d49a945d51ac81a1807614ab06",
    ("hjb", "recursive-g"):
        "6cd107aac38ca84e33f4c1984ef6f606f73e46905360f5533657b23cd456681c",
}


@pytest.mark.parametrize("method,name", sorted(DIGESTS))
def test_catalog_field_bits(method, name):
    p = catalog_entry(name).problem
    grid = Grid1D.for_problem(p, N_X)
    if method == "lattice":
        field = solve_dpp(p, grid, N_X)
    else:
        field = solve_hjb(p, grid, N_X)
    digest = hashlib.sha256(field.values.tobytes()).hexdigest()
    assert digest == DIGESTS[method, name]


# the explicit problem of the command-line CI step: every HJB term nonzero
# (drift, bracket drift, drivers in z), a t-dependent sigma, three controls
EXPLICIT = dict(
    horizon=0.5, x_min=0.5, x_max=2.0, u_min=-0.5, u_max=0.5, n_u=3,
    gamma=GammaSet.interval(0.2, 0.3), b="0.1*x + 0.05*u", h="0.05*x",
    sigma="x*(1+0.1*t)", f="-0.05*y + 0.02*abs(z) + 0.1*u^2", g="0.01*z",
    phi="sqrt(x) + log(x)")

EXPLICIT_DIGESTS = {
    "lattice":
        "da1f6189fceebf1fa53e2567c8f698e75c89769fa6bf8d0855757c769cd7c5a1",
    "hjb":
        "108d415724384d86b5e8c26673ac3430f6518e2908655fce18a4c2926fdc7553",
}


@pytest.mark.parametrize("method", sorted(EXPLICIT_DIGESTS))
def test_explicit_problem_field_bits(method):
    p = ControlProblem(**EXPLICIT)
    grid = Grid1D.for_problem(p, N_X)
    if method == "lattice":
        field = solve_dpp(p, grid, N_X)
    else:
        field = solve_hjb(p, grid, N_X)
    digest = hashlib.sha256(field.values.tobytes()).hexdigest()
    assert digest == EXPLICIT_DIGESTS[method]


@pytest.mark.parametrize("method", ["lattice", "hjb"])
def test_control_free_problem_same_bits_at_any_n_u(method):
    # no coefficient reads u, so five controls give the field of one
    p = ControlProblem(
        horizon=1.0, x_min=-2.0, x_max=2.0, u_min=-1.0, u_max=1.0, n_u=5,
        gamma=GammaSet.interval(0.5, 1.0), b="0", h="0", sigma="1", f="0",
        g="0", phi="abs(x) - 0.5*x^2")
    grid = Grid1D.for_problem(p, N_X)
    solve = solve_dpp if method == "lattice" else solve_hjb
    five, one = solve(p, grid, N_X), solve(p, grid, N_X, n_u=1)
    assert five.solve.n_u == 5 and one.solve.n_u == 1
    assert five.values.tobytes() == one.values.tobytes()
