"""Problem construction, Lipschitz probe, benchmark catalog."""

import warnings

import numpy as np
import pytest

from grobust import problem as problem_module
from grobust.expr import parse_expr
from grobust.gexp import GammaSet
from grobust.grids import Grid1D
from grobust.problem import (LIPSCHITZ_SAMPLES, CoefficientGrid,
                             ControlProblem, catalog, catalog_entry, evaluate,
                             lipschitz_probe)


def make_problem(**overrides):
    kw = dict(horizon=1.0, x_min=0.0, x_max=2.0, u_min=-1.0, u_max=1.0,
              n_u=5, gamma=GammaSet.interval(0.5, 1.0),
              b="u", h="0", sigma="x", f="0", g="0", phi="pos(x-1)")
    kw.update(overrides)
    return ControlProblem(**kw)


class TestConstruction:
    def test_valid_problem(self):
        p = make_problem()
        assert p.horizon == 1.0
        assert len(p.u_grid()) == 5

    def test_invariants(self):
        with pytest.raises(ValueError):
            make_problem(horizon=0.0)
        with pytest.raises(ValueError):
            make_problem(x_min=2.0, x_max=2.0)
        with pytest.raises(ValueError):
            make_problem(u_min=1.0, u_max=-1.0)
        with pytest.raises(ValueError):
            make_problem(n_u=0)

    @pytest.mark.parametrize("name", ["horizon", "x_min", "x_max", "u_min",
                                      "u_max"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_bounds_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_problem(**{name: value})

    def test_variable_slot_enforcement(self):
        # drift may not read the adjoint variables
        with pytest.raises(ValueError):
            make_problem(b="y")
        with pytest.raises(ValueError):
            make_problem(phi="x+u")
        # drivers may read everything but are still validated
        make_problem(f="x+y+z+u+t")

    def test_lipschitz_rejection_at_construction(self):
        with pytest.raises(ValueError):
            make_problem(phi="exp(20*x)")  # quotient far above the ceiling

    def test_non_finite_coefficient_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=(
                    "^Lipschitz probe failed at construction: f: non-finite "
                    "value while varying x")):
                make_problem(f="y/(x-x)")

    def test_overflowing_quotient_rejected_without_warning(self):
        # finite values whose difference overflows: the quotient is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=(
                    "^Lipschitz probe failed at construction: b: difference "
                    "quotient inf")):
                make_problem(b="1e308*x", x_min=-1.0, x_max=1.0)

    def test_domain_violation_rejected_at_validation(self):
        with pytest.raises(ValueError):
            make_problem(sigma="log(x)", x_min=-1.0)  # log of negatives

    def test_single_point_control_grid(self):
        p = make_problem(u_min=0.0, u_max=0.0, n_u=1)
        assert np.array_equal(p.u_grid(), [0.0])

    def test_empty_control_grid_refused(self):
        with pytest.raises(ValueError,
                           match="control grid needs n_u >= 1, got 0"):
            make_problem().u_grid(0)


class TestCoefficientGrid:
    def test_control_by_state_grid(self):
        p = make_problem(b="u", sigma="x", f="u*y", g="t*x")
        grid = Grid1D(0.0, 2.0, 4)
        c = CoefficientGrid(p, grid, p.u_grid())
        us = p.u_grid()
        assert c.shape == (5, 4)
        # each coefficient keeps the shape numpy gives it: u binds as
        # (5, 1) and x as (1, 4)
        b, sigma = c("b", 0.3), c("sigma", 0.3)
        y = np.full((1, 4), 2.0)
        f, g = c("f", 0.0, y, 0.0), c("g", 0.5, 0.0, 0.0)
        assert (b.shape, sigma.shape, g.shape) == ((5, 1), (1, 4), (1, 4))

        def full(a):
            return np.broadcast_to(a, c.shape)
        assert np.array_equal(full(b), np.outer(us, np.ones(4)))
        assert np.array_equal(full(sigma), np.outer(np.ones(5), grid.nodes))
        assert np.array_equal(full(f), np.outer(2.0 * us, np.ones(4)))
        assert np.array_equal(full(g), np.outer(np.ones(5), 0.5 * grid.nodes))
        assert (c.s_lo, c.s_hi) == (0.25, 1.0)

    @pytest.mark.parametrize("n_u", [1, 5])
    def test_returned_arrays_are_read_only(self, n_u):
        # sigma = x is the grid's own node row, b = u the control column
        p = make_problem(n_u=n_u, b="u", h="0", sigma="x", f="u*y", g="t*z")
        grid = Grid1D(0.0, 2.0, 4)
        c = CoefficientGrid(p, grid, p.u_grid())
        y = np.full((1, 4), 2.0)
        arrays = [c(name, 0.5, y, y) for name in ("b", "h", "sigma", "f", "g")]
        for a in arrays + [c.x]:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 99.0
        assert np.array_equal(c.x, grid.nodes)
        assert np.array_equal(c("sigma", 0.0)[0], grid.nodes)
        assert np.array_equal(y, np.full((1, 4), 2.0))

    def test_coefficients_free_of_t_y_z_evaluated_once(self, monkeypatch):
        p = make_problem(b="u", h="t", sigma="x", f="u*y", g="0")
        c = CoefficientGrid(p, Grid1D(0.0, 2.0, 4), p.u_grid())
        calls = []
        for name, real in list(p.compiled.items()):
            monkeypatch.setitem(p.compiled, name, lambda bind, e=getattr(
                p, name), real=real: calls.append(e) or real(bind))
        for t in (0.1, 0.9):
            assert c("sigma", t) is c("sigma", 0.0)
            c("b", t), c("g", t, 1.0, 1.0), c("h", t), c("f", t, 1.0, 1.0)
        assert calls == [p.h, p.f, p.h, p.f]

    def test_checked_coefficients_must_be_finite(self):
        # every coefficient: a static one when the grid is built, one that
        # reads t, y or z when it is evaluated
        grid = Grid1D(0.0, 2.0, 5)  # node 0 lies outside the problems' box
        for name in ("b", "h", "sigma", "f", "g"):
            bad = make_problem(**{name: "1/x"}, x_min=0.5)
            with pytest.raises(ValueError, match=f"coefficient {name!r}"):
                CoefficientGrid(bad, grid, bad.u_grid())
            varying = "y/x" if name in ("f", "g") else "t/x"
            good = make_problem(**{name: varying}, x_min=0.5)
            c = CoefficientGrid(good, grid, good.u_grid())
            with pytest.raises(ValueError, match=f"coefficient {name!r}"):
                c(name, 0.5, 1.0, 1.0)

    def test_evaluate_broadcasts_and_checks(self):
        e = parse_expr("1/x")
        out = evaluate(e, {"x": np.array([1.0, 2.0])}, (3, 2))
        assert out.shape == (3, 2) and np.array_equal(out[2], [1.0, 0.5])
        with pytest.raises(ValueError, match="payoff"):
            evaluate(e, {"x": np.array([0.0, 2.0])}, (2,), "payoff")


class TestLipschitzProbe:
    def test_sampling_boxes(self):
        # x, u, y, z in the order the probes draw them; y and z in
        # +-2(1 + max|x|)
        assert list(catalog_entry("lq").problem.boxes().items()) == [
            ("x", (-2.0, 2.0)), ("u", (-4.0, 4.0)), ("y", (-6.0, 6.0)),
            ("z", (-6.0, 6.0))]

    def test_linear_control_slot_exact(self):
        p = make_problem(b="u")
        rep = lipschitz_probe(p)
        assert rep["b"]["u"] == pytest.approx(1.0, abs=1e-12)

    def test_call_payoff_one_lipschitz(self):
        p = make_problem(phi="pos(x-1)")
        rep = lipschitz_probe(p)
        assert rep["phi"]["x"] <= 1.0 + 1e-12

    def test_linear_sigma_in_x(self):
        p = make_problem(sigma="x", x_min=0.5, x_max=2.0)
        rep = lipschitz_probe(p)
        assert rep["sigma"]["x"] <= 1.0 + 1e-12

    def test_sample_floor(self, monkeypatch):
        # every quotient compares LIPSCHITZ_SAMPLES >= 100 pairs
        p = make_problem()
        shapes = []
        real = problem_module.evaluate
        monkeypatch.setattr(problem_module, "evaluate",
                            lambda e, bind, shape=None, check=None:
                            shapes.append(shape) or real(e, bind, shape, check))
        lipschitz_probe(p)
        assert LIPSCHITZ_SAMPLES >= 100
        assert shapes and set(shapes) == {(LIPSCHITZ_SAMPLES,)}


class TestCatalog:
    def test_has_required_entries(self):
        names = [e.name for e in catalog()]
        for required in ("bsb-call", "bsb-concave", "lq", "recursive-g"):
            assert required in names
        assert len(names) >= 4

    def test_lq_singleton_gamma(self):
        lq = catalog_entry("lq")
        assert lq.problem.gamma.is_singleton()
        assert lq.problem.u_min == -4.0 and lq.problem.u_max == 4.0

    def test_bsb_call_fields(self):
        e = catalog_entry("bsb-call")
        p = e.problem
        assert p.horizon == 1.0
        assert (p.x_min, p.x_max) == (0.01, 4.0)
        assert (p.gamma.sigma_lo, p.gamma.sigma_hi) == (0.5, 1.0)
        assert e.oracle == "bsb-convex"

    def test_all_entries_pass_lipschitz(self):
        # construction would have raised otherwise; re-probe explicitly,
        # and the probe raises on a failure itself
        for e in catalog():
            lipschitz_probe(e.problem)

    def test_recursive_g_drivers(self):
        e = catalog_entry("recursive-g")
        assert "y" in e.problem.compiled["f"].free
        assert "z" in e.problem.compiled["g"].free

    def test_entry_builds_only_the_named_problem(self, monkeypatch):
        built = []
        real = problem_module.lipschitz_probe
        monkeypatch.setattr(problem_module, "lipschitz_probe",
                            lambda p: built.append(p) or real(p))
        assert catalog_entry("lq").name == "lq"
        assert len(built) == 1
        assert [e.name for e in catalog()] == [
            "bsb-call", "bsb-concave", "lq", "recursive-g"]

    def test_keeps_its_construction_report(self):
        p = catalog_entry("recursive-g").problem
        assert p.lipschitz == lipschitz_probe(p)
        assert p.lipschitz["f"]["y"] == pytest.approx(0.1)
        assert p.lipschitz["g"]["z"] == pytest.approx(0.05)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog_entry("nope")
