"""Lattice operator laws, DPP solver, tree oracles."""

import math

import numpy as np
import pytest

from grobust import lattice
from grobust.gexp import GammaSet
from grobust.grids import (Grid1D, SolveRecord, read_field_csv,
                           write_field_csv)
from grobust.lattice import (GrowthCeilingError, _make_step, _stencil_mean,
                             _step_law, _successors, brute_force_size,
                             brute_force_value,
                             dpp_residual, dpp_residual_profile,
                             semigroup_apply, solve_dpp, solve_dpp_tree)
from grobust.problem import CoefficientGrid, ControlProblem, catalog_entry


def plain(sigma="1", gamma=None, f="0", g="0", b="0", h="0", phi="x",
          box=(-3.0, 3.0), controls=(0.0, 0.0, 1)):
    return ControlProblem(
        horizon=1.0, x_min=box[0], x_max=box[1],
        u_min=controls[0], u_max=controls[1], n_u=controls[2],
        gamma=gamma or GammaSet.interval(1.0, 1.0),
        b=b, h=h, sigma=sigma, f=f, g=g, phi=phi)


def three_control_problem():
    # three controls and exp, log, sin and cos in the coefficients
    return ControlProblem(
        horizon=0.8, x_min=0.01, x_max=4.0, u_min=-1.0, u_max=1.0, n_u=3,
        gamma=GammaSet.interval(0.6, 1.2),
        b="0.3*sin(x)-0.2*u", h="0.1*cos(x)", sigma="0.5+0.2*x",
        f="-0.1*y+0.05*z+exp(-x)*u^2", g="0.04*z+0.01*log(x)",
        phi="pos(x-1)")


def off_catalog(n_u=3, **coefs):
    return ControlProblem(
        horizon=0.7, x_min=0.01, x_max=4.0, u_min=-1.0, u_max=1.0, n_u=n_u,
        gamma=GammaSet.interval(0.5, 1.0), **coefs)


TREE_PROBLEMS = {
    "drifted": lambda: off_catalog(
        b="0.2*x-0.1*u", h="0.3*x", sigma="1.3+0.1*x", f="-0.1*y+0.07*z+u^2",
        g="0.05*z", phi="pos(x-1)"),
    # exp, sin and cos in the coefficients, the drivers and the payoff
    "trig": lambda: off_catalog(
        b="0.1*sin(x)+0.2*u", h="0.05*cos(x)", sigma="0.4+0.1*x",
        f="-0.1*y+exp(-x)*u^2+0.02*sin(z)", g="0.03*cos(x)*z",
        phi="exp(-x)*cos(x)+sin(2*x)"),
}

# recursive-g reads no u: one control or three give the same tree
RECURSIVE_G_TREE = [
    "0x1.935b29389590ep-2", "0x1.2438b502e19bdp-1", "0x1.73e656a4d6f9bp-1",
    "0x1.3fc79b706460ep-2", "0x1.0331e39f20fe3p-1", "0x1.62ffbc3327a50p-1",
    "0x1.61c28f5c28f60p-2", "0x1.0cae147ae147ap-1", "0x1.5d76c8b439583p-1"]

GRID = Grid1D(-3.0, 3.0, 241)


def fixed_control_step(W, grid, t, delta, problem, u):
    """One backward lattice step under the fixed control value u."""
    return _make_step(CoefficientGrid(problem, grid, [u]), delta)(W, t)


class TestOneStep:
    def test_martingale_preserved_on_linear_data(self):
        p = plain()
        W = GRID.nodes.copy()
        out = fixed_control_step(W, GRID, 0.0, 0.01, p, 0.0)
        # interior nodes reproduce x exactly up to rounding; boundary nodes
        # use the mean-matched closure which is also exact on linear data
        assert np.max(np.abs(out - W)) < 1e-12

    def test_quadratic_picks_high_volatility(self):
        p = plain(gamma=GammaSet.interval(0.5, 1.0))
        W = GRID.nodes ** 2
        out = fixed_control_step(W, GRID, 0.0, 0.01, p, 0.0)
        assert np.max(np.abs(out - (W + 0.01))[5:-5]) < 1e-12

    def test_concave_quadratic_picks_low_volatility(self):
        # sup over q of (-x^2 - q^2 delta) sits at the low endpoint:
        # -x^2 - 0.25 delta (matches the 1-D closed form with a = -2)
        p = plain(gamma=GammaSet.interval(0.5, 1.0))
        W = -GRID.nodes ** 2
        out = fixed_control_step(W, GRID, 0.0, 0.01, p, 0.0)
        assert np.max(np.abs(out - (W - 0.25 * 0.01))[5:-5]) < 1e-12

    def test_pure_driver_ode_step(self):
        p = plain(sigma="0", f="-y", gamma=GammaSet.interval(0.5, 1.0))
        out = fixed_control_step(np.ones(GRID.n_x), GRID, 0.0, 0.01, p, 0.0)
        assert np.array_equal(out, np.full(GRID.n_x, 1.0 - 0.01))

    def test_constant_preservation_exact_everywhere(self):
        rng = np.random.default_rng(0)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 100)
        for _ in range(50):
            c = float(rng.uniform(-5, 5))
            out = fixed_control_step(np.full(100, c), grid, 0.3, 0.02, p, 0.0)
            assert np.array_equal(out, np.full(100, c))

    def test_pointwise_monotonicity(self):
        rng = np.random.default_rng(1)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 80)
        for _ in range(200):
            w1 = rng.normal(size=80)
            w2 = w1 + rng.uniform(0.0, 1.0, size=80)
            o1 = fixed_control_step(w1, grid, 0.1, 0.01, p, 0.0)
            o2 = fixed_control_step(w2, grid, 0.1, 0.01, p, 0.0)
            assert np.all(o2 >= o1)

    def test_monotonicity_with_y_driver_small_delta(self):
        rng = np.random.default_rng(2)
        p = plain(sigma="x", f="-0.1*y", gamma=GammaSet.interval(0.5, 1.0),
                  box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 80)
        delta = 0.01  # delta * Lip_y f = 0.001 < 1
        for _ in range(200):
            w1 = rng.normal(size=80)
            w2 = w1 + rng.uniform(0.0, 1.0, size=80)
            assert np.all(fixed_control_step(w2, grid, 0.1, delta, p, 0.0)
                          >= fixed_control_step(w1, grid, 0.1, delta, p, 0.0))

    def test_sublinearity_in_terminal_data(self):
        rng = np.random.default_rng(3)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 80)
        for _ in range(200):
            w1 = rng.normal(size=80)
            w2 = rng.normal(size=80)
            both = fixed_control_step(w1 + w2, grid, 0.1, 0.01, p, 0.0)
            split = (fixed_control_step(w1, grid, 0.1, 0.01, p, 0.0)
                     + fixed_control_step(w2, grid, 0.1, 0.01, p, 0.0))
            assert np.all(both <= split + 1e-12)

    def test_positive_homogeneity_in_terminal_data(self):
        rng = np.random.default_rng(4)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 80)
        for _ in range(200):
            w = rng.normal(size=80)
            lam = float(rng.uniform(0.0, 4.0))
            scaled = fixed_control_step(lam * w, grid, 0.1, 0.01, p, 0.0)
            base = fixed_control_step(w, grid, 0.1, 0.01, p, 0.0)
            assert np.allclose(scaled, lam * base, rtol=1e-13, atol=1e-13)


class TestStepLaw:
    def test_components(self):
        mu, shift = _step_law(2.0, 0.0, 0.0, 2.0, 0.8, 0.01)
        assert mu == 2.0
        assert shift == pytest.approx(2.0 * 0.8 * 0.1, abs=1e-15)

    def test_drift_components(self):
        mu, _ = _step_law(0.0, 1.0, 0.5, 1.0, 1.0, 0.04)
        # b delta + h q^2 delta = 0.04 + 0.02
        assert mu == pytest.approx(0.06, abs=1e-15)

    def test_successors_evaluate_the_coefficients(self):
        p = plain(sigma="x", b="u", h="0.5", gamma=GammaSet.interval(0.5, 1.0),
                  box=(0.01, 4.0), controls=(-1.0, 1.0, 3))
        up, dn = _successors(p, 0.2, 2.0, 1.0, 0.8, 0.01)
        mu, shift = _step_law(2.0, 1.0, 0.5, 2.0, 0.8, 0.01)
        assert (up, dn) == (mu + shift, mu - shift)

    def test_nonfinite_successor_rejected(self):
        # b = 1/x is infinite at x0 = 0, outside the box but on the tree
        p = plain(b="1/x", box=(0.5, 4.0))
        with pytest.raises(ValueError, match="non-finite successor"):
            solve_dpp_tree(p, 0.0, 2, n_u=1)
        with pytest.raises(ValueError, match="non-finite successor"):
            brute_force_value(p, 0.0, 2, 1)

    def test_nonfinite_node_value_rejected(self):
        # f = 0/0 is NaN at the root state x = 1: both oracles raise, where
        # a Python max and min once skipped it (-inf) and np.max propagated
        # it (NaN)
        p = plain(sigma="x", f="(x-1)/(x-1)", phi="pos(x-1)",
                  gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        with pytest.raises(ValueError, match="non-finite node value"):
            solve_dpp_tree(p, 1.0, 2, n_u=1)
        with pytest.raises(ValueError, match="non-finite node value"):
            brute_force_value(p, 1.0, 2, 1)


class TestStencilMean:
    # nodes 0, 1, 2, 3, 4 with W = x^2: 0, 1, 4, 9, 16
    GRID5 = Grid1D(0.0, 4.0, 5)
    SQUARES = GRID5.nodes ** 2
    # (mu, s, expected) per rule; the one-sided cases have edge distance
    # a = 1, inner point mu -+ s^2/a and edge weight s^2/(a^2+s^2) = 9/13
    CASES = {
        "interior pair": (2.0, 1.0, 0.5 * (9.0 + 1.0)),
        # W(1.75) = 1 + 0.75 * 3, W(0.75) = 0.75
        "interior pair off nodes": (1.25, 0.5, 0.5 * (3.25 + 0.75)),
        "both sides exit": (1.0, 5.0, 16.0 / 4.0),
        # inner 0.75, W(0.75) = 0.75
        "right one-sided": (3.0, 1.5, 9.0 / 13.0 * 16.0 + 4.0 / 13.0 * 0.75),
        # inner 3.25, W(3.25) = 9 + 0.25 * 7
        "left one-sided": (1.0, 1.5, 4.0 / 13.0 * 10.75),
        "right edge, a = 0": (4.0, 1.0, 16.0),
        "left edge, a = 0": (0.0, 1.0, 0.0),
        "right, a < 0": (4.5, 0.2, 16.0),
        "left, a < 0": (-0.5, 0.2, 0.0),
        # inner 3 - 4 = -1 lies outside: endpoint rule, 3/4 of the way
        "right, unreachable inner": (3.0, 2.0, 0.75 * 16.0),
        # inner 1 + 4 = 5 lies outside: endpoint rule, 1/4 of the way
        "left, unreachable inner": (1.0, 2.0, 0.25 * 16.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rule_table(self, case):
        mu, s, expected = self.CASES[case]
        got = _stencil_mean(self.SQUARES, self.GRID5, np.array([mu]),
                            np.array([s]))
        assert got[0] == pytest.approx(expected, abs=1e-12)

    def test_linear_data_reproduced_by_every_rule(self):
        # every rule matches the mean, so a linear W returns W(mu)
        W = 2.0 * self.GRID5.nodes + 1.0
        rng = np.random.default_rng(11)
        mu = np.concatenate([[c[0] for c in self.CASES.values()
                              if 0.0 <= c[0] <= 4.0],
                             rng.uniform(0.0, 4.0, 2000)])
        s = np.concatenate([[c[1] for c in self.CASES.values()
                             if 0.0 <= c[0] <= 4.0],
                            rng.uniform(0.0, 8.0, 2000)])
        got = _stencil_mean(W, self.GRID5, mu, s)
        assert np.max(np.abs(got - (2.0 * mu + 1.0))) <= 1e-12

    def test_two_dimensional_input_equals_row_calls(self):
        rng = np.random.default_rng(12)
        mu = rng.uniform(-1.0, 5.0, (2, 300))
        s = rng.uniform(0.0, 3.0, (2, 300))
        both = _stencil_mean(self.SQUARES, self.GRID5, mu, s)
        for r in range(2):
            assert np.array_equal(
                both[r], _stencil_mean(self.SQUARES, self.GRID5, mu[r], s[r]))

    def test_nan_state_gives_nan(self):
        got = _stencil_mean(self.SQUARES, self.GRID5,
                            np.array([np.nan, 2.0, 2.0]),
                            np.array([1.0, np.nan, 1.0]))
        assert np.isnan(got[:2]).all() and got[2] == 5.0

    def lane_calls(self, mu, s):
        """_stencil_mean on each lane of the broadcast (mu, s) alone, as a
        0-d input."""
        mu, s = np.broadcast_arrays(mu, s)
        return np.array([
            _stencil_mean(self.SQUARES, self.GRID5, np.array(m), np.array(v))
            for m, v in zip(mu.ravel().tolist(), s.ravel().tolist())
        ]).reshape(mu.shape)

    @pytest.mark.parametrize("s_kind", ["scalar", "row"])
    def test_control_by_state_input_equals_lane_calls(self, s_kind):
        # mu over (controls x nodes) and s a scalar or one row, as the
        # lattice step passes them for a sigma free of u
        rng = np.random.default_rng(13)
        mu = rng.uniform(-0.5, 4.5, (3, 40))
        right, left = (self.CASES[c][2] for c in ("right one-sided",
                                                   "left one-sided"))
        if s_kind == "scalar":
            s = 1.5
            # the pair (W(3.5) = 12.5, W(0.5) = 0.5), the two one-sided
            # pairs, and the endpoint mix for a = -0.2 and for the inner
            # point 0.5 + 1.5^2 / 0.5 = 5, outside the grid
            lanes = ((2.0, 6.5), (3.0, right), (1.0, left), (4.2, 16.0),
                     (0.5, 2.0))
        else:
            s = rng.uniform(0.0, 3.0, (1, 40))
            # the pair, the right one-sided pair, both points exit
            s[0, :3] = (1.0, 1.5, 5.0)
            lanes = ((2.0, 5.0), (3.0, right), (1.0, 4.0))
        mu[0, :len(lanes)] = [m for m, _ in lanes]
        mu[1, 7] = np.nan
        got = _stencil_mean(self.SQUARES, self.GRID5, mu, s)
        assert got.shape == (3, 40)
        assert got.tobytes() == self.lane_calls(mu, s).tobytes()
        assert got[0, :len(lanes)] == pytest.approx(
            [v for _, v in lanes], abs=1e-12)
        assert np.isnan(got[1, 7]) and np.isfinite(np.delete(got, 47)).all()

    def test_all_interior_input_has_no_edge_lane(self):
        rng = np.random.default_rng(14)
        mu = rng.uniform(1.5, 2.5, (4, 30))
        got = _stencil_mean(self.SQUARES, self.GRID5, mu, 0.5)
        assert got.tobytes() == self.lane_calls(mu, 0.5).tobytes()
        # every lane takes the symmetric pair
        nodes = self.GRID5.nodes
        pair = 0.5 * (np.interp(mu + 0.5, nodes, self.SQUARES)
                      + np.interp(mu - 0.5, nodes, self.SQUARES))
        assert got == pytest.approx(pair, abs=1e-12)


class TestControlGridStep:
    def test_equals_min_of_fixed_control_steps(self):
        # one (control x state) step against the 81 one-control steps of lq,
        # bit for bit, sign bits included
        p = catalog_entry("lq").problem
        grid = Grid1D.for_problem(p, 160)
        field = solve_dpp(p, grid, 160)
        coefs = CoefficientGrid(p, grid)
        rng = np.random.default_rng(9)
        for _ in range(5):
            W = field.values[int(rng.integers(1, field.n_rows))]
            t = float(rng.uniform(0.0, p.horizon))
            rows = [fixed_control_step(W, grid, t, field.dt, p, u)
                    for u in p.u_grid()]
            assert len(rows) == 81
            got = _make_step(coefs, field.dt)(W, t)
            assert got.tobytes() == np.minimum.reduce(rows).tobytes()

    def test_n_u_selects_the_control_grid(self):
        p = catalog_entry("lq").problem
        grid = Grid1D.for_problem(p, 60)
        fine = solve_dpp(p, grid, 30)
        # the 5 controls lie on the 81-point grid and the step is monotone
        coarse = solve_dpp(p, grid, 30, n_u=5)
        assert np.all(coarse.values >= fine.values)
        assert np.any(coarse.values > fine.values)
        # one control: the constant-control semigroup u = u_min
        single = solve_dpp(p, grid, 30, n_u=1)
        assert np.array_equal(
            single.values[0],
            semigroup_apply(single.values[-1], grid, 0.0, p.horizon, 30, p,
                            p.u_min))


class TestSemigroup:
    def test_identity_on_linear_data(self):
        p = plain()
        W = GRID.nodes.copy()
        out = semigroup_apply(W, GRID, 0.0, 0.5, 10, p, 0.0)
        assert np.max(np.abs(out - W)) < 1e-11

    def test_composition_equals_single_pass(self):
        # dyadic times so both routes compute bit-identical substep times
        rng = np.random.default_rng(5)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0),
                  f="-0.1*y", g="0.05*z")
        grid = Grid1D(0.01, 4.0, 120)
        eta = rng.normal(size=120)
        full = semigroup_apply(eta, grid, 0.0, 0.5, 8, p, 0.0)
        mid = semigroup_apply(eta, grid, 0.25, 0.5, 4, p, 0.0)
        again = semigroup_apply(mid, grid, 0.0, 0.25, 4, p, 0.0)
        assert np.array_equal(full, again)

    def test_preconditions(self):
        p = plain()
        with pytest.raises(ValueError):
            semigroup_apply(GRID.nodes, GRID, 0.5, 0.5, 1, p, 0.0)
        with pytest.raises(ValueError):
            semigroup_apply(GRID.nodes, GRID, 0.0, 0.5, 0, p, 0.0)

    @pytest.mark.parametrize("n", [16, 26])
    def test_eta_off_the_grid_is_rejected(self, n):
        # the step reads eta at the grid's nodes and its edge rules at
        # eta[0] and eta[-1], so eta must be one grid row
        p = catalog_entry("lq").problem
        grid = Grid1D.for_problem(p, 21)
        with pytest.raises(ValueError, match=rf"\({n},\).*\(21,\)"):
            semigroup_apply(np.zeros(n), grid, 0.0, 0.5, 4, p, 0.0)


class TestStepPlan:
    """The stencil's plan is built once per scenario per solve when b, h and
    sigma are free of t, else at every step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for name in ("_stencil_plan", "_central_slope"):
            real = getattr(lattice, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(lattice, name, counted)
        return counts

    @pytest.mark.parametrize("name,plans", [("lq", 1), ("bsb-call", 2)])
    def test_one_plan_per_scenario_per_solve(self, calls, name, plans):
        p = catalog_entry(name).problem
        solve_dpp(p, Grid1D.for_problem(p, 40), 20)
        assert calls.get("_stencil_plan") == plans

    def test_sigma_reading_t_plans_every_step(self, calls):
        p = plain(sigma="1+0.1*t", gamma=GammaSet.interval(0.5, 1.0))
        solve_dpp(p, Grid1D.for_problem(p, 40), 20)
        assert calls.get("_stencil_plan") == 20 * 2

    def test_zeta_only_for_a_driver_in_z(self, calls):
        p = catalog_entry("lq").problem
        solve_dpp(p, Grid1D.for_problem(p, 40), 20)
        assert "_central_slope" not in calls
        p = catalog_entry("recursive-g").problem
        solve_dpp(p, Grid1D.for_problem(p, 40), 20)
        assert calls["_central_slope"] == 20


class TestSolveDpp:
    def test_terminal_row_is_payoff(self):
        e = catalog_entry("bsb-call")
        grid = Grid1D(0.01, 4.0, 50)
        field = solve_dpp(e.problem, grid, 10)
        assert np.array_equal(field.values[-1],
                              np.maximum(grid.nodes - 1.0, 0.0))

    def test_constant_payoff_preserved(self):
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0),
                  box=(0.01, 4.0), phi="2.5")
        grid = Grid1D(0.01, 4.0, 60)
        field = solve_dpp(p, grid, 20)
        assert np.all(field.values == 2.5)

    def test_growth_ceiling_abort(self):
        # explosive driver: e^25 x^2 leaves the 1e8 (1 + |x|) envelope
        p = plain(f="25*y", phi="x^2")
        with pytest.raises(GrowthCeilingError):
            solve_dpp(p, GRID, 400)

    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in multiply:RuntimeWarning",
        "ignore:invalid value encountered in add:RuntimeWarning")
    def test_nan_displaced_state_is_rejected(self):
        # mu = x + inf - inf is NaN at every node: the step must return NaN
        # there, not stale memory, and the solve must stop at row 0
        p = ControlProblem(
            horizon=10.0, x_min=-1.0, x_max=1.0, u_min=0.0, u_max=0.0, n_u=1,
            gamma=GammaSet.interval(1.0, 1.0), b="1e308", h="-1e308",
            sigma="1", f="0", g="0", phi="x")
        grid = Grid1D(-1.0, 1.0, 11)
        assert np.isnan(
            fixed_control_step(grid.nodes, grid, 0.0, 10.0, p, 0.0)).all()
        with pytest.raises(GrowthCeilingError) as err:
            solve_dpp(p, grid, 1)
        assert err.value.k == 0

    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in multiply:RuntimeWarning")
    def test_infinite_displaced_state_is_rejected(self):
        # b delta = 1e309 overflows to mu = inf; the endpoint rule used to
        # return the finite row W[-1] = 1 at every node
        p = ControlProblem(
            horizon=10.0, x_min=-1.0, x_max=1.0, u_min=0.0, u_max=0.0, n_u=1,
            gamma=GammaSet.interval(1.0, 1.0), b="1e308", h="0",
            sigma="1", f="0", g="0", phi="x")
        with pytest.raises(GrowthCeilingError) as err:
            solve_dpp(p, Grid1D(-1.0, 1.0, 11), 1)
        assert err.value.k == 0

    def test_infinite_shift_gives_nan(self):
        mu = np.zeros(3)
        out = _stencil_mean(GRID.nodes, GRID, mu, np.array([np.inf, 1.0, 0.0]))
        assert np.isnan(out[0]) and np.all(np.isfinite(out[1:]))

    def test_growth_error_is_the_grids_class(self):
        from grobust import grids
        assert GrowthCeilingError is grids.GrowthCeilingError

    def test_stability_margin_rejection(self):
        p = plain(f="100*y")
        with pytest.raises(ValueError):
            solve_dpp(p, GRID, 100)  # delta * 100 = 1 > 0.5

    def test_lq_value(self):
        e = catalog_entry("lq")
        field = solve_dpp(e.problem, Grid1D(-2.0, 2.0, 201), 100)
        assert field.value_at(0.0, 1.0) == pytest.approx(
            0.5 + math.log(2.0), abs=2e-2)

    def test_classical_reduction_binomial_sum(self):
        # singleton scenario, no drivers: tree value equals the direct
        # binomial summation computed independently
        p = plain(sigma="1", gamma=GammaSet.interval(0.8, 0.8), phi="x^2",
                  box=(-6.0, 6.0))
        K = 6
        delta = p.horizon / K
        step = 0.8 * math.sqrt(delta)
        x0 = 0.3
        expected = sum(
            math.comb(K, j) * 0.5 ** K * (x0 + (2 * j - K) * step) ** 2
            for j in range(K + 1))
        got = solve_dpp_tree(p, x0, K, n_u=1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_call_payoff_binomial_sum(self):
        p = plain(sigma="1", gamma=GammaSet.interval(0.6, 0.6), phi="pos(x-1)",
                  box=(-6.0, 6.0))
        K = 5
        step = 0.6 * math.sqrt(p.horizon / K)
        x0 = 1.0
        expected = sum(
            math.comb(K, j) * 0.5 ** K * max(x0 + (2 * j - K) * step - 1.0, 0.0)
            for j in range(K + 1))
        assert solve_dpp_tree(p, x0, K, n_u=1) == pytest.approx(
            expected, abs=1e-12)

    # computed by the node-by-node recursion that the level-by-level tree
    # replaced; each list runs over K = 2, 3, 4 and, within K, over
    # x0 = 0.9, 1.15, 1.37
    @pytest.mark.parametrize("name,n_u,expected", [
        ("drifted", 3, [
            "0x1.4cfaaa5bf5e7dp-1", "0x1.d2ec0e8108f05p-1",
            "0x1.24655c4697159p+0", "0x1.72d35c496df6fp-1",
            "0x1.d349726f558d2p-1", "0x1.1d1a1990d9f72p+0",
            "0x1.6691ac6682e71p-1", "0x1.e4bba20ebb08cp-1",
            "0x1.29f44147e4bc3p+0"]),
        ("trig", 3, [
            "0x1.025c710854957p+0", "0x1.36306e7e0d522p-1",
            "0x1.c8aaa01e34bfcp-3", "0x1.0194eb4513e53p+0",
            "0x1.373f27da9d239p-1", "0x1.c4bd76fbe9ecfp-3",
            "0x1.01815e76c1d39p+0", "0x1.3747a30da0dfap-1",
            "0x1.c31e7ee77666fp-3"]),
        ("bsb-call", 3, [
            "0x1.9f6f4f5d8e904p-2", "0x1.2cf8e47bc5bfcp-1",
            "0x1.7f09576d9b70dp-1", "0x1.441a3da928cbbp-2",
            "0x1.09077b554f3fbp-1", "0x1.6cb4525ef38ecp-1",
            "0x1.686666666666ap-2", "0x1.12b3333333332p-1",
            "0x1.65dc28f5c28f8p-1"]),
        ("recursive-g", 1, RECURSIVE_G_TREE),
        ("recursive-g", 3, RECURSIVE_G_TREE),
        ("lq", 3, [
            "0x1.cf5c28f5c28f8p+0", "0x1.2947ae147ae14p+1",
            "0x1.703e425aee632p+1", "0x1.cf5c28f5c28f4p+0",
            "0x1.2947ae147ae14p+1", "0x1.703e425aee632p+1",
            "0x1.cf5c28f5c28f6p+0", "0x1.247ae147ae148p+1",
            "0x1.6467381d7dbf4p+1"]),
    ])
    def test_tree_pinned_bits(self, name, n_u, expected):
        p = TREE_PROBLEMS[name]() if name in TREE_PROBLEMS else (
            catalog_entry(name).problem)
        got = [solve_dpp_tree(p, x0, K, n_u=n_u).hex()
               for K in (2, 3, 4) for x0 in (0.9, 1.15, 1.37)]
        assert got == expected

    def test_tree_refuses_more_leaves_than_brute_force_assignments(self):
        # three controls and two scenarios: 12^6 = 3.0e6 leaves pass the
        # cap, 12^7 = 3.6e7 do not.  bsb-call reads no u, so its control
        # axis keeps length 1 and the depth-6 tree holds 4^6 states only
        p = catalog_entry("bsb-call").problem
        assert solve_dpp_tree(p, 1.0, 6, n_u=3) == solve_dpp_tree(p, 1.0, 6,
                                                                  n_u=1)
        with pytest.raises(ValueError, match="exceeds the cap"):
            solve_dpp_tree(p, 1.0, 7, n_u=3)

    def test_tree_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="need K >= 1, got 0"):
            solve_dpp_tree(plain(), 0.0, 0)


class TestBruteForce:
    def test_single_step_sup(self):
        p = plain(sigma="1", gamma=GammaSet.interval(0.5, 1.0), phi="x^2",
                  box=(-4.0, 4.0))
        # one step from 0: sup_q q^2 delta = sigma_hi^2 T
        assert brute_force_value(p, 0.0, 1, 1) == pytest.approx(1.0, abs=1e-14)

    def test_matches_tree_dpp_recursive_drivers(self):
        e = catalog_entry("recursive-g")
        bf = brute_force_value(e.problem, 1.0, 3, 3)
        tv = solve_dpp_tree(e.problem, 1.0, 3, n_u=3)
        assert bf == tv

    def test_matches_tree_dpp_with_active_controls(self):
        p = ControlProblem(
            horizon=1.0, x_min=0.01, x_max=4.0, u_min=-1.0, u_max=1.0, n_u=3,
            gamma=GammaSet.interval(0.5, 1.0),
            b="u", h="0", sigma="x", f="-0.1*y + 0.2*u", g="0.05*z",
            phi="pos(x-1)")
        bf = brute_force_value(p, 1.0, 3, 3)
        tv = solve_dpp_tree(p, 1.0, 3, n_u=3)
        assert bf == tv

    # the tree and brute force share the node arithmetic, so they agree to
    # the last bit also off the catalog (the catalog coefficients included,
    # on another volatility interval and horizon)
    @pytest.mark.parametrize("coefs", [
        dict(b="0.2*x-0.1*u", h="0.3*x", sigma="1.3+0.1*x",
             f="-0.1*y+0.07*z+u^2", g="0.05*z", phi="pos(x-1)"),
        dict(b="0", h="0", sigma="x", f="0", g="0", phi="pos(x-1)"),
    ], ids=["drifted", "bsb-call"])
    @pytest.mark.parametrize("gamma", [(0.5, 1.0), (0.7, 1.3)])
    @pytest.mark.parametrize("x0", [0.9, 1.15, 1.37])
    @pytest.mark.parametrize("K", [2, 3])
    def test_equals_tree_dpp_off_catalog(self, coefs, gamma, x0, K):
        p = ControlProblem(
            horizon=0.7, x_min=0.01, x_max=4.0, u_min=-1.0, u_max=1.0, n_u=2,
            gamma=GammaSet.interval(*gamma), **coefs)
        assert brute_force_value(p, x0, K, 2) == solve_dpp_tree(p, x0, K)

    def test_pinned_bits_off_catalog(self):
        assert (brute_force_value(three_control_problem(), 1.1, 2, 3).hex()
                == "0x1.0722d3eb854ffp-1")

    # the bits below were computed with (control x scenario) assignment
    # tables, before each node choice got its own broadcast axis
    @pytest.mark.parametrize("K,expected", [
        (1, "0x1.242fb95f4c873p-1"), (3, "0x1.03c7b9435a832p-1")])
    def test_pinned_bits_off_catalog_depths(self, K, expected):
        assert brute_force_value(three_control_problem(), 1.1, K,
                                 3).hex() == expected

    @pytest.mark.parametrize("name,K,n_u,x0,expected", [
        ("bsb-call", 1, 3, 0.8, "0x1.3333333333334p-2"),
        ("bsb-call", 1, 3, 1.3, "0x1.999999999999ap-1"),
        ("bsb-call", 2, 3, 0.8, "0x1.54d4b8532963ep-2"),
        ("bsb-call", 2, 3, 1.3, "0x1.64ecd5c391a13p-1"),
        ("bsb-call", 3, 3, 0.8, "0x1.11de6fb2ceee0p-2"),
        ("bsb-call", 3, 3, 1.3, "0x1.4cfd53c49c5e6p-1"),
        ("bsb-call", 4, 1, 0.8, "0x1.1cccccccccccep-2"),
        ("bsb-call", 4, 1, 1.3, "0x1.4b66666666666p-1"),
        ("bsb-concave", 1, 3, 0.8, "-0x1.99999999999a0p-4"),
        ("bsb-concave", 1, 3, 1.3, "-0x1.e666666666668p-2"),
        ("bsb-concave", 2, 3, 0.8, "-0x1.dcdca3d985fb0p-4"),
        ("bsb-concave", 2, 3, 1.3, "-0x1.a82008f6c4d47p-2"),
        ("bsb-concave", 3, 3, 0.8, "-0x1.6c93d3c31d8a4p-4"),
        ("bsb-concave", 3, 3, 1.3, "-0x1.b1cead38a4a0bp-2"),
        ("bsb-concave", 4, 1, 0.8, "-0x1.a400000000001p-4"),
        ("bsb-concave", 4, 1, 1.3, "-0x1.a960000000000p-2"),
        ("lq", 1, 3, 0.8, "0x1.a3d70a3d70a3ep+0"),
        ("lq", 1, 3, 1.3, "0x1.5851eb851eb84p+1"),
        ("lq", 2, 3, 0.8, "0x1.a3d70a3d70a3fp+0"),
        ("lq", 2, 3, 1.3, "0x1.5851eb851eb87p+1"),
        ("lq", 3, 3, 0.8, "0x1.a3d70a3d70a3ep+0"),
        ("lq", 3, 3, 1.3, "0x1.5851eb851eb84p+1"),
        ("lq", 4, 1, 0.8, "0x1.b3d70a3d70a3ep+4"),
        ("lq", 4, 1, 1.3, "0x1.84a3d70a3d70ap+4"),
        ("recursive-g", 1, 3, 0.8, "0x1.23d70a3d70a3ep-2"),
        ("recursive-g", 1, 3, 1.3, "0x1.851eb851eb852p-1"),
        ("recursive-g", 2, 3, 0.8, "0x1.4aebdc19b6818p-2"),
        ("recursive-g", 2, 3, 1.3, "0x1.5a8c2eda08e78p-1"),
        ("recursive-g", 3, 3, 0.8, "0x1.0e3752b60f53bp-2"),
        ("recursive-g", 3, 3, 1.3, "0x1.44840e8fb12a1p-1"),
        ("recursive-g", 4, 1, 0.8, "0x1.1851eb851eb86p-2"),
        ("recursive-g", 4, 1, 1.3, "0x1.43c28f5c28f5cp-1"),
    ])
    def test_pinned_bits_catalog(self, name, K, n_u, x0, expected):
        p = catalog_entry(name).problem
        assert brute_force_value(p, x0, K, n_u).hex() == expected

    def test_single_valued_choices_take_no_axis(self):
        # lq with one control has one value per choice at each of the 63
        # nodes of depth 6; an axis per choice would need 126 axes, past
        # numpy's limit of 64
        p = catalog_entry("lq").problem
        bf = brute_force_value(p, 1.0, 6, 1)
        assert bf == solve_dpp_tree(p, 1.0, 6, n_u=1) == 26.0

    def test_depth_cap(self):
        e = catalog_entry("lq")
        with pytest.raises(ValueError):
            brute_force_value(e.problem, 0.0, 4, 3)

    def test_size_check_is_brute_forces_own(self):
        # (controls, scenarios) ^ (2^K - 1); the refusal is brute force's
        p = three_control_problem()
        assert brute_force_size(p, 3, 3) == (3 ** 7, 2 ** 7)
        assert brute_force_size(catalog_entry("lq").problem, 4, 1) == (1, 1)
        with pytest.raises(ValueError) as size:
            brute_force_size(p, 4, 3)
        with pytest.raises(ValueError) as value:
            brute_force_value(p, 1.1, 4, 3)
        assert str(size.value) == str(value.value) == (
            "enumeration of 14348907 x 32768 adapted assignments exceeds "
            "the cap 6e+06; reduce K or n_u")

    def test_classical_expectation_no_optimization(self):
        p = plain(sigma="1", gamma=GammaSet.interval(0.7, 0.7), phi="x^2",
                  box=(-5.0, 5.0))
        bf = brute_force_value(p, 0.4, 3, 1)
        tv = solve_dpp_tree(p, 0.4, 3, n_u=1)
        assert bf == tv
        assert bf == pytest.approx(0.4 ** 2 + 0.49, abs=1e-12)


class TestDppResidual:
    def test_zero_on_solver_output(self):
        e = catalog_entry("bsb-call")
        field = solve_dpp(e.problem, Grid1D(0.01, 4.0, 100), 100)
        assert dpp_residual(field, e.problem, 40, 41) == 0.0
        assert dpp_residual(field, e.problem, 10, 15) == 0.0

    def test_zero_on_solver_output_with_its_control_grid(self, tmp_path):
        # the record's 5 controls, not the problem's 81
        p = catalog_entry("lq").problem
        field = solve_dpp(p, Grid1D.for_problem(p, 40), 20, n_u=5)
        assert field.solve == SolveRecord("lattice", 5, p.horizon / 20)
        assert dpp_residual(field, p, 0, 1) == 0.0
        assert dpp_residual(field, p, 3, 20) == 0.0
        # a CSV carries no record: the replay takes the problem's 81 controls
        path = tmp_path / "field.csv"
        write_field_csv(field, path)
        bare = read_field_csv(path)
        assert dpp_residual(bare, p, 3, 20) > 0.0

    def test_zero_on_constant_field_without_drivers(self):
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0),
                  box=(0.01, 4.0), phi="1.5")
        grid = Grid1D(0.01, 4.0, 60)
        field = solve_dpp(p, grid, 30)
        prof = dpp_residual_profile(field, p, 5, 9)
        assert np.array_equal(prof, np.zeros(grid.n_x))

    def test_row_bounds_checked(self):
        e = catalog_entry("bsb-call")
        field = solve_dpp(e.problem, Grid1D(0.01, 4.0, 50), 10)
        with pytest.raises(ValueError):
            dpp_residual(field, e.problem, 5, 5)
        with pytest.raises(ValueError):
            dpp_residual(field, e.problem, 9, 11)
