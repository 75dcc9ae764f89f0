"""Lattice operator laws, DPP solver, tree oracles."""

import math

import numpy as np
import pytest

from grobust.gexp import GammaSet
from grobust.grids import Grid1D
from grobust.lattice import (GrowthCeilingError, _stencil_mean, _step_law,
                             _successors, brute_force_value, dpp_residual,
                             dpp_residual_profile, one_step_gexp,
                             semigroup_apply, solve_dpp, solve_dpp_tree)
from grobust.problem import ControlProblem, catalog_entry


def plain(sigma="1", gamma=None, f="0", g="0", b="0", h="0", phi="x",
          box=(-3.0, 3.0), controls=(0.0, 0.0, 1)):
    return ControlProblem(
        horizon=1.0, x_min=box[0], x_max=box[1],
        u_min=controls[0], u_max=controls[1], n_u=controls[2],
        gamma=gamma or GammaSet.interval(1.0, 1.0),
        b=b, h=h, sigma=sigma, f=f, g=g, phi=phi)


GRID = Grid1D(-3.0, 3.0, 241)


class TestOneStep:
    def test_martingale_preserved_on_linear_data(self):
        p = plain()
        W = GRID.nodes.copy()
        out = one_step_gexp(W, GRID, 0.0, 0.01, p, 0.0)
        # interior nodes reproduce x exactly up to rounding; boundary nodes
        # use the mean-matched closure which is also exact on linear data
        assert np.max(np.abs(out - W)) < 1e-12

    def test_quadratic_picks_high_volatility(self):
        p = plain(gamma=GammaSet.interval(0.5, 1.0))
        W = GRID.nodes ** 2
        out = one_step_gexp(W, GRID, 0.0, 0.01, p, 0.0)
        assert np.max(np.abs(out - (W + 0.01))[5:-5]) < 1e-12

    def test_concave_quadratic_picks_low_volatility(self):
        # sup over q of (-x^2 - q^2 delta) sits at the low endpoint:
        # -x^2 - 0.25 delta (matches the 1-D closed form with a = -2)
        p = plain(gamma=GammaSet.interval(0.5, 1.0))
        W = -GRID.nodes ** 2
        out = one_step_gexp(W, GRID, 0.0, 0.01, p, 0.0)
        assert np.max(np.abs(out - (W - 0.25 * 0.01))[5:-5]) < 1e-12

    def test_pure_driver_ode_step(self):
        p = plain(sigma="0", f="-y", gamma=GammaSet.interval(0.5, 1.0))
        out = one_step_gexp(np.ones(GRID.n_x), GRID, 0.0, 0.01, p, 0.0)
        assert np.array_equal(out, np.full(GRID.n_x, 1.0 - 0.01))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            one_step_gexp(np.ones(GRID.n_x), GRID, 0.0, 0.0, plain(), 0.0)

    def test_constant_preservation_exact_everywhere(self):
        rng = np.random.default_rng(0)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 100)
        for _ in range(50):
            c = float(rng.uniform(-5, 5))
            out = one_step_gexp(np.full(100, c), grid, 0.3, 0.02, p, 0.0)
            assert np.array_equal(out, np.full(100, c))

    def test_pointwise_monotonicity(self):
        rng = np.random.default_rng(1)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 80)
        for _ in range(200):
            w1 = rng.normal(size=80)
            w2 = w1 + rng.uniform(0.0, 1.0, size=80)
            o1 = one_step_gexp(w1, grid, 0.1, 0.01, p, 0.0)
            o2 = one_step_gexp(w2, grid, 0.1, 0.01, p, 0.0)
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
            assert np.all(one_step_gexp(w2, grid, 0.1, delta, p, 0.0)
                          >= one_step_gexp(w1, grid, 0.1, delta, p, 0.0))

    def test_sublinearity_in_terminal_data(self):
        rng = np.random.default_rng(3)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 80)
        for _ in range(200):
            w1 = rng.normal(size=80)
            w2 = rng.normal(size=80)
            both = one_step_gexp(w1 + w2, grid, 0.1, 0.01, p, 0.0)
            split = (one_step_gexp(w1, grid, 0.1, 0.01, p, 0.0)
                     + one_step_gexp(w2, grid, 0.1, 0.01, p, 0.0))
            assert np.all(both <= split + 1e-12)

    def test_positive_homogeneity_in_terminal_data(self):
        rng = np.random.default_rng(4)
        p = plain(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        grid = Grid1D(0.01, 4.0, 80)
        for _ in range(200):
            w = rng.normal(size=80)
            lam = float(rng.uniform(0.0, 4.0))
            scaled = one_step_gexp(lam * w, grid, 0.1, 0.01, p, 0.0)
            base = one_step_gexp(w, grid, 0.1, 0.01, p, 0.0)
            assert np.allclose(scaled, lam * base, rtol=1e-13, atol=1e-13)

    def test_interior_volatility_points_do_not_move_the_sup(self):
        # convex/concave rows: the endpoint scenarios already attain the sup
        e = catalog_entry("bsb-call")
        grid = Grid1D(0.01, 4.0, 200)
        W = np.maximum(grid.nodes - 1.0, 0.0)
        two = one_step_gexp(W, grid, 0.9, 0.0025, e.problem, 0.0, n_q=2)
        five = one_step_gexp(W, grid, 0.9, 0.0025, e.problem, 0.0, n_q=5)
        assert np.max(np.abs(two - five)) <= 1e-9


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


class TestSemigroup:
    def test_single_substep_is_one_step(self):
        p = plain(gamma=GammaSet.interval(0.5, 1.0))
        W = np.abs(GRID.nodes)
        a = semigroup_apply(W, GRID, 0.0, 0.05, 1, p, 0.0)
        b = one_step_gexp(W, GRID, 0.0, 0.05, p, 0.0)
        assert np.array_equal(a, b)

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

    def test_policy_forms(self):
        p = plain(controls=(-1.0, 1.0, 3), b="u", f="u^2")
        W = GRID.nodes ** 2
        constant = semigroup_apply(W, GRID, 0.0, 0.1, 2, p, 0.0)
        minimized = semigroup_apply(W, GRID, 0.0, 0.1, 2, p, "min")
        assert np.all(minimized <= constant + 1e-14)

    def test_preconditions(self):
        p = plain()
        with pytest.raises(ValueError):
            semigroup_apply(GRID.nodes, GRID, 0.5, 0.5, 1, p, 0.0)
        with pytest.raises(ValueError):
            semigroup_apply(GRID.nodes, GRID, 0.0, 0.5, 0, p, 0.0)


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
        p = plain(f="25*y", phi="x^2")  # explosive driver
        with pytest.raises((GrowthCeilingError, ValueError)):
            solve_dpp(p, GRID, 400, growth_ceiling=10.0)

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
        assert np.isnan(one_step_gexp(grid.nodes, grid, 0.0, 10.0, p, 0.0)).all()
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
        got = solve_dpp_tree(p, x0, K, n_u=1, n_q=1)
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
        assert solve_dpp_tree(p, x0, K, n_u=1, n_q=1) == pytest.approx(
            expected, abs=1e-12)


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

    def test_depth_cap(self):
        e = catalog_entry("lq")
        with pytest.raises(ValueError):
            brute_force_value(e.problem, 0.0, 4, 3)

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
