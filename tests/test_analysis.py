"""Closed-form oracles, rate checks, Monte Carlo, regularity estimation."""

import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from grobust.analysis import (_is_driftless_constant_vol, _scenario_levels,
                              _step_signs, bs_value, closed_form_field,
                              delta32_check, f0_ode_solve, fit_loglog_slope,
                              lq_closed_form_residual, lq_value,
                              mc_lower_bound, oracle_probe_value,
                              regularity_report, sde_moment_scaling,
                              verify_oracle_tag)
from grobust.cli import _write_json
from grobust.gexp import GammaSet
from grobust.grids import Grid1D, ValueField
from grobust.problem import ControlProblem, catalog, catalog_entry


def simple(sigma="1", gamma=None, f="0", b="0", phi="x", box=(-3.0, 3.0),
           h="0", g="0"):
    return ControlProblem(
        horizon=1.0, x_min=box[0], x_max=box[1], u_min=0.0, u_max=0.0, n_u=1,
        gamma=gamma or GammaSet.interval(1.0, 1.0),
        b=b, h=h, sigma=sigma, f=f, g=g, phi=phi)


class TestBsValue:
    def test_at_the_money_unit_vol(self):
        # equals 2 N(1/2) - 1; frozen from a high-precision normal cdf
        assert bs_value(1.0, 1.0, 1.0, 1.0) == pytest.approx(
            0.3829249225480262, abs=1e-12)

    def test_at_the_money_half_vol(self):
        assert bs_value(1.0, 1.0, 0.5, 1.0) == pytest.approx(
            0.1974126513658474, abs=1e-12)

    def test_vanishing_strike_limit(self):
        assert bs_value(1.0, 1e-12, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_vol(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            spot = rng.uniform(0.3, 3.0)
            strike = rng.uniform(0.3, 3.0)
            tau = rng.uniform(0.1, 2.0)
            v1 = rng.uniform(0.05, 1.0)
            v2 = v1 + rng.uniform(0.0, 1.0)
            assert bs_value(spot, strike, v1, tau) <= bs_value(
                spot, strike, v2, tau) + 1e-14

    def test_convex_in_spot(self):
        for s in np.linspace(0.4, 2.4, 21):
            mid = bs_value(s, 1.0, 0.7, 0.8)
            avg = 0.5 * (bs_value(s - 0.1, 1.0, 0.7, 0.8)
                         + bs_value(s + 0.1, 1.0, 0.7, 0.8))
            assert mid <= avg + 1e-14

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bs_value(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bs_value(1.0, 1.0, 1.0, 0.0)


class TestLqValue:
    def test_probe_value(self):
        assert lq_value(0.0, 1.0, 1.0, 1.0) == pytest.approx(
            0.5 + math.log(2.0), abs=1e-15)

    def test_terminal_condition(self):
        for x in (-2.0, 0.0, 1.3):
            assert lq_value(1.0, x, 1.0, 0.7) == x * x

    def test_no_noise_no_displacement(self):
        assert lq_value(0.0, 0.0, 1.0, 0.0) == 0.0

    def test_closed_form_satisfies_reduced_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = rng.uniform(0.0, 1.0)
            x = rng.uniform(-2.0, 2.0)
            s = rng.uniform(0.2, 1.5)
            assert abs(lq_closed_form_residual(t, x, 1.0, s)) <= 1e-10


class TestF0Ode:
    def test_constant_generator(self):
        p = simple()
        assert f0_ode_solve(p, 0.5, 0.2, 0.1, "x^2", 64) == pytest.approx(
            0.1, abs=1e-8)

    def test_concave_generator_interval(self):
        p = simple(gamma=GammaSet.interval(0.5, 1.0))
        assert f0_ode_solve(p, 0.5, 0.2, 0.1, "-(x^2)", 64) == pytest.approx(
            -0.025, abs=1e-8)

    @pytest.mark.parametrize("h, g, expected", [("1", "0", 0.2),
                                                 ("0", "0.5", 0.15)])
    def test_bracket_terms_enter_the_generator(self, h, g, expected):
        # F0 = G(sigma^2 phi_xx + 2 h phi_x + 2 g) = (2 + 4h + 2g) / 2 at
        # x = 0.5 for phi = x^2, over a window of 0.1
        p = simple(h=h, g=g)
        assert f0_ode_solve(p, 0.5, 0.2, 0.1, "x^2", 64) == pytest.approx(
            expected, abs=1e-8)

    def test_rk4_self_convergence_fourth_order(self):
        p = simple(f="t*y")
        ref = f0_ode_solve(p, 0.5, 0.0, 1.0, "x^2", 1024)
        errs = [abs(f0_ode_solve(p, 0.5, 0.0, 1.0, "x^2", n) - ref)
                for n in (8, 16, 32)]
        for e0, e1 in zip(errs, errs[1:]):
            assert 12.0 <= e0 / e1 <= 20.0

    def test_rejects_bad_inputs(self):
        p = simple()
        with pytest.raises(ValueError):
            f0_ode_solve(p, 0.5, 0.2, -0.1, "x^2", 16)
        with pytest.raises(ValueError, match="test function may use"):
            f0_ode_solve(p, 0.5, 0.2, 0.1, "x+u", 16)


class TestDelta32:
    def test_slope_fitter_exact_on_synthetic_power(self):
        deltas = [0.1, 0.05, 0.025, 0.0125]
        assert fit_loglog_slope(deltas, [d ** 1.5 for d in deltas]) == (
            pytest.approx(1.5, abs=1e-12))

    def test_constant_coefficients_hit_noise_floor(self):
        p = simple()
        rep = delta32_check(p, 0.5, 0.0, "x^2", [0.1, 0.05, 0.025, 0.0125])
        assert rep.below_noise_floor and rep.passed
        assert max(rep.defects) < 1e-8

    @pytest.mark.parametrize("f, g", [("0", "0.5"), ("0", "0.25*z"),
                                      ("0", "0.5*y"), ("-0.1*y", "0.5")])
    def test_quadratic_variation_drivers_pass(self, f, g):
        # drivers that run in the quadratic variation: F0 must carry 2 g
        # inside the generator, else the defect decays like delta only
        rep = delta32_check(simple(f=f, g=g), 0.5, 0.0, "x^2",
                            [0.1, 0.05, 0.025, 0.0125])
        assert rep.passed, rep

    def test_requires_decreasing_windows(self):
        p = simple()
        with pytest.raises(ValueError):
            delta32_check(p, 0.5, 0.0, "x^2", [0.1, 0.1, 0.05, 0.025])
        with pytest.raises(ValueError):
            delta32_check(p, 0.5, 0.0, "x^2", [0.1, 0.05])

    def test_rejects_points_outside_the_domain(self):
        # bsb-call's box is [0.01, 4]: x = 9 used to be extrapolated into
        # defects near 50 and a slope of 0.11, with no error
        p = catalog_entry("bsb-call").problem
        windows = [0.1, 0.05, 0.025, 0.0125]
        with pytest.raises(ValueError, match="x=9.0 outside the state box"):
            delta32_check(p, 9.0, 0.0, "x^2", windows)
        # the largest window ends past T = 1
        with pytest.raises(ValueError, match="outside the horizon"):
            delta32_check(p, 1.0, 0.95, "x^2", windows)

    def test_alignment_reads_the_coefficients_exactly(self):
        # b = pos(x - 3.9) vanishes on all but the top 2.5% of the box,
        # where eight random samples once found it zero
        assert _is_driftless_constant_vol(simple(box=(0.01, 4.0))) == 1.0
        assert _is_driftless_constant_vol(
            simple(b="pos(x-3.9)", box=(0.01, 4.0))) is None

    def test_rejects_a_test_function_beyond_t_and_x(self):
        windows = [0.1, 0.05, 0.025, 0.0125]
        for phi in ("x+u", "y", "z*x"):
            with pytest.raises(ValueError, match="test function may use"):
                delta32_check(simple(), 0.5, 0.0, phi, windows)


class TestMonteCarlo:
    def test_martingale_payoff(self):
        p = simple(gamma=GammaSet.interval(0.5, 1.0), box=(-4.0, 4.0))
        res = mc_lower_bound(p, 0.3, "0", [0.8], 5000, 100, seed=3)
        assert abs(res.mean - 0.3) <= 3.0 * res.stderr

    def test_bit_for_bit_reproducible(self):
        e = catalog_entry("bsb-call")
        a = mc_lower_bound(e.problem, 1.0, "0", [1.0], 2000, 50, seed=11)
        b = mc_lower_bound(e.problem, 1.0, "0", [1.0], 2000, 50, seed=11)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_seed_changes_result(self):
        e = catalog_entry("bsb-call")
        a = mc_lower_bound(e.problem, 1.0, "0", [1.0], 2000, 50, seed=11)
        b = mc_lower_bound(e.problem, 1.0, "0", [1.0], 2000, 50, seed=12)
        assert a.mean != b.mean

    def test_scenario_outside_set_rejected(self):
        e = catalog_entry("bsb-call")
        with pytest.raises(ValueError):
            mc_lower_bound(e.problem, 1.0, "0", [1.5], 2000, 50, seed=0)

    def test_path_floor(self):
        e = catalog_entry("bsb-call")
        with pytest.raises(ValueError):
            mc_lower_bound(e.problem, 1.0, "0", [1.0], 10, 50, seed=0)

    def test_inputs_rejected(self):
        p = catalog_entry("bsb-call").problem
        for args, msg in (
                (("0", [], 2000, 50), "q_profile must be nonempty"),
                (("y", [1.0], 2000, 50), "feedback policy may use"),
                (("0", [1.0], 2000, 0), "need K >= 1")):
            with pytest.raises(ValueError, match=msg):
                mc_lower_bound(p, 1.0, *args, seed=0)

    def test_scenario_levels_take_the_range_rule(self):
        # check_range's slack: 1e-12 times the span of [0.5, 1]
        p = simple(gamma=GammaSet.interval(0.5, 1.0), box=(-4.0, 4.0))
        mc_lower_bound(p, 0.3, "0", [1.0 + 1e-13], 1000, 2, seed=0)
        with pytest.raises(ValueError, match=r"q=1.000000000001 outside "
                           r"the volatility set \[0.5, 1.0\]"):
            mc_lower_bound(p, 0.3, "0", [1.0 + 1e-12], 1000, 2, seed=0)

    def test_scenario_levels_exact_at_slice_boundaries(self):
        # step k starts at k T / K and reads slice m k // K: a step that
        # starts on a slice boundary reads the slice it starts, which the
        # float map int(m (k delta) / T) missed at these steps
        p = catalog_entry("recursive-g").problem  # T = 1, set [0.5, 1]
        per_step = np.linspace(0.5, 1.0, 98).tolist()
        assert _scenario_levels(p, per_step, 98) == per_step
        assert _scenario_levels(p, [0.5, 1.0], 98)[48:50] == [0.5, 1.0]
        five = [0.5, 0.6, 0.7, 0.8, 0.9]
        assert _scenario_levels(p, five, 35) == [five[k // 7]
                                                 for k in range(35)]

    def test_one_point_set_forgives_round_off(self):
        # lq's set is [1, 1]: one ulp above passes, 1e-3 above does not
        p = catalog_entry("lq").problem
        mc_lower_bound(p, 0.5, "0", [1.0000000000000002], 1000, 2, seed=0)
        with pytest.raises(ValueError, match=r"q=1.001 outside the "
                           r"volatility set \[1.0, 1.0\]"):
            mc_lower_bound(p, 0.5, "0", [1.001], 1000, 2, seed=0)

    def test_nonfinite_node_value_rejected(self):
        # f = 0/0 is NaN at the start state x = 1: the sweep raises, as the
        # tree and brute force do, where it once returned a NaN mean
        p = simple(sigma="x", f="(x-1)/(x-1)", phi="pos(x-1)",
                   gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        with pytest.raises(ValueError, match="non-finite node value"):
            mc_lower_bound(p, 1.0, "0", [1.0], 1000, 4, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, 2 ** 64 - 1])
    @pytest.mark.parametrize("k", [0, 1, 7, 199])
    def test_step_signs_read_the_philox_words_bit_by_bit(self, seed, k):
        n_paths = 1237  # not a multiple of the 64 bits of a word
        # a key given as a Python list past 2**63 goes through float64
        raw = np.random.Philox(key=np.array([seed, k], dtype=np.uint64)
                               ).random_raw((n_paths + 63) // 64)
        ref = np.array([(int(raw[i // 64]) >> (i % 64)) & 1
                        for i in range(n_paths)]) * 2.0 - 1.0
        got = _step_signs(seed, k, n_paths)
        assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_step_signs_of_a_path_do_not_depend_on_the_path_count(self):
        for k in (0, 5):
            assert np.array_equal(_step_signs(9, k, 4000)[:1000],
                                  _step_signs(9, k, 1000))

    @pytest.mark.parametrize("name,mean,stderr", [
        ("bsb-call", 0.26025737044195946, 0.009050641405194914),
        ("recursive-g", 0.23548471794083484, 0.0081891542009615)])
    def test_lower_bound_pinned(self, name, mean, stderr):
        res = mc_lower_bound(catalog_entry(name).problem, 1.0, "0",
                             [0.5, 0.75], 4000, 200, seed=5)
        assert (res.mean, res.stderr) == (mean, stderr)

    # computed from a stored (K+1) x n_paths state array, not from the
    # checkpoint replay; K = 1, 7, 8, 9, 16 and 17 sit on and off the
    # checkpoint stride ceil(sqrt(K))
    @pytest.mark.parametrize("case,K,mean,stderr", [
        ("rg", 1, "0x1.ccccccccccccep-3", "0x1.d287b720f2c1dp-8"),
        ("rg", 7, "0x1.ccd86a0138042p-3", "0x1.e550722866676p-7"),
        ("rg", 8, "0x1.de113d713b73dp-3", "0x1.fc0923d391b28p-7"),
        ("rg", 9, "0x1.a780bc5c7b4a0p-3", "0x1.d3404c34a4dd7p-7"),
        ("rg", 16, "0x1.a51f8eda573bdp-3", "0x1.cd6485d770690p-7"),
        ("rg", 17, "0x1.b3bb058cc3056p-3", "0x1.e3203fca1ddaap-7"),
        ("lq", 1, "0x1.0000000000000p+1", "0x0.0p+0"),
        ("lq", 7, "0x1.53c97023c5101p+0", "0x1.27482c0e6e376p-5"),
        ("lq", 8, "0x1.51db2b93573f4p+0", "0x1.2ae02b8b421c6p-5"),
        ("lq", 9, "0x1.488abe741929ep+0", "0x1.224c8ceea027dp-5"),
        ("lq", 16, "0x1.42a0deda41b9ep+0", "0x1.1a2ff61eb286bp-5"),
        ("lq", 17, "0x1.45cfb7e8511f0p+0", "0x1.21507c1959fb5p-5"),
        # b and h read u and the policy reads t only: a 0-d control meets
        # the n-path states (computed when every value was broadcast to
        # the paths)
        ("mixed", 1, "0x1.d23d70a3d70a8p-2", "0x1.a9b570b4771dep-8"),
        ("mixed", 7, "0x1.366f60b0d087bp-2", "0x1.4c7a12123e5cep-7"),
        ("mixed", 16, "0x1.299f572718119p-2", "0x1.4d21a8ca99b34p-7"),
    ])
    def test_checkpointed_sweep_pinned(self, case, K, mean, stderr):
        name, policy, profile = {
            "rg": ("recursive-g", "0", [0.5, 0.75]),
            "lq": ("lq", "-x", [1.0]),
            "mixed": ("mixed", "0.5-t", [0.5, 1.0])}[case]
        p = (ControlProblem(
            horizon=1.0, x_min=0.01, x_max=4.0, u_min=-1.0, u_max=1.0, n_u=3,
            gamma=GammaSet.interval(0.5, 1.0), b="0.1*u", h="0.05*u*x",
            sigma="0.8", f="-0.1*y+u^2", g="0.05*z", phi="pos(x-1)")
             if name == "mixed" else catalog_entry(name).problem)
        res = mc_lower_bound(p, 1.0, policy, profile, 1000, K, seed=5)
        assert (res.mean.hex(), res.stderr.hex()) == (mean, stderr)

    # q = sigma_hi is recursive-g's worst case (ROADMAP item 16), so its
    # scenario value is V(0, 1) = exp(-0.1) bs_value(exp(0.05), 1, 1, 1) =
    # 0.378971; the sweep reads 0.346358 +- 0.005099, 6.4 stderr low
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 22: the sweep backs "
                       "up with Z = 0")
    def test_worst_profile_reads_the_closed_form(self):
        p = catalog_entry("recursive-g").problem
        res = mc_lower_bound(p, 1.0, "0", [1.0], 40000, 100, 5)
        value = math.exp(-0.1) * bs_value(math.exp(0.05), 1.0, 1.0, 1.0)
        assert abs(res.mean - value) <= 3.0 * res.stderr

    def test_keeps_no_state_row_per_step(self):
        # a (K+1) x n_paths float64 array alone would reach 1.0 here
        n_paths, K = 4000, 200
        p = catalog_entry("recursive-g").problem
        tracemalloc.start()
        try:
            mc_lower_bound(p, 1.0, "0", [1.0], n_paths, K, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (K + 1) * n_paths * 8

    def test_moment_scaling_within_factor_two(self):
        e = catalog_entry("bsb-call")
        ms = sde_moment_scaling(e.problem, 1.0, 1.0, 64, n_paths=2000, seed=7)
        for frac in (0.25, 0.5, 1.0):
            ratio = ms[(128, frac)] / ms[(64, frac)]
            assert 0.5 <= ratio <= 2.0
        # pinned like the lower bounds above
        assert ms == {(64, 0.25): 0.9102935817204557,
                      (64, 0.5): 1.1350039274277783,
                      (64, 1.0): 1.7047234413797914,
                      (128, 0.25): 0.9656936032837896,
                      (128, 0.5): 1.2069276674570792,
                      (128, 1.0): 1.7090560874576235}


class TestRegularity:
    def test_linear_field(self):
        grid = Grid1D(-1.0, 1.0, 21)
        vals = np.tile(grid.nodes, (11, 1))
        field = ValueField(grid=grid, dt=0.1, values=vals)
        rep = regularity_report(field)
        assert rep.lip_x == pytest.approx(1.0, rel=1e-12)
        assert rep.holder_t == 0.0
        assert rep.growth <= 1.0

    def test_square_root_of_time_field(self):
        grid = Grid1D(-1.0, 1.0, 11)
        K = 200
        dt = 1.0 / K
        ts = dt * np.arange(K + 1)
        vals = np.sqrt(1.0 - ts)[:, None] * np.ones((1, 11))
        field = ValueField(grid=grid, dt=dt, values=vals)
        rep = regularity_report(field)
        assert rep.lip_x == 0.0
        assert rep.holder_t == pytest.approx(1.0, abs=0.05)


class TestOracleBookkeeping:
    def test_write_json_refuses_nonfinite_and_leaves_no_file(self, tmp_path):
        # the CLI writes every artifact as strict JSON, encoded before the
        # file is opened: a refused value leaves no partial file
        path = tmp_path / "oracle.json"
        with pytest.raises(ValueError):
            _write_json(str(path), {"a": 1, "b": [1, 2, math.inf]})
        assert not path.exists()

    def test_catalog_tags_verify(self):
        for entry in catalog():
            assert verify_oracle_tag(entry.problem, entry.oracle), entry.name

    @pytest.mark.parametrize("change", [
        {"sigma": "2"}, {"u_min": -0.1, "u_max": 0.1}, {"u_min": -1.9}],
        ids=["sigma-2", "u-box-0.1", "u_min-1.9"])
    def test_lq_riccati_needs_unit_sigma_and_admissible_feedback(self,
                                                                 change):
        # the closed form prices sigma = 1 with u* = -x/(1+T-t) in the box
        lq = catalog_entry("lq")
        assert verify_oracle_tag(lq.problem, "lq-riccati")
        p = dataclasses.replace(lq.problem, **change)
        assert not verify_oracle_tag(p, "lq-riccati")

    def test_tag_mismatch_detected(self):
        assert not verify_oracle_tag(catalog_entry("lq").problem,
                                     "bsb-convex")

    def test_bsb_concave_is_the_negated_low_volatility_call(self):
        p = catalog_entry("bsb-concave").problem
        for t, x in ((0.0, 1.0), (0.5, 1.5), (0.9, 0.7)):
            assert oracle_probe_value("bsb-concave", p, t, x) == -bs_value(
                x, 1.0, 0.5, 1.0 - t)
        assert oracle_probe_value("bsb-concave", p, 1.0, 1.5) == -0.5
        assert oracle_probe_value("bsb-concave", p, 1.0, 0.5) == 0.0

    @pytest.mark.parametrize("tag,name", [("bsb-convex", "bsb-call"),
                                          ("bsb-concave", "bsb-concave")])
    def test_bsb_value_is_zero_at_and_below_zero(self, tag, name):
        # on a box that reaches x <= 0, sigma = x keeps a state there, below
        # the strike: the value is the payoff 0 (bs_value used to raise)
        p = dataclasses.replace(catalog_entry(name).problem, x_min=-1.0)
        assert verify_oracle_tag(p, tag)
        for t in (0.0, 0.5, 1.0):
            for x in (-1.0, -0.5, 0.0):
                assert oracle_probe_value(tag, p, t, x) == 0.0

    @pytest.mark.parametrize("tag,name", [("bsb-convex", "bsb-call"),
                                          ("lq-riccati", "lq")])
    @pytest.mark.parametrize("t", [1.5, -0.5])
    def test_times_outside_the_horizon_rejected(self, tag, name, t):
        # bsb-convex used to return the payoff at t > T and the formula at
        # tau = T - t for t < 0
        with pytest.raises(ValueError, match="outside the horizon"):
            oracle_probe_value(tag, catalog_entry(name).problem, t, 1.2)

    @pytest.mark.parametrize("tag,name,payoff", [
        ("bsb-convex", "bsb-call", 1.2 - 1.0), ("lq-riccati", "lq", 1.2 ** 2)])
    def test_round_off_past_the_horizon_forgiven(self, tag, name, payoff):
        p = catalog_entry(name).problem
        t = p.horizon * (1.0 + 1e-13)
        assert oracle_probe_value(tag, p, t, 1.2) == payoff

    @pytest.mark.parametrize("tag,name", [("bsb-convex", "bsb-call"),
                                          ("lq-riccati", "lq")])
    def test_states_outside_the_box_rejected(self, tag, name):
        # the closed forms are defined off the box too, but a grid field
        # is not, and validate rejects the same probe
        p = catalog_entry(name).problem
        for x in (9.0, p.x_min - 0.1):
            with pytest.raises(ValueError, match="outside the state box"):
                oracle_probe_value(tag, p, 0.0, x)

    @pytest.mark.parametrize("tag,name", [("bsb-convex", "bsb-call"),
                                          ("lq-riccati", "lq")])
    def test_round_off_past_the_box_forgiven(self, tag, name):
        p = catalog_entry(name).problem
        x = p.x_max + 1e-13 * (p.x_max - p.x_min)
        assert math.isfinite(oracle_probe_value(tag, p, 0.0, x))

    def test_lq_last_row_past_the_horizon_by_round_off(self):
        # 37 * (0.3 / 37) exceeds 0.3 by one ulp; lq_value alone rejects it
        lq = catalog_entry("lq").problem
        p = ControlProblem(
            horizon=0.3, x_min=lq.x_min, x_max=lq.x_max, u_min=lq.u_min,
            u_max=lq.u_max, n_u=lq.n_u, gamma=lq.gamma, b=lq.b, h=lq.h,
            sigma=lq.sigma, f=lq.f, g=lq.g, phi=lq.phi)
        grid = Grid1D(-2.0, 2.0, 5)
        field = closed_form_field("lq-riccati", p, grid, 37)
        assert 37 * (0.3 / 37) > 0.3
        assert np.array_equal(field.values[-1], grid.nodes ** 2)

    def test_closed_form_field_matches_probe(self):
        e = catalog_entry("bsb-call")
        grid = Grid1D(0.01, 4.0, 100)
        field = closed_form_field("bsb-convex", e.problem, grid, 50)
        assert field.solve is None
        # bilinear interpolation between nodes costs O(dx^2)
        assert field.value_at(0.0, 1.0) == pytest.approx(
            oracle_probe_value("bsb-convex", e.problem, 0.0, 1.0), abs=1e-3)
        # terminal row is the raw payoff
        assert np.array_equal(field.values[-1],
                              np.maximum(grid.nodes - 1.0, 0.0))


@pytest.mark.parametrize("call,msg,overflows", [
    (lambda: lq_value(1.5, 0.0, 1.0, 1.0),
     r"need t <= horizon, got t=1.5 > 1.0", False),
    (lambda: oracle_probe_value("heston", catalog_entry("lq").problem, 0.0,
                                0.0),
     "no closed form for oracle tag 'heston'", False),
    (lambda: verify_oracle_tag(catalog_entry("lq").problem, "heston"),
     "unknown oracle tag 'heston'", False),
    (lambda: f0_ode_solve(simple(), 0.0, 0.0, 0.1, "x^2", 0),
     "n_rk must be >= 1", False),
    # phi's second difference overflows at x = 1, so F0 is not finite
    (lambda: f0_ode_solve(simple(), 1.0, 0.0, 0.1, "exp(700*x)", 4),
     "non-finite F0 at s=0.1", True),
    # each step multiplies the state by about 1.5
    (lambda: mc_lower_bound(simple(b="999*x"), 1.0, "0", [1.0], 1000, 2000,
                            seed=0),
     "non-finite state at step 1735", True),
], ids=["lq_value t>T", "oracle_probe_value tag", "verify_oracle_tag tag",
        "f0_ode_solve n_rk=0", "f0_ode_solve overflow",
        "mc_lower_bound overflow"])
def test_refusals(call, msg, overflows):
    # an overflow warns first, which the suite's filter would raise
    warns = (pytest.warns(RuntimeWarning, match="overflow") if overflows
             else contextlib.nullcontext())
    with warns, pytest.raises(ValueError, match=msg):
        call()
