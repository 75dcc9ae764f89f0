"""Hamiltonian assembly, CFL bound, monotone scheme properties."""

import hashlib
import inspect
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from grobust.gexp import GammaSet
from grobust.grids import Grid1D, GrowthCeilingError, ValueField
from grobust.hjb import (_make_step, cfl_max_dt, hjb_residual,
                         hjb_time_stepping, solve_hjb)
from grobust.lattice import solve_dpp
from grobust.problem import CoefficientGrid, ControlProblem, catalog_entry
from grobust.analysis import closed_form_field


def make(sigma="1", gamma=None, f="0", g="0", b="0", h="0", phi="x",
         box=(-2.0, 2.0), controls=(0.0, 0.0, 1)):
    return ControlProblem(
        horizon=1.0, x_min=box[0], x_max=box[1],
        u_min=controls[0], u_max=controls[1], n_u=controls[2],
        gamma=gamma or GammaSet.interval(1.0, 1.0),
        b=b, h=h, sigma=sigma, f=f, g=g, phi=phi)


# dx = 1/4: the nodes and the differences of the quadratic rows below are
# exact in binary, so one step reproduces the Hamiltonian without rounding
GRID = Grid1D(-2.0, 2.0, 17)


def step_increment(p, row, x=0.0, u_grid=None):
    """(out - W) at node x of one explicit step with dt = 1: min_u H there."""
    W = row(GRID.nodes)
    us = p.u_grid() if u_grid is None else u_grid
    out = _make_step(CoefficientGrid(p, GRID, us))(W, 0.0, 1.0)
    i = int(np.flatnonzero(GRID.nodes == x)[0])
    return out[i] - W[i]


def count_calls(monkeypatch, p, name):
    """A list that gains an entry at each call of ``p.compiled[name]``."""
    calls = []
    real = p.compiled[name]

    def counted(bind):
        calls.append(1)
        return real(bind)
    counted.free, counted.is_zero = real.free, real.is_zero
    monkeypatch.setitem(p.compiled, name, counted)
    return calls


class TestHamiltonianAssembly:
    # the f_term cases use the singleton set {1}, where G(F) = F / 2, and
    # b = f = 0, which leaves H = G(F): twice the increment is F

    def test_f_term_pure_diffusion(self):
        p = make(sigma="1")
        # A = 2, p = 0
        assert 2.0 * step_increment(p, lambda x: x * x) == 2.0

    def test_f_term_with_bracket_drift(self):
        p = make(sigma="2", h="0.5")
        # A = 1 and, upwind along h > 0, forward difference 1 at x = 0
        def row(x):
            return 0.5 * (x - 0.125) ** 2 + (x - 0.125)
        assert 2.0 * step_increment(p, row) == 5.0  # sigma^2 A + 2 p h = 4 + 1

    def test_f_term_with_z_driver(self):
        p = make(sigma="1", g="0.05*z")
        # A = 0, p = 2: F = 2 g(sigma p) = 2 * 0.05 * 2
        assert 2.0 * step_increment(p, lambda x: 2.0 * x) == pytest.approx(
            0.2, abs=1e-15)

    def test_hamiltonian_worst_case_diffusion(self):
        p = make(sigma="x", gamma=GammaSet.interval(0.5, 1.0), box=(0.01, 4.0))
        # A = 2 at x = 1
        assert step_increment(p, lambda x: x * x, x=1.0) == 1.0  # G(2) at [0.5, 1]

    def test_hamiltonian_lq_entry(self):
        p = catalog_entry("lq").problem
        # A = 0, p = 1, the single control u = 1
        assert step_increment(p, lambda x: x, u_grid=[1.0]) == 2.0  # u p + u^2

    def test_hamiltonian_negative_curvature(self):
        p = make(sigma="1", gamma=GammaSet.interval(0.5, 1.0))
        # A = -2, p = 0
        assert step_increment(p, lambda x: -x * x) == pytest.approx(
            -0.25, abs=1e-15)


class TestCfl:
    def test_pure_diffusion_bound(self):
        p = make(sigma="1")
        grid = Grid1D(-2.0, 2.0, 41)  # dx = 0.1
        assert cfl_max_dt(CoefficientGrid(p, grid, p.u_grid())
                          ) == pytest.approx(0.01, rel=1e-12)

    def test_quadruples_with_dx_in_diffusion_regime(self):
        p = make(sigma="1")
        fine = cfl_max_dt(CoefficientGrid(p, Grid1D(-2.0, 2.0, 81),
                                          p.u_grid()))
        coarse = cfl_max_dt(CoefficientGrid(p, Grid1D(-2.0, 2.0, 41),
                                            p.u_grid()))
        assert coarse == pytest.approx(4.0 * fine, rel=1e-10)

    def test_lq_positive_finite(self):
        p = catalog_entry("lq").problem
        bound = cfl_max_dt(CoefficientGrid(p, Grid1D(-2.0, 2.0, 201),
                                           p.u_grid()))
        assert 0.0 < bound < math.inf

    def test_control_grid_size(self):
        # b = u on [0, 1]: the single control u = 0 drops the drift term
        p = make(sigma="1", b="u", controls=(0.0, 1.0, 5))
        grid = Grid1D(-2.0, 2.0, 41)  # dx = 0.1
        assert cfl_max_dt(CoefficientGrid(p, grid, p.u_grid())
                          ) == pytest.approx(0.01 / 1.1, rel=1e-12)
        one = CoefficientGrid(p, grid, p.u_grid(1))
        assert cfl_max_dt(one) == pytest.approx(0.01, rel=1e-12)

    def test_degenerate_rejected(self):
        p = make(sigma="0", b="0")
        with pytest.raises(ValueError):
            cfl_max_dt(CoefficientGrid(p, Grid1D(-2.0, 2.0, 41), p.u_grid()))

    # a constant passes the Lipschitz probe (its quotient is 0), so only the
    # substep count stops the march: sigma = 1e4 asks 1.7e9 substeps per
    # row, and 1e200 overflows sigma^2 into a CFL bound of 0.  The lattice
    # the message points to solves both at once.
    @pytest.mark.parametrize("sigma,per_row", [("1e4", r"1\.66736e\+09"),
                                               ("1e200", "inf")])
    def test_large_constant_sigma_refused_before_the_march(self, sigma,
                                                           per_row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = make(sigma=sigma, gamma=GammaSet.interval(0.5, 1.0),
                     phi="abs(x)")
            grid = Grid1D(-2.0, 2.0, 50)
            coefs = CoefficientGrid(p, grid, p.u_grid())
            with pytest.raises(ValueError, match=rf"\(10 rows of {per_row}\)"
                               r" exceed the explicit scheme's cap 1e\+08;"
                               " solve with the lattice"):
                hjb_time_stepping(coefs, 10)
            assert solve_dpp(p, grid, 10).value_at(0.0, 0.0) == 2.0

    def test_underflowing_denominator_takes_one_substep(self):
        # sigma^2 = 1e-320 is subnormal, and dx^2 over it is inf: every
        # step is monotone, so the cap must not read that as inf substeps
        p = make(sigma="1e-160", gamma=GammaSet.interval(0.5, 1.0))
        coefs = CoefficientGrid(p, Grid1D(-2.0, 2.0, 50), p.u_grid())
        assert hjb_time_stepping(coefs, 10) == (10, 1, 0.1, math.inf)


class TestSolveHjb:
    def test_linear_payoff_is_invariant(self):
        # linear data has zero second difference everywhere (ghosts included)
        # and no transport terms; rows equal the payoff up to the 1-ulp noise
        # of the grid nodes themselves not being an exact progression
        p = make(sigma="1", gamma=GammaSet.interval(0.5, 1.0), phi="x")
        grid = Grid1D(-2.0, 2.0, 61)
        field = solve_hjb(p, grid, 40)
        assert np.max(np.abs(field.values - grid.nodes[None, :])) < 1e-13

    def test_stencil_exact_quadratic_pure_diffusion(self):
        # one explicit step on quadratic data with constant coefficients:
        # central A is exact and no gradient enters the Hamiltonian, so the
        # update carries zero spatial truncation error at interior nodes
        p = make(sigma="1", gamma=GammaSet.interval(1.0, 1.0), phi="x^2")
        grid = Grid1D(-2.0, 2.0, 41)
        W = grid.nodes ** 2
        dt = 0.004
        out = _make_step(CoefficientGrid(p, grid, p.u_grid()))(W, 0.5, dt)
        expect = W + dt * 1.0  # G(sigma^2 Vxx) = G(2) = 1
        assert np.max(np.abs(out - expect)[1:-1]) < 1e-13

    def test_stencil_exact_linear_with_drift(self):
        # linear data + constant drift: upwind gradient is exact on linear
        # parts and A vanishes, so the step is exact everywhere
        p = make(sigma="1", b="0.5", phi="x")
        grid = Grid1D(-2.0, 2.0, 41)
        field = solve_hjb(p, grid, 10)
        expect = grid.nodes[None, :] + 0.5 * (
            p.horizon - field.times[:, None])
        assert np.max(np.abs(field.values - expect)) < 1e-12

    def test_monotone_perturbation_exact(self):
        rng = np.random.default_rng(8)
        for name in ("bsb-call", "lq"):
            p = catalog_entry(name).problem
            grid = Grid1D(p.x_min, p.x_max, 100)
            ws = CoefficientGrid(p, grid, p.u_grid())
            _, _, dt_int, _ = hjb_time_stepping(ws, 50)
            step = _make_step(ws)
            field = solve_hjb(p, grid, 50)
            for _ in range(100):
                k = int(rng.integers(0, field.n_rows - 1))
                j = int(rng.integers(0, grid.n_x))
                W = field.values[k + 1].copy()
                base = step(W, k * field.dt, dt_int)
                W[j] += float(rng.uniform(1e-8, 1.0))
                pert = step(W, k * field.dt, dt_int)
                assert np.min(pert - base) >= 0.0

    def test_comparison_principle_on_catalog_pair(self):
        call = catalog_entry("bsb-call").problem
        concave = catalog_entry("bsb-concave").problem
        grid = Grid1D(0.01, 4.0, 100)
        lo = solve_hjb(concave, grid, 50)
        hi = solve_hjb(call, grid, 50)
        assert np.all(lo.values <= hi.values + 1e-14)

    def test_cost_scaling_invariance(self):
        # with g = 0 and a (y, z)-free running cost, scaling the cost and the
        # payoff scales the whole field; exact for a power-of-two factor
        base = catalog_entry("lq").problem
        scaled = ControlProblem(
            horizon=1.0, x_min=-2.0, x_max=2.0, u_min=-4.0, u_max=4.0,
            n_u=81, gamma=GammaSet.interval(1.0, 1.0),
            b="u", h="0", sigma="1", f="2*u^2", g="0", phi="2*x^2")
        grid = Grid1D(-2.0, 2.0, 81)
        f1 = solve_hjb(base, grid, 20)
        f2 = solve_hjb(scaled, grid, 20)
        assert np.max(np.abs(f2.values - 2.0 * f1.values)) <= 1e-12

    def test_one_coefficient_grid_per_solve(self, monkeypatch):
        # the CFL bound and the march share it
        from grobust import hjb
        grids = []
        real = hjb.CoefficientGrid
        monkeypatch.setattr(hjb, "CoefficientGrid", lambda *a, **kw:
                            grids.append(a) or real(*a, **kw))
        solve_hjb(catalog_entry("lq").problem, Grid1D(-2.0, 2.0, 41), 10)
        assert len(grids) == 1

    def test_one_step_built_per_solve(self, monkeypatch):
        # the march and the residual each build the step once
        from grobust import hjb
        built = []
        real = hjb._make_step
        monkeypatch.setattr(hjb, "_make_step", lambda coefs: built.append(
            coefs) or real(coefs))
        p = catalog_entry("recursive-g").problem
        field = solve_hjb(p, Grid1D(0.01, 4.0, 41), 10)
        assert len(built) == 1
        assert hjb_residual(field, p) == 0.0
        assert len(built) == 2

    def test_driver_affine_in_z_evaluated_once_per_step(self, monkeypatch):
        # recursive-g's g = 0.05 z has the exact slope 0.05 and a static
        # upwind direction: no central difference, no bracket at p_c
        p = catalog_entry("recursive-g").problem
        calls = count_calls(monkeypatch, p, "g")
        field = solve_hjb(p, Grid1D(0.01, 4.0, 41), 10)
        assert len(calls) == 10 * field.solve.substeps_per_row

    def test_static_upwind_direction_beside_a_drift(self, monkeypatch):
        # b = 0.1 x and g = 0.05 z: the speed b + qhat2 g_z sigma is > 0 at
        # qhat2 = s_lo and s_hi alike, so the direction is fixed per solve
        # and a step evaluates g once, at the upwind gradient only
        p = make(sigma="x", b="0.1*x", g="0.05*z", phi="pos(x-1)",
                 gamma=GammaSet.interval(0.5, 1.0), box=(0.5, 2.0))
        calls = count_calls(monkeypatch, p, "g")
        grid = Grid1D(0.5, 2.0, 41)
        step = _make_step(CoefficientGrid(p, grid, p.u_grid()))
        step(np.maximum(grid.nodes - 1.0, 0.0), 0.5, 1e-4)
        assert len(calls) == 1

    def test_rows_checked(self):
        with pytest.raises(ValueError, match="need K >= 1"):
            solve_hjb(make(), Grid1D(-2.0, 2.0, 41), 0)

    def test_called_as_the_lattice_solver_is(self):
        assert (inspect.signature(solve_hjb).parameters
                == inspect.signature(solve_dpp).parameters)

    def test_recursive_drivers_run(self):
        p = catalog_entry("recursive-g").problem
        grid = Grid1D(0.01, 4.0, 80)
        field = solve_hjb(p, grid, 40)
        assert np.all(np.isfinite(field.values))

    def test_volatility_spike_leaves_the_growth_envelope(self):
        # a 41x sigma spike near t = 0.37 breaks the sampled CFL bound; the
        # march used to return V(0, 0) = 9.1e50 without an error
        p = make(sigma="1 + 40*pos(0.05 - abs(t-0.37))", phi="pos(x)",
                 gamma=GammaSet.interval(0.5, 1.0), box=(-3.0, 3.0))
        with pytest.raises(GrowthCeilingError) as err:
            solve_hjb(p, Grid1D(-3.0, 3.0, 200), 50)
        assert (err.value.k, err.value.i) == (19, 59)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_driver_pole_reached_only_by_the_solve(self):
        # the Lipschitz probe samples y in [-6, 6]; the payoff row y = 100
        # sits on the pole of f, so the first step is not finite
        p = make(f="1/(y-100)", phi="100")
        grid = Grid1D(-2.0, 2.0, 21)
        with pytest.raises(ValueError, match="non-finite update in HJB step"):
            solve_hjb(p, grid, 10)
        with pytest.raises(ValueError, match="non-finite coefficient 'f'"):
            solve_dpp(p, grid, 10)

    # a static driver is checked when the coefficient grid is built, for
    # both solvers: the HJB's min over controls cannot hide a row of u that
    # is infinite at a node
    @pytest.mark.parametrize("f", ["1/x", "1/(x + pos(u))"])
    def test_static_driver_pole_refused_by_both_solvers(self, f):
        p = make(f=f, box=(0.5, 2.0), controls=(-1.0, 1.0, 3))
        grid = Grid1D(0.0, 2.0, 21)  # node 0 lies outside the box
        for solve in (solve_hjb, solve_dpp):
            with pytest.raises(ValueError,
                               match="non-finite coefficient 'f'"):
                solve(p, grid, 10)


class TestEdgeOrder:
    """One step on two ordered rows of lq, W <= W' (ROADMAP item 7).

    lq's drift u reaches +-4, so at an edge node the upwind speed can point
    out of the box, where the stencil has no neighbour: raising node 1 (or
    node 79) lowers the step at node 0 (or node 80) by 3.57e-3.
    """

    ROWS = {"x": lambda x: x, "-x": lambda x: -x, "x^2": lambda x: x * x}

    def steps(self, row, j):
        p = catalog_entry("lq").problem
        grid = Grid1D(-2.0, 2.0, 81)
        ws = CoefficientGrid(p, grid, p.u_grid())
        dt = hjb_time_stepping(ws, 40)[2]  # 1/560
        W = self.ROWS[row](grid.nodes)
        raised = W.copy()
        raised[j] += 0.1
        step = _make_step(ws)
        return step(W, 0.0, dt), step(raised, 0.0, dt)

    @pytest.mark.parametrize("row,j", [("x", 1), ("-x", 79)])
    def test_interior_order_kept(self, row, j):
        base, pert = self.steps(row, j)
        assert np.min(pert[1:-1] - base[1:-1]) >= 0.0

    def test_quadratic_row_keeps_order_at_the_edges(self):
        for j in (0, 1, 79, 80):
            base, pert = self.steps("x^2", j)
            assert np.min(pert - base) >= 0.0, j

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the HJB's edge "
                       "closure is not monotone where the speed points out "
                       "of the box; item 7 deletes this mark")
    @pytest.mark.parametrize("row,j", [("x", 1), ("-x", 79)])
    def test_edge_order_kept(self, row, j):
        base, pert = self.steps(row, j)
        assert np.min(pert - base) >= 0.0


class TestHjbResidual:
    def test_zero_on_own_output_without_substepping(self):
        p = catalog_entry("lq").problem
        grid = Grid1D(-2.0, 2.0, 51)
        K = 230  # the fewest rows within 0.9 of the CFL bound
        _, m_sub, _, _ = hjb_time_stepping(
            CoefficientGrid(p, grid, p.u_grid()), K)
        assert m_sub == 1  # rows = internal steps
        field = solve_hjb(p, grid, K)
        assert hjb_residual(field, p) == 0.0

    # the record's substeps per row and internal dt, replayed
    @pytest.mark.parametrize("name,n_x,K,m_sub", [
        ("lq", 51, 20, 12), ("bsb-call", 100, 20, 548),
        ("recursive-g", 100, 100, 110)])
    def test_zero_on_own_substepped_output(self, name, n_x, K, m_sub):
        p = catalog_entry(name).problem
        field = solve_hjb(p, Grid1D.for_problem(p, n_x), K)
        assert field.solve.substeps_per_row == m_sub
        assert hjb_residual(field, p) == 0.0

    def test_one_step_per_row_without_an_hjb_record(self):
        # a lattice field and a closed form take one step of V.dt per row;
        # the figures were computed before the HJB row step was shared
        p = catalog_entry("lq").problem
        lattice = solve_dpp(p, Grid1D.for_problem(p, 60), 30)
        assert hjb_residual(lattice, p) == 0.08446880764237719
        closed = closed_form_field("lq-riccati", p, Grid1D(-2.0, 2.0, 400),
                                   200)
        assert hjb_residual(closed, p) == 0.009771865317254047

    def test_zero_on_own_output_with_its_control_grid(self):
        p = catalog_entry("lq").problem
        grid, K = Grid1D(-2.0, 2.0, 51), 230
        _, m_sub, _, _ = hjb_time_stepping(
            CoefficientGrid(p, grid, p.u_grid(5)), K)
        assert m_sub == 1
        field = solve_hjb(p, grid, K, n_u=5)
        assert field.solve.n_u == 5
        assert hjb_residual(field, p) == 0.0  # the record's 5 controls
        # a field with no record: the problem's 81 controls
        bare = ValueField(field.grid, field.dt, field.values)
        assert hjb_residual(bare, p) > 0.0

    def test_zero_on_constant_field(self):
        p = make(sigma="x", gamma=GammaSet.interval(0.5, 1.0),
                 box=(0.01, 4.0), phi="3.0")
        grid = Grid1D(0.01, 4.0, 60)
        field = solve_hjb(p, grid, 30)
        assert np.all(field.values == 3.0)
        assert hjb_residual(field, p) == 0.0

    def test_truncation_on_smooth_closed_form(self):
        # measured stencil truncation of the quadratic-plus-log closed form
        p = catalog_entry("lq").problem
        grid = Grid1D(-2.0, 2.0, 400)
        field = closed_form_field("lq-riccati", p, grid, 200)
        assert hjb_residual(field, p) <= 1e-2


def test_control_refinement_gap_small_for_lq():
    # 41 controls against 81, which keep every one of the 41
    p = catalog_entry("lq").problem
    grid = Grid1D(-2.0, 2.0, 101)
    base = solve_hjb(p, grid, 50, n_u=41)
    fine = solve_hjb(p, grid, 50, n_u=81)
    gap = max(abs(base.value_at(t, x) - fine.value_at(t, x))
              for t, x in ((0.0, 1.0), (0.0, -0.5)))
    assert 0.0 <= gap <= 5e-3  # quadratic-in-du control error


def test_solver_agreement_fixed_resolution():
    # both routes within 0.05 of each other on the interior two-thirds
    for name in ("bsb-call", "lq"):
        p = catalog_entry(name).problem
        grid = Grid1D(p.x_min, p.x_max, 150)
        K = 75
        lat = solve_dpp(p, grid, K)
        hjb = solve_hjb(p, grid, K)
        n = grid.n_x
        sl = slice(n // 6, n - n // 6)
        gap = float(np.max(np.abs(lat.values[:, sl] - hjb.values[:, sl])))
        assert gap <= 0.05, (name, gap)


class TestPlannedStep:
    """Each solve plans its own buffers: validate's pool runs two solves at
    once, and the march keeps every row a step returns."""

    def test_two_solves_at_once_keep_their_bits(self):
        # lq's solve keeps a gradient buffer and full-shape b and f; a
        # bsb-call solve alone, before and after the others, has the bits
        # it has beside them
        from test_pinned_bits import DIGESTS, N_X
        names = ("bsb-call", "lq", "recursive-g")
        problems = [catalog_entry(name).problem for name in names]
        start = threading.Barrier(len(names))

        def solve(p):
            grid = Grid1D.for_problem(p, N_X)
            return solve_hjb(p, grid, N_X).values.tobytes()

        def at_once(p):
            start.wait()
            return solve(p)

        alone = solve(problems[0])
        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            fields = list(pool.map(at_once, problems))
        assert fields[0] == alone == solve(problems[0])
        for name, values in zip(names, fields):
            assert hashlib.sha256(values).hexdigest() == DIGESTS["hjb", name]

    # lq on 9 of its controls: two runs of the upwind mask, a kept buffer
    @pytest.mark.parametrize("name,n_u", [("bsb-call", None),
                                          ("recursive-g", None), ("lq", 9)])
    def test_substeps_make_no_temporaries(self, name, n_u):
        # after a warm-up substep, a substep allocates the row it returns
        # and the rows the drivers' closures return, one at a time; the
        # numpy arrays held stay the same.  A row of 8192 nodes is 64 KiB,
        # no less than the buffer numpy's iterator takes for a broadcast
        # sum (G(F) + p_up b over lq's controls), so two rows bound the
        # traced peak
        p = catalog_entry(name).problem
        grid = Grid1D.for_problem(p, 8192)
        step = _make_step(CoefficientGrid(p, grid, p.u_grid(n_u)))
        dt = np.array(1e-9)
        numpy_only = [tracemalloc.DomainFilter(True,
                                               np.lib.tracemalloc_domain)]

        def numpy_bytes():
            snap = tracemalloc.take_snapshot().filter_traces(numpy_only)
            return sum(stat.size for stat in snap.statistics("filename"))

        tracemalloc.start()
        try:
            W = step(np.sin(3.0 * grid.nodes), 0.5, dt)
            held = numpy_bytes()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            for j in range(200):
                W = step(W, 0.5 - j * 1e-9, dt)
            peak = tracemalloc.get_traced_memory()[1]
            assert numpy_bytes() == held
        finally:
            tracemalloc.stop()
        assert peak - start <= 2 * W.nbytes

    @pytest.mark.parametrize("name", ["bsb-call", "lq", "recursive-g"])
    def test_step_leaves_its_input_and_earlier_rows(self, name):
        p = catalog_entry(name).problem
        grid = Grid1D.for_problem(p, 41)
        step = _make_step(CoefficientGrid(p, grid, p.u_grid()))
        W = np.sin(3.0 * grid.nodes)
        W_bytes = W.tobytes()
        first = step(W, 0.5, 1e-4)
        first_bytes = first.tobytes()
        assert W.tobytes() == W_bytes
        second = step(first, 0.4, 1e-4)
        step(np.cos(grid.nodes), 0.3, 1e-4)
        assert first.tobytes() == first_bytes
        assert second is not first and not np.shares_memory(first, second)
