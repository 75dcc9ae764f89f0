"""Grid geometry, value-field container, CSV serialization."""

import io
import math

import numpy as np
import pytest

from grobust.grids import Grid1D, ValueField, write_field_csv
from grobust.hjb import solve_hjb
from grobust.lattice import solve_dpp
from grobust.problem import catalog_entry


class TestGrid1D:
    def test_geometry(self):
        g = Grid1D(0.0, 1.0, 11)
        assert g.dx == pytest.approx(0.1, abs=1e-15)
        assert np.array_equal(g.nodes, np.linspace(0.0, 1.0, 11))

    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 11)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("side", ["x_min", "x_max"])
    def test_nonfinite_bounds_rejected(self, side, bad):
        # (0, inf) used to give nodes [nan, inf, ...] and a RuntimeWarning
        bounds = {"x_min": 0.0, "x_max": 1.0, side: bad}
        with pytest.raises(ValueError, match="need finite x_min < x_max"):
            Grid1D(n_x=5, **bounds)


class TestValueField:
    def make(self):
        grid = Grid1D(-1.0, 1.0, 5)
        vals = np.outer(np.arange(4.0), np.ones(5)) + grid.nodes
        return ValueField(grid=grid, dt=0.25, values=vals)

    def test_rejects_nonfinite(self):
        grid = Grid1D(-1.0, 1.0, 5)
        vals = np.zeros((3, 5))
        vals[1, 2] = np.inf
        with pytest.raises(ValueError):
            ValueField(grid=grid, dt=0.1, values=vals)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            ValueField(grid=Grid1D(-1.0, 1.0, 5), dt=0.0,
                       values=np.zeros((3, 5)))

    def test_rejects_shape_mismatch(self):
        grid = Grid1D(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            ValueField(grid=grid, dt=0.1, values=np.zeros((3, 4)))

    def test_times_and_interp(self):
        f = self.make()
        assert np.array_equal(f.times, [0.0, 0.25, 0.5, 0.75])
        assert f.value_at(0.0, -1.0) == -1.0
        # node value at an exact (t, x) pair
        assert f.value_at(0.5, 0.5) == 2.5
        # midpoint in both axes
        assert f.value_at(0.125, 0.25) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("solve", [solve_dpp, solve_hjb])
    def test_solved_field_reads_its_nodes_exactly(self, solve):
        # every row and node, t = 0 and T and both box edges included
        p = catalog_entry("bsb-call").problem
        field = solve(p, Grid1D.for_problem(p, 40), 20)
        read = np.array([[field.value_at(t, x) for x in field.grid.nodes]
                         for t in field.times])
        assert field.times[-1] == p.horizon
        assert read.tobytes() == field.values.tobytes()

    def test_value_at_refuses_points_outside(self):
        f = self.make()
        # round-off past the last row is forgiven
        assert f.value_at(0.75 + 1e-13 * 0.75, 1.0) == f.values[-1, -1]
        for t, x in ((0.0, 1.5), (0.0, -1.01), (-0.1, 0.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                f.value_at(t, x)


class TestCsv:
    @staticmethod
    def parsed(path):
        """The header and the float() of every cell of a written CSV."""
        lines = path.read_text(encoding="utf-8").splitlines()
        return lines[0], np.array([[float(c) for c in ln.split(",")]
                                   for ln in lines[1:]])

    def test_roundtrip_bit_exact(self, tmp_path):
        # float() of every cell gives back each time, node and value
        rng = np.random.default_rng(9)
        grid = Grid1D(0.01, 4.0, 7)
        vals = rng.normal(size=(4, 7)) * np.pi
        vals[1, 3] = -0.0
        field = ValueField(grid=grid, dt=1.0 / 3.0, values=vals)
        path = tmp_path / "f.csv"
        write_field_csv(field, path)
        header, cells = self.parsed(path)
        assert header == "t,x,v"
        # bytes, not ==, so that -0.0 must come back as -0.0
        assert cells[:, 0].tobytes() == np.repeat(field.times, 7).tobytes()
        assert cells[:, 1].tobytes() == np.tile(grid.nodes, 4).tobytes()
        assert cells[:, 2].tobytes() == field.values.tobytes()

    def test_path_roundtrip_bit_exact(self, tmp_path):
        # a pathlib.Path is opened as a file, like a str, with the same bytes
        rng = np.random.default_rng(10)
        field = ValueField(grid=Grid1D(-1.0, 2.0, 5), dt=0.125,
                           values=rng.normal(size=(3, 5)) * np.pi)
        path = tmp_path / "f.csv"
        write_field_csv(field, path)
        _, cells = self.parsed(path)
        assert cells[:, 2].tobytes() == field.values.tobytes()
        assert cells[::5, 0].tobytes() == field.times.tobytes()
        assert cells[:5, 1].tobytes() == field.grid.nodes.tobytes()
        write_field_csv(field, str(tmp_path / "g.csv"))
        assert path.read_bytes() == (tmp_path / "g.csv").read_bytes()

    def test_row_major_time_then_space(self, tmp_path):
        grid = Grid1D(0.0, 1.0, 3)
        field = ValueField(grid=grid, dt=0.5,
                           values=np.arange(6.0).reshape(2, 3))
        path = tmp_path / "f.csv"
        write_field_csv(field, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("0,0,0")
        assert lines[2].startswith("0,0.5,1")
        assert lines[4].startswith("0.5,0,3")

    def test_writer_matches_one_format_per_value(self, tmp_path):
        # signed zero, extreme magnitudes, the smallest normal and the
        # smallest subnormal, against a writer that formats cell by cell
        grid = Grid1D(-1.0, 2.0, 4)
        vals = np.array([[-0.0, 1e-300, 1e300, -1e300],
                         [0.1, -2.5e-308, 1.0 / 3.0, 5e-324],
                         [0.0, -1.0, 2.0 ** 60, -np.pi],
                         [2.2250738585072014e-308, 1e308, -1.0 / 3.0,
                          -5e-324]])
        field = ValueField(grid=grid, dt=0.3, values=vals)
        path = tmp_path / "f.csv"
        write_field_csv(field, path)
        ref = io.StringIO()
        ref.write("t,x,v\n")
        nodes = field.grid.nodes
        for k, t in enumerate(field.times):
            row = field.values[k]
            for i in range(field.grid.n_x):
                ref.write(f"{t:.17g},{nodes[i]:.17g},{row[i]:.17g}\n")
        assert path.read_bytes() == ref.getvalue().encode("utf-8")
        assert path.read_text(encoding="utf-8").splitlines()[1] == "0,-1,-0"
