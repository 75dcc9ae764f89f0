"""Grid geometry, value-field container, CSV serialization."""

import io

import numpy as np
import pytest

from grobust.grids import Grid1D, ValueField, read_field_csv, write_field_csv


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


class TestValueField:
    def make(self):
        grid = Grid1D(-1.0, 1.0, 5)
        vals = np.outer(np.arange(4.0), np.ones(5)) + grid.nodes
        return ValueField(grid=grid, t0=0.0, dt=0.25, values=vals)

    def test_rejects_nonfinite(self):
        grid = Grid1D(-1.0, 1.0, 5)
        vals = np.zeros((3, 5))
        vals[1, 2] = np.inf
        with pytest.raises(ValueError):
            ValueField(grid=grid, t0=0.0, dt=0.1, values=vals)

    def test_rejects_shape_mismatch(self):
        grid = Grid1D(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            ValueField(grid=grid, t0=0.0, dt=0.1, values=np.zeros((3, 4)))

    def test_times_and_interp(self):
        f = self.make()
        assert np.array_equal(f.times, [0.0, 0.25, 0.5, 0.75])
        assert f.value_at(0.0, -1.0) == -1.0
        # node value at an exact (t, x) pair
        assert f.value_at(0.5, 0.5) == pytest.approx(2.5, abs=1e-15)
        # midpoint in both axes
        assert f.value_at(0.125, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_value_at_refuses_points_outside(self):
        f = self.make()
        # round-off past the last row is forgiven
        assert f.value_at(0.75 + 1e-13 * 0.75, 1.0) == f.values[-1, -1]
        for t, x in ((0.0, 1.5), (0.0, -1.01), (-0.1, 0.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                f.value_at(t, x)


class TestCsv:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(9)
        grid = Grid1D(0.01, 4.0, 7)
        vals = rng.normal(size=(4, 7)) * np.pi
        field = ValueField(grid=grid, t0=0.0, dt=1.0 / 3.0, values=vals)
        buf = io.StringIO()
        write_field_csv(field, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "t,x,v"
        back = read_field_csv(io.StringIO(text))
        assert np.array_equal(back.values, field.values)
        assert np.array_equal(back.grid.nodes, field.grid.nodes)
        assert back.solve is None  # a CSV carries no solve record

    def test_path_roundtrip_bit_exact(self, tmp_path):
        # a pathlib.Path is opened as a file, like a str
        rng = np.random.default_rng(10)
        field = ValueField(grid=Grid1D(-1.0, 2.0, 5), t0=0.25, dt=0.125,
                           values=rng.normal(size=(3, 5)) * np.pi)
        path = tmp_path / "f.csv"
        write_field_csv(field, path)
        back = read_field_csv(path)
        assert np.array_equal(back.values, field.values)
        assert np.array_equal(back.times, field.times)
        assert np.array_equal(back.grid.nodes, field.grid.nodes)
        buf = io.StringIO()
        write_field_csv(field, buf)
        assert path.read_text(encoding="utf-8") == buf.getvalue()

    def test_row_major_time_then_space(self):
        grid = Grid1D(0.0, 1.0, 3)
        field = ValueField(grid=grid, t0=0.0, dt=0.5,
                           values=np.arange(6.0).reshape(2, 3))
        buf = io.StringIO()
        write_field_csv(field, buf)
        lines = buf.getvalue().splitlines()
        assert lines[1].startswith("0,0,0")
        assert lines[2].startswith("0,0.5,1")
        assert lines[4].startswith("0.5,0,3")

    def test_writer_matches_one_format_per_value(self):
        # signed zero, extreme magnitudes, a subnormal and negative times
        grid = Grid1D(-1.0, 2.0, 4)
        vals = np.array([[-0.0, 1e-300, 1e300, -1e300],
                         [0.1, -2.5e-308, 1.0 / 3.0, 5e-324],
                         [0.0, -1.0, 2.0 ** 60, -np.pi]])
        field = ValueField(grid=grid, t0=-0.75, dt=0.3, values=vals)
        buf = io.StringIO()
        write_field_csv(field, buf)
        ref = io.StringIO()
        ref.write("t,x,v\n")
        nodes = field.grid.nodes
        for k, t in enumerate(field.times):
            row = field.values[k]
            for i in range(field.grid.n_x):
                ref.write(f"{t:.17g},{nodes[i]:.17g},{row[i]:.17g}\n")
        assert buf.getvalue() == ref.getvalue()
        assert "-0.75,-1,-0\n" in buf.getvalue()

    def test_single_row_rejected(self):
        # one time row does not determine dt
        field = ValueField(grid=Grid1D(0.0, 1.0, 3), t0=0.0, dt=0.5,
                           values=np.arange(3.0).reshape(1, 3))
        buf = io.StringIO()
        write_field_csv(field, buf)
        with pytest.raises(ValueError):
            read_field_csv(io.StringIO(buf.getvalue()))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_field_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_x_major_order_rejected(self):
        # the same (t, x, v) triples as a t-major file, space-major instead:
        # read as t-major they would put v = 10 where the file says 1
        text = "t,x,v\n" + "".join(
            f"{t},{x},{10 * k + i}\n"
            for i, x in enumerate((0.0, 0.5, 1.0))
            for k, t in enumerate((0.0, 0.5)))
        with pytest.raises(ValueError, match="t-major"):
            read_field_csv(io.StringIO(text))

    @pytest.mark.parametrize("ts,xs,which", [
        ((0.0, 0.1, 0.3), (0.0, 1.0, 2.0), "times"),
        ((0.0, 0.1, 0.2), (0.0, 1.0, 3.0), "nodes"),
    ])
    def test_uneven_spacing_rejected(self, ts, xs, which):
        text = "t,x,v\n" + "".join(f"{t},{x},{t + x}\n"
                                   for t in ts for x in xs)
        with pytest.raises(ValueError, match=f"{which} are not equally"):
            read_field_csv(io.StringIO(text))
