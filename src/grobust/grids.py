"""Uniform space grid, the solvers' space-time value field, its record and
its CSV writer.  Only :class:`Grid1D` and the HJB stencil read the node
spacing, and a field is read between nodes one way, by its ``value_at``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional
import numpy as np

__all__ = ["Grid1D", "ValueField", "SolveRecord", "GrowthCeilingError",
           "check_growth", "write_field_csv"]

# both solvers' envelope: |V| <= GROWTH_CEILING * (1 + |x|)
GROWTH_CEILING = 1e8


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 3:
            raise ValueError(f"n_x must be >= 3, got {self.n_x}")
        if not (-math.inf < self.x_min < self.x_max < math.inf):
            raise ValueError(f"need finite x_min < x_max, got "
                             f"[{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def cell(self, xq: np.ndarray):
        """The cell ``(idx, lam)`` of points xq inside [x_min, x_max]: linear
        interpolation reads W[idx] + lam * (W[idx+1] - W[idx]), so constants
        survive exactly."""
        pos = (xq - self.x_min) / self.dx
        idx = np.clip(pos.astype(np.int64), 0, self.n_x - 2)
        return idx, np.clip(pos - idx, 0.0, 1.0)

    def slope(self, W: np.ndarray) -> np.ndarray:
        """Central difference along the last axis, one-sided at the ends."""
        dx = self.dx
        out = np.empty_like(W)
        out[..., 1:-1] = (W[..., 2:] - W[..., :-2]) / (2.0 * dx)
        out[..., 0] = (W[..., 1] - W[..., 0]) / dx
        out[..., -1] = (W[..., -1] - W[..., -2]) / dx
        return out

    @staticmethod
    def for_problem(problem, n_x: int) -> "Grid1D":
        return Grid1D(problem.x_min, problem.x_max, n_x)


@dataclass(frozen=True)
class SolveRecord:
    """How a grid solver made a field; the residual checks replay it."""

    method: str                             # "lattice" | "hjb"
    n_u: int                                # control grid size
    dt: float                               # internal time step
    substeps_per_row: Optional[int] = None  # hjb: substeps per output row
    cfl_bound: Optional[float] = None       # and the sampled CFL bound


@dataclass(frozen=True)
class ValueField:
    """V(t_k, x_i) on the uniform grid, rows are times t_k = k*dt from 0."""

    grid: Grid1D
    dt: float
    values: np.ndarray  # shape (K+1, n_x)
    solve: Optional[SolveRecord] = None  # None unless a solver made it

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] != self.grid.n_x:
            raise ValueError(
                f"values shape {vals.shape} does not match grid n_x={self.grid.n_x}"
            )
        if not np.all(np.isfinite(vals)):
            k, i = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"non-finite value at row {k}, node {i}")
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_rows)

    def value_at(self, t: float, x: float) -> float:
        """``np.interp`` along the nodes of the row at t, or of the two rows
        around t and then linearly in t: exact at every node.  Points
        outside the field raise ValueError; only round-off of 1e-12 times
        the span is forgiven (and clamped to the nearer edge)."""
        rows, nodes, times = self.values, self.grid.nodes, self.times
        check_range("t", t, 0.0, times[-1], "field's")
        check_range("x", x, self.grid.x_min, self.grid.x_max, "field's")
        k = int(np.searchsorted(times, t, side="right")) - 1
        if k < 0 or k == len(rows) - 1 or times[k] == t:
            return float(np.interp(x, nodes, rows[max(k, 0)]))
        lam = min((t - times[k]) / self.dt, 1.0)
        v0 = np.interp(x, nodes, rows[k])
        return float(v0 + lam * (np.interp(x, nodes, rows[k + 1]) - v0))


def check_range(name: str, v: float, lo: float, hi: float,
                where: str) -> None:
    """Raise ValueError unless lo <= v <= hi, up to round-off of 1e-12
    times the span."""
    slack = 1e-12 * (hi - lo)
    if not (lo - slack <= v <= hi + slack):
        raise ValueError(f"{name}={v} outside the {where} [{lo}, {hi}]")


class GrowthCeilingError(RuntimeError):
    """Backward recursion left the configured linear-growth envelope."""

    def __init__(self, k: int, i: int, value: float):
        super().__init__(
            f"value {value:g} at time row {k}, node {i} violates the growth ceiling"
        )
        self.k = k
        self.i = i


def check_growth(k: int, row: np.ndarray, x: np.ndarray) -> None:
    """Raise GrowthCeilingError at the first node of time row k where
    ``|row| <= GROWTH_CEILING * (1 + |x|)`` fails (a NaN fails too)."""
    bad = ~(np.abs(row) <= GROWTH_CEILING * (1.0 + np.abs(x)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise GrowthCeilingError(k, i, float(row[i]))


def write_field_csv(field: ValueField, path) -> None:
    """CSV file at ``path`` with header ``t,x,v``, row-major by time then
    space, 17 significant digits, so float() of a cell gives back its bits."""
    with open(path, "w", encoding="utf-8", newline="\n") as buf:
        buf.write("t,x,v\n")
        nodes = [f"{x:.17g}" for x in field.grid.nodes.tolist()]
        for t, row in zip(field.times.tolist(), field.values):
            head = f"{t:.17g},"
            buf.write("".join([f"{head}{x},{v:.17g}\n"
                               for x, v in zip(nodes, row.tolist())]))
