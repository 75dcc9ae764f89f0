"""Uniform space grid, the solvers' space-time value field and its record."""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional
import numpy as np

__all__ = ["Grid1D", "ValueField", "SolveRecord", "GrowthCeilingError",
           "check_growth", "write_field_csv", "read_field_csv"]

# both solvers' envelope: |V| <= GROWTH_CEILING * (1 + |x|)
GROWTH_CEILING = 1e8

# what the CSV functions open as a file; anything else is a text buffer
_PATH_TYPES = (str, bytes, os.PathLike)


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 3:
            raise ValueError(f"n_x must be >= 3, got {self.n_x}")
        if not (self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @staticmethod
    def for_problem(problem, n_x: int) -> "Grid1D":
        return Grid1D(problem.x_min, problem.x_max, n_x)


@dataclass(frozen=True)
class SolveRecord:
    """How a grid solver made a field; the residual checks replay it."""

    method: str                             # "lattice" | "hjb"
    n_u: int                                # control grid size
    dt: float                               # internal time step
    substeps_per_row: Optional[int] = None  # hjb: substeps per output row,
    cfl_bound: Optional[float] = None       # the sampled CFL bound and
    cfl_theta: Optional[float] = None       # dt's largest share of it


@dataclass(frozen=True)
class ValueField:
    """V(t_k, x_i) on the uniform grid, rows are times t_k = t0 + k*dt."""

    grid: Grid1D
    t0: float
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
        return self.t0 + self.dt * np.arange(self.n_rows)

    def value_at(self, t: float, x: float) -> float:
        """Bilinear interpolation in (t, x) inside the field.

        Points outside the field raise ValueError; only round-off of
        1e-12 times the span is forgiven (and clamped).
        """
        times = self.times
        for name, v, lo, hi in (("t", t, times[0], times[-1]),
                                ("x", x, self.grid.x_min, self.grid.x_max)):
            slack = 1e-12 * (hi - lo)
            if not (lo - slack <= v <= hi + slack):
                raise ValueError(f"{name}={v} outside the field's [{lo}, {hi}]")
        k = int(np.clip(np.searchsorted(times, t) - 1, 0, self.n_rows - 2))
        lam_t = np.clip((t - times[k]) / self.dt, 0.0, 1.0)
        nodes = self.grid.nodes
        i = int(np.clip(np.searchsorted(nodes, x) - 1, 0, self.grid.n_x - 2))
        lam_x = np.clip((x - nodes[i]) / self.grid.dx, 0.0, 1.0)
        row0 = self.values[k, i] + lam_x * (self.values[k, i + 1] - self.values[k, i])
        row1 = self.values[k + 1, i] + lam_x * (
            self.values[k + 1, i + 1] - self.values[k + 1, i])
        return float(row0 + lam_t * (row1 - row0))


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


def write_field_csv(field: ValueField, path_or_buf) -> None:
    """CSV with header ``t,x,v``, row-major by time then space, 17 digits,
    written to a path (str, bytes or os.PathLike) or a text buffer."""
    with (open(path_or_buf, "w", encoding="utf-8", newline="\n")
          if isinstance(path_or_buf, _PATH_TYPES)
          else nullcontext(path_or_buf)) as buf:
        buf.write("t,x,v\n")
        nodes = [f"{x:.17g}" for x in field.grid.nodes.tolist()]
        for t, row in zip(field.times.tolist(), field.values):
            head = f"{t:.17g},"
            buf.write("".join([f"{head}{x},{v:.17g}\n"
                               for x, v in zip(nodes, row.tolist())]))


def read_field_csv(path_or_buf) -> ValueField:
    """Inverse of :func:`write_field_csv`, but with no solve record.

    The (t, x) columns must be the t-major product of equally spaced times
    and equally spaced nodes, as the writer lays them out; spacing is
    checked up to round-off of 1e-12 times the span.  Any other CSV raises
    ValueError.
    """
    if isinstance(path_or_buf, _PATH_TYPES):
        with open(path_or_buf, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = path_or_buf.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "t,x,v":
        raise ValueError("expected header 't,x,v'")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    ts = np.unique(data[:, 0])
    xs = np.unique(data[:, 1])
    n_t, n_x = len(ts), len(xs)
    if n_t * n_x != data.shape[0]:
        raise ValueError("CSV is not a full time-space product grid")
    if not (np.array_equal(data[:, 0], np.repeat(ts, n_x))
            and np.array_equal(data[:, 1], np.tile(xs, n_t))):
        raise ValueError("CSV lines are not in t-major order")
    if n_t < 2:
        raise ValueError("CSV holds a single time row, which does not fix dt")
    vals = data[:, 2].reshape(n_t, n_x)
    grid = Grid1D(float(xs[0]), float(xs[-1]), n_x)
    field = ValueField(grid=grid, t0=float(ts[0]), dt=float(ts[1] - ts[0]),
                       values=vals)
    for name, got, spaced in (("times", ts, field.times),
                              ("nodes", xs, grid.nodes)):
        if np.max(np.abs(got - spaced)) > 1e-12 * (got[-1] - got[0]):
            raise ValueError(f"CSV {name} are not equally spaced")
    return field
