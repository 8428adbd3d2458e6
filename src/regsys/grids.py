"""Uniform time grids and sampled vector-valued signals.

Inputs are interpreted as zero-order hold (constant on each subinterval,
taking the left sample), which is what makes the discrete composition
identities of the system maps exact. Signal norms are discrete L2 norms
with trapezoid weights.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ShapeError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = t_end with N = n_steps.

    Inputs:
      t_end   - duration of the time interval, > 0
      n_steps - number of subintervals, >= 1
    """

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise GridError(f"t_end must be positive and finite, got {self.t_end}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise GridError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def __len__(self) -> int:
        return self.n_steps + 1

    def index_of(self, t: float, rtol: float = 1e-9) -> int:
        """Index k with t_k = t. Refuses values that are not grid-aligned,
        NaN and +-inf among them."""
        q = t / self.dt
        k = int(round(q)) if np.isfinite(q) else -1
        if k < 0 or k > self.n_steps or abs(t - k * self.dt) > rtol * max(self.dt, abs(t)):
            raise GridError(f"t={t} is not a node of the grid (dt={self.dt})")
        return k

    def prefix(self, n_steps: int) -> "TimeGrid":
        """Subgrid [0, n_steps*dt] with the same spacing; the grid itself at
        full length, since n_steps * dt need not round back to t_end."""
        if not (1 <= n_steps <= self.n_steps):
            raise GridError(f"prefix length {n_steps} out of range")
        if n_steps == self.n_steps:
            return self
        return TimeGrid(n_steps * self.dt, n_steps)


@dataclass(frozen=True, eq=False)
class Signal:
    """Vector-valued samples on a TimeGrid.

    values has shape (n_steps + 1, dim). Entries may be real or complex;
    they are stored as given.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != len(self.grid):
            raise ShapeError(
                f"signal values must be ({len(self.grid)}, dim), got {np.asarray(self.values).shape}"
            )
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ShapeError("signal contains non-finite entries")
        v = np.array(v, copy=True)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def norm(self) -> float:
        """Discrete L2 norm with trapezoid weights."""
        w = np.full(len(self.grid), self.grid.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return float(np.sqrt(np.sum(w * np.sum(np.abs(self.values) ** 2, axis=1))))

    def __add__(self, other: "Signal") -> "Signal":
        self._check_compatible(other)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        self._check_compatible(other)
        return Signal(self.grid, self.values - other.values)

    def _check_compatible(self, other: "Signal") -> None:
        if self.grid != other.grid or self.dim != other.dim:
            raise ShapeError("signals live on different grids or dimensions")

    @staticmethod
    def zero(grid: TimeGrid, dim: int) -> "Signal":
        return Signal(grid, np.zeros((len(grid), dim)))

    @staticmethod
    def constant(grid: TimeGrid, value) -> "Signal":
        value = np.atleast_1d(np.asarray(value))
        return Signal(grid, np.tile(value, (len(grid), 1)))

    def to_csv(self, path: str) -> None:
        """Write `t, v0_re, v0_im, v1_re, v1_im, ...` rows."""
        header = ["t"]
        for j in range(self.dim):
            header += [f"v{j}_re", f"v{j}_im"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t, row in zip(self.grid.nodes, self.values):
                out = [repr(float(t))]
                for z in row:
                    z = complex(z)
                    out += [repr(z.real), repr(z.imag)]
                writer.writerow(out)

    @staticmethod
    def from_csv(path: str) -> "Signal":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(x) for x in row] for row in reader if row]
        if not rows or (len(header) - 1) % 2 != 0:
            raise ShapeError(f"malformed signal CSV {path}")
        data = np.asarray(rows)
        t = data[:, 0]
        if len(t) < 2:
            raise ShapeError("signal CSV needs at least two samples")
        grid = TimeGrid(float(t[-1]), len(t) - 1)
        re = data[:, 1::2]
        im = data[:, 2::2]
        values = re + 1j * im if np.any(im) else re
        return Signal(grid, values)
