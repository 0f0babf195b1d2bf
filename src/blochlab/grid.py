"""Uniform discretization of a ring and wavefunctions sampled on it.

The ring has N unit cells of length a, each resolved by P sample points, so
there are G = N*P samples in total over the circumference L = N*a.  Sample j
sits at x_j = j*h with h = L/G.  Because every cell boundary coincides with a
sample, translation by a whole number of cells is an exact index shift and
commutes with everything built from per-cell data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """Two objects that must share a grid were built on different grids."""


def _integer(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as an int in [minimum, maximum], or ValueError naming ``name`` first.

    A bool is not an integer.  A missing end defaults to -2**53 or 2**53, and no value
    beyond 2**53 in magnitude passes: float arithmetic on an index stops being exact there.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not (abs(value) <= 2**53 and (minimum is None or value >= minimum)
            and (maximum is None or value <= maximum)):
        low = "-2**53" if minimum is None else minimum
        high = "2**53" if maximum is None else maximum
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def _number(value, name: str, positive: bool = False) -> float:
    """``value`` as a finite float, > 0 with ``positive``, or ValueError naming ``name`` first.

    A bool is not a number, and an int beyond the float range counts as infinite.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (number > 0 or not positive)):
        rule = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {rule}, got {number!r}")
    return number


@dataclass(frozen=True)
class RingGrid:
    """Uniform periodic grid with ``n_cells`` cells of ``points_per_cell`` samples.

    Attributes
    ----------
    n_cells : int
        Number of unit cells N, at least 2.
    cell_length : float
        Length a of one cell, positive, with N*a finite.
    points_per_cell : int
        Samples P per cell, at least 8 so that a cell-scale feature is
        resolved.
    """

    n_cells: int
    cell_length: float
    points_per_cell: int

    def __post_init__(self):
        # Stored as checked: plain ints and a float, whatever numeric types came in.
        object.__setattr__(self, "n_cells", _integer(self.n_cells, "n_cells", minimum=2))
        object.__setattr__(self, "cell_length",
                           _number(self.cell_length, "cell_length", positive=True))
        object.__setattr__(self, "points_per_cell",
                           _integer(self.points_per_cell, "points_per_cell", minimum=8))
        if not math.isfinite(self.ring_length):
            raise ValueError("cell_length must keep the ring length n_cells * cell_length finite,"
                             f" got {self.n_cells} * {self.cell_length!r}")

    @property
    def total_points(self) -> int:
        """Total number of samples G = N*P."""
        return self.n_cells * self.points_per_cell

    @property
    def ring_length(self) -> float:
        """Circumference L = N*a."""
        return self.n_cells * self.cell_length

    @property
    def spacing(self) -> float:
        """Sample spacing h = L/G."""
        return self.ring_length / self.total_points

    @property
    def points(self) -> np.ndarray:
        """Positions x_j = j*h for j = 0..G-1."""
        return np.arange(self.total_points) * self.spacing

    def wavevector(self, sector: int) -> float:
        """Allowed ring wavevector k_l = 2*pi*l/L for integer sector label l."""
        return 2.0 * np.pi * sector / self.ring_length

    def index_of_cell(self, cell: int) -> int:
        """Index of the sample at the center of ``cell`` (offset P//2 into it)."""
        cell = _integer(cell, "cell", minimum=0, maximum=self.n_cells - 1)
        return cell * self.points_per_cell + self.points_per_cell // 2

    def ring_distance(self, i: int, j: int) -> float:
        """Shortest distance along the ring between samples i and j."""
        d = abs(int(i) - int(j)) % self.total_points
        return min(d, self.total_points - d) * self.spacing


@dataclass
class WaveFunction:
    """Complex samples psi(x_j) on a :class:`RingGrid`.

    The squared norm uses the quadrature weight h, so a normalized state has
    h * sum_j |psi_j|^2 = 1.
    """

    grid: RingGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.grid.total_points,):
            raise ValueError(
                f"samples must have shape ({self.grid.total_points},), got {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.samples = samples

    def norm(self) -> float:
        return float(np.sqrt(self.grid.spacing * np.vdot(self.samples, self.samples).real))


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")

