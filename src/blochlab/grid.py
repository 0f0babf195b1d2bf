"""Uniform discretization of a ring and wavefunctions sampled on it.

The ring has N unit cells of length a, each resolved by P sample points, so
there are G = N*P samples in total over the circumference L = N*a.  Sample j
sits at x_j = j*h with h = L/G.  Because every cell boundary coincides with a
sample, translation by a whole number of cells is an exact index shift and
commutes with everything built from per-cell data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """Two objects that must share a grid were built on different grids."""


@dataclass(frozen=True)
class RingGrid:
    """Uniform periodic grid with ``n_cells`` cells of ``points_per_cell`` samples.

    Attributes
    ----------
    n_cells : int
        Number of unit cells N, at least 2.
    cell_length : float
        Length a of one cell, positive.
    points_per_cell : int
        Samples P per cell, at least 8 so that a cell-scale feature is
        resolved.
    """

    n_cells: int
    cell_length: float
    points_per_cell: int

    def __post_init__(self):
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")
        if not isinstance(self.points_per_cell, (int, np.integer)) or self.points_per_cell < 8:
            raise ValueError(
                f"points_per_cell must be an integer >= 8, got {self.points_per_cell!r}"
            )
        if not np.isfinite(self.cell_length) or self.cell_length <= 0:
            raise ValueError(f"cell_length must be positive and finite, got {self.cell_length!r}")

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
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell must lie in [0, {self.n_cells}), got {cell}")
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


def inner_product(bra: WaveFunction, ket: WaveFunction) -> complex:
    """Quadrature inner product <bra|ket> = h * sum_j conj(bra_j) * ket_j."""
    _require_same_grid(bra, ket)
    return complex(bra.grid.spacing * np.vdot(bra.samples, ket.samples))


def translate_by_cells(psi: WaveFunction, cells: int) -> WaveFunction:
    """Translate a wavefunction by a whole number of cells, exactly.

    The convention is the active shift (T psi)(x) = psi(x + cells*a), i.e.
    output sample j equals input sample (j + cells*P) mod G.  A plane wave
    exp(i*k_l*x) picks up the factor exp(+i*k_l*a) per cell under this map.
    Index arithmetic only, so norms are preserved bit for bit and any number
    of cells (negative, zero, or beyond N) is exact.
    """
    shift = int(cells) * psi.grid.points_per_cell
    return WaveFunction(psi.grid, np.roll(psi.samples, -shift))
