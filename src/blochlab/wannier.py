"""Lattice-site (Wannier) states built from one band, and their projectors.

The site-M state of band n is the discrete Fourier transform of the band
over sectors,

    W_{n M}(x) = (1/sqrt(N)) sum_l exp(-i k_l M a) psi_{n k_l}(x),

which is the unitary change of basis from crystal momentum to lattice site
within the band.  Everything downstream (orthonormality over sites, the
rank-1 projector, the translation covariance W_M -> W_{M-1}) follows from
that single formula.
"""

from __future__ import annotations

import numpy as np

from .grid import WaveFunction, _integer
from .lattice import OperatorMatrix
from .spectrum import BandStructure


def build_wannier(bands: BandStructure, band: int, site: int) -> WaveFunction:
    """W_{n M} = (1/sqrt(N)) sum_l exp(-i k_l M a) psi_{n l}, summed over the rows
    ``bands.waves[band]`` in sector order.

    The state depends on the gauge of the underlying band: rotating any
    psi_{n k_l} by a phase reshapes W.  Moduli of matrix elements of the
    projector |W><W| between Bloch states do not.
    """
    grid = bands.grid
    site = _integer(site, "site", minimum=0, maximum=grid.n_cells - 1)
    band = _integer(band, "band", minimum=0, maximum=bands.band_count - 1)
    phases = np.exp(-1j * grid.wavevector(np.arange(grid.n_cells)) * (site * grid.cell_length))
    acc = sum(phase * psi for phase, psi in zip(phases, bands.waves[band]))
    return WaveFunction(grid, acc / np.sqrt(grid.n_cells))


def wannier_projector(state: WaveFunction) -> OperatorMatrix:
    """Rank-1 projector onto the site state, as a quadrature kernel.

    Entries are h * W(x_i) conj(W(x_j)), so the matrix is idempotent under
    plain matrix multiplication and has trace 1 for a normalized W.
    """
    w = state.samples
    grid = state.grid
    entries = grid.spacing * np.outer(w, w.conj())
    return OperatorMatrix(grid, entries)


def cell_probability(state: WaveFunction) -> np.ndarray:
    """Probability h * sum_{j in cell} |W_j|^2 carried by each of the N cells."""
    grid = state.grid
    density = grid.spacing * np.abs(state.samples) ** 2
    return density.reshape(grid.n_cells, grid.points_per_cell).sum(axis=1)
