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
    """W_{n M} = (1/sqrt(N)) sum_l exp(-i k_l M a) psi_{n l}.

    The state depends on the gauge of the underlying band: rotating any
    psi_{n k_l} by a phase reshapes W.  Moduli of matrix elements of the
    projector |W><W| between Bloch states do not.
    """
    n_cells = bands.n_cells
    site = _integer(site, "site", minimum=0, maximum=n_cells - 1)
    grid = bands.grid
    acc = np.zeros(grid.total_points, dtype=complex)
    shift = site * grid.cell_length
    for l in range(n_cells):
        state = bands.state(band, l)
        acc += np.exp(-1j * state.wavevector * shift) * state.wavefunction.samples
    return WaveFunction(grid, acc / np.sqrt(n_cells))


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
