"""Band structure of the ring: stacked sector solve and translation classifier.

On a ring of N cells the one-cell translation T commutes with a cell-periodic
Hamiltonian, so the spectrum splits into N sectors labelled by l = 0..N-1
with T-eigenvalue exp(+i k_l a), k_l = 2 pi l / L.  States take the Bloch
form psi(x) = u(x) exp(i k_l x) with u cell-periodic.

Two independent routes to the same spectrum are provided and kept separate
on purpose:

* :func:`solve_bands` works in the reduced plane-wave basis of each sector:
  the N sector blocks never couple, so one eigh diagonalizes them as a stack.
* :func:`classify_by_translation` diagonalizes the dense Hamiltonian with no
  sector knowledge and reads each eigenvector's sector off the translation
  operator afterwards, with numpy's Hermitian eigensolver alone.

Agreement between the two is a meaningful check, so neither calls the other.  Both
fill the three arrays of a :class:`BandStructure` and fix every row's gauge in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RingGrid, _integer, _require_same_grid
from .lattice import (OperatorMatrix, PotentialSpec, _commutator_slabs, _kinetic_scale,
                      _require_hermitian, is_one_cell_shift)

# Relative spectral-gap threshold below which eigh ordering inside a
# degenerate cluster is not trustworthy and a deterministic rule takes over.
_CLUSTER_RTOL = 1e-9


def _fix_gauge(waves: np.ndarray, cells: np.ndarray) -> None:
    """Remove each state's free global phase in place, with a deterministic convention.

    ``waves`` and ``cells`` are C-contiguous arrays of psi and u rows, shape (..., G).
    Each psi and its u are rotated so that u at its largest-modulus sample (the first
    such sample on ties) is real and positive.  Applying the fix twice changes nothing,
    and two states differing only by a global phase map to the same representative.
    """
    g = waves.shape[-1]
    for psi, u in zip(waves.reshape(-1, g), cells.reshape(-1, g)):
        moduli = np.abs(u)
        top = float(moduli.max())
        # Ties must be detected with a tolerance band: an exactly flat or
        # symmetric profile (plane wave, standing wave) acquires last-bit noise
        # that would otherwise send independent solvers to different peaks.
        peak = int(np.argmax(moduli >= top * (1.0 - 1e-9)))
        value = u[peak]
        if value == 0:
            raise ValueError("cannot fix gauge: cell-periodic part vanishes at its own peak")
        phase = value / abs(value)  # scalar abs: np.abs can differ in the last bit
        psi /= phase
        u /= phase


def _clusters(energies: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) spans of ascending ``energies`` that count as degenerate.

    Neighbours no farther apart than _CLUSTER_RTOL times the spectrum's span share a
    cluster.  With no absolute floor no energy unit merges levels; one level is one cluster.
    """
    tol = _CLUSTER_RTOL * float(energies[-1] - energies[0])
    edges = [0, *(np.flatnonzero(np.diff(energies) > tol) + 1).tolist(), energies.size]
    return list(zip(edges[:-1], edges[1:]))


def _tie_broken_order(energies: np.ndarray, vectors: np.ndarray, wavenumbers: np.ndarray,
                      count: int) -> None:
    """Resolve degenerate clusters toward definite plane-wave content, rotating the
    columns of ``vectors`` in place.

    Inside each cluster of (numerically) equal energies the eigvectors are
    rotated to diagonalize the restriction of the wavenumber operator, then
    ordered by |q| with positive q first.  This pins the band labels at
    crossings such as the free particle at the zone edge, where LAPACK's
    ordering is arbitrary.  Only clusters that start below ``count`` are rotated;
    they still come from the whole spectrum, whose span sets their tolerance.
    """
    for start, stop in _clusters(energies):
        if start >= count:
            break
        if stop - start > 1:
            block = vectors[:, start:stop]
            q_block = block.conj().T @ (wavenumbers[:, None] * block)
            q_vals, q_vecs = np.linalg.eigh(q_block)
            rotated = block @ q_vecs
            q_round = np.rint(q_vals).astype(int)
            rank = np.lexsort((q_round < 0, np.abs(q_round)))
            vectors[:, start:stop] = rotated[:, rank]


@dataclass
class BandStructure:
    """All computed Bloch states as three arrays indexed by band n and sector l.

    ``energy`` has shape (band_count, N); ``waves`` holds psi_{n l} and ``cells``
    its cell-periodic part u_{n l} = psi_{n l} exp(-i k_l x), each of shape
    (band_count, N, G).  Both routes fill them C-contiguous: one row per state.
    The library reads the rows.
    """

    grid: RingGrid
    energy: np.ndarray
    waves: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        shape = (len(self.energy), self.grid.n_cells)
        if not (shape[0] and self.energy.shape == shape
                and self.waves.shape == self.cells.shape == (*shape, self.grid.total_points)):
            raise ValueError(f"energy must have shape (band_count, N) = (B, {shape[1]}) and waves"
                             f" and cells (B, N, G) with G = {self.grid.total_points}, B >= 1")
        if not all(np.all(np.isfinite(a)) for a in (self.energy, self.waves, self.cells)):
            raise ValueError("energies and states must be finite")

    @property
    def band_count(self) -> int:
        return len(self.energy)

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def energies(self) -> np.ndarray:
        """Array of shape (band_count, N) of eigenvalues."""
        return self.energy.copy()

    def state_matrix(self) -> np.ndarray:
        """Columns psi_{n l} in band-major order, shape (G, band_count * N): a fresh
        C-contiguous copy, which the caller may overwrite."""
        return self.waves.reshape(-1, self.grid.total_points).T.copy()

    def orthonormality_defect(self) -> float:
        """Largest deviation of h * Psi^dagger Psi from the identity."""
        m = self.state_matrix()
        gram = self.grid.spacing * (m.conj().T @ m)
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))

    def translation_defect(self) -> float:
        """Largest norm of T_a psi - exp(+i k_l a) psi over all states."""
        grid = self.grid
        sectors = np.arange(grid.n_cells)[:, None]
        phases = np.exp(1j * grid.wavevector(sectors) * grid.cell_length)
        largest = max(np.vdot(diff, diff).real for row in self.waves
                      for diff in np.roll(row, -grid.points_per_cell, axis=-1) - phases * row)
        return float(np.sqrt(grid.spacing * largest))

    def cell_periodicity_defect(self) -> float:
        """Largest |u(x + a) - u(x)| over all states and samples."""
        u = self.cells
        return float(np.max(np.abs(np.roll(u, -self.grid.points_per_cell, axis=-1) - u)))


def solve_bands(grid: RingGrid, potential: PotentialSpec, band_count: int,
                mass: float = 1.0, hbar: float = 1.0) -> BandStructure:
    """Lowest ``band_count`` eigenstates of every crystal momentum k_l, l = 0..N-1.

    Sector l works in the reduced basis of the P plane waves
    exp(i kappa x)/sqrt(L) with kappa = (2 pi / L) q, q = l + N m folded into
    [-G/2, G/2) as the grid's wavenumbers are, m running over the symmetric
    window [-P/2, P/2).  Its block is the kinetic diagonal kappa^2 plus the
    Toeplitz block of V_hat(d), |d| < P, which all N sectors share; the N
    blocks go to one eigh as an (N, P, P) stack.  A block deviates from the
    grid H's sector block only by the wrap-around coupling: a sampled
    potential also couples m and m +- P through aliasing, and a harmonic
    h >= P couples only that way, so the table leaves it out.  That coupling
    stays out because the circulant block that has it makes the energies at
    P = 256 follow the BLAS thread count, on potentials where the Toeplitz
    block's do not.

    Each state is built from one cell.  On the samples x_j = j h,
    exp(i kappa x_j) = exp(i k_l x_j) exp(2 pi i m j / P), so psi = exp(i k_l x) u
    where u is (P / sqrt(L)) times the length-P inverse FFT of the coefficients
    placed at m mod P, tiled over the N cells: u is cell-periodic bit for bit.
    """
    band_count = _integer(band_count, "band_count", minimum=1, maximum=grid.points_per_cell)
    scale = _kinetic_scale(mass, hbar)
    p, n_cells = grid.points_per_cell, grid.n_cells
    length, g = grid.ring_length, grid.total_points
    m_window = np.arange(-(p // 2), p - p // 2)
    sectors = np.arange(n_cells)[:, None]
    q = (sectors + n_cells * m_window + g // 2) % g - g // 2   # (N, P) folded wavenumber indices
    # exp(i k_l x), shape (N, G), made before the stack is freed: after glibc unmaps
    # the stack it puts arrays of this size on its heap, which stays resident.
    phases = 1j * grid.wavevector(sectors) * grid.points
    np.exp(phases, out=phases)

    # The potential couples plane waves differing by a reciprocal lattice
    # vector: <kappa_i| V |kappa_j> = V_hat(i - j) up to aliasing, so the block
    # is Toeplitz in i - j and one table of V_hat(d), d = 1-P .. P-1, fills it.
    coeff = np.zeros(2 * p - 1, dtype=complex)
    coeff[p - 1] = potential.constant
    for h, alpha, beta in potential.harmonics:
        if h < p:
            c = 0.5 * complex(alpha, -beta)
            coeff[p - 1 + h], coeff[p - 1 - h] = c, np.conj(c)
    i = np.arange(p)
    # + 0.0 makes every zero part +0.0: the bits of a zero block plus the table.
    blocks = np.repeat(coeff[i[:, None] - i[None, :] + p - 1][None] + 0.0, n_cells, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf = NaN: rejected below
        blocks[:, i, i] += scale * (2.0 * np.pi * q / length) ** 2
    bad = np.flatnonzero(~np.isfinite(blocks).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"sector {bad[0]} block is not finite (hbar^2/2m = {scale!r})")
    energies, coeffs = np.linalg.eigh(blocks)
    del blocks   # the stack goes before the tie-break and the synthesis
    for l in range(n_cells):
        _tie_broken_order(energies[l], coeffs[l], q[l].astype(float), band_count)

    # m_window is in FFT-shifted order, so ifftshift puts m at index m mod P.
    cells = np.fft.ifft(np.fft.ifftshift(coeffs[:, :, :band_count], axes=1), axis=1)
    del coeffs
    cells = np.tile(cells.transpose(2, 0, 1) * (p / np.sqrt(length)), n_cells)
    waves = phases * cells
    _fix_gauge(waves, cells)
    return BandStructure(grid, np.ascontiguousarray(energies[:, :band_count].T), waves, cells)


def classify_by_translation(hamiltonian: OperatorMatrix, translation: OperatorMatrix,
                            band_count: int) -> BandStructure:
    """Diagonalize H directly and sort eigenvectors into sectors using T.

    No sector structure is assumed up front: the dense H is diagonalized
    (by LAPACK's real symmetric solver when H is real), eigenvectors are
    clustered by energy, and each degenerate cluster is rotated onto the
    eigenvectors z of the restricted translation R, which is unitary when
    [H, T] = 0.  They come from a Hermitian eigensolve of the Hermitian part
    of exp(-i pi/(2N)) R, whose eigenvalues separate the sectors, so the
    rotation is unitary even when one sector holds two states of a cluster.
    The cluster's labels l are read in one step from the vector
    z^dagger R z = exp(+i 2 pi l / N), which must lie within 1e-8 of the unit
    circle and 1e-6 of the N-th root.  ``translation`` must be exactly the
    one-cell shift (checked in O(G^2)); it is applied as an index shift.  The
    [H, T] bound is 1e-9 max |H|.

    The walk up the clusters stops once every sector holds ``band_count``
    states, so only unreturned states go unrotated.  The walked states stay in
    ascending energy, and each sector's bands are its first ``band_count`` of
    them, gathered into the three arrays at once.
    """
    grid = hamiltonian.grid
    _require_same_grid(hamiltonian, translation)
    if not is_one_cell_shift(translation):
        raise ValueError("translation operator is not the unitary one-cell shift")
    h = hamiltonian.entries
    p = grid.points_per_cell
    scale = _require_hermitian(h, "hamiltonian")
    comm = max(float(np.max(np.abs(slab))) for slab in _commutator_slabs(h, p))
    if not comm <= 1e-9 * scale:
        raise ValueError(
            f"hamiltonian does not commute with translation (defect {comm:.3e})"
        )
    band_count = _integer(band_count, "band_count", minimum=1, maximum=grid.points_per_cell)

    energies, vectors = np.linalg.eigh(h)
    n_cells = grid.n_cells
    # The Hermitian part of e^{-i pi/(2N)} R has R's eigenvectors and eigenvalues
    # cos(2 pi l / N - pi/(2N)), distinct across l: no two 2 pi l / N sum to pi/N mod 2 pi.
    # Sectors l and N - l lie only 2 sin(2 pi l / N) sin(pi/(2N)) ~ 2 pi^2 l / N^2 apart.
    tilt = np.exp(-0.5j * np.pi / n_cells)
    counts = np.zeros(n_cells, dtype=int)
    rotated, labels = [], []
    for start, stop in _clusters(energies):
        if counts.min() >= band_count:
            break
        block = vectors[:, start:stop]
        restricted = block.conj().T @ np.roll(block, -p, axis=0)
        tilted = tilt * restricted
        _, z = np.linalg.eigh(0.5 * (tilted + tilted.conj().T))
        lam = np.einsum("ij,ij->j", z.conj(), restricted @ z)
        off = np.flatnonzero(np.abs(np.abs(lam) - 1.0) > 1e-8)
        if off.size:
            raise ValueError(f"translation eigenvalue {lam[off[0]]!r} is not on the unit circle")
        l = np.rint(np.angle(lam) * n_cells / (2.0 * np.pi)).astype(int) % n_cells
        off = np.flatnonzero(np.abs(lam - np.exp(2j * np.pi * l / n_cells)) > 1e-6)
        if off.size:
            raise ValueError(
                f"translation eigenvalue {lam[off[0]]!r} is not an N-th root of unity")
        rotated.append(block @ z)
        labels.append(l)
        counts += np.bincount(l, minlength=n_cells)

    short = np.flatnonzero(counts < band_count)
    if short.size:
        raise ValueError(f"sector {short[0]} received {counts[short[0]]} states,"
                         f" fewer than band_count={band_count}")
    sectors = np.concatenate(labels)
    order = np.array([np.flatnonzero(sectors == l)[:band_count] for l in range(n_cells)]).T
    energy = energies[order]
    waves = np.ascontiguousarray(np.concatenate(rotated, axis=1).T[order])
    rotated.clear()   # free the walked columns before u is built beside psi
    waves /= np.sqrt(grid.spacing)
    cells = waves * np.exp(-1j * grid.wavevector(np.arange(n_cells)[:, None]) * grid.points)
    _fix_gauge(waves, cells)
    return BandStructure(grid, energy, waves, cells)
