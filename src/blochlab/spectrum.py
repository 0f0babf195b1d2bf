"""Band structure of the ring: sector-by-sector solve and translation classifier.

On a ring of N cells the one-cell translation T commutes with a cell-periodic
Hamiltonian, so the spectrum splits into N sectors labelled by l = 0..N-1
with T-eigenvalue exp(+i k_l a), k_l = 2 pi l / L.  States take the Bloch
form psi(x) = u(x) exp(i k_l x) with u cell-periodic.

Two independent routes to the same spectrum are provided and kept separate
on purpose:

* :func:`solve_sector` / :func:`solve_bands` work in the reduced plane-wave
  basis of one sector, never touching the other sectors.
* :func:`classify_by_translation` diagonalizes the dense Hamiltonian with no
  sector knowledge and reads each eigenvector's sector off the translation
  operator afterwards, with numpy's Hermitian eigensolver alone.

Agreement between the two is a meaningful check, so neither calls the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import RingGrid, WaveFunction, _integer, _require_same_grid, translate_by_cells
from .lattice import (OperatorMatrix, PotentialSpec, _commutator_slabs, _kinetic_scale,
                      _require_hermitian, is_one_cell_shift)

# Relative spectral-gap threshold below which eigh ordering inside a
# degenerate cluster is not trustworthy and a deterministic rule takes over.
_CLUSTER_RTOL = 1e-9


@dataclass
class BlochState:
    """One band eigenstate of a definite crystal-momentum sector.

    Attributes
    ----------
    band : int
        Band index n, counted from 0 upward in energy within the sector.
    sector : int
        Crystal-momentum label l in {0..N-1}; the translation eigenvalue is
        exp(+i k_l a).
    energy : float
    wavefunction : WaveFunction
        Normalized full wave psi = u(x) exp(i k_l x).
    cell_part : WaveFunction
        The cell-periodic factor u(x) = psi(x) exp(-i k_l x).
    """

    band: int
    sector: int
    energy: float
    wavefunction: WaveFunction
    cell_part: WaveFunction

    @property
    def wavevector(self) -> float:
        return self.wavefunction.grid.wavevector(self.sector)


def _cell_part(psi: WaveFunction, sector: int) -> WaveFunction:
    grid = psi.grid
    phase = np.exp(-1j * grid.wavevector(sector) * grid.points)
    return WaveFunction(grid, psi.samples * phase)


def fix_gauge(state: BlochState) -> BlochState:
    """Remove the free global phase with a deterministic convention.

    The whole state is rotated so that u at its largest-modulus sample (the
    first such sample on ties) is real and positive.  Applying the fix twice
    changes nothing, and two states differing only by a global phase map to
    the same representative.
    """
    u = state.cell_part.samples
    moduli = np.abs(u)
    top = float(moduli.max())
    # Ties must be detected with a tolerance band: an exactly flat or
    # symmetric profile (plane wave, standing wave) acquires last-bit noise
    # that would otherwise send independent solvers to different peaks.
    peak = int(np.argmax(moduli >= top * (1.0 - 1e-9)))
    value = u[peak]
    if value == 0:
        raise ValueError("cannot fix gauge: cell-periodic part vanishes at its own peak")
    phase = value / abs(value)
    grid = state.wavefunction.grid
    return replace(
        state,
        wavefunction=WaveFunction(grid, state.wavefunction.samples / phase),
        cell_part=WaveFunction(grid, u / phase),
    )


def _clusters(energies: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) spans of ascending ``energies`` that count as degenerate.

    Neighbours no farther apart than _CLUSTER_RTOL times the spectrum's span share a
    cluster.  With no absolute floor no energy unit merges levels; one level is one cluster.
    """
    tol = _CLUSTER_RTOL * float(energies[-1] - energies[0])
    edges = [0, *(np.flatnonzero(np.diff(energies) > tol) + 1).tolist(), energies.size]
    return list(zip(edges[:-1], edges[1:]))


def _tie_broken_order(energies: np.ndarray, vectors: np.ndarray, wavenumbers: np.ndarray,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
    """Resolve degenerate clusters toward definite plane-wave content.

    Inside each cluster of (numerically) equal energies the eigvectors are
    rotated to diagonalize the restriction of the wavenumber operator, then
    ordered by |q| with positive q first.  This pins the band labels at
    crossings such as the free particle at the zone edge, where LAPACK's
    ordering is arbitrary.  Only clusters that start below ``count`` are rotated;
    they still come from the whole spectrum, whose span sets their tolerance.
    """
    vectors = vectors.copy()
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
    return energies, vectors


def solve_sector(grid: RingGrid, potential: PotentialSpec, sector: int,
                 band_count: int, mass: float = 1.0, hbar: float = 1.0) -> list[BlochState]:
    """Lowest ``band_count`` eigenstates of crystal momentum k_l, l = ``sector``.

    Works entirely in the reduced basis of the P plane waves
    exp(i kappa x)/sqrt(L) with kappa = (2 pi / L) q, q = l + N m folded into
    [-G/2, G/2) as the grid's wavenumbers are, m running over the symmetric
    window [-P/2, P/2).  The block is the kinetic diagonal kappa^2 plus the
    Toeplitz block of V_hat(d), |d| < P.  It deviates from the grid H's sector
    block only by the wrap-around coupling: a sampled potential also couples
    m and m +- P through aliasing, and a harmonic h >= P couples only that
    way, so the table leaves it out.  That coupling stays out because the
    circulant block that has it makes the energies at P = 256 follow the BLAS
    thread count, on potentials where the Toeplitz block's do not.

    Each state is built from one cell.  On the samples x_j = j h,
    exp(i kappa x_j) = exp(i k_l x_j) exp(2 pi i m j / P), so psi = exp(i k_l x) u
    where u is (P / sqrt(L)) times the length-P inverse FFT of the coefficients
    placed at m mod P, tiled over the N cells: u is cell-periodic bit for bit.
    """
    sector = _integer(sector, "sector", minimum=0, maximum=grid.n_cells - 1)
    band_count = _integer(band_count, "band_count", minimum=1, maximum=grid.points_per_cell)
    scale = _kinetic_scale(mass, hbar)

    p = grid.points_per_cell
    n_cells = grid.n_cells
    length, g = grid.ring_length, grid.total_points
    m_window = np.arange(-(p // 2), p - p // 2)
    q = (sector + n_cells * m_window + g // 2) % g - g // 2   # folded wavenumber index
    kappa = 2.0 * np.pi * q / length

    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf = NaN: rejected below
        kinetic = np.diag(scale * kappa**2).astype(complex)
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
    block = kinetic + coeff[i[:, None] - i[None, :] + p - 1]
    if not np.all(np.isfinite(block)):
        raise ValueError(f"sector {sector} block is not finite (hbar^2/2m = {scale!r})")

    energies, coeffs = np.linalg.eigh(block)
    if not np.all(np.isfinite(energies)):
        raise ValueError(f"sector {sector} energies are not finite")
    energies, coeffs = _tie_broken_order(energies, coeffs, q.astype(float), band_count)

    # m_window is in FFT-shifted order, so ifftshift puts m at index m mod P.
    cells = np.fft.ifft(np.fft.ifftshift(coeffs[:, :band_count], axes=0), axis=0)
    phase = np.exp(1j * grid.wavevector(sector) * grid.points)
    states = []
    for band, cell in enumerate(cells.T * (p / np.sqrt(length))):
        u = np.tile(cell, n_cells)
        states.append(fix_gauge(BlochState(
            band=band, sector=sector, energy=float(energies[band]),
            wavefunction=WaveFunction(grid, phase * u), cell_part=WaveFunction(grid, u),
        )))
    return states


@dataclass
class BandStructure:
    """All computed Bloch states, indexed by band n and sector l."""

    grid: RingGrid
    states: list[list[BlochState]]     # states[n][l]

    def __post_init__(self):
        if not self.states or any(len(row) != self.grid.n_cells for row in self.states):
            raise ValueError("states must be a non-empty band-major table of N sectors per band")

    @property
    def band_count(self) -> int:
        return len(self.states)

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def state(self, band: int, sector: int) -> BlochState:
        """State of ``band`` in [0, band_count); ``sector`` is taken mod N."""
        _integer(band, "band", minimum=0, maximum=self.band_count - 1)
        return self.states[band][sector % self.grid.n_cells]

    def all_states(self):
        for row in self.states:
            yield from row

    def energies(self) -> np.ndarray:
        """Array of shape (band_count, N) of eigenvalues."""
        return np.array([[s.energy for s in row] for row in self.states])

    def state_matrix(self) -> np.ndarray:
        """Columns psi_{n l} in band-major order, shape (G, band_count * N)."""
        cols = [s.wavefunction.samples for s in self.all_states()]
        return np.column_stack(cols)

    def orthonormality_defect(self) -> float:
        """Largest deviation of h * Psi^dagger Psi from the identity."""
        m = self.state_matrix()
        gram = self.grid.spacing * (m.conj().T @ m)
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))

    def translation_defect(self) -> float:
        """Largest norm of T_a psi - exp(+i k_l a) psi over all states."""
        worst = 0.0
        for s in self.all_states():
            shifted = translate_by_cells(s.wavefunction, 1)
            expected = np.exp(1j * s.wavevector * self.grid.cell_length)
            diff = WaveFunction(self.grid, shifted.samples - expected * s.wavefunction.samples)
            worst = max(worst, diff.norm())
        return worst

    def cell_periodicity_defect(self) -> float:
        """Largest |u(x + a) - u(x)| over all states and samples."""
        p = self.grid.points_per_cell
        worst = 0.0
        for s in self.all_states():
            u = s.cell_part.samples
            worst = max(worst, float(np.max(np.abs(np.roll(u, -p) - u))))
        return worst


def solve_bands(grid: RingGrid, potential: PotentialSpec, band_count: int,
                mass: float = 1.0, hbar: float = 1.0) -> BandStructure:
    """Solve every sector and assemble the band-major table."""
    per_sector = [
        solve_sector(grid, potential, l, band_count, mass=mass, hbar=hbar)
        for l in range(grid.n_cells)
    ]
    rows = [[per_sector[l][n] for l in range(grid.n_cells)] for n in range(band_count)]
    return BandStructure(grid, rows)


def classify_by_translation(hamiltonian: OperatorMatrix, translation: OperatorMatrix,
                            band_count: int) -> BandStructure:
    """Diagonalize H directly and sort eigenvectors into sectors using T.

    No sector structure is assumed up front: the dense H is diagonalized
    (by LAPACK's real symmetric solver when H is real), eigenvectors are
    clustered by energy, and each degenerate cluster is rotated onto the
    eigenvectors of the restricted translation R, which is unitary when
    [H, T] = 0.  They come from a Hermitian eigensolve of the Hermitian part
    of exp(-i pi/(2N)) R, whose eigenvalues separate the sectors, so the
    rotation is unitary even when one sector holds two states of a cluster.
    The sector label l is read from z^dagger R z = exp(+i 2 pi l / N).
    ``translation`` must be exactly the one-cell shift (checked in O(G^2));
    it is applied as an index shift.  The [H, T] bound is 1e-9 max |H|.

    The walk up the clusters stops once every sector holds ``band_count``
    states.  Later clusters lie strictly higher and the per-sector sort is
    stable, so the returned states are a full walk's bit for bit; each one
    passed the unit-circle and N-th root checks, and only unreturned states
    go unrotated.
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
    per_sector: list[list[tuple[float, np.ndarray]]] = [[] for _ in range(n_cells)]
    for start, stop in _clusters(energies):
        if min(map(len, per_sector)) >= band_count:
            break
        block = vectors[:, start:stop]
        restricted = block.conj().T @ np.roll(block, -p, axis=0)
        tilted = tilt * restricted
        _, z = np.linalg.eigh(0.5 * (tilted + tilted.conj().T))
        rotated = block @ z
        t_eigs = np.einsum("ij,ij->j", z.conj(), restricted @ z)
        for i in range(stop - start):
            lam = t_eigs[i]
            if abs(abs(lam) - 1.0) > 1e-8:
                raise ValueError(
                    f"translation eigenvalue {lam!r} is not on the unit circle"
                )
            l = int(np.rint(np.angle(lam) * n_cells / (2.0 * np.pi))) % n_cells
            residual = abs(lam - np.exp(2j * np.pi * l / n_cells))
            if residual > 1e-6:
                raise ValueError(
                    f"translation eigenvalue {lam!r} is not an N-th root of unity"
                )
            psi = WaveFunction(grid, rotated[:, i] / np.sqrt(grid.spacing))
            per_sector[l].append((float(energies[start + i]), psi))

    rows: list[list[BlochState]] = [[] for _ in range(band_count)]
    for l, bucket in enumerate(per_sector):
        bucket.sort(key=lambda item: item[0])
        if len(bucket) < band_count:
            raise ValueError(
                f"sector {l} received {len(bucket)} states, fewer than band_count={band_count}"
            )
        for n in range(band_count):
            energy, psi = bucket[n]
            state = BlochState(
                band=n,
                sector=l,
                energy=energy,
                wavefunction=psi,
                cell_part=_cell_part(psi, l),
            )
            rows[n].append(fix_gauge(state))
    return BandStructure(grid, rows)

