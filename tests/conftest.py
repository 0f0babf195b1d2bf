import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from blochlab import (
    BandStructure,
    OperatorMatrix,
    PotentialSpec,
    RingGrid,
    WaveFunction,
    build_hamiltonian,
    build_translation,
    build_wannier,
    solve_bands,
    wannier_projector,
)
from blochlab.derivatives import _circulant, _momentum_column
from blochlab.grid import _integer, _require_same_grid
from blochlab.lattice import _BLOCK, _kinetic_scale, _squared_norm
from blochlab.spectrum import _fix_gauge, _tie_broken_order


def momentum_matrix(grid, n, scheme="spectral"):
    """Dense G x G matrix of (-i d/dx)^n on the grid samples: the circulant of the
    library's momentum column, which H and materialize are checked against."""
    return _circulant(_momentum_column(grid, n, scheme)).copy()


def dense_translation(grid):
    """The one-cell shift T as a writable dense G x G matrix, row i holding a single 1
    in column (i + P) mod G: the oracle for build_translation's read-only view."""
    g = grid.total_points
    entries = np.zeros((g, g))
    rows = np.arange(g)
    entries[rows, (rows + grid.points_per_cell) % g] = 1.0
    return OperatorMatrix(grid, entries)


def translate_by_cells(psi, cells):
    """The wavefunction psi(x + cells * a): output sample j is input sample
    (j + cells * P) mod G, for any integer number of cells.  A plane wave exp(i k_l x)
    picks up exp(+i k_l a) per cell.  An index shift only, so samples keep their bits."""
    shift = int(cells) * psi.grid.points_per_cell
    return WaveFunction(psi.grid, np.roll(psi.samples, -shift))


def fourier_coefficient(potential, h):
    """Coefficient of exp(+i 2 pi h x / a) in ``potential``; conjugate-symmetric in h."""
    if h == 0:
        return complex(potential.constant)
    for index, alpha, beta in potential.harmonics:
        if index == abs(h):
            c = 0.5 * complex(alpha, -beta)
            return c if h > 0 else np.conj(c)
    return 0j


def solve_sector(grid, potential, sector, band_count, mass=1.0, hbar=1.0):
    """Lowest ``band_count`` eigenstates of crystal momentum k_l, l = ``sector``, from
    that sector's own P x P eigh: the per-sector route solve_bands took before it
    stacked the N blocks, kept here only to check the stacked solve against.

    Returns the energies (band_count,) and the gauge-fixed psi and u rows
    (band_count, G) of the lowest bands.
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
    _tie_broken_order(energies, coeffs, q.astype(float), band_count)

    cells = np.fft.ifft(np.fft.ifftshift(coeffs[:, :band_count], axes=0), axis=0)
    cells = np.tile(cells.T * (p / np.sqrt(length)), n_cells)
    waves = np.exp(1j * grid.wavevector(sector) * grid.points) * cells
    _fix_gauge(waves, cells)
    return energies[:band_count], waves, cells


def per_sector_bands(grid, potential, band_count, mass=1.0, hbar=1.0):
    """The band arrays filled one solve_sector column at a time: the oracle for
    solve_bands' stacked solve, which must have its bits."""
    band_count = _integer(band_count, "band_count", minimum=1, maximum=grid.points_per_cell)
    energy = np.empty((band_count, grid.n_cells))
    waves, cells = (np.empty((*energy.shape, grid.total_points), complex) for _ in range(2))
    for l in range(grid.n_cells):
        energy[:, l], waves[:, l], cells[:, l] = solve_sector(
            grid, potential, l, band_count, mass=mass, hbar=hbar)
    return BandStructure(grid, energy, waves, cells)


def inner_product(bra, ket):
    """Quadrature inner product <bra|ket> = h * sum_j conj(bra_j) * ket_j of two wavefunctions."""
    _require_same_grid(bra, ket)
    return complex(bra.grid.spacing * np.vdot(bra.samples, ket.samples))


def apply_kernel(op, chi):
    """The wavefunction A chi, (A chi)_i = sum_j A_ij chi_j, by a dense product."""
    _require_same_grid(op, chi)
    return WaveFunction(chi.grid, op.entries @ chi.samples)


def matrix_element(op, bra, ket):
    """<psi_bra | A | psi_ket> of two Bloch states, one entry at a time: the oracle for
    the scan table, which computes them all at once."""
    return inner_product(bra.wavefunction, apply_kernel(op, ket.wavefunction))


def one_gemm_table(op, psis):
    """h conj(Psi)^T (A Psi) with A Psi as one product, a real A applied to Re Psi and
    Im Psi apart: the oracle for the scan's table, which it sums slab by slab."""
    a = op.entries
    transformed = a @ psis if np.iscomplexobj(a) else a @ psis.real + 1j * (a @ psis.imag)
    return op.grid.spacing * (psis.conj().T @ transformed)


def regauged(bands, phases):
    """Copy of ``bands`` with psi_{n l} and u_{n l} multiplied by exp(i phases[n, l]),
    for checking which derived quantities are gauge invariant."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (bands.band_count, bands.n_cells):
        raise ValueError(
            f"phases must have shape {(bands.band_count, bands.n_cells)}, got {phases.shape}"
        )
    factor = np.exp(1j * phases)[:, :, None]
    return BandStructure(bands.grid, bands.energies(), factor * bands.waves, factor * bands.cells)


@dataclass
class BlochState:
    """One band eigenstate: band n, counted from 0 upward in energy within its sector
    l in {0..N-1} (translation eigenvalue exp(+i k_l a)), its energy, the normalized
    wave psi = u(x) exp(i k_l x) and its cell-periodic factor u(x) = psi(x) exp(-i k_l x)."""

    band: int
    sector: int
    energy: float
    wavefunction: WaveFunction
    cell_part: WaveFunction

    @property
    def wavevector(self):
        return self.wavefunction.grid.wavevector(self.sector)


def state(bands, band, sector):
    """Row (band, sector mod N) of ``bands`` as a BlochState record: the per-state view
    BandStructure.state gave before the library read the band rows only, kept here to
    check the rows against."""
    l = sector % bands.n_cells
    return BlochState(band, l, float(bands.energy[band, l]),
                      WaveFunction(bands.grid, bands.waves[band, l]),
                      WaveFunction(bands.grid, bands.cells[band, l]))


def all_states(bands):
    """Every state of ``bands`` as a BlochState record, in band-major order."""
    return [state(bands, n, l) for n in range(bands.band_count) for l in range(bands.n_cells)]


def state_translation_defect(bands):
    """BandStructure.translation_defect one state at a time: the largest norm of
    T_a psi - exp(+i k_l a) psi, each difference a WaveFunction of its own."""
    grid, worst = bands.grid, 0.0
    for bloch in all_states(bands):
        expected = np.exp(1j * bloch.wavevector * grid.cell_length)
        psi = bloch.wavefunction.samples
        diff = WaveFunction(grid, np.roll(psi, -grid.points_per_cell) - expected * psi)
        worst = max(worst, diff.norm())
    return worst


def state_wannier(bands, band, site):
    """build_wannier summed over the BlochState records of ``band``, one sector at a time."""
    grid = bands.grid
    acc = np.zeros(grid.total_points, dtype=complex)
    shift = site * grid.cell_length
    for l in range(grid.n_cells):
        bloch = state(bands, band, l)
        acc += np.exp(-1j * bloch.wavevector * shift) * bloch.wavefunction.samples
    return WaveFunction(grid, acc / np.sqrt(grid.n_cells))


def transport_profile(experiment, epsilon):
    """|amplitude|^2 from the source to every sample after time epsilon, from the
    propagator column divided by h: the per-sample oracle for cell_transport_profile.

    The h^2-weighted sum of the profile is exactly 1 (unitarity with two
    continuum normalizations), so entries read as transition densities.
    """
    c, basis = experiment._krylov(epsilon)
    return np.abs(c @ basis / experiment.hamiltonian.grid.spacing) ** 2


# Reference configuration shared by most tests: 8 cells of unit length,
# 32 samples per cell, V = 2 cos(2 pi x / a), four bands.


@pytest.fixture(scope="session")
def ref_grid():
    return RingGrid(8, 1.0, 32)


@pytest.fixture(scope="session")
def ref_potential():
    return PotentialSpec(0.0, ((1, 2.0, 0.0),))


@pytest.fixture(scope="session")
def ref_bands(ref_grid, ref_potential):
    return solve_bands(ref_grid, ref_potential, 4)


@pytest.fixture(scope="session")
def ref_hamiltonian(ref_grid, ref_potential):
    return build_hamiltonian(ref_grid, ref_potential)


@pytest.fixture(scope="session")
def ref_translation(ref_grid):
    return build_translation(ref_grid)


@pytest.fixture(scope="session")
def free_bands(ref_grid):
    return solve_bands(ref_grid, PotentialSpec(), 4)


@pytest.fixture(scope="session")
def site0_projector(ref_bands):
    return wannier_projector(build_wannier(ref_bands, 0, 0))


@pytest.fixture(scope="session")
def slab_order_norm():
    """Oracle for the [A, T] norms: the Frobenius norm of a dense matrix with
    the squared sums of its _BLOCK-row slabs added in row order, as the library adds them."""
    def norm(diff):
        slabs = (diff[i:i + _BLOCK] for i in range(0, len(diff), _BLOCK))
        return float(np.sqrt(sum(_squared_norm(slab) for slab in slabs)))
    return norm


class TracedPeak:
    """Peak traced allocation, in bytes, above the memory traced at the last reset."""

    def __init__(self):
        self.reset()

    def reset(self):
        tracemalloc.reset_peak()
        self.base = tracemalloc.get_traced_memory()[0]

    def __call__(self) -> int:
        return tracemalloc.get_traced_memory()[1] - self.base


@pytest.fixture(scope="session")
def traced_peak():
    """A context manager that traces allocations in its block and yields a TracedPeak."""
    @contextmanager
    def trace():
        tracemalloc.start()
        try:
            yield TracedPeak()
        finally:
            tracemalloc.stop()
    return trace


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
