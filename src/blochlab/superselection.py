"""Selection-rule scans and winding numbers.

For operators commuting with the one-cell shift, matrix elements between
different crystal-momentum sectors vanish identically: the sectors are
eigenspaces of a unitary with distinct eigenvalues, so <psi'|A|psi> = 0
whenever l' != l.  The scan below measures the full matrix-element table of
an arbitrary kernel over a computed band structure and, when the kernel does
commute with the shift, enforces that theorem on its own output.

The winding number tracks the other side of the same coin: a Bloch state
psi = u exp(i k_l x) with nodeless u carries l units of phase winding around
the ring, and a kernel that leaves windings intact cannot connect sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import WaveFunction, _require_same_grid
from .lattice import _BLOCK, OperatorMatrix, _hermitian_check
from .observables import cell_periodicity_defect
from .spectrum import BandStructure

# A kernel this close to cell-periodic must show no off-sector leakage
# beyond roundoff, relative to the table's largest modulus; the scan raises
# if its own output violates that.
_PERIODIC_TOL = 1e-10
_LEAK_RTOL = 1e-11
# A Hermitian kernel's table is Hermitian.  One that misses by more than this,
# relative to its largest modulus, holds the product's rounding noise, not matrix
# elements (every element is zero but for roundoff), and the scan raises.
_HERMITIAN_RTOL = 1e-9


@dataclass
class SelectionScan:
    """Table of matrix elements <psi_{n' l'}| A |psi_{n l}> over a band set.

    ``table[n_bra, l_bra, n_ket, l_ket]`` holds the complex element.  The
    moduli are gauge independent only on the diagonal (n', l') = (n, l);
    what the scan summaries use are aggregates that do not depend on the
    per-state phases: largest off-sector modulus, per-harmonic footprints,
    and the sector-difference histogram.
    """

    table: np.ndarray
    periodicity_defect: float

    @property
    def band_count(self) -> int:
        return self.table.shape[0]

    @property
    def n_cells(self) -> int:
        return self.table.shape[1]

    def moduli(self) -> np.ndarray:
        return np.abs(self.table)

    def off_sector_max(self) -> float:
        """Largest |element| between different sectors l' != l."""
        return float(np.max(self.sector_difference_profile()[1:]))

    def hermitian_symmetry_defect(self) -> float:
        """Largest |table[a, b] - conj(table[b, a])| over state pairs."""
        flat = self.table.reshape(self.band_count * self.n_cells, -1)
        return float(np.max(np.abs(flat - flat.conj().T)))

    def sector_difference_profile(self) -> np.ndarray:
        """Largest modulus as a function of (l_ket - l_bra) mod N."""
        pairs = np.max(self.moduli(), axis=(0, 2))  # [l_bra, l_ket]
        l_bra = np.arange(self.n_cells)[:, None]
        return np.max(pairs[l_bra, (l_bra + l_bra.T) % self.n_cells], axis=0)


def selection_scan(op: OperatorMatrix, bands: BandStructure) -> SelectionScan:
    """Measure every matrix element of ``op`` over the computed states.

    If the kernel is cell-periodic (relative defect <= 1e-10) the exact
    selection rule applies, and finding off-sector leakage above 1e-11 of the
    table's largest modulus means the scan itself or the states are broken,
    so a RuntimeError is raised rather than returning numbers that contradict
    a theorem.  So is a table of a Hermitian kernel that misses Hermitian
    symmetry by more than 1e-9 of its largest modulus: it is rounding noise.
    """
    _require_same_grid(op, bands)
    return _scan(op, bands.state_matrix(), bands.band_count)


def _scan(op: OperatorMatrix, psis: np.ndarray, band_count: int) -> SelectionScan:
    """:func:`selection_scan` on the caller's state matrix, shape (G, band_count * N) in
    band-major order and C-contiguous, which it leaves as it is.  It walks A in _BLOCK-row
    slabs and adds conj(Psi_r)^T (A_r Psi) into the table, so besides A and Psi it holds
    the table and one slab of A Psi, never G x (band_count * N) of it."""
    defect = cell_periodicity_defect(op)
    a, g = op.entries, op.grid.total_points
    # -0.0 is the exact additive identity (0.0 + -0.0 is +0.0): a lone slab keeps its bits.
    flat = np.full((psis.shape[1],) * 2, complex(-0.0, -0.0))
    # A real A multiplies Psi viewed as floats, (re, im) interleaved, in one real GEMM
    # viewed back as complex: no complex copy of A and no copies of Re Psi or Im Psi.
    rhs = psis if np.iscomplexobj(a) else psis.view(float)
    buffer = np.empty((min(_BLOCK, g), rhs.shape[1]), dtype=rhs.dtype)
    for start in range(0, g, _BLOCK):
        rows = slice(start, start + _BLOCK)
        slab = np.matmul(a[rows], rhs, out=buffer[: g - start]).view(complex)
        flat += psis[rows].T.conj() @ slab
    flat *= op.grid.spacing
    return _guarded(SelectionScan(flat.reshape(band_count, op.grid.n_cells, band_count, -1),
                                  defect), a)


def _projector_scan(site: WaveFunction, psis: np.ndarray, band_count: int) -> SelectionScan:
    """:func:`_scan` of h |W><W| from its site state W alone, nothing G x G.  The table is
    c c^dagger for c = h Psi^dagger W; the defect is sqrt(2 (1 - |<W^, T W^>|^2)) for
    W^ = W / ||W|| (scaled by max |W| first, so no unit overflows) and its one-cell roll
    T W^.  einsum's own loops take the sums, so no bit follows the BLAS thread count."""
    grid, w = site.grid, site.samples / np.abs(site.samples).max()
    w /= np.sqrt(np.einsum("i,i->", w.conj(), w).real)
    overlap = np.einsum("i,i->", w.conj(), np.roll(w, grid.points_per_cell))
    defect = float(np.sqrt(max(2.0 * (1.0 - abs(overlap) ** 2), 0.0)))
    c = grid.spacing * np.einsum("gk,g->k", psis, site.samples.conj()).conj()
    table = np.multiply.outer(c, c.conj()).reshape(band_count, grid.n_cells, band_count, -1)
    return _guarded(SelectionScan(table, defect), None)


def _guarded(scan: SelectionScan, kernel: np.ndarray | None) -> SelectionScan:
    """``scan``, unless it shows a cell-periodic kernel's leakage or a Hermitian one's rounding
    noise; A's entries ``kernel`` (None: a projector) are checked only if the table fails."""
    defect, largest = scan.periodicity_defect, float(np.max(scan.moduli()))
    if defect <= _PERIODIC_TOL and scan.off_sector_max() > _LEAK_RTOL * largest:
        raise RuntimeError(
            "cell-periodic kernel shows off-sector matrix elements (defect "
            f"{defect:.3e}, leakage {scan.off_sector_max():.3e} of largest {largest:.3e}); "
            "this contradicts the translation selection rule and indicates "
            "a broken scan or band structure"
        )
    asymmetry = scan.hermitian_symmetry_defect()
    if asymmetry > _HERMITIAN_RTOL * largest:
        herm_defect, max_abs = (0.0, 1.0) if kernel is None else _hermitian_check(kernel)
        if herm_defect <= 1e-10 * max_abs:
            raise RuntimeError(
                f"Hermitian kernel gives a table {asymmetry:.3e} from Hermitian, with largest "
                f"modulus {largest:.3e}: its elements are rounding noise of the product"
            )
    return scan


@dataclass
class WindingResult:
    """Winding diagnostics of a sampled curve psi: ring -> C.

    ``value`` is None when the winding is undefined: some sample modulus at
    or below 1e-6 of the largest, or a phase step of 0.9 pi or more between
    neighbouring samples (the lift is then untrustworthy).  ``residual`` is
    the distance of the accumulated phase sum from the nearest integer
    multiple of 2 pi, in turns.
    """

    value: int | None
    min_modulus: float
    max_step: float
    residual: float

    @property
    def defined(self) -> bool:
        return self.value is not None


def winding_number(psi: WaveFunction) -> WindingResult:
    """Total phase accumulated by psi around the ring, in units of 2 pi.

    Phase steps between neighbouring samples use the principal argument of
    psi_{j+1} conj(psi_j), so each step lies in (-pi, pi].  The result is
    declared undefined rather than guessed when the curve passes too close
    to zero or jumps too fast for the principal branch to be meaningful.
    """
    s = psi.samples
    mods = np.abs(s)
    max_mod = float(mods.max())
    min_mod = float(mods.min())
    steps = np.angle(np.roll(s, -1) * np.conj(s))
    max_step = float(np.max(np.abs(steps))) if steps.size else 0.0
    total_turns = float(steps.sum() / (2.0 * np.pi))
    nearest = int(np.rint(total_turns))
    residual = abs(total_turns - nearest)
    if min_mod <= 1e-6 * max_mod or max_step >= 0.9 * np.pi:  # all zeros: 0 <= 0
        return WindingResult(None, min_mod, max_step, residual)
    return WindingResult(nearest, min_mod, max_step, residual)
