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

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .grid import RingGrid, WaveFunction, _require_same_grid
from .lattice import (_BLOCK, OperatorMatrix, _hermitian_check, _require_finite,
                      _shift_difference, _squared_norm)
from .observables import (LocalityReport, _bin_mass, _locality, _ring_distances,
                          cell_periodicity_defect)
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
# A streamed scan asks its row source for this many rows of A at a time, so the
# source's buffers stay small beside the slab.
_ROWS = 8


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
                                  defect), lambda: _hermitian_check(a))


def _streamed_scan(grid: RingGrid, dtype: type, rows, adjoint, psis: np.ndarray,
                   band_count: int) -> tuple[SelectionScan, LocalityReport]:
    """:func:`_scan` and :func:`locality_report` of the A whose rows the source ``rows(out,
    start)`` writes (``_series_rows``, ``_hamiltonian_rows`` or ``_matrix_rows``), bit for
    bit, in one pass over A's _BLOCK-row slabs: nothing is G x G.  Each slab is written
    _ROWS rows at a time and checked finite, feeds the table and ||A||^2 as _scan's slabs
    do, then turns into its slab of [A, T] with the rows p below it, written again.  S = (A
    + A^dagger)/2 and max |A - A^dagger| come from the rows of A^dagger that ``adjoint``
    writes, or S is A if ``adjoint`` is None: A is Hermitian bit for bit.  A step's first
    floating-point error ends that step and is raised after the pass, in the dense route's
    order: the defect, the table, the guards, the locality."""
    g, p = grid.total_points, grid.points_per_cell
    block = np.empty((min(_BLOCK, g), g), dtype=dtype)
    dagger = None if adjoint is None else np.empty((min(_ROWS, g), g), dtype=dtype)
    mass, dist, results, errors = np.zeros(g // 2 + 1), _ring_distances(g), defaultdict(list), {}
    flat = np.full((psis.shape[1],) * 2, complex(-0.0, -0.0))  # as in _scan
    rhs = psis if np.iscomplexobj(block) else psis.view(float)

    def run(step, fn, *args):
        if step not in errors:
            try:
                results[step].append(fn(*args))
            except FloatingPointError as exc:
                errors[step] = exc

    def read(step):
        if step in errors:
            raise errors[step]
        return results[step]

    def write(a, start):  # rows start.. of A into a, checked, binned and held to A^dagger
        rows(a, start)
        _require_finite(a)
        if adjoint is not None:
            adjoint(adj := dagger[: len(a)], start)
            run("hermitian", lambda: (float(np.max(np.abs(a - adj))), float(np.max(np.abs(a)))))
        run("locality", locality, a, start)

    def locality(a, start):
        if adjoint is not None:  # S = (A^dagger + A) / 2, as locality_report adds it
            a = np.add(dagger[: len(a)], a, out=dagger[: len(a)])
            a *= 0.5
        _bin_mass(mass, a, dist[start:start + len(a)])

    def table(a, start):
        slab = np.matmul(a, rhs).view(complex)
        np.add(flat, psis[start:start + len(a)].T.conj() @ slab, out=flat)

    def commutator(a, start):  # a's rows of [A, T] in its place, as _commutator_slabs'
        below = np.empty((min(_ROWS, len(a)), g), dtype=dtype)
        for lo in range(0, len(a), _ROWS):
            sub, first = a[lo:lo + _ROWS], (start + lo + p) % g
            top = min(len(sub), g - first)
            rows(below[:top], first)
            if top < len(sub):
                rows(below[top:len(sub)], 0)
            sub[...] = _shift_difference(sub, below[: len(sub)], p)
        return _squared_norm(a)

    for start in range(0, g, _BLOCK):
        a = block[: min(_BLOCK, g - start)]
        for lo in range(0, len(a), _ROWS):
            write(a[lo:lo + _ROWS], start + lo)
        run("table", table, a, start)
        run("norm", _squared_norm, a)
        run("commutator", commutator, a, start)
    norms = [float(np.sqrt(sum(read(step)))) for step in ("commutator", "norm")]
    read("table")
    flat *= grid.spacing
    scan = _guarded(SelectionScan(flat.reshape(band_count, grid.n_cells, band_count, -1),
                                  norms[0] / max(norms[1], 1e-300)),
                    None if adjoint is None else lambda: tuple(map(max, zip(*read("hermitian")))))
    read("locality")
    return scan, _locality(grid, mass)


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


def _guarded(scan: SelectionScan, kernel_check) -> SelectionScan:
    """``scan``, unless it shows a cell-periodic kernel's leakage or a Hermitian one's rounding
    noise.  ``kernel_check()`` gives (max |A - A^dagger|, max |A|) and is asked only if the
    table fails; None skips it, for a kernel Hermitian by construction."""
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
        herm_defect, max_abs = (0.0, 1.0) if kernel_check is None else kernel_check()
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
