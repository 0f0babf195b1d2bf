"""Cell-periodic potentials, dense operators, and the lattice Hamiltonian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import _circulant, _momentum_column
from .grid import RingGrid, _integer, _number, _require_same_grid

# Tile edge: blockwise passes keep their temporaries O(_BLOCK * G), not O(G^2).  It
# fixes the sum order of the [A, T] norm, so passes whose bits do not depend on the
# height walk thinner _SLAB-row slabs instead, and their freed slabs stay small.
_BLOCK = 128
_SLAB = 32


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential with the period of one cell, given as a Fourier series.

    V(x) = constant + sum_h [alpha_h cos(2 pi h x / a) + beta_h sin(2 pi h x / a)]

    ``harmonics`` is a tuple of (h, alpha_h, beta_h) with distinct positive
    integer h.  Harmonic h is the ring harmonic N h, sampled as a series
    term's is, on one cell and tiled, so the samples are exactly
    cell-periodic by construction.
    """

    constant: float = 0.0
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constant", _number(self.constant, "constant"))
        seen, cleaned = set(), []
        for i, term in enumerate(self.harmonics):
            here = f"harmonics[{i}]"
            if not isinstance(term, (tuple, list)) or len(term) != 3:
                raise ValueError(f"{here} must be an (index, cos, sin) triple, got {term!r}")
            h = _integer(term[0], here + "[0]", minimum=1)
            if h in seen:
                raise ValueError(f"{here}[0] repeats harmonic index {h}")
            seen.add(h)
            cleaned.append((h, _number(term[1], here + "[1]"), _number(term[2], here + "[2]")))
        object.__setattr__(self, "harmonics", tuple(cleaned))

    def sample(self, grid: RingGrid) -> np.ndarray:
        """Values on all G samples, harmonic h by :func:`_harmonic_profiles` of m = N h."""
        v = np.full(grid.total_points, float(self.constant))
        for h, alpha, beta in self.harmonics:
            cos_prof, sin_prof = _harmonic_profiles(grid, grid.n_cells * h)
            v += alpha * cos_prof + beta * sin_prof
        return v


def _harmonic_profiles(grid: RingGrid, m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi m x / L on all samples.

    When m is a multiple of N the function has the cell period, and it is
    evaluated on one cell and tiled so the samples repeat exactly.
    """
    if m % grid.n_cells == 0:
        reps = m // grid.n_cells
        x_cell = np.arange(grid.points_per_cell) * grid.spacing
        phase = 2.0 * np.pi * reps * x_cell / grid.cell_length
        return np.tile(np.cos(phase), grid.n_cells), np.tile(np.sin(phase), grid.n_cells)
    phase = 2.0 * np.pi * m * grid.points / grid.ring_length
    return np.cos(phase), np.sin(phase)


@dataclass
class OperatorMatrix:
    """Dense operator on grid samples, acting as (A psi)_i = sum_j A_ij psi_j.

    The entries absorb the quadrature weight: a kernel r(x, y) is stored as
    A_ij = h * r(x_i, x_j), so matrix-vector products approximate the
    integral operator directly.  The input dtype alone sets the storage:
    complex128 for complex input and float64 otherwise, whatever the values.
    """

    grid: RingGrid
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        g = self.grid.total_points
        if entries.shape != (g, g):
            raise ValueError(f"entries must have shape ({g}, {g}), got {entries.shape}")
        self.entries = _require_finite(entries)


def _require_finite(entries: np.ndarray) -> np.ndarray:
    """``entries``, unless some entry is NaN or inf: the rule for a whole operator or a slab."""
    # min and max carry any NaN or inf with no G x G mask; complex is viewed as floats.
    values = entries[..., None].view(float) if np.iscomplexobj(entries) else entries
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError("operator entries must be finite")
    return entries


def _kinetic_scale(mass: float, hbar: float) -> float:
    """hbar^2 / 2m for a positive, finite mass and hbar; ValueError if it overflows."""
    mass, hbar = _number(mass, "mass", positive=True), _number(hbar, "hbar", positive=True)
    with np.errstate(over="ignore"):  # inf where a Python float's ** would raise
        scale = float(np.float64(hbar) ** 2 / (2.0 * mass))
    if not np.isfinite(scale):
        raise ValueError(f"hbar^2/2m overflows (hbar {hbar!r}, mass {mass!r})")
    return scale


def _require_hermitian(a: np.ndarray, what: str) -> float:
    """Raise unless max |A - A^dagger| <= 1e-10 max |A| (no floor), NaN failing; return max |A|."""
    with np.errstate(invalid="ignore"):  # an inf entry makes the defect NaN, which fails
        defect, max_abs = _hermitian_check(a)
    if not defect <= 1e-10 * max_abs:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e})")
    return max_abs


def build_hamiltonian(grid: RingGrid, potential: PotentialSpec, mass: float = 1.0,
                      hbar: float = 1.0, scheme: str = "spectral") -> OperatorMatrix:
    """H = (hbar^2/2m) (-i d/dx)^2 + V(x) as a dense Hermitian operator.

    The kinetic part is a circulant (invariant under any sample shift) and
    the potential diagonal is an exact tiling of one cell, so H commutes
    with the one-cell translation bit for bit.  H is added into zeros by
    :func:`_add_hamiltonian`, so it is the one G x G array built.
    """
    entries = np.zeros((grid.total_points,) * 2)
    _add_hamiltonian(entries, grid, potential, mass, hbar, scheme)
    return OperatorMatrix(grid, entries)


def _add_hamiltonian(entries: np.ndarray, grid: RingGrid, potential: PotentialSpec,
                     mass: float, hbar: float, scheme: str) -> None:
    """entries += H in place, one _SLAB-row slab of H at a time, so H is never G x G.

    The slabs are :func:`_hamiltonian_rows`', the bits of H's rows, so the sum has the
    bits of entries + H.  An overflow is left as inf, for the caller's finiteness or
    Hermitian check to reject.
    """
    rows, g = _hamiltonian_rows(grid, potential, mass, hbar, scheme), grid.total_points
    buffer = np.empty((min(_SLAB, g), g))  # reused, so one slab is alive beside entries
    for start in range(0, g, _SLAB):
        slab = buffer[: min(_SLAB, g - start)]
        rows(slab, start)
        with np.errstate(over="ignore"):
            entries[start:start + _SLAB] += slab


def _hamiltonian_rows(grid: RingGrid, potential: PotentialSpec, mass: float, hbar: float,
                      scheme: str):
    """H's row formula: ``rows(out, start, adjoint)`` writes rows start, start + 1, ... of
    H into ``out``, and into ``adjoint`` if given: H is real symmetric bit for bit.  A row
    is the kinetic circulant's row times s = hbar^2/2m, plus 0.0 (the fd stencils' off-band
    -0.0 become +0.0), with s k_ii + V_i on its diagonal.  An overflow is left as inf."""
    scale = _kinetic_scale(mass, hbar)
    kinetic = _circulant(_momentum_column(grid, 2, scheme))
    with np.errstate(over="ignore"):
        diagonal = scale * kinetic[0, 0] + potential.sample(grid)

    def rows(out: np.ndarray, start: int, adjoint: np.ndarray | None = None) -> None:
        i = np.arange(len(out))
        with np.errstate(over="ignore"):
            np.multiply(kinetic[start:start + len(out)], scale, out=out)
            out += 0.0
        out[i, start + i] = diagonal[start:start + len(out)]
        if adjoint is not None:
            adjoint[...] = out

    return rows


def _matrix_rows(a: np.ndarray):
    """The row source of a matrix held whole (or a view): ``rows(out, start, adjoint)``
    copies rows start, start + 1, ... of A into ``out`` and, given ``adjoint``, A^dagger's."""
    def rows(out: np.ndarray, start: int, adjoint: np.ndarray | None = None) -> None:
        out[...] = a[start:start + len(out)]
        if adjoint is not None:
            np.conjugate(a[:, start:start + len(adjoint)].T, out=adjoint)

    return rows


def build_translation(grid: RingGrid) -> OperatorMatrix:
    """Unitary one-cell shift T with (T psi)(x) = psi(x + a), as a read-only view.

    Row i has a single 1 in column (i + P) mod G.  The entries are the circulant
    view over one unit column, so T costs O(G) memory and a write into it raises;
    a caller that needs to write takes a copy.  The library never multiplies by
    it: :func:`commutator_norm` and ``classify_by_translation``, the two
    functions taking T, check it with :func:`is_one_cell_shift` and shift
    indices, so it serves the ``translation`` observable kind and those callers.
    """
    column = np.zeros(grid.total_points)
    column[-grid.points_per_cell] = 1.0
    return OperatorMatrix(grid, _circulant(column))


def is_one_cell_shift(op: OperatorMatrix) -> bool:
    """True when ``op`` is exactly :func:`build_translation` of its grid; O(G^2)."""
    g, rows = op.grid.total_points, np.arange(op.grid.total_points)
    ones = op.entries[rows, (rows + op.grid.points_per_cell) % g] == 1.0
    return np.count_nonzero(op.entries) == g and bool(np.all(ones))


def commutator_norm(a: OperatorMatrix, translation: OperatorMatrix) -> float:
    """Frobenius norm of [A, T]; ``translation`` must be exactly the one-cell shift T.

    T acts as an index shift, so no product is formed, and the norm is summed a
    slab of rows at a time.
    """
    _require_same_grid(a, translation)
    if not is_one_cell_shift(translation):
        raise ValueError("commutator_norm needs the one-cell shift as its second operand")
    return _commutator_norm(a.entries, a.grid.points_per_cell)


def _frobenius_norm(a: np.ndarray) -> float:
    """sqrt(sum |a_ij|^2), adding the squared sums of a's _BLOCK-row slabs in row order,
    as :func:`_commutator_norm` adds [A, T]'s: a row-streamed pass gets the same bits."""
    return float(np.sqrt(sum(_squared_norm(a[i:i + _BLOCK]) for i in range(0, len(a), _BLOCK))))


def _squared_norm(a: np.ndarray) -> float:
    """sum |a_ij|^2 by einsum's own loop over views of a's real and imaginary parts:
    no copy, and unlike a BLAS dot its sum does not follow the thread count."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return float(sum(np.einsum("ij,ij->", part, part) for part in parts))


def _shift_difference(rows: np.ndarray, below: np.ndarray, p: int) -> np.ndarray:
    """Rows of [A, T] = A T - T A, T the shift by p samples, in place of ``below``: entry
    (i, j) is A[i, j - p] - A[i + p, j], indices mod G, from A's rows ``rows`` and the
    rows p below them, ``below``."""
    q = rows.shape[1] - p
    np.subtract(rows[:, :q], below[:, p:], out=below[:, p:])
    np.subtract(rows[:, q:], below[:, :p], out=below[:, :p])
    return below


def _commutator_slabs(a: np.ndarray, p: int):
    """The _BLOCK-row slabs, in row order, of [A, T] for the shift T by p samples.  The
    slabs share one buffer, so each is overwritten by the next and nothing is G x G.
    The shifted rows are gathered by at most two row slices, so a strided view of A is
    read in place, never copied whole.  [A, T] is A - T A T^dagger with its columns
    moved by p, so the two share every value."""
    g = len(a)
    buffer = np.empty((min(_BLOCK, g), g), dtype=a.dtype)
    for start in range(0, g, _BLOCK):
        slab, lo = buffer[: min(_BLOCK, g - start)], (start + p) % g
        top = min(len(slab), g - lo)
        slab[:top], slab[top:] = a[lo:lo + top], a[: len(slab) - top]
        yield _shift_difference(a[start:start + _BLOCK], slab, p)


def _commutator_norm(a: np.ndarray, p: int) -> float:
    """Frobenius norm of [A, T], adding the slabs' squared sums in row order: the
    order is fixed by _BLOCK, whatever the thread count."""
    return float(np.sqrt(sum(_squared_norm(slab) for slab in _commutator_slabs(a, p))))


def _hermitian_check(a: np.ndarray) -> tuple[float, float]:
    """(max |A - A^dagger|, max |A|) over the tiles (I, J) with I <= J, with no G x G
    temporary: entry (j, i) of A - A^dagger is minus the conjugate of entry (i, j)."""
    g, defects, sizes = len(a), [], []
    for i in range(0, g, _BLOCK):
        rows = slice(i, i + _BLOCK)
        for j in range(i, g, _BLOCK):
            cols = slice(j, j + _BLOCK)
            defects.append(np.max(np.abs(a[rows, cols] - a[cols, rows].conj().T)))
            sizes += [np.max(np.abs(a[rows, cols])), np.max(np.abs(a[cols, rows]))]
    return float(np.max(defects)), float(np.max(sizes))
