"""Cell-periodic potentials, dense operators, and the lattice Hamiltonian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import _circulant, _momentum_column
from .grid import RingGrid, _require_same_grid

# Tile edge: blockwise passes keep their temporaries O(_BLOCK * G), not O(G^2).
_BLOCK = 128


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential with the period of one cell, given as a Fourier series.

    V(x) = constant + sum_h [alpha_h cos(2 pi h x / a) + beta_h sin(2 pi h x / a)]

    ``harmonics`` is a tuple of (h, alpha_h, beta_h) with distinct positive
    integer h.  The potential is sampled once on the first cell and tiled, so
    its grid samples are exactly cell-periodic by construction.
    """

    constant: float = 0.0
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.constant):
            raise ValueError(f"constant term must be finite, got {self.constant!r}")
        seen = set()
        cleaned = []
        for term in self.harmonics:
            if len(term) != 3:
                raise ValueError(f"harmonic terms are (index, cos, sin) triples, got {term!r}")
            h, alpha, beta = term
            if not isinstance(h, (int, np.integer)) or h < 1:
                raise ValueError(f"harmonic index must be a positive integer, got {h!r}")
            if h in seen:
                raise ValueError(f"harmonic index {h} appears twice")
            if not (np.isfinite(alpha) and np.isfinite(beta)):
                raise ValueError(f"harmonic amplitudes must be finite, got {term!r}")
            seen.add(h)
            cleaned.append((int(h), float(alpha), float(beta)))
        object.__setattr__(self, "harmonics", tuple(cleaned))

    def sample_cell(self, grid: RingGrid) -> np.ndarray:
        """Values on the P samples of the first cell."""
        x = np.arange(grid.points_per_cell) * grid.spacing
        v = np.full(grid.points_per_cell, float(self.constant))
        for h, alpha, beta in self.harmonics:
            phase = 2.0 * np.pi * h * x / grid.cell_length
            v += alpha * np.cos(phase) + beta * np.sin(phase)
        return v

    def sample(self, grid: RingGrid) -> np.ndarray:
        """Values on all G samples; exact tiling of the first cell."""
        return np.tile(self.sample_cell(grid), grid.n_cells)

    def fourier_coefficient(self, h: int) -> complex:
        """Coefficient of exp(+i 2 pi h x / a); conjugate-symmetric in h."""
        if h == 0:
            return complex(self.constant)
        for idx, alpha, beta in self.harmonics:
            if idx == abs(h):
                c = 0.5 * complex(alpha, -beta)
                return c if h > 0 else np.conj(c)
        return 0j


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
        # min and max carry any NaN or inf, with no G x G mask as isfinite would make.
        parts = (entries.real, entries.imag) if np.iscomplexobj(entries) else (entries,)
        if not all(np.isfinite(part.min()) and np.isfinite(part.max()) for part in parts):
            raise ValueError("operator entries must be finite")
        self.entries = entries


def _require_positive(name: str, value: float) -> None:
    """Reject a mass or hbar that is not positive and finite."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_hermitian(a: np.ndarray, what: str) -> float:
    """Raise unless max |A - A^dagger| <= 1e-10 max(max |A|, 1), NaN failing; return the scale."""
    with np.errstate(invalid="ignore"):  # an inf entry makes the defect NaN, which fails
        defect, max_abs = _hermitian_check(a)
    scale = max(max_abs, 1.0)
    if not defect <= 1e-10 * scale:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e})")
    return scale


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
    """entries += H in place, one _BLOCK-row slab of H at a time, so H is never G x G.

    A slab is the kinetic circulant's rows times s = hbar^2/2m, plus 0.0 (the fd
    stencils' off-band -0.0 become +0.0), with s k_ii + V_i on its diagonal: the
    bits of H's rows, so the sum has the bits of entries + H.  An overflow is left
    as inf, for the caller's finiteness or Hermitian check to reject.
    """
    _require_positive("mass", mass)
    _require_positive("hbar", hbar)
    kinetic = _circulant(_momentum_column(grid, 2, scheme))
    scale = hbar**2 / (2.0 * mass)
    g = grid.total_points
    buffer = np.empty((min(_BLOCK, g), g))  # reused, so one slab is alive beside entries
    with np.errstate(over="ignore"):
        diagonal = scale * kinetic[0, 0] + potential.sample(grid)
        for start in range(0, g, _BLOCK):
            rows = slice(start, start + _BLOCK)
            slab = buffer[: len(diagonal[rows])]
            np.multiply(kinetic[rows], scale, out=slab)
            slab += 0.0
            i = np.arange(len(slab))
            slab[i, start + i] = diagonal[rows]
            entries[rows] += slab


def build_translation(grid: RingGrid) -> OperatorMatrix:
    """Unitary one-cell shift T with (T psi)(x) = psi(x + a), as a dense matrix.

    Row i has a single 1 in column (i + P) mod G.  The library never multiplies
    by it: functions taking T check it with :func:`is_one_cell_shift` and shift
    indices, so it serves the ``translation`` observable kind and such callers.
    """
    g = grid.total_points
    entries = np.zeros((g, g))
    rows = np.arange(g)
    entries[rows, (rows + grid.points_per_cell) % g] = 1.0
    return OperatorMatrix(grid, entries)


def is_one_cell_shift(op: OperatorMatrix) -> bool:
    """True when ``op`` is exactly :func:`build_translation` of its grid; O(G^2)."""
    g, rows = op.grid.total_points, np.arange(op.grid.total_points)
    ones = op.entries[rows, (rows + op.grid.points_per_cell) % g] == 1.0
    return np.count_nonzero(op.entries) == g and bool(np.all(ones))


def commutator_norm(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Frobenius norm of [A, B], where A or B must be the one-cell shift T.

    T acts as an index shift, so no product is formed, and the norm is summed a
    slab of rows at a time.
    """
    _require_same_grid(a, b)
    other = a if is_one_cell_shift(b) else b if is_one_cell_shift(a) else None
    if other is None:
        raise ValueError("commutator_norm needs the one-cell shift as one operand")
    return _commutator_norm(other.entries, a.grid.points_per_cell)


def _frobenius_norm(a: np.ndarray) -> float:
    """sqrt(sum |a_ij|^2), the sum as in :func:`_squared_norm`."""
    return float(np.sqrt(_squared_norm(a)))


def _squared_norm(a: np.ndarray) -> float:
    """sum |a_ij|^2 by einsum's own loop over views of a's real and imaginary parts:
    no copy, and unlike a BLAS dot its sum does not follow the thread count."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return float(sum(np.einsum("ij,ij->", part, part) for part in parts))


def _commutator_slabs(a: np.ndarray, p: int):
    """The _BLOCK-row slabs, in row order, of [A, T] = A T - T A for the shift T by p
    samples: entry (i, j) is A[i, j - p] - A[i + p, j], indices mod G.  Each slab is
    one new array, so nothing is G x G.  [A, T] is A - T A T^dagger with its columns
    moved by p, so the two share every value."""
    g, q = len(a), len(a) - p
    for start in range(0, g, _BLOCK):
        rows = slice(start, start + _BLOCK)
        slab = a.take(np.arange(start, min(start + _BLOCK, g)) + p, axis=0, mode="wrap")
        np.subtract(a[rows, :q], slab[:, p:], out=slab[:, p:])
        np.subtract(a[rows, q:], slab[:, :p], out=slab[:, :p])
        yield slab


def _commutator_norm(a: np.ndarray, p: int) -> float:
    """Frobenius norm of [A, T], adding the slabs' squared sums in row order: the
    order is fixed by _BLOCK, whatever the thread count."""
    return float(np.sqrt(sum(_squared_norm(slab) for slab in _commutator_slabs(a, p))))


def _tile_pairs(g: int):
    """(rows, cols) slices of the _BLOCK x _BLOCK tiles (I, J) with I <= J, row-major."""
    for i in range(0, g, _BLOCK):
        for j in range(i, g, _BLOCK):
            yield slice(i, i + _BLOCK), slice(j, j + _BLOCK)


def _hermitian_check(a: np.ndarray) -> tuple[float, float]:
    """(max |A - A^dagger|, max |A|) over the tile pairs, with no G x G temporary: entry
    (j, i) of A - A^dagger is minus the conjugate of entry (i, j), of equal modulus."""
    defects, sizes = [], []
    for rows, cols in _tile_pairs(len(a)):
        defects.append(np.max(np.abs(a[rows, cols] - a[cols, rows].conj().T)))
        sizes += [np.max(np.abs(a[rows, cols])), np.max(np.abs(a[cols, rows]))]
    return float(np.max(defects)), float(np.max(sizes))
