"""Harmonic-series observables and kernel-locality diagnostics.

An observable here is a finite series

    R = sum_t [c_t cos(2 pi m_t x / L) + d_t sin(2 pi m_t x / L)] (-i d/dx)^{n_t}

mixing ring harmonics (period L, not the cell length) with momentum powers.
Harmonics with m a multiple of N are cell-periodic; all others break the
lattice period on purpose.  Materialization produces a dense matrix whose
locality can then be measured by how much Frobenius mass sits within a given
ring distance of the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .derivatives import _circulant, _momentum_column
from .grid import RingGrid, WaveFunction, _integer, _number
from .lattice import (_SLAB, OperatorMatrix, _add_rows, _commutator_norm, _frobenius_norm,
                      _harmonic_profiles)


@dataclass(frozen=True)
class LocalObservableSeries:
    """Finite list of (m, n, c, d) terms; see the module docstring.

    m >= 0 is the ring harmonic, 0 <= n <= 8 the momentum power, and c, d
    the cosine and sine amplitudes.  With ``symmetrize`` (the default) the
    materialized matrix is replaced by its Hermitian part (A + A^dagger)/2,
    since the bare product of a position factor and a momentum power is not
    Hermitian on its own.
    """

    terms: tuple[tuple[int, int, float, float], ...]
    symmetrize: bool = True

    def __post_init__(self):
        cleaned = []
        for i, term in enumerate(self.terms):
            here = f"terms[{i}]"
            if not isinstance(term, (tuple, list)) or len(term) != 4:
                raise ValueError(f"{here} must be an (m, n, cos, sin) quadruple, got {term!r}")
            cleaned.append((_integer(term[0], here + "[0]", minimum=0),
                            _integer(term[1], here + "[1]", minimum=0, maximum=8),
                            _number(term[2], here + "[2]"), _number(term[3], here + "[3]")))
        object.__setattr__(self, "terms", tuple(cleaned))


def materialize(series: LocalObservableSeries, grid: RingGrid,
                scheme: str = "spectral") -> OperatorMatrix:
    """Dense matrix of the series on the grid: :func:`_add_rows` adds the rows of
    :func:`_series_rows` into -0.0, so nothing but the result is G x G.  The matrix is
    real when every momentum power is even, and complex otherwise."""
    dtype, rows, _ = _series_rows(series, grid, scheme)
    # -0.0 is the exact additive identity, so the result has every bit of the rows: a
    # symmetrized series halves an entry of -2^-1074 to -0.0, which +0.0 would absorb.
    entries = np.full((grid.total_points,) * 2, -0.0 if dtype is float else complex(-0.0, -0.0))
    _add_rows(entries, dtype, rows)
    return OperatorMatrix(grid, entries)


def _series_rows(series: LocalObservableSeries, grid: RingGrid, scheme: str):
    """(dtype, rows, adjoint): the series' row sources.  ``rows(out, start)`` writes rows
    start, start + 1, ... of the materialized A into ``out``, and ``adjoint`` those of
    A^dagger; it is None for a symmetrized A = (B + B^dagger)/2, Hermitian bit for bit.

    Term t is a real profile f_t times a momentum-power circulant K_t of the requested
    derivative scheme, and K_t is Hermitian bit for bit, so the bare series B = sum_t f_t K_t
    has B^dagger = sum_t K_t f_t.  The rows of B and of B^dagger are summed in term order
    from strided views over each circulant column, and each row on its own, so a row's bits
    do not depend on the slab."""
    dtype = float if all(n % 2 == 0 for _, n, _, _ in series.terms) else complex
    terms = []
    for m, n, c, d in series.terms:
        cos_prof, sin_prof = _harmonic_profiles(grid, m)
        kernel = _circulant(_momentum_column(grid, n, scheme)) if n else None
        terms.append((c * cos_prof + d * sin_prof, kernel))
    buffers = []  # reused slabs as high as the highest ask: a term's product, B^dagger's rows

    def summed(daggers: tuple, out: np.ndarray, start: int) -> None:
        """Rows start, start + 1, ... of B into ``out``, or of B^dagger if daggers[0]; with
        daggers (False, True), B^dagger's into the own slab too, and (B + B^dagger)/2."""
        if not buffers or len(buffers[0]) < len(out):
            buffers[:] = [np.empty_like(out) for _ in range(2)]
        stop, diag = start + len(out), np.arange(start, start + len(out))
        prod, own = (buffer[: len(out)] for buffer in buffers)
        slabs = list(zip((out, own), daggers))
        for slab, _ in slabs:
            slab.fill(0.0)
        for profile, kernel in terms:
            for slab, dagger in slabs:
                if kernel is None:
                    slab[diag - start, diag] += profile[diag]
                elif dagger:
                    slab += np.multiply(kernel[start:stop], profile, out=prod)
                else:
                    slab += np.multiply(profile[start:stop, None], kernel[start:stop], out=prod)
        if len(slabs) == 2:
            out += own
            out *= 0.5

    if series.symmetrize:
        return dtype, partial(summed, (False, True)), None
    return dtype, partial(summed, (False,)), partial(summed, (True,))


@dataclass
class LocalityReport:
    """How the Frobenius mass of a kernel's Hermitian part spreads off the diagonal.

    ``cumulative`` holds, for each sample distance w = 0..G//2, the fraction
    of squared Frobenius mass with ring distance(i, j) <= w.  Physical
    widths are sample counts times the grid spacing.
    """

    grid: RingGrid
    cumulative: np.ndarray = field(repr=False)

    def bandwidth_mass(self, width: float) -> float:
        """Mass fraction within physical ring distance <= width."""
        width = _number(width, "width")
        if width < 0.0:
            raise ValueError(f"width must be >= 0, got {width!r}")
        # Clamped before int(), which floors the positive quotient: width / spacing
        # overflows to inf for a finite width near 1e308.
        w = min(width / self.grid.spacing + 1e-12, self.grid.total_points // 2)
        return float(self.cumulative[int(w)])

    def locality_width(self, threshold: float = 0.99) -> float:
        """Smallest physical width holding at least ``threshold`` of the mass."""
        if _number(threshold, "threshold", positive=True) > 1.0:
            raise ValueError(f"threshold must be <= 1, got {threshold!r}")
        idx = int(np.searchsorted(self.cumulative, threshold - 1e-12))
        idx = min(idx, self.cumulative.size - 1)
        return idx * self.grid.spacing


def locality_report(op: OperatorMatrix) -> LocalityReport:
    """Cumulative band-mass profile of the Hermitian part S = (A + A^dagger)/2.

    Entries are binned by the ring distance between their row and column
    samples; the report stores the cumulative fraction of |S_ij|^2 per
    distance, so the profile reads as 'how nonlocal is this observable'
    rather than mixing in an arbitrary non-normal part.  S is A bit for bit
    when A is Hermitian.  S is taken one _SLAB-row slab at a time, so nothing
    but A is G x G.
    """
    a, g = op.entries, op.grid.total_points
    mass, dist = np.zeros(g // 2 + 1), _ring_distances(g)
    # A reused slab of S = (conj(A[:, rows]).T + A[rows]) / 2 (addition commutes).
    part = np.empty((min(_SLAB, g), g), dtype=a.dtype)
    for start in range(0, g, _SLAB):
        rows = slice(start, start + _SLAB)
        s = part[: g - start]
        np.conjugate(a[:, rows], out=s.T)
        s += a[rows]
        s *= 0.5
        _bin_mass(mass, s, dist[rows])
    return _locality(op.grid, mass)


def _ring_distances(g: int) -> np.ndarray:
    """The read-only G x G view of ring distances min(|i - j|, G - |i - j|)."""
    k = np.arange(g)
    return _circulant(np.minimum(k, g - k))


def _bin_mass(mass: np.ndarray, s: np.ndarray, distances: np.ndarray) -> None:
    """Add |S_ij|^2 of S's rows ``s`` into ``mass`` by their ``distances``.  add.at sums in
    the same row-major order as one bincount over the matrix, whatever the slab height."""
    weights = np.abs(s)
    np.square(weights, out=weights)
    np.add.at(mass, distances.ravel(), weights.ravel())


def _locality(grid: RingGrid, mass: np.ndarray) -> LocalityReport:
    """The report of the binned mass |S_ij|^2 per ring distance."""
    total = float(mass.sum())
    if total == 0.0:
        raise ValueError("cannot report locality of the zero operator")
    return LocalityReport(grid, np.cumsum(mass) / total)


def _projector_locality(site: WaveFunction) -> LocalityReport:
    """:func:`locality_report` of h |W><W| from W alone, nothing G x G.  With rho = |W|^2 /
    max |W|^2, |S_ij|^2 is rho_i rho_j times h^2 max |W|^4, so the mass at ring distance d is
    rho's circular autocorrelation at lags d and G - d.  einsum's own loop sums each lag's G
    nonnegative products, so every bin and partial sum is within about 2G u of it, relative."""
    modulus, g = np.abs(site.samples), site.grid.total_points
    rho, d = np.square(modulus / modulus.max()), np.arange(g // 2 + 1)
    lags = np.einsum("ki,i->k", sliding_window_view(np.concatenate((rho, rho[:g // 2])), g), rho)
    mass = np.where((d > 0) & (2 * d < g), 2.0, 1.0) * lags  # lag G - d holds lag d's sum
    return _locality(site.grid, mass)


def cell_periodicity_defect(op: OperatorMatrix) -> float:
    """Relative Frobenius size of A - T A T^dagger, T the one-cell shift.

    Zero (to roundoff) exactly when the operator commutes with the one-cell
    shift; order one when a single cell's worth of structure moves.  T acts as
    an index shift on A's rows and columns, so it is never built.
    """
    # A - T A T^dagger is [A, T] with its columns moved: the same values, the same norm.
    a = op.entries
    return _commutator_norm(a, op.grid.points_per_cell) / max(_frobenius_norm(a), 1e-300)

