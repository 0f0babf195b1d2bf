import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochlab import (
    GridMismatchError,
    LocalObservableSeries,
    PotentialSpec,
    RingGrid,
    WaveFunction,
    build_translation,
    build_wannier,
    cell_periodicity_defect,
    locality_report,
    materialize,
    solve_bands,
    wannier_projector,
)
from blochlab.derivatives import SCHEMES
from blochlab import lattice, observables
from blochlab.lattice import (_SLAB, OperatorMatrix, _add_rows, _frobenius_norm,
                              _hamiltonian_rows)
from blochlab.observables import _harmonic_profiles, _series_rows
from conftest import apply_kernel, momentum_matrix, state


def test_series_validation():
    with pytest.raises(ValueError):
        LocalObservableSeries(((-1, 0, 1.0, 0.0),))
    with pytest.raises(ValueError):
        LocalObservableSeries(((0, 9, 1.0, 0.0),))
    with pytest.raises(ValueError):
        LocalObservableSeries(((0, 0, np.nan, 0.0),))
    with pytest.raises(ValueError):
        LocalObservableSeries(((0, 0, 1.0),))
    with pytest.raises(ValueError):
        LocalObservableSeries(((1, 0, None, 0.0),))
    with pytest.raises(ValueError):
        LocalObservableSeries(((1, True, 1.0, 0.0),))


def test_materialize_identity_and_kinetic(ref_grid):
    ident = materialize(LocalObservableSeries(((0, 0, 1.0, 0.0),)), ref_grid)
    assert np.max(np.abs(ident.entries - np.eye(256))) < 1e-14
    # m = 0, n = 2 is exactly the squared momentum.
    kin = materialize(LocalObservableSeries(((0, 2, 1.0, 0.0),)), ref_grid)
    assert np.max(np.abs(kin.entries - momentum_matrix(ref_grid, 2))) < 1e-12


@pytest.mark.parametrize("scheme", ["spectral", "fd4"])
def test_series_of_even_powers_is_real(ref_grid, scheme):
    series = LocalObservableSeries(((0, 0, 0.7, 0.0), (3, 2, 1.0, 0.5), (8, 4, 0.2, -0.3),
                                    (5, 0, 0.1, 0.9), (3, 2, -0.4, 0.1)))
    op = materialize(series, ref_grid, scheme=scheme)
    # The same sum in complex arithmetic.
    g = ref_grid.total_points
    acc = np.zeros((g, g), dtype=complex)
    for m, n, c, d in series.terms:
        cos_prof, sin_prof = _harmonic_profiles(ref_grid, m)
        profile = c * cos_prof + d * sin_prof
        if n == 0:
            acc[np.diag_indices(g)] += profile
        else:
            acc += profile[:, None] * momentum_matrix(ref_grid, n, scheme).astype(complex)
    oracle = 0.5 * (acc + acc.conj().T)
    assert op.entries.dtype == np.float64
    assert np.array_equal(op.entries, oracle)
    assert not np.any(oracle.imag)


def cached_materialize_oracle(series, grid, scheme):
    """The whole-matrix build: one cached momentum matrix per power, a G x G
    product per term, and the Hermitian part of the whole sum."""
    g = grid.total_points
    even = all(n % 2 == 0 for _, n, _, _ in series.terms)
    acc = np.zeros((g, g), dtype=float if even else complex)
    cache = {}
    for m, n, c, d in series.terms:
        cos_prof, sin_prof = _harmonic_profiles(grid, m)
        profile = c * cos_prof + d * sin_prof
        if n == 0:
            acc[np.diag_indices(g)] += profile
            continue
        if n not in cache:
            cache[n] = momentum_matrix(grid, n, scheme)
        acc += profile[:, None] * cache[n]
    return 0.5 * (acc + acc.conj().T) if series.symmetrize else acc


_AMPLITUDES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-3.0, 3.0, allow_nan=False))
_TERMS = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 8), _AMPLITUDES, _AMPLITUDES),
                  min_size=1, max_size=4)


@given(n_cells=st.integers(2, 9), points=st.integers(8, 300), terms=_TERMS,
       even_only=st.booleans(), scheme=st.sampled_from(list(SCHEMES)),
       symmetrize=st.booleans())
# Off-band fd entries are signed zeros, which a wrongly paired tile flips.
@example(3, 131, [(1, 1, 1.0, -0.0), (0, 0, -0.0, 0.5), (2, 2, 0.5, 0.3)], False, "fd4", True)
@example(9, 300, [(4, 2, -1.0, 0.0), (0, 0, 0.0, -0.0)], True, "spectral", True)
@example(2, 40, [(3, 3, 0.7, -0.2)], False, "fd8", False)
@settings(max_examples=50, deadline=None)
def test_materialize_matches_the_cached_matrix_oracle(n_cells, points, terms, even_only,
                                                      scheme, symmetrize):
    # Grids below, above and off a multiple of the row block; G is capped so
    # the oracle's several G x G arrays stay small.
    grid = RingGrid(min(n_cells, 1200 // points), 1.0, points)
    if even_only:
        terms = [(m, n - n % 2, c, d) for m, n, c, d in terms]
    series = LocalObservableSeries(tuple(terms), symmetrize=symmetrize)
    op = materialize(series, grid, scheme=scheme)
    oracle = cached_materialize_oracle(series, grid, scheme)
    assert op.entries.dtype == oracle.dtype
    assert op.entries.dtype == np.float64 or not even_only
    # tobytes, unlike array_equal, tells +0.0 from -0.0.
    assert op.entries.tobytes() == oracle.tobytes()


def test_odd_powers_and_projectors_stay_complex(ref_grid, site0_projector):
    for terms in (((1, 1, 1.0, 0.0),), ((0, 2, 1.0, 0.0), (1, 3, 0.5, 0.2))):
        assert materialize(LocalObservableSeries(terms), ref_grid).entries.dtype == np.complex128
    assert site0_projector.entries.dtype == np.complex128


def test_materialize_cell_harmonic_is_tiled_diagonal(ref_grid):
    # m = N has the one-cell period; its diagonal must tile exactly.
    op = materialize(LocalObservableSeries(((8, 0, 1.0, 0.0),)), ref_grid)
    diag = np.diag(op.entries).real
    assert np.array_equal(diag, np.tile(diag[:32], 8))
    expected = np.cos(2.0 * np.pi * ref_grid.points[:32] / ref_grid.cell_length)
    assert np.max(np.abs(diag[:32] - expected)) < 1e-14
    off = op.entries - np.diag(np.diag(op.entries))
    assert np.max(np.abs(off)) == 0.0


@given(n_cells=st.integers(2, 12), points=st.integers(8, 64), cell_length=st.floats(1e-2, 1e2),
       constant=_AMPLITUDES,
       harmonics=st.lists(st.tuples(st.integers(1, 40), _AMPLITUDES, _AMPLITUDES),
                          max_size=3, unique_by=lambda term: term[0]))
@settings(max_examples=50, deadline=None)
def test_the_potential_is_the_diagonal_of_its_series(n_cells, points, cell_length, constant,
                                                     harmonics):
    # One profile rule: harmonic h of the potential is the series' ring harmonic N h.
    grid = RingGrid(n_cells, cell_length, points)
    potential = PotentialSpec(constant, tuple(harmonics))
    series = LocalObservableSeries(((0, 0, constant, 0.0),) + tuple(
        (n_cells * h, 0, alpha, beta) for h, alpha, beta in harmonics))
    # array_equal, not bytes: a constant of -0.0 is +0.0 in the series' sum.
    assert np.array_equal(potential.sample(grid), np.diag(materialize(series, grid).entries))


def test_materialize_additive_in_terms(ref_grid):
    s1 = LocalObservableSeries(((1, 1, 0.5, 0.0),))
    s2 = LocalObservableSeries(((3, 2, 0.0, 1.2),))
    combined = LocalObservableSeries(s1.terms + s2.terms)
    a = materialize(s1, ref_grid).entries + materialize(s2, ref_grid).entries
    b = materialize(combined, ref_grid).entries
    assert np.max(np.abs(a - b)) < 1e-12


def test_symmetrize_flag(ref_grid):
    bare = materialize(LocalObservableSeries(((1, 1, 1.0, 0.0),), symmetrize=False), ref_grid)
    assert np.max(np.abs(bare.entries - bare.entries.conj().T)) > 1e-3
    sym = materialize(LocalObservableSeries(((1, 1, 1.0, 0.0),)), ref_grid)
    assert np.max(np.abs(sym.entries - sym.entries.conj().T)) < 1e-12


def test_materialize_scheme_validation(ref_grid):
    with pytest.raises(ValueError):
        materialize(LocalObservableSeries(((0, 2, 1.0, 0.0),)), ref_grid, scheme="fd5")


def test_finite_difference_approaches_spectral(ref_grid):
    spectral = materialize(LocalObservableSeries(((0, 2, 1.0, 0.0),)), ref_grid).entries
    distances = []
    for scheme in ("fd2", "fd4", "fd6", "fd8"):
        fd = materialize(LocalObservableSeries(((0, 2, 1.0, 0.0),)), ref_grid, scheme=scheme)
        distances.append(np.linalg.norm(fd.entries - spectral))
    assert distances[0] > distances[1] > distances[2] > distances[3]


def test_locality_of_banded_kinetic(ref_grid):
    kin = materialize(LocalObservableSeries(((0, 2, 0.5, 0.0),)), ref_grid, scheme="fd4")
    report = locality_report(kin)
    # A five-point stencil is supported within two samples of the diagonal.
    assert report.bandwidth_mass(2 * ref_grid.spacing) == pytest.approx(1.0, abs=1e-14)
    assert report.locality_width(0.99) <= 2 * ref_grid.spacing
    # Frozen mass fraction within one sample.
    assert report.bandwidth_mass(ref_grid.spacing) == pytest.approx(0.9985860, abs=1e-6)


def test_locality_of_diagonal_operator(ref_grid):
    op = materialize(LocalObservableSeries(((3, 0, 1.0, 0.5),)), ref_grid)
    report = locality_report(op)
    assert report.locality_width(0.99) == 0.0
    assert report.bandwidth_mass(0.0) == 1.0


def test_locality_of_site_projector(ref_grid, site0_projector):
    # The band-0 site projector spreads over several cells: frozen profile.
    report = locality_report(site0_projector)
    assert report.bandwidth_mass(ref_grid.cell_length) == pytest.approx(0.4921197, abs=1e-6)
    assert report.locality_width(0.99) == pytest.approx(3.84375, abs=1e-12)


def locality_oracle(op):
    """Cumulative mass of |(A + A^dagger)/2|^2 binned over broadcast ring distances."""
    g = op.grid.total_points
    idx = np.arange(g)
    diff = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(diff, g - diff)
    weights = np.abs(0.5 * (op.entries + op.entries.conj().T)) ** 2
    mass = np.bincount(dist.ravel(), weights=weights.ravel(), minlength=g // 2 + 1)
    return np.cumsum(mass[: g // 2 + 1]) / float(mass.sum())


# Real symmetric, complex Hermitian, non-Hermitian complex, and real
# non-symmetric kernels, on grids of one row block and of several, the
# last of them partial (3 x 131).
_ORACLE_KINDS = pytest.mark.parametrize(
    "kind", ["fd4_kinetic", "site_projector", "bare_odd_series", "shift"])
_ORACLE_SHAPES = pytest.mark.parametrize(
    "shape", [(8, 32), (3, 9), (3, 131), (16, 64)],
    ids=["even_g", "odd_g", "odd_g_blocks", "even_g_blocks"])


def oracle_kernel(kind, shape, potential):
    grid = RingGrid(shape[0], 1.0, shape[1])
    if kind == "fd4_kinetic":
        return materialize(LocalObservableSeries(((0, 2, 0.5, 0.0),)), grid, scheme="fd4")
    if kind == "site_projector":
        return wannier_projector(build_wannier(solve_bands(grid, potential, 2), 0, 0))
    if kind == "bare_odd_series":
        terms = ((1, 1, 1.0, 0.0), (2, 3, 0.3, -0.2), (0, 0, 0.5, 0.0))
        op = materialize(LocalObservableSeries(terms, symmetrize=False), grid)
        assert np.max(np.abs(op.entries - op.entries.conj().T)) > 1e-3
        return op
    return build_translation(grid)


@_ORACLE_KINDS
@_ORACLE_SHAPES
def test_locality_report_matches_the_broadcast_oracle(ref_potential, shape, kind):
    op = oracle_kernel(kind, shape, ref_potential)
    assert locality_report(op).cumulative.tobytes() == locality_oracle(op).tobytes()


@_ORACLE_KINDS
@_ORACLE_SHAPES
def test_periodicity_defect_matches_the_roll_formula(ref_potential, slab_order_norm, shape, kind):
    op = oracle_kernel(kind, shape, ref_potential)
    p = op.grid.points_per_cell
    moved = np.roll(op.entries, (-p, -p), axis=(0, 1))
    defect = cell_periodicity_defect(op)
    # [A, T] is A - T A T^dagger with its columns moved by P.
    commutator = np.roll(op.entries - moved, p, axis=1)
    assert defect == slab_order_norm(commutator) / _frobenius_norm(op.entries)
    assert defect == pytest.approx(
        np.linalg.norm(op.entries - moved) / np.linalg.norm(op.entries), rel=1e-13)


def test_scan_operator_memory_bounds(traced_peak):
    # 128 x 16 (G = 2048) with the two-term fd4 series of powers 1 and 2: a
    # 64 MiB complex result.  Beyond 32-row slabs, materialize may hold only its
    # result; the report holds one reused 32-row slab of S, one of its squares
    # and one of distances, and the defect one reused 128-row slab of [A, T].
    grid = RingGrid(128, 1.0, 16)
    series = LocalObservableSeries(((1, 1, 1.0, 0.3), (3, 2, 0.5, -0.2)))
    with traced_peak() as peak:
        op = materialize(series, grid, scheme="fd4")
        size = op.entries.nbytes
        assert size == 64 * 2**20
        assert peak() <= 1.06 * size
        for call, bound in ((locality_report, 0.04), (cell_periodicity_defect, 0.10)):
            peak.reset()
            call(op)
            assert peak() <= bound * size, call.__name__


@pytest.mark.parametrize("height", [1, 7, 32, 128, 261])
def test_row_walks_keep_their_bytes_at_any_slab_height(monkeypatch, rng, height):
    # The row walker (materialize's, and H's added into R) and locality_report treat each
    # row on its own (the report's add.at runs in row-major order), so the slab height
    # moves no bit.
    # G = 261 leaves a short last slab at every height but 1 and G.
    grid = RingGrid(9, 1.0, 29)
    g = grid.total_points
    series = [LocalObservableSeries(((1, 1, 1.0, 0.3), (3, 2, 0.5, -0.2), (0, 0, 0.7, 0.0))),
              LocalObservableSeries(((2, 2, 0.4, 0.1), (9, 0, 1.0, -1.0))),
              LocalObservableSeries(((4, 3, 1.0, 0.2),), symmetrize=False)]
    potential = PotentialSpec(0.3, ((1, 2.0, -0.5), (2, 0.1, 0.4)))
    r = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))

    def outputs():
        ops = [materialize(s, grid, scheme="fd4") for s in series]
        filled = r.copy()
        _add_rows(filled, float, _hamiltonian_rows(grid, potential, 0.9, 1.1, "fd6"))
        return ([op.entries.tobytes() for op in ops]
                + [locality_report(op).cumulative.tobytes() for op in ops]
                + [filled.tobytes()])

    expected = outputs()
    monkeypatch.setattr(lattice, "_SLAB", height)
    monkeypatch.setattr(observables, "_SLAB", height)
    assert outputs() == expected


_TERMS = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 8), st.floats(-2.0, 2.0),
                            st.floats(-2.0, 2.0)), min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEMES)), terms=_TERMS, symmetrize=st.booleans(),
       n_cells=st.integers(2, 7), points=st.integers(8, 40), data=st.data())
@example(scheme="fd8", terms=[(3, 8, 1.0, -0.5), (0, 0, 0.3, 0.0)], symmetrize=True,
         n_cells=7, points=37, data=None)  # G = 259
@example(scheme="spectral", terms=[(5, 1, 1.0, 0.2)], symmetrize=False, n_cells=2,
         points=8, data=None)
# Subnormal profiles: symmetrizing halves an entry of -2^-1074 to -0.0, which a start
# from +0.0 would turn to +0.0.
@example(scheme="fd6", terms=[(1, 2, 5e-324, 0.0)], symmetrize=True, n_cells=2, points=8,
         data=None)
def test_series_rows_have_the_bits_of_materialize(scheme, terms, symmetrize, n_cells, points,
                                                  data):
    # The series' row source, asked for any run of at most _SLAB rows from any start,
    # writes the bytes of those rows of materialize's matrix.  A bare series' adjoint
    # source writes those of its conjugate transpose, bit for bit but for the sign of a
    # zero imaginary part (conj turns +0.0 to -0.0); a symmetrized series has none.
    grid = RingGrid(n_cells, 1.0, points)
    g = grid.total_points
    series = LocalObservableSeries(tuple(terms), symmetrize=symmetrize)
    expected = materialize(series, grid, scheme=scheme).entries
    dtype, rows, adjoint = _series_rows(series, grid, scheme)
    assert np.dtype(dtype) == expected.dtype
    assert (adjoint is None) == symmetrize
    if data is None:
        start, height = max(g - 40, 0), min(_SLAB, g)  # rows 219-250 of 259 cross 224
    else:
        start = data.draw(st.integers(0, g - 1))
        height = data.draw(st.integers(1, min(_SLAB, g - start)))
    out, dagger = np.full((2, height, g), np.nan, dtype=dtype)  # every entry is written
    rows(out, start)
    assert out.tobytes() == expected[start:start + height].tobytes()
    if adjoint is not None:
        adjoint(dagger, start)
        want = expected.conj().T[start:start + height]
        if np.dtype(dtype) == complex:
            dagger, want = dagger + 0.0, want + 0.0
        assert dagger.tobytes() == want.tobytes()


def test_locality_report_rejects_the_zero_operator(ref_grid):
    with pytest.raises(ValueError, match="zero operator"):
        locality_report(OperatorMatrix(ref_grid, np.zeros((256, 256))))


def test_bandwidth_mass_width_validation(site0_projector):
    report = locality_report(site0_projector)
    assert report.bandwidth_mass(0.0) == report.cumulative[0]
    for width in (-1.0, -1e-300, np.nan, np.inf):
        with pytest.raises(ValueError, match="width"):
            report.bandwidth_mass(width)


def test_bandwidth_mass_of_a_huge_finite_width_is_the_whole_mass(site0_projector):
    # Half the ring (L/2 = 4) or more holds all the mass.  At 1e308 width / spacing
    # overflows to inf, which must be clamped before it becomes an index.
    report = locality_report(site0_projector)
    for width in (4.0, 1e308, np.finfo(float).max):
        assert report.bandwidth_mass(width) == report.cumulative[-1]
    assert report.cumulative[-1] == pytest.approx(1.0, abs=1e-15)


def test_locality_width_threshold_validation(ref_grid, site0_projector):
    report = locality_report(site0_projector)
    with pytest.raises(ValueError):
        report.locality_width(0.0)
    with pytest.raises(ValueError):
        report.locality_width(1.5)


def test_periodicity_defect_of_commuting_operators(ref_grid, ref_hamiltonian):
    assert cell_periodicity_defect(ref_hamiltonian) == 0.0
    cellcos = materialize(LocalObservableSeries(((8, 0, 1.0, 0.0),)), ref_grid)
    assert cell_periodicity_defect(cellcos) < 1e-14


def test_periodicity_defect_of_ring_harmonic(ref_grid):
    # diag cos(2 pi x / L) misses cell periodicity by a computable amount:
    # ||cos(theta + 2 pi / N) - cos(theta)|| / ||cos|| = 2 sin(pi / N).
    op = materialize(LocalObservableSeries(((1, 0, 1.0, 0.0),)), ref_grid)
    defect = cell_periodicity_defect(op)
    assert defect == pytest.approx(2.0 * np.sin(np.pi / 8.0), abs=1e-12)


def test_periodicity_defect_of_site_projector(site0_projector):
    # T moves the site, and distinct-site states are orthogonal, so the
    # defect is exactly sqrt(2) for any potential.
    defect = cell_periodicity_defect(site0_projector)
    assert defect == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_apply_kernel_identity_and_diagonal(ref_grid, rng):
    psi = WaveFunction(ref_grid, rng.normal(size=256) + 1j * rng.normal(size=256))
    ident = materialize(LocalObservableSeries(((0, 0, 1.0, 0.0),)), ref_grid)
    out = apply_kernel(ident, psi)
    assert np.max(np.abs(out.samples - psi.samples)) < 1e-12
    cos_op = materialize(LocalObservableSeries(((1, 0, 1.0, 0.0),)), ref_grid)
    expected = np.cos(2.0 * np.pi * ref_grid.points / ref_grid.ring_length) * psi.samples
    assert np.max(np.abs(apply_kernel(cos_op, psi).samples - expected)) < 1e-12


def test_apply_site_projector_to_bloch_state(ref_bands, site0_projector, ref_grid):
    # P_{W} psi_{0 l} = <W|psi> W = exp(+i k_l M a) W / sqrt(N); M = 0 here.
    for l in (0, 3, 6):
        bloch = state(ref_bands, 0, l)
        out = apply_kernel(site0_projector, bloch.wavefunction)
        w = build_wannier(ref_bands, 0, 0).samples
        assert np.max(np.abs(out.samples - w / np.sqrt(8))) < 1e-8


def test_apply_kernel_grid_mismatch(ref_grid, site0_projector):
    other = RingGrid(8, 1.0, 16)
    psi = WaveFunction(other, np.ones(128))
    with pytest.raises(GridMismatchError):
        apply_kernel(site0_projector, psi)
