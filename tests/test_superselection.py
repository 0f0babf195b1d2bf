import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blochlab import (
    BandStructure,
    LocalObservableSeries,
    OperatorMatrix,
    PotentialSpec,
    RingGrid,
    WaveFunction,
    build_hamiltonian,
    build_wannier,
    cell_periodicity_defect,
    locality_report,
    materialize,
    selection_scan,
    solve_bands,
    wannier_projector,
    winding_number,
)
from blochlab.derivatives import SCHEMES
from blochlab.lattice import _hamiltonian_rows, _matrix_rows, build_translation
from blochlab.observables import _projector_locality, _series_rows
from blochlab.superselection import SelectionScan, _projector_scan, _scan, _streamed_scan
from conftest import matrix_element, one_gemm_table, state


def ring_wave(grid, winding, envelope=None):
    phase = np.exp(2j * np.pi * winding * grid.points / grid.ring_length)
    if envelope is not None:
        phase = envelope * phase
    return WaveFunction(grid, phase)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("b", [1, 3])
def test_sector_reductions_match_the_broadcast_formulas(n, b, rng):
    table = rng.normal(size=(b, n, b, n)) + 1j * rng.normal(size=(b, n, b, n))
    table[rng.random(table.shape) < 0.3] = 0.0  # zeros, as a selection rule leaves them
    scan = SelectionScan(table, 0.0)
    # Oracle: masks over the whole four-index table of moduli, one per difference.
    mods = np.abs(table)
    l_bra = np.arange(n)[None, :, None, None]
    l_ket = np.arange(n)[None, None, None, :]
    profile = np.array([np.max(np.where((l_ket - l_bra) % n == d, mods, 0.0)) for d in range(n)])
    assert scan.sector_difference_profile().tobytes() == profile.tobytes()
    assert scan.off_sector_max() == float(np.max(np.where(l_bra != l_ket, mods, 0.0)))


def test_matrix_element_reproduces_energies(ref_bands, ref_hamiltonian):
    for n in range(4):
        for l in range(8):
            bloch = state(ref_bands, n, l)
            el = matrix_element(ref_hamiltonian, bloch, bloch)
            assert el.real == pytest.approx(bloch.energy, abs=1e-8)
            assert abs(el.imag) < 1e-10


def test_matrix_element_vanishes_between_bands(ref_bands, ref_hamiltonian):
    el = matrix_element(ref_hamiltonian, state(ref_bands, 0, 2), state(ref_bands, 1, 2))
    assert abs(el) < 1e-10


def test_scan_of_hamiltonian_is_diagonal(ref_bands, ref_hamiltonian):
    scan = selection_scan(ref_hamiltonian, ref_bands)
    assert scan.periodicity_defect == 0.0
    assert scan.off_sector_max() < 1e-10
    assert scan.hermitian_symmetry_defect() < 1e-10
    for n in range(4):
        for l in range(8):
            assert scan.table[n, l, n, l].real == pytest.approx(
                state(ref_bands, n, l).energy, abs=1e-8
            )


def test_scan_of_cell_harmonic_obeys_selection_rule(ref_grid, ref_bands):
    op = materialize(LocalObservableSeries(((8, 0, 1.0, 0.0),)), ref_grid)
    scan = selection_scan(op, ref_bands)
    assert scan.off_sector_max() < 1e-8
    profile = scan.sector_difference_profile()
    assert np.max(profile[1:]) < 1e-8
    # It conserves the sector but does couple different bands; frozen value.
    mods = scan.moduli()
    cross_band = max(
        mods[n1, l, n2, l] for l in range(8) for n1 in range(4) for n2 in range(4) if n1 != n2
    )
    assert cross_band == pytest.approx(0.7008960, abs=1e-6)


def test_scan_of_ring_harmonic_couples_adjacent_sectors(ref_grid, ref_bands):
    op = materialize(LocalObservableSeries(((1, 0, 1.0, 0.0),)), ref_grid)
    scan = selection_scan(op, ref_bands)
    profile = scan.sector_difference_profile()
    on_pattern = profile[[1, 7]]
    off_pattern = np.delete(profile, [1, 7])
    assert np.min(on_pattern) > 0.4
    assert np.max(off_pattern) < 1e-8


def test_scan_moduli_table_matches_elementwise(ref_bands, site0_projector):
    scan = selection_scan(site0_projector, ref_bands)
    for n, l, np_, lp in ((0, 0, 0, 5), (0, 3, 1, 3), (2, 1, 0, 6)):
        direct = matrix_element(site0_projector, state(ref_bands, n, l), state(ref_bands, np_, lp))
        assert scan.table[n, l, np_, lp] == pytest.approx(direct, abs=1e-12)


def test_scan_grid_mismatch(ref_bands):
    other = RingGrid(8, 1.0, 16)
    op = materialize(LocalObservableSeries(((0, 0, 1.0, 0.0),)), other)
    with pytest.raises(ValueError):
        selection_scan(op, ref_bands)


def test_scan_raises_on_theorem_violation(ref_grid, ref_potential, ref_hamiltonian):
    # Corrupt one state by mixing two sectors; scanning a cell-periodic
    # kernel over the broken table must refuse to report numbers.
    bands = solve_bands(ref_grid, ref_potential, 2)
    mixed = WaveFunction(
        ref_grid,
        (state(bands, 0, 1).wavefunction.samples + state(bands, 0, 2).wavefunction.samples)
        / np.sqrt(2.0),
    )
    waves = bands.waves.copy()
    waves[0, 1] = mixed.samples
    broken = BandStructure(ref_grid, bands.energies(), waves, bands.cells)
    with pytest.raises(RuntimeError, match="selection rule"):
        selection_scan(ref_hamiltonian, broken)


def test_winding_of_pure_plane_waves(ref_grid):
    for w in (-5, -1, 0, 1, 3, 7):
        result = winding_number(ring_wave(ref_grid, w))
        assert result.defined
        assert result.value == w
        assert result.residual < 1e-10


def test_winding_ignores_global_phase_and_scale(ref_grid, rng):
    base = ring_wave(ref_grid, 2)
    for _ in range(5):
        factor = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        scaled = WaveFunction(ref_grid, factor * base.samples)
        assert winding_number(scaled).value == 2


def test_winding_undefined_on_noded_curve(ref_grid):
    # A real standing wave crosses zero; no winding should be reported.
    curve = WaveFunction(ref_grid, np.sin(2.0 * np.pi * ref_grid.points / ref_grid.ring_length))
    result = winding_number(curve)
    assert not result.defined
    assert result.min_modulus < 1e-12


def test_winding_undefined_on_large_steps(ref_grid):
    jumpy = WaveFunction(ref_grid, (-1.0 + 0j) ** np.arange(256))
    result = winding_number(jumpy)
    assert not result.defined
    assert result.max_step >= 0.9 * np.pi


def test_winding_zero_threshold_is_relative(ref_grid):
    # One sample's modulus below 1e-6 of the largest makes the winding undefined,
    # and above it defined, whatever the curve's overall scale.
    for dip, defined in ((0.5e-6, False), (2e-6, True)):
        envelope = np.ones(ref_grid.total_points)
        envelope[17] = dip
        for scale in (1e-5, 1.0, 1e5):
            curve = WaveFunction(ref_grid, scale * envelope * ring_wave(ref_grid, 1).samples)
            assert winding_number(curve).defined is defined
            assert winding_number(curve).value == (1 if defined else None)
    assert not winding_number(WaveFunction(ref_grid, np.zeros(ref_grid.total_points))).defined


def nodeless_curve(grid, rng, winding):
    """Random smooth nodeless loop with a prescribed winding."""
    x = grid.points
    envelope = np.zeros(grid.total_points, dtype=complex)
    for harmonic in range(1, 4):
        amp = 0.25 * (rng.normal() + 1j * rng.normal()) / harmonic
        envelope += amp * np.exp(2j * np.pi * harmonic * x / grid.ring_length)
    smooth = np.exp(envelope)
    return WaveFunction(grid, smooth * ring_wave(grid, winding).samples)


def test_winding_additive_over_products(ref_grid, rng):
    # winding(f g) = winding(f) + winding(g) on 100 random nodeless curves.
    for _ in range(100):
        w1 = int(rng.integers(-4, 5))
        w2 = int(rng.integers(-4, 5))
        f = nodeless_curve(ref_grid, rng, w1)
        g = nodeless_curve(ref_grid, rng, w2)
        rf, rg = winding_number(f), winding_number(g)
        product = WaveFunction(ref_grid, f.samples * g.samples)
        rp = winding_number(product)
        assert rf.defined and rg.defined and rp.defined
        assert rf.value == w1 and rg.value == w2
        assert rp.value == w1 + w2


def test_band0_windings_track_sector_with_zone_edge_exception(ref_grid):
    # V = 0.5 cos(2 pi x / a), band 0: the winding equals the sector label
    # in the symmetric window (l or l - N), except l = N/2 where the state
    # is an exact standing wave (time-reversal pins it real up to a phase),
    # has nodes, and carries no winding at all.
    bands = solve_bands(ref_grid, PotentialSpec(0.0, ((1, 0.5, 0.0),)), 1)
    expected = {0: 0, 1: 1, 2: 2, 3: 3, 5: -3, 6: -2, 7: -1}
    for l, want in expected.items():
        result = winding_number(state(bands, 0, l).wavefunction)
        assert result.defined, f"sector {l} unexpectedly undefined"
        assert result.value == want
        assert result.min_modulus > 0.3
    edge = winding_number(state(bands, 0, 4).wavefunction)
    assert not edge.defined
    assert edge.min_modulus < 1e-12


def test_scan_defect_is_the_public_periodicity_defect(ref_grid, ref_bands, ref_hamiltonian,
                                                      site0_projector):
    ring = materialize(LocalObservableSeries(((1, 1, 1.0, 0.3),)), ref_grid)
    for op in (ref_hamiltonian, site0_projector, ring):
        scan = selection_scan(op, ref_bands)
        assert scan.periodicity_defect == cell_periodicity_defect(op)


@pytest.mark.parametrize("shape", [(8, 32), (9, 29)], ids=["even_g", "odd_g"])
def test_real_operator_scan_matches_the_complex_product(ref_potential, shape, rng):
    # A float64 operator multiplies the states' real and imaginary parts apart;
    # the table stays within roundoff of the product with A cast to complex.
    grid = RingGrid(shape[0], 1.0, shape[1])
    g = grid.total_points
    bands = solve_bands(grid, ref_potential, 3)
    a = rng.normal(size=(g, g))
    split = selection_scan(OperatorMatrix(grid, a), bands).table
    whole = selection_scan(OperatorMatrix(grid, a.astype(complex)), bands).table
    assert np.max(np.abs(split - whole)) <= 1e-15 * np.max(np.abs(whole))


def test_selection_scan_memory_bound(ref_potential, traced_peak):
    # 32 x 64 (G = 2048), the real 32 MiB H and 128 states: beyond its inputs the
    # scan holds the 4 MiB copy of the states, one 2 MiB defect slab, one 128-row
    # slab of A Psi and the table; no A Psi, no complex H, no Re Psi or Im Psi.
    grid = RingGrid(32, 1.0, 64)
    h = build_hamiltonian(grid, ref_potential)
    bands = solve_bands(grid, ref_potential, 4)
    with traced_peak() as peak:
        selection_scan(h, bands)
        assert peak() <= 0.22 * h.entries.nbytes


# G = 128 k (one and three whole slabs), G = 192 and 320 (a short last slab), odd G.
_SLAB_SHAPES = pytest.mark.parametrize(
    "shape", [(4, 32), (12, 32), (4, 48), (10, 32), (9, 29)],
    ids=["g128", "g384", "g192", "g320", "g261"])


@_SLAB_SHAPES
@pytest.mark.parametrize("dtype", [complex, float])
def test_scan_table_matches_the_one_gemm_oracle(ref_potential, rng, shape, dtype):
    # The table is summed over 128-row slabs of A, so its bits may differ from one
    # product's; its elements stay within roundoff of it, and the caller's states
    # are left as they were.
    grid = RingGrid(shape[0], 1.0, shape[1])
    g = grid.total_points
    bands = solve_bands(grid, ref_potential, 2)
    a = rng.normal(size=(g, g))
    op = OperatorMatrix(grid, a + 1j * rng.normal(size=(g, g)) if dtype is complex else a)
    psis = bands.state_matrix()
    oracle = one_gemm_table(op, psis)
    table = _scan(op, psis, bands.band_count).table.reshape(oracle.shape)
    assert np.max(np.abs(table - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    assert psis.tobytes() == bands.state_matrix().tobytes()


@_SLAB_SHAPES
@pytest.mark.parametrize("kind", ["hamiltonian", "complex_cell_series"])
def test_scan_guard_raises_on_a_corrupted_periodic_case(ref_potential, shape, kind):
    # One state mixes two sectors; the scan of a cell-periodic kernel, real or
    # complex, summed over whole and short slabs, must refuse it.
    grid = RingGrid(shape[0], 1.0, shape[1])
    bands = solve_bands(grid, ref_potential, 2)
    if kind == "hamiltonian":
        op = build_hamiltonian(grid, ref_potential)
    else:
        op = materialize(LocalObservableSeries(((grid.n_cells, 1, 1.0, 0.4),)), grid)
        assert np.iscomplexobj(op.entries) and cell_periodicity_defect(op) < 1e-14
    waves = bands.waves.copy()
    waves[1, 1] = (waves[1, 1] + waves[0, 2]) / np.sqrt(2.0)
    broken = BandStructure(grid, bands.energies(), waves, bands.cells)
    with pytest.raises(RuntimeError, match="selection rule"):
        selection_scan(op, broken)


def test_scan_raises_on_a_table_of_rounding_noise():
    # Free band 0 on 4 x 14 holds the wavenumbers 0, 1, +-2 and -1.  The ring
    # harmonic 9 moves a wavenumber by +-9, so every element of the Hermitian
    # series below is zero but for rounding: the table cannot be Hermitian to
    # 1e-9 of its largest modulus, and the scan refuses it.  The bare product is
    # not Hermitian, so its table (noise as well) is returned.
    grid = RingGrid(4, 1.0, 14)
    bands = solve_bands(grid, PotentialSpec(), 1)
    terms = ((9, 2, 1.0, 0.5),)
    with pytest.raises(RuntimeError, match="rounding noise"):
        selection_scan(materialize(LocalObservableSeries(terms), grid), bands)
    bare = selection_scan(materialize(LocalObservableSeries(terms, symmetrize=False), grid), bands)
    assert np.max(bare.moduli()) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(8, 13), st.integers(1, 3),
       st.floats(-6.0, np.log10(3.0)), st.floats(0.0, 2.0 * np.pi),
       st.integers(0, 2), st.integers(0, 6))
@example(2, 8, 1, -6.0, 0.0, 0, 1)
@example(7, 13, 3, np.log10(3.0), 1.1, 2, 6)
def test_the_rank_one_projector_route_matches_the_dense_projector(
        n_cells, points, band_count, exponent, angle, band, site):
    # The scan's rank-one route reads the site state W: the table c c^dagger, the defect
    # from <W^, T W^> and the locality from the autocorrelation of |W|^2.  The dense
    # h W W^dagger through selection_scan, cell_periodicity_defect and locality_report is
    # its oracle.  Each value of either route sums a few G rounded products, so both lie
    # within 2 G u of the scale: the largest modulus, the defect and the total mass.  Over
    # 1900 draws the deviations peaked at 0.29, 0.35 and 0.13 G u.
    grid, amplitude = RingGrid(n_cells, 1.0, points), 10.0**exponent
    potential = PotentialSpec(0.1 * amplitude, (
        (1, amplitude * np.cos(angle), amplitude * np.sin(angle)),
        (2, -0.7 * amplitude, 0.0), (3, 0.3 * amplitude, -0.2 * amplitude)))
    bands = solve_bands(grid, potential, band_count)
    w = build_wannier(bands, band % band_count, site % n_cells)
    projector = wannier_projector(w)
    dense = selection_scan(projector, bands)
    rank_one = _projector_scan(w, bands.state_matrix(), band_count)
    bound = 2 * grid.total_points * np.finfo(float).eps
    largest = float(np.max(dense.moduli()))
    assert np.max(np.abs(rank_one.table - dense.table)) <= bound * largest
    assert rank_one.hermitian_symmetry_defect() <= bound * largest
    defect = dense.periodicity_defect
    assert abs(rank_one.periodicity_defect - defect) <= bound * defect
    cumulative = _projector_locality(w).cumulative
    assert np.max(np.abs(cumulative - locality_report(projector).cumulative)) <= bound


def outcome(compute):
    """compute()'s value, or the type and message of what it raised."""
    try:
        return compute()
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["series", "hamiltonian", "translation", "dense"]),
       n_cells=st.integers(2, 6), points=st.integers(8, 140), band_count=st.integers(1, 3),
       scheme=st.sampled_from(sorted(SCHEMES)), symmetrize=st.booleans(),
       terms=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 8), st.floats(-2.0, 2.0),
                                st.floats(-2.0, 2.0)), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example("series", 2, 140, 2, "fd4", False, [(3, 1, 1.0, 0.4)], 0)  # P > _BLOCK: the rows
@example("series", 5, 61, 1, "spectral", True, [(5, 2, 0.7, 0.0)], 1)  # below wrap round
@example("translation", 3, 50, 2, "fd2", True, [(0, 0, 1.0, 0.0)], 2)
@example("translation", 2, 50, 2, "fd2", True, [(0, 0, 1.0, 0.0)], 4)  # T = T^dagger
@example("hamiltonian", 6, 53, 3, "spectral", True, [(0, 0, 1.0, 0.0)], 3)
def test_the_streamed_scan_has_the_bits_of_the_dense_scan_and_report(
        ref_potential, kind, n_cells, points, band_count, scheme, symmetrize, terms, seed):
    # One pass over a row source, with A^dagger's source unless A is Hermitian bit for bit,
    # gives the table, defect and locality of _scan and locality_report of the matrix held
    # whole, bit for bit, or fails as they fail.
    assume(n_cells * points <= 320)
    grid = RingGrid(n_cells, 1.0, points)
    g = grid.total_points
    bands = solve_bands(grid, ref_potential, band_count)
    if kind == "series":
        series = LocalObservableSeries(tuple(terms), symmetrize=symmetrize)
        op = materialize(series, grid, scheme=scheme)
        source = _series_rows(series, grid, scheme)
        assert (source[2] is None) == symmetrize
    elif kind == "hamiltonian":
        op = build_hamiltonian(grid, ref_potential, mass=0.9, hbar=1.1)
        source = (float, _hamiltonian_rows(grid, ref_potential, 0.9, 1.1, "spectral"), None)
    else:
        rng = np.random.default_rng(seed)
        a = (build_translation(grid).entries if kind == "translation"
             else rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g)))
        op = OperatorMatrix(grid, a)
        source = (op.entries.dtype.type, _matrix_rows(op.entries), _matrix_rows(a.conj().T))
    psis = bands.state_matrix()

    def dense():
        scan, report = _scan(op, psis, band_count), locality_report(op)
        return scan.table.tobytes(), scan.periodicity_defect, report.cumulative.tobytes()

    def streamed():
        scan, report = _streamed_scan(grid, *source, psis, band_count)
        return scan.table.tobytes(), scan.periodicity_defect, report.cumulative.tobytes()

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert outcome(streamed) == outcome(dense)
    assert psis.tobytes() == bands.state_matrix().tobytes()
