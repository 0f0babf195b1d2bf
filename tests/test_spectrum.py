import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blochlab import (
    BandStructure,
    OperatorMatrix,
    PotentialSpec,
    PropagationExperiment,
    RingGrid,
    WaveFunction,
    build_hamiltonian,
    build_translation,
    build_wannier,
    classify_by_translation,
    solve_bands,
)
from blochlab import spectrum
from blochlab.derivatives import SCHEMES
from blochlab.spectrum import _CLUSTER_RTOL, _clusters, _fix_gauge
from conftest import (all_states, fourier_coefficient, inner_product, momentum_matrix,
                      per_sector_bands, regauged, state, state_translation_defect,
                      state_wannier)


def free_sector_energies(grid, sector, count):
    """Lowest eigenvalues of the free particle in one sector: kappa^2/2."""
    p = grid.points_per_cell
    m = np.arange(-(p // 2), p - p // 2)
    kappa = 2.0 * np.pi * (sector + grid.n_cells * m) / grid.ring_length
    return np.sort(kappa**2 / 2.0)[:count]


def test_free_particle_energies_match_plane_waves(ref_grid, free_bands):
    for l in range(8):
        expected = free_sector_energies(ref_grid, l, 4)
        got = free_bands.energies()[:, l]
        assert np.max(np.abs(np.sort(got) - expected)) < 1e-10


def test_free_particle_time_reversal_pairing(free_bands):
    # V = 0: sectors l and N-l are mirror images.
    energies = free_bands.energies()
    for l in (1, 2, 3):
        assert np.allclose(energies[:, l], energies[:, 8 - l], atol=1e-10)


def test_reference_band_structure_invariants(ref_bands):
    assert ref_bands.band_count == 4
    assert ref_bands.orthonormality_defect() < 1e-10
    assert ref_bands.translation_defect() < 1e-10
    assert ref_bands.cell_periodicity_defect() < 1e-10


def test_reference_ground_state_energy(ref_bands):
    # Frozen regression for the reference configuration.
    assert state(ref_bands, 0, 0).energy == pytest.approx(-0.1008703635776808, abs=1e-9)


def test_band_energies_sorted_within_sector(ref_bands):
    energies = ref_bands.energies()
    for l in range(8):
        column = energies[:, l]
        assert np.all(np.diff(column) >= -1e-12)


def test_weak_potential_perturbation_theory():
    # For V = alpha cos(2 pi x / a) the l = 0 ground state shifts by
    # -alpha^2 m a^2 / (4 pi^2 hbar^2) + O(alpha^4): the only coupling is to
    # the degenerate pair at q = +-1 with energy gap (2 pi / a)^2 / (2 m),
    # and each contributes (alpha/2)^2 over the gap.
    grid = RingGrid(8, 1.0, 32)
    alpha = 0.1 * (2.0 * np.pi) ** 2 / 2.0
    e0 = solve_bands(grid, PotentialSpec(0.0, ((1, alpha, 0.0),)), 1).energy[0, 0]
    predicted = -(alpha**2) / (4.0 * np.pi**2)
    assert abs(e0 - predicted) / abs(predicted) < 0.01
    assert e0 == pytest.approx(-0.09826817868971625, abs=1e-9)


def test_solve_bands_validation(ref_grid, ref_potential):
    for band_count in (0, 33, 1.5, True):
        with pytest.raises(ValueError, match="band_count"):
            solve_bands(ref_grid, ref_potential, band_count)
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        solve_bands(ref_grid, ref_potential, 1, mass=-2.0)
    with pytest.raises(ValueError, match="hbar\\^2/2m overflows"):
        solve_bands(ref_grid, ref_potential, 1, hbar=1e200)


def test_a_non_finite_block_names_its_first_sector():
    # N = 4, P = 9: the folded windows reach |q| = 16, 17, 18, 17 in sectors 0..3.  With
    # L = 7.7e-153, kappa^2 = (2 pi q / L)^2 is finite at |q| = 16 and overflows from
    # |q| = 17, so sector 0's block is finite and sectors 1..3 fail: the message names 1.
    grid = RingGrid(4, 7.7e-153 / 4, 9)
    message = r"^sector 1 block is not finite \(hbar\^2/2m = 0\.5\)$"
    for solve in (solve_bands, per_sector_bands):
        with pytest.raises(ValueError, match=message):
            solve(grid, PotentialSpec(), 1)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_mass_and_hbar_must_be_positive_and_finite(ref_grid, ref_potential, bad):
    # hbar enters the sector solve only squared, so a negative hbar used to
    # return the hbar = +1 energies and hbar = 0 dropped the kinetic term.
    for name in ("mass", "hbar"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            solve_bands(ref_grid, ref_potential, 1, **{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            build_hamiltonian(ref_grid, ref_potential, **{name: bad})
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        PropagationExperiment(build_hamiltonian(ref_grid, ref_potential), 0, 1, hbar=bad)


def test_zone_edge_degeneracy_resolved_deterministically(ref_grid):
    # Free particle, sector N/2: bands 0 and 1 are exactly degenerate plane
    # waves q = +-4.  The tie-break puts +4 first, both runs identical.
    bands = solve_bands(ref_grid, PotentialSpec(), 2)
    energies, waves = bands.energy[:, 4], bands.waves[:, 4]
    assert energies[0] == pytest.approx(energies[1], rel=1e-12)
    x = ref_grid.points
    for band, q in enumerate((4, -4)):
        wave = WaveFunction(
            ref_grid,
            np.exp(2j * np.pi * q * x / ref_grid.ring_length) / np.sqrt(ref_grid.ring_length),
        )
        overlap = abs(inner_product(wave, WaveFunction(ref_grid, waves[band])))
        assert overlap == pytest.approx(1.0, abs=1e-10)
    again = solve_bands(ref_grid, PotentialSpec(), 2)
    assert again.waves.tobytes() == bands.waves.tobytes()


def test_fix_gauge_idempotent_and_quotient(ref_bands, rng):
    # _fix_gauge rotates (psi, u) rows in place; each pair here is one state's rows.
    psi, u = ref_bands.waves[1, 3], ref_bands.cells[1, 3]
    once = psi[None].copy(), u[None].copy()
    _fix_gauge(*once)
    twice = once[0].copy(), once[1].copy()
    _fix_gauge(*twice)
    assert np.max(np.abs(once[0] - twice[0])) < 1e-14
    # Two arbitrary phases of the same state land on the same representative.
    for _ in range(5):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        fixed = phase * psi[None], phase * u[None]
        _fix_gauge(*fixed)
        assert np.max(np.abs(fixed[0] - once[0])) < 1e-12


def test_fix_gauge_phase_is_the_scalar_abs_of_the_peak(rng):
    # Outputs keep their bytes only while each phase is v / abs(v) with numpy's scalar
    # abs: the vectorized np.abs differs from it in the last bit on about a third of values.
    waves, cells = rng.normal(size=(2, 40, 3, 16)) + 1j * rng.normal(size=(2, 40, 3, 16))
    expected = []
    for psi, u in zip(waves.reshape(-1, 16), cells.reshape(-1, 16)):
        value = u[np.argmax(np.abs(u))]
        expected += [psi / (value / abs(value)), u / (value / abs(value))]
    _fix_gauge(waves, cells)
    rows = np.stack([waves.reshape(-1, 16), cells.reshape(-1, 16)], axis=1).reshape(-1, 16)
    assert rows.tobytes() == np.array(expected).tobytes()


def test_regauged_preserves_physics(ref_bands, rng):
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, 8))
    rotated = regauged(ref_bands, phases)
    assert np.max(np.abs(rotated.energies() - ref_bands.energies())) == 0.0
    assert rotated.orthonormality_defect() < 1e-10
    assert rotated.translation_defect() < 1e-10
    with pytest.raises(ValueError):
        regauged(ref_bands, np.zeros((2, 8)))


def test_classifier_matches_sector_solver(ref_bands, ref_hamiltonian, ref_translation):
    classified = classify_by_translation(ref_hamiltonian, ref_translation, 4)
    assert np.max(np.abs(classified.energies() - ref_bands.energies())) < 1e-8
    for n in range(4):
        for l in range(8):
            a = state(ref_bands, n, l).wavefunction
            b = state(classified, n, l).wavefunction
            assert abs(inner_product(a, b)) == pytest.approx(1.0, abs=1e-8)
            # With both gauges fixed the samples themselves agree.
            assert np.max(np.abs(a.samples - b.samples)) < 1e-6


def test_classifier_handles_free_degeneracies(ref_grid):
    h = build_hamiltonian(ref_grid, PotentialSpec())
    t = build_translation(ref_grid)
    classified = classify_by_translation(h, t, 4)
    for l in range(8):
        expected = free_sector_energies(ref_grid, l, 4)
        got = np.sort(classified.energies()[:, l])
        assert np.max(np.abs(got - expected)) < 1e-8
    assert classified.orthonormality_defect() < 1e-10
    assert classified.translation_defect() < 1e-8


def test_classifier_rejects_noncommuting_operator(ref_grid, ref_translation):
    # A potential with the ring period but not the cell period.
    diag = np.cos(2.0 * np.pi * ref_grid.points / ref_grid.ring_length)
    broken = OperatorMatrix(ref_grid, np.diag(diag.astype(complex)))
    with pytest.raises(ValueError, match="commute"):
        classify_by_translation(broken, ref_translation, 2)


def test_classifier_rejects_nonhermitian(ref_grid, ref_translation):
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(256, 256)) + 2j
    defect = float(np.max(np.abs(raw - raw.conj().T)))
    with pytest.raises(ValueError) as raised:
        classify_by_translation(OperatorMatrix(ref_grid, raw), ref_translation, 2)
    assert str(raised.value) == f"hamiltonian is not Hermitian (defect {defect:.3e})"


def test_a_nan_entry_fails_the_hermitian_gate(ref_grid, ref_potential, ref_translation):
    # OperatorMatrix checks its entries once; a NaN written into them later gives
    # a NaN defect, which no "defect > tol" comparison would reject.
    h = build_hamiltonian(ref_grid, ref_potential)
    h.entries[5, 3] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        classify_by_translation(h, ref_translation, 2)
    with pytest.raises(ValueError, match="not Hermitian"):
        PropagationExperiment(h, 0, 1)


def test_full_band_set_resolves_identity(ref_grid, ref_potential):
    # All P bands of all N sectors together span the whole grid space.
    complete = solve_bands(ref_grid, ref_potential, ref_grid.points_per_cell)
    m = complete.state_matrix()
    gram = ref_grid.spacing * (m.conj().T @ m)
    assert np.max(np.abs(gram - np.eye(256))) < 1e-10
    resolution = ref_grid.spacing * (m @ m.conj().T)
    assert np.max(np.abs(resolution - np.eye(256))) < 1e-8


def same_state(a, b):
    """Same slot and energy, and psi and u equal bit for bit."""
    return ((a.band, a.sector, a.energy) == (b.band, b.sector, b.energy)
            and a.wavefunction.samples.tobytes() == b.wavefunction.samples.tobytes()
            and a.cell_part.samples.tobytes() == b.cell_part.samples.tobytes())


def test_state_indexing_wraps_sectors(ref_bands):
    # The oracle builds a record on demand, so a wrapped sector reads the same row.
    assert same_state(state(ref_bands, 0, 8), state(ref_bands, 0, 0))
    assert same_state(state(ref_bands, 2, -1), state(ref_bands, 2, 7))


def test_state_matrix_is_a_copy_the_caller_may_overwrite(ref_bands):
    # The scan conjugates the state matrix in place; the band table must not move.
    before = [state(ref_bands, n, l) for n in range(4) for l in range(8)]
    m = ref_bands.state_matrix()
    assert m.flags.c_contiguous and m.shape == (256, 32)
    np.conj(m, out=m)
    after = [state(ref_bands, n, l) for n in range(4) for l in range(8)]
    assert all(same_state(a, b) for a, b in zip(before, after, strict=True))
    assert np.array_equal(m.conj(), ref_bands.state_matrix())


def test_band_structure_rejects_misshaped_and_nonfinite_arrays(ref_bands, ref_grid):
    energy, waves, cells = ref_bands.energies(), ref_bands.waves, ref_bands.cells
    for bad in [(energy[:, :7], waves[:, :7], cells[:, :7]),    # N - 1 sectors
                (energy[:0], waves[:0], cells[:0]),             # no band
                (energy, waves[:, :, :255], cells[:, :, :255]),  # G - 1 samples
                (energy, waves, cells[:3]),                     # u table of another size
                (energy.ravel(), waves, cells)]:
        with pytest.raises(ValueError, match="must have shape"):
            BandStructure(ref_grid, *bad)
    # The finiteness check each state's WaveFunction ran at build time is the table's now.
    for index in (0, 1, 2):
        arrays = [energy.copy(), waves.copy(), cells.copy()]
        arrays[index][(1, 2, 3)[:arrays[index].ndim]] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            BandStructure(ref_grid, *arrays)
    assert BandStructure(ref_grid, energy, waves, cells).band_count == 4


def test_cell_part_definition(ref_bands, ref_grid):
    bloch = state(ref_bands, 1, 5)
    phase = np.exp(1j * bloch.wavevector * ref_grid.points)
    rebuilt = bloch.cell_part.samples * phase
    assert np.max(np.abs(rebuilt - bloch.wavefunction.samples)) < 1e-12


def exponential_table_states(grid, sector, energies, coeffs, band_count):
    """Energies and gauge-fixed psi and u rows synthesized from a G x P table of plane waves.

    psi = sum_m c_m exp(i kappa_m x) / sqrt(L) and u = psi exp(-i k_l x), the
    route the solver took before its one-cell FFT synthesis, kept here only
    to check that synthesis against.
    """
    p = grid.points_per_cell
    q = sector + grid.n_cells * np.arange(-(p // 2), p - p // 2)
    kappa = 2.0 * np.pi * q / grid.ring_length
    phases = np.exp(1j * np.outer(grid.points, kappa)) / np.sqrt(grid.ring_length)
    waves = np.array([phases @ coeffs[:, band] for band in range(band_count)])
    cells = waves * np.exp(-1j * grid.wavevector(sector) * grid.points)
    _fix_gauge(waves, cells)
    return energies[:band_count], waves, cells


def solve_sector_and_coefficients(grid, potential, band_count):
    """solve_bands' band structure plus, for each sector l in order, the eigenpairs
    (energies, coefficients) it synthesized column l from, as the tie-break left them."""
    captured = []
    tie_broken_order = spectrum._tie_broken_order

    def recording(energies, vectors, *args):
        tie_broken_order(energies, vectors, *args)
        captured.append((energies.copy(), vectors.copy()))

    with mock.patch.object(spectrum, "_tie_broken_order", recording):
        solved = solve_bands(grid, potential, band_count)
    assert len(captured) == grid.n_cells
    return solved, captured


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(8, 33), st.sampled_from([0.0, 1e-7, 1e-3, 3.0]),
       st.data())
def test_one_cell_synthesis_matches_the_exponential_table(n_cells, points, amplitude, data):
    grid = RingGrid(n_cells, 1.0, points)
    potential = PotentialSpec(0.0, ((1, amplitude, 0.4 * amplitude),
                                    (3, -0.7 * amplitude, 0.2 * amplitude)))
    band_count = data.draw(st.integers(1, points))
    bands, captured = solve_sector_and_coefficients(grid, potential, band_count)
    for sector, (energies, coeffs) in enumerate(captured):
        solved = (bands.energy[:, sector], bands.waves[:, sector], bands.cells[:, sector])
        oracle = exponential_table_states(grid, sector, energies, coeffs, band_count)
        for energy, psi, u, ref_energy, ref_psi, _ in zip(*solved, *oracle, strict=True):
            assert energy == ref_energy
            assert np.array_equal(np.roll(u, -points), u)
            assert WaveFunction(grid, psi - ref_psi).norm() <= 1e-12


@pytest.mark.parametrize("grid, potential", [
    (RingGrid(8, 1.0, 32), PotentialSpec(0.0, ((1, 2.0, 0.0),))),
    (RingGrid(5, 1.3, 9), PotentialSpec(0.3, ((1, 2.0, 0.7), (3, 0.0, -1.1)))),
    (RingGrid(4, 1.0, 16), PotentialSpec()),
], ids=["reference", "odd_sine", "free"])
def test_solver_cell_parts_are_exactly_periodic(grid, potential):
    bands = solve_bands(grid, potential, grid.points_per_cell)
    assert bands.cell_periodicity_defect() == 0.0


def bands_from_sector_buckets(grid, per_sector, band_count):
    """The band table of each sector's lowest ``band_count`` (energy, psi) pairs, with
    u = psi exp(-i k_l x) and the gauge fixed, filled state by state."""
    energy = np.empty((band_count, grid.n_cells))
    waves = np.empty((band_count, grid.n_cells, grid.total_points), dtype=complex)
    cells = np.empty_like(waves)
    for l, bucket in enumerate(per_sector):
        bucket.sort(key=lambda item: item[0])
        for n, (e, psi) in enumerate(bucket[:band_count]):
            energy[n, l], waves[n, l] = e, psi
            cells[n, l] = psi * np.exp(-1j * grid.wavevector(l) * grid.points)
    _fix_gauge(waves, cells)
    return BandStructure(grid, energy, waves, cells)


def schur_classifier_oracle(hamiltonian, translation, band_count):
    """classify_by_translation by a complex eigh of H and a Schur form per cluster.

    T is applied as a dense matrix product, and each cluster's restricted
    translation is rotated by its complex Schur form, which is diagonal for
    a unitary (normal) restriction.  Kept here only to check the classifier
    against: its index shift and its numpy-only cluster rotation.
    """
    grid = hamiltonian.grid
    energies, vectors = np.linalg.eigh(hamiltonian.entries.astype(complex))
    per_sector = [[] for _ in range(grid.n_cells)]
    for start, stop in _clusters(energies):
        block = vectors[:, start:stop]
        schur_t, z = scipy.linalg.schur(block.conj().T @ translation.entries @ block,
                                        output="complex")
        rotated = block @ z / np.sqrt(grid.spacing)
        for i, lam in enumerate(np.diag(schur_t)):
            l = int(np.rint(np.angle(lam) * grid.n_cells / (2.0 * np.pi))) % grid.n_cells
            per_sector[l].append((float(energies[start + i]), rotated[:, i]))
    return bands_from_sector_buckets(grid, per_sector, band_count)


@pytest.mark.parametrize("amplitude", [2.0, 1e-6])
def test_classifier_matches_the_dense_translation_oracle(ref_grid, ref_translation, amplitude):
    h = build_hamiltonian(ref_grid, PotentialSpec(0.0, ((1, amplitude, 0.0),)))
    classified = classify_by_translation(h, ref_translation, 4)
    for bloch in all_states(classified):
        psi = bloch.wavefunction.samples
        lam = ref_grid.spacing * (psi.conj() @ ref_translation.entries @ psi)
        assert abs(lam - np.exp(2j * np.pi * bloch.sector / 8)) < 1e-10
    oracle = schur_classifier_oracle(h, ref_translation, 4)
    assert np.max(np.abs(classified.energies() - oracle.energies())) < 1e-10


def assert_classifier_matches_the_schur_oracle(hamiltonian, band_count, solved=None):
    """Same (band, sector) slots and energies as the oracle (and as ``solved``),
    orthonormal states, and each state's translation eigenvalue exp(+i k_l a).
    A real H is diagonalized as a real matrix: the energies are eigh's of
    its real entries bit for bit."""
    grid = hamiltonian.grid
    translation = build_translation(grid)
    classified = classify_by_translation(hamiltonian, translation, band_count)
    entries = hamiltonian.entries
    entries = entries if np.any(entries.imag) else entries.real
    assert set(classified.energies().ravel()) <= set(np.linalg.eigh(entries)[0])
    oracle = schur_classifier_oracle(hamiltonian, translation, band_count)
    scale = float(np.max(np.abs(oracle.energies())))
    for reference in (oracle, solved or oracle):
        assert np.max(np.abs(classified.energies() - reference.energies())) <= 1e-12 * scale
    assert classified.orthonormality_defect() <= 1e-12
    for bloch, expected in zip(all_states(classified), all_states(oracle), strict=True):
        assert (bloch.band, bloch.sector) == (expected.band, expected.sector)
        psi = bloch.wavefunction.samples
        lam = grid.spacing * np.vdot(psi, np.roll(psi, -grid.points_per_cell))
        assert abs(lam - np.exp(1j * bloch.wavevector * grid.cell_length)) <= 1e-10
    return classified


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(8, 17), st.sampled_from(sorted(SCHEMES)),
       st.sampled_from([0.0, 1e-7, 1e-3, 3.0]), st.data())
def test_classifier_matches_the_schur_oracle(n_cells, points, scheme, amplitude, data):
    grid = RingGrid(n_cells, 1.0, points)
    potential = PotentialSpec(0.0, ((1, amplitude, 0.4 * amplitude),
                                    (3, -0.7 * amplitude, 0.2 * amplitude)))
    band_count = data.draw(st.integers(1, points))
    hamiltonian = build_hamiltonian(grid, potential, scheme=scheme)
    # The sector solver is spectral and its Toeplitz block leaves out the
    # couplings that a sampled potential aliases across the m window.  So only
    # the spectral free particle must match it to roundoff, odd P included.
    exact = scheme == "spectral" and amplitude == 0.0
    solved = solve_bands(grid, potential, band_count) if exact else None
    assert_classifier_matches_the_schur_oracle(hamiltonian, band_count, solved)


def test_classifier_splits_free_pairs_of_one_sector():
    # V = 0: the sector-0 waves with q = +-N m (and the sector-N/2 pairs)
    # are degenerate, so one cluster holds two states of one sector.
    grid = RingGrid(8, 1.0, 16)
    solved = solve_bands(grid, PotentialSpec(), 16)
    classified = assert_classifier_matches_the_schur_oracle(
        build_hamiltonian(grid, PotentialSpec()), 16, solved)
    energies = classified.energies()
    assert energies[1, 0] == pytest.approx(energies[2, 0], abs=1e-12)
    assert energies[0, 4] == pytest.approx(energies[1, 4], abs=1e-12)


@pytest.mark.parametrize("amplitude", [0.0, 1e-3])
def test_classifier_matches_the_schur_oracle_at_many_cells(amplitude):
    # At N = 128 the tilted sectors l and N - l lie only ~2 pi^2 l / N^2 apart,
    # so this is where the rotation's roundoff grows most.
    grid = RingGrid(128, 1.0, 8)
    potential = PotentialSpec(0.0, ((1, amplitude, 0.4 * amplitude),))
    assert_classifier_matches_the_schur_oracle(build_hamiltonian(grid, potential), 8)


def test_classifier_takes_a_complex_hamiltonian():
    # A drift term 0.3 (-i d/dx) is Hermitian, commutes with T and is not real.
    grid = RingGrid(6, 1.0, 12)
    potential = PotentialSpec(0.0, ((1, 1.5, 0.3),))
    entries = build_hamiltonian(grid, potential).entries + 0.3 * momentum_matrix(grid, 1)
    hamiltonian = OperatorMatrix(grid, entries)
    assert hamiltonian.entries.dtype == np.complex128
    assert_classifier_matches_the_schur_oracle(hamiltonian, 12)


def scipy_toeplitz_sector_block(grid, potential, sector):
    """Sector block with the potential part built by scipy.linalg.toeplitz from the
    coefficient helper, on the window's wavenumbers folded into [-G/2, G/2)."""
    p, n_cells, g = grid.points_per_cell, grid.n_cells, grid.total_points
    m = np.arange(-(p // 2), p - p // 2)
    q = (sector + n_cells * m + g // 2) % g - g // 2
    kappa = 2.0 * np.pi * q / grid.ring_length
    kinetic = np.diag(0.5 * kappa**2).astype(complex)
    first_col = np.array([fourier_coefficient(potential, d) for d in m - m[0]])
    first_row = np.array([fourier_coefficient(potential, d) for d in m[0] - m])
    return kinetic + scipy.linalg.toeplitz(first_col, first_row), kappa


@pytest.mark.parametrize("grid, potential", [
    (RingGrid(8, 1.0, 32), PotentialSpec(0.0, ((1, 2.0, 0.0),))),
    (RingGrid(8, 1.0, 32), PotentialSpec(0.3, ((1, 2.0, 0.7), (3, 0.0, -1.1)))),
    # Odd P: the upper sectors' windows fold; harmonic 9 >= P is left out of the table.
    (RingGrid(5, 1.0, 9), PotentialSpec(-0.2, ((2, 0.6, -0.4), (9, 1.5, 0.5)))),
], ids=["reference", "sine_harmonics", "odd_folded"])
def test_sector_solve_matches_the_toeplitz_oracle(grid, potential):
    p = grid.points_per_cell
    bands = solve_bands(grid, potential, p)
    for sector in range(grid.n_cells):
        block, kappa = scipy_toeplitz_sector_block(grid, potential, sector)
        energies, waves = bands.energy[:, sector], bands.waves[:, sector]
        assert np.array_equal(energies, np.linalg.eigh(block)[0])
        # Equal energies do not fix the orientation of the Toeplitz block:
        # its transpose has the same spectrum.  The plane-wave coefficients
        # of the returned states must be eigenvectors of the oracle block.
        phases = np.exp(1j * np.outer(grid.points, kappa)) / np.sqrt(grid.ring_length)
        for energy, psi in zip(energies[:4], waves[:4]):
            c = grid.spacing * (phases.conj().T @ psi)
            assert np.linalg.norm(block @ c - energy * c) < 1e-9


@pytest.mark.parametrize("n_cells, points", [(3, 9), (4, 11), (5, 9)])
def test_free_particle_solver_matches_the_classifier_at_odd_p(n_cells, points):
    # With P odd the upper sectors' windows reach |q| > G/2; the solver folds them
    # as the grid does, so all P bands are the dense H's.
    grid = RingGrid(n_cells, 1.0, points)
    solved = solve_bands(grid, PotentialSpec(), points)
    classified = classify_by_translation(build_hamiltonian(grid, PotentialSpec()),
                                         build_translation(grid), points)
    scale = float(np.max(np.abs(classified.energies())))
    assert np.max(np.abs(solved.energies() - classified.energies())) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([24, 25, 32, 33]), st.integers(2, 8), st.integers(1, 4),
       st.floats(0.5, 2.0), st.floats(0.8, 1.25), st.floats(0.5, 2.0),
       st.lists(st.floats(-6.0, np.log10(3.0)), min_size=3, max_size=3),
       st.floats(0.0, 2.0 * np.pi))
@example(25, 3, 2, 1.0, 1.0, 1.0, [0.0, -3.0, -6.0], 0.4)
@example(32, 8, 4, 0.7, 1.2, 1.7, [np.log10(3.0), -1.0, -6.0], 2.1)
def test_solver_matches_the_classifier_under_random_potentials(
        points, n_cells, band_count, cell_length, mass, hbar, exponents, angle):
    # Beyond the free particle: harmonics 1-3 with amplitudes from 1e-6 to 3, odd and
    # even N and P, any cell length, mass and hbar.  Measured at most 2.5e-15 of
    # max |H_ij| at these P.  P < 16 waits for ROADMAP item 9: the sector block leaves out
    # the aliased coupling of m and m +- P, and the routes differ by 1.5e-6 at P = 8.
    grid = RingGrid(n_cells, cell_length, points)
    potential = PotentialSpec(0.2, tuple(
        (h, 10.0**e * np.cos(h * angle), 10.0**e * np.sin(h * angle))
        for h, e in zip((1, 2, 3), exponents)))
    hamiltonian = build_hamiltonian(grid, potential, mass=mass, hbar=hbar)
    solved = solve_bands(grid, potential, band_count, mass=mass, hbar=hbar)
    classified = classify_by_translation(hamiltonian, build_translation(grid), band_count)
    scale = float(np.max(np.abs(hamiltonian.entries)))
    assert np.max(np.abs(solved.energies() - classified.energies())) <= 1e-12 * scale


def loop_clusters(energies):
    """The scalar walk both cluster sites used before they shared a helper."""
    tol = _CLUSTER_RTOL * float(energies[-1] - energies[0])
    spans, start = [], 0
    while start < energies.size:
        stop = start + 1
        while stop < energies.size and energies[stop] - energies[stop - 1] <= tol:
            stop += 1
        spans.append((start, stop))
        start = stop
    return spans


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3),
       st.lists(st.sampled_from([0.0, 1e-13, 5e-10, 1e-9, 2e-9, 1e-6, 0.5, 7.0, 3e3]),
                max_size=40))
def test_cluster_spans_match_the_scalar_walk(first, gaps):
    energies = first + np.cumsum([0.0] + gaps)
    spans = _clusters(energies)
    assert spans == loop_clusters(energies)
    assert spans[0][0] == 0 and spans[-1][1] == energies.size


def test_bands_do_not_depend_on_the_energy_unit():
    # hbar -> 2^k hbar and V -> 4^k V give 4^k H bit for bit, so the energies must
    # scale exactly and the states must not move.  A cluster tolerance with an
    # absolute floor would merge distinct levels at small scales and rotate them.
    grid = RingGrid(8, 1.0, 32)

    def bands(k):
        c = 4.0**k
        potential = PotentialSpec(0.3 * c, ((1, 0.8 * c, 0.4 * c), (2, 0.2 * c, 0.0)))
        return solve_bands(grid, potential, 4, hbar=2.0**k)

    reference = bands(0)
    for k in range(-40, 41):
        scaled = bands(k)
        assert scaled.energies().tobytes() == (4.0**k * reference.energies()).tobytes()
        assert scaled.waves.tobytes() == reference.waves.tobytes()
    for scale in (1e-30, 1.0, 1e30):
        assert _clusters(np.full(5, scale)) == [(0, 5)]


def assert_same_bytes(got, expected):
    """Same (band, sector) table, and energies, psi and u equal bit for bit."""
    assert got.waves.shape == expected.waves.shape
    assert got.energies().tobytes() == expected.energies().tobytes()
    assert got.waves.tobytes() == expected.waves.tobytes()
    assert got.cells.tobytes() == expected.cells.tobytes()


def full_walk_classifier(hamiltonian, band_count):
    """classify_by_translation's rotation and labelling run over every cluster of
    the spectrum, with no stop once every sector is full.  Kept here only to
    check that stop against: it must not move a returned bit."""
    grid = hamiltonian.grid
    p, n_cells = grid.points_per_cell, grid.n_cells
    energies, vectors = np.linalg.eigh(hamiltonian.entries)
    tilt = np.exp(-0.5j * np.pi / n_cells)
    per_sector = [[] for _ in range(n_cells)]
    for start, stop in _clusters(energies):
        block = vectors[:, start:stop]
        restricted = block.conj().T @ np.roll(block, -p, axis=0)
        tilted = tilt * restricted
        _, z = np.linalg.eigh(0.5 * (tilted + tilted.conj().T))
        rotated = block @ z
        t_eigs = np.einsum("ij,ij->j", z.conj(), restricted @ z)
        for i, lam in enumerate(t_eigs):
            l = int(np.rint(np.angle(lam) * n_cells / (2.0 * np.pi))) % n_cells
            psi = rotated[:, i] / np.sqrt(grid.spacing)
            per_sector[l].append((float(energies[start + i]), psi))
    return bands_from_sector_buckets(grid, per_sector, band_count)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(8, 17), st.sampled_from(sorted(SCHEMES)),
       st.sampled_from([0.0, 1e-7, 1e-3, 3.0]), st.data())
def test_classifier_stop_keeps_the_full_walk_bits(n_cells, points, scheme, amplitude, data):
    # band_count = P fills the last sector only at the top cluster: a full walk.
    grid = RingGrid(n_cells, 1.0, points)
    potential = PotentialSpec(0.0, ((1, amplitude, 0.4 * amplitude),
                                    (3, -0.7 * amplitude, 0.2 * amplitude)))
    band_count = data.draw(st.integers(1, points))
    hamiltonian = build_hamiltonian(grid, potential, scheme=scheme)
    classified = classify_by_translation(hamiltonian, build_translation(grid), band_count)
    assert_same_bytes(classified, full_walk_classifier(hamiltonian, band_count))


def test_classifier_rotates_clusters_until_every_sector_is_full(monkeypatch):
    grid = RingGrid(16, 1.0, 64)
    potential = PotentialSpec(0.0, ((1, 2.0, 0.5), (2, -0.3, 0.2)))
    hamiltonian, band_count = build_hamiltonian(grid, potential), 4
    translation = build_translation(grid)
    # Independently of the classifier: the cluster (scalar walk over the dense
    # energies) holding the top energy the sector solver returns is the first
    # at which every sector holds band_count states.
    energies = np.linalg.eigvalsh(hamiltonian.entries)
    spans = loop_clusters(energies)
    top = float(np.max(solve_bands(grid, potential, band_count).energies()))
    full = [i for i, (start, stop) in enumerate(spans)
            if energies[start] - 1e-9 <= top <= energies[stop - 1] + 1e-9]
    assert len(full) == 1 and full[0] + 1 < len(spans) // 10

    eigh, shapes = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    classify_by_translation(hamiltonian, translation, band_count)
    assert shapes[0] == (grid.total_points,) * 2
    assert shapes[1:] == [(stop - start,) * 2 for start, stop in spans[:full[0] + 1]]


def full_tie_broken_order(energies, vectors, wavenumbers, count):
    """_tie_broken_order rotating every degenerate cluster in place, ``count`` ignored.
    Kept here only to check the solver's stop at ``count`` against."""
    for start, stop in _clusters(energies):
        if stop - start > 1:
            block = vectors[:, start:stop]
            q_vals, q_vecs = np.linalg.eigh(block.conj().T @ (wavenumbers[:, None] * block))
            q_round = np.rint(q_vals).astype(int)
            rank = np.lexsort((q_round < 0, np.abs(q_round)))
            vectors[:, start:stop] = (block @ q_vecs)[:, rank]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(8, 17), st.sampled_from([0.0, 1e-7, 1e-3, 3.0]),
       st.integers(1, 17))
@example(8, 16, 0.0, 2)   # sector 0's pair q = +-8 straddles the band_count boundary
def test_solver_states_match_a_full_tie_break(n_cells, points, amplitude, band_count):
    assume(band_count <= points)
    grid = RingGrid(n_cells, 1.0, points)
    potential = PotentialSpec(0.0, ((1, amplitude, 0.4 * amplitude),
                                    (3, -0.7 * amplitude, 0.2 * amplitude)))
    solved = solve_bands(grid, potential, band_count)
    with mock.patch.object(spectrum, "_tie_broken_order", full_tie_broken_order):
        oracle = solve_bands(grid, potential, band_count)
    assert_same_bytes(solved, oracle)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.integers(8, 40),
       st.sampled_from([0.0, 1e-7, 1e-3, 0.5, 2.0]), st.floats(0.0, 2.0 * np.pi),
       st.floats(0.5, 2.0).filter(lambda x: x != 1.0),
       st.floats(0.5, 2.0).filter(lambda x: x != 1.0), st.integers(1, 40))
@example(8, 256, 0.5, 0.3, 0.7, 1.3, 4)
def test_stacked_solve_has_the_per_sector_bits(n_cells, points, amplitude, angle, mass, hbar,
                                               band_count):
    # One eigh of the (N, P, P) stack, one FFT and one gauge pass must give every
    # column the bits of that sector's own solve, psi and u included.
    grid = RingGrid(n_cells, 1.0, points)
    potential = PotentialSpec(0.1 * amplitude, (
        (1, amplitude * np.cos(angle), amplitude * np.sin(angle)),
        (2, -0.7 * amplitude, 0.0),
        (5, 0.3 * amplitude, -0.2 * amplitude),
        (9, 0.2 * amplitude, 0.1 * amplitude)))   # h >= P at P = 8, 9: left out of the table
    assume(band_count <= points)
    solved = solve_bands(grid, potential, band_count, mass=mass, hbar=hbar)
    assert_same_bytes(solved, per_sector_bands(grid, potential, band_count, mass=mass, hbar=hbar))


def test_stacked_solve_frees_its_stack_before_the_tie_break(monkeypatch, traced_peak):
    # 8 x 256 with 4 bands: the stack and its eigenvectors are two (N, P, P) complex
    # arrays of 8 MiB each, the band arrays psi and u (B, N, G) 1 MiB each.  From the
    # first tie-break on only the eigenvectors may stay beside the band arrays: a stack
    # held through the tie-break and the synthesis adds 8 MiB there.
    grid, band_count = RingGrid(8, 1.0, 256), 4
    potential = PotentialSpec(0.0, ((1, 2.0, 0.5), (2, -0.3, 0.0)))
    stack = grid.n_cells * grid.points_per_cell**2 * 16
    band_arrays = 2 * band_count * grid.n_cells * grid.total_points * 16
    eigh, tie_broken_order = np.linalg.eigh, spectrum._tie_broken_order
    shapes, before_tie_break = [], []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    def first_resets(*args):
        if not before_tie_break:
            before_tie_break.append(peak())
            tracemalloc.reset_peak()
        tie_broken_order(*args)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(spectrum, "_tie_broken_order", first_resets)
    with traced_peak() as peak:
        bands = solve_bands(grid, potential, band_count)
        after = peak()
    assert bands.band_count == band_count
    # One stacked eigh; any other is a tie-break's cluster block.
    assert shapes[0] == (grid.n_cells, grid.points_per_cell, grid.points_per_cell)
    assert all(len(shape) == 2 for shape in shapes[1:])
    assert max(before_tie_break[0], after) <= 1.1 * (2 * stack + band_arrays)
    assert after <= 1.1 * (stack + band_arrays)


def test_classifier_commutator_bound_is_relative(ref_grid, ref_translation):
    # A potential with the ring period but not the cell period, at a scale
    # where an absolute floor of 1e-9 would have let it through.
    diag = 1e-12 * np.cos(2.0 * np.pi * ref_grid.points / ref_grid.ring_length)
    with pytest.raises(ValueError, match="commute"):
        classify_by_translation(OperatorMatrix(ref_grid, np.diag(diag)), ref_translation, 2)


def test_classifier_accepts_h_in_any_energy_unit():
    grid = RingGrid(4, 1.0, 8)
    entries = build_hamiltonian(grid, PotentialSpec(0.3, ((1, 0.8, 0.4),))).entries
    translation = build_translation(grid)
    for k in range(-40, 41):
        scaled = OperatorMatrix(grid, 4.0**k * entries)
        assert classify_by_translation(scaled, translation, 2).band_count == 2


def test_classifier_takes_a_zero_hamiltonian():
    # Defect and commutator read 0 <= 0: the gates pass with no floor.
    grid = RingGrid(4, 1.0, 8)
    zero = OperatorMatrix(grid, np.zeros((32, 32)))
    classified = classify_by_translation(zero, build_translation(grid), 8)
    assert np.all(classified.energies() == 0.0)
    assert classified.orthonormality_defect() <= 1e-12
    assert classified.translation_defect() <= 1e-12


def both_routes(grid, potential, band_count, scheme="spectral"):
    """The sector solver's and the classifier's band structure of one potential."""
    hamiltonian = build_hamiltonian(grid, potential, scheme=scheme)
    return (solve_bands(grid, potential, band_count),
            classify_by_translation(hamiltonian, build_translation(grid), band_count))


@pytest.mark.parametrize("n_cells, points", [(4, 8), (5, 9), (3, 12), (6, 11)])
def test_both_routes_fill_contiguous_rows_in_the_gauge_convention(n_cells, points):
    # The gauge pass reshapes waves and cells to rows; on an array that is not
    # C-contiguous that reshape is a copy and the fix would be lost silently.
    grid = RingGrid(n_cells, 1.0, points)
    potential = PotentialSpec(0.2, ((1, 1.5, 0.4), (2, -0.3, 0.2)))
    phases = np.exp(-1j * grid.wavevector(np.arange(n_cells)[:, None]) * grid.points)
    for bands in both_routes(grid, potential, 3):
        assert bands.waves.flags.c_contiguous and bands.cells.flags.c_contiguous
        assert np.max(np.abs(bands.waves * phases - bands.cells)) < 1e-12
        for u in bands.cells.reshape(-1, grid.total_points):
            moduli = np.abs(u)
            peak = u[np.argmax(moduli >= moduli.max() * (1.0 - 1e-9))]
            assert peak.real > 0.0 and abs(peak.imag) <= 1e-15 * peak.real


@pytest.mark.parametrize("factor, message", [
    (1.01, "not on the unit circle"),
    (np.exp(0.6j * np.pi / 8), "not an N-th root of unity"),
], ids=["unit_circle", "root_of_unity"])
def test_classifier_guards_each_translation_eigenvalue(monkeypatch, ref_hamiltonian,
                                                        ref_translation, factor, message):
    # The shift applied to each cluster scales R, so every eigenvalue of the first
    # cluster leaves the unit circle, or turns by 0.3 of a sector off the N-th roots.
    roll = np.roll
    monkeypatch.setattr(np, "roll", lambda a, shift, axis=None: factor * roll(a, shift, axis))
    with pytest.raises(ValueError, match=f"translation eigenvalue .* is {message}"):
        classify_by_translation(ref_hamiltonian, ref_translation, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(8, 17), st.sampled_from(sorted(SCHEMES)),
       st.sampled_from([0.0, 1e-7, 1e-3, 3.0]), st.integers(1, 3))
def test_array_forms_keep_the_per_state_bits(n_cells, points, scheme, amplitude, band_count):
    grid = RingGrid(n_cells, 1.0, points)
    potential = PotentialSpec(0.0, ((1, amplitude, 0.4 * amplitude),
                                    (3, -0.7 * amplitude, 0.2 * amplitude)))
    for bands in both_routes(grid, potential, band_count, scheme):
        assert bands.translation_defect() == state_translation_defect(bands)
        for band in range(band_count):
            for site in range(n_cells):
                wannier = build_wannier(bands, band, site).samples
                assert wannier.tobytes() == state_wannier(bands, band, site).samples.tobytes()
