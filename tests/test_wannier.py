import numpy as np
import pytest

from blochlab import (
    WaveFunction,
    build_wannier,
    cell_probability,
    wannier_projector,
)
from conftest import inner_product, matrix_element, regauged, state, translate_by_cells


def test_wannier_is_normalized(ref_bands):
    for site in range(8):
        w = build_wannier(ref_bands, 0, site)
        assert w.norm() == pytest.approx(1.0, abs=1e-12)


def test_wannier_bloch_coefficients(ref_bands, ref_grid):
    # <psi_{n l} | W_{n M}> = exp(-i k_l M a) / sqrt(N), the defining DFT.
    site = 3
    w = build_wannier(ref_bands, 0, site)
    for l in range(8):
        bloch = state(ref_bands, 0, l)
        coeff = inner_product(bloch.wavefunction, w)
        expected = np.exp(-1j * bloch.wavevector * site * ref_grid.cell_length) / np.sqrt(8)
        assert abs(coeff - expected) < 1e-12


def test_wannier_orthonormal_across_sites_and_bands(ref_bands):
    states = [build_wannier(ref_bands, n, m) for n in range(2) for m in range(8)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            ip = inner_product(a, b)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


def test_wannier_translation_covariance(ref_bands):
    # Shifting the state one cell forward relabels the site M -> M - 1.
    for site in range(8):
        w = build_wannier(ref_bands, 0, site)
        moved = translate_by_cells(w, 1)
        target = build_wannier(ref_bands, 0, (site - 1) % 8)
        assert np.max(np.abs(moved.samples - target.samples)) < 1e-10


def test_wannier_band_resolution(ref_bands):
    # Sites and sectors are two orthonormal bases of the same band space.
    site_sum = np.zeros((256, 256), dtype=complex)
    sector_sum = np.zeros((256, 256), dtype=complex)
    for m in range(8):
        w = build_wannier(ref_bands, 1, m).samples
        site_sum += np.outer(w, w.conj())
    for l in range(8):
        psi = state(ref_bands, 1, l).wavefunction.samples
        sector_sum += np.outer(psi, psi.conj())
    assert np.max(np.abs(site_sum - sector_sum)) < 1e-10


def test_free_particle_wannier_matches_window_sum(free_bands, ref_grid):
    # With V = 0 the lowest band is the plane-wave window q in (-N/2, N/2],
    # so W_M is the closed-form window sum centered on x = M a.
    n_cells = 8
    length = ref_grid.ring_length
    x = ref_grid.points
    for site in (0, 3):
        w = build_wannier(free_bands, 0, site)
        window = np.arange(-n_cells // 2 + 1, n_cells // 2 + 1)
        expected = np.zeros(256, dtype=complex)
        for q in window:
            expected += np.exp(2j * np.pi * q * (x - site * 1.0) / length)
        expected /= np.sqrt(n_cells * length)
        assert np.max(np.abs(w.samples - expected)) < 1e-8


def test_projector_shape_and_algebra(site0_projector):
    p = site0_projector.entries
    # Hermitian, idempotent under the quadrature product, unit trace.
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
    eigs = np.sort(np.linalg.eigvalsh(p))
    assert abs(eigs[-1] - 1.0) < 1e-10
    assert np.max(np.abs(eigs[:-1])) < 1e-10


def test_projector_same_band_moduli_equal_inverse_cell_count(ref_bands, site0_projector):
    # The gauge-independent content of the site projector: within its own
    # band every matrix element has modulus exactly 1/N, sectors mixed or not.
    for l in range(8):
        for lp in range(8):
            el = matrix_element(site0_projector, state(ref_bands, 0, l), state(ref_bands, 0, lp))
            assert abs(abs(el) - 0.125) < 1e-10


def test_projector_annihilates_other_bands(ref_bands, site0_projector):
    for n in (1, 2, 3):
        for l in range(8):
            el = matrix_element(site0_projector, state(ref_bands, n, l), state(ref_bands, n, l))
            assert abs(el) < 1e-10


def test_projector_moduli_survive_regauging(ref_bands, rng):
    rotated = regauged(ref_bands, rng.uniform(0.0, 2.0 * np.pi, size=(4, 8)))
    proj = wannier_projector(build_wannier(rotated, 0, 0))
    for l in range(8):
        for lp in range(8):
            el = matrix_element(proj, state(rotated, 0, l), state(rotated, 0, lp))
            assert abs(abs(el) - 0.125) < 1e-10


def test_cell_probability_profile(ref_bands):
    w = build_wannier(ref_bands, 0, 0)
    profile = cell_probability(w)
    assert profile.shape == (8,)
    assert profile.sum() == pytest.approx(1.0, abs=1e-12)
    # The reference state straddles the cell boundary at x = 0; frozen values.
    assert profile[0] == pytest.approx(0.3781468, abs=1e-6)
    assert profile[7] == pytest.approx(0.3862375, abs=1e-6)
    assert profile[3] < 0.02 and profile[4] < 0.02


def test_cell_probability_moves_with_site(ref_bands):
    base = cell_probability(build_wannier(ref_bands, 0, 0))
    moved = cell_probability(build_wannier(ref_bands, 0, 5))
    assert np.max(np.abs(moved - np.roll(base, 5))) < 1e-10


def test_build_wannier_validation(ref_bands):
    with pytest.raises(ValueError):
        build_wannier(ref_bands, 4, 0)
    with pytest.raises(ValueError):
        build_wannier(ref_bands, -1, 0)
    with pytest.raises(ValueError):
        build_wannier(ref_bands, 0, 8)
