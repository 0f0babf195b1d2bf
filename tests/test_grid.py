import numpy as np
import pytest

from blochlab import (
    GridMismatchError,
    LocalObservableSeries,
    PotentialSpec,
    RingGrid,
    WaveFunction,
    build_hamiltonian,
    build_translation,
    classify_by_translation,
    materialize,
    selection_scan,
    solve_bands,
)
from blochlab.lattice import commutator_norm
from conftest import apply_kernel, inner_product, translate_by_cells


def plane_wave(grid, winding):
    """exp(i 2 pi w x / L) normalized on the grid."""
    phase = 2.0 * np.pi * winding * grid.points / grid.ring_length
    return WaveFunction(grid, np.exp(1j * phase) / np.sqrt(grid.ring_length))


def test_grid_geometry():
    grid = RingGrid(8, 1.0, 32)
    assert grid.total_points == 256
    assert grid.ring_length == 8.0
    assert grid.spacing == 8.0 / 256
    x = grid.points
    assert x.shape == (256,)
    assert x[0] == 0.0
    assert np.allclose(np.diff(x), grid.spacing)
    assert x[-1] < grid.ring_length


def test_grid_wavevector():
    grid = RingGrid(8, 1.0, 32)
    assert grid.wavevector(0) == 0.0
    assert grid.wavevector(1) == pytest.approx(2.0 * np.pi / 8.0, rel=1e-15)
    assert grid.wavevector(-3) == -grid.wavevector(3)


@pytest.mark.parametrize(
    "n_cells,cell_length,points",
    [
        (1, 1.0, 32),
        (0, 1.0, 32),
        (8, 0.0, 32),
        (8, -1.0, 32),
        (8, np.inf, 32),
        (8, 1.0, 7),
        (8, 1.0, 0),
        (8, "a", 8),
        (8, True, 32),
        pytest.param(2**70, 1.0, 8, id="huge-n-cells"),
        pytest.param(8, 1e308, 32, id="infinite-ring-length"),
    ],
)
def test_grid_rejects_bad_parameters(n_cells, cell_length, points):
    with pytest.raises(ValueError):
        RingGrid(n_cells, cell_length, points)


def test_index_of_cell_and_ring_distance():
    grid = RingGrid(8, 1.0, 32)
    assert grid.index_of_cell(0) == 16
    assert grid.index_of_cell(6) == 208
    with pytest.raises(ValueError):
        grid.index_of_cell(8)
    # Shortest way around the ring, both directions.
    assert grid.ring_distance(0, 1) == pytest.approx(grid.spacing)
    assert grid.ring_distance(0, 255) == pytest.approx(grid.spacing)
    assert grid.ring_distance(16, 208) == pytest.approx(2.0)


def test_wavefunction_validation():
    grid = RingGrid(8, 1.0, 32)
    with pytest.raises(ValueError):
        WaveFunction(grid, np.ones(255))
    bad = np.ones(256, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(grid, bad)


def test_norm_and_normalized():
    grid = RingGrid(8, 1.0, 32)
    psi = plane_wave(grid, 2)
    assert psi.norm() == pytest.approx(1.0, abs=1e-14)
    scaled = WaveFunction(grid, 3.0 * psi.samples)
    assert scaled.norm() == pytest.approx(3.0, abs=1e-13)


def test_inner_product_orthonormal_plane_waves():
    grid = RingGrid(8, 1.0, 32)
    for w1 in range(-3, 4):
        for w2 in range(-3, 4):
            ip = inner_product(plane_wave(grid, w1), plane_wave(grid, w2))
            expected = 1.0 if w1 == w2 else 0.0
            assert abs(ip - expected) < 1e-13


def test_inner_product_conjugate_symmetry(rng):
    grid = RingGrid(4, 0.7, 16)
    a = WaveFunction(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
    b = WaveFunction(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-13)


def test_inner_product_grid_mismatch():
    a = WaveFunction(RingGrid(8, 1.0, 32), np.ones(256))
    b = WaveFunction(RingGrid(8, 2.0, 32), np.ones(256))
    with pytest.raises(GridMismatchError):
        inner_product(a, b)


def _grid_checks():
    """Each call that needs two objects on one grid, given objects on two grids."""
    small, large = RingGrid(2, 1.0, 8), RingGrid(3, 1.0, 8)
    potential = PotentialSpec(0.0, ((1, 1.0, 0.0),))
    h_small, h_large = build_hamiltonian(small, potential), build_hamiltonian(large, potential)
    t_large = build_translation(large)
    psi_large = WaveFunction(large, np.ones(24))
    series = materialize(LocalObservableSeries(((1, 0, 1.0, 0.0),)), large)
    return {
        "inner_product": lambda: inner_product(WaveFunction(small, np.ones(16)), psi_large),
        "commutator_norm": lambda: commutator_norm(h_small, t_large),
        "apply_kernel": lambda: apply_kernel(h_small, psi_large),
        "classify_by_translation": lambda: classify_by_translation(h_small, t_large, 1),
        "selection_scan": lambda: selection_scan(series, solve_bands(small, potential, 1)),
    }


@pytest.mark.parametrize("site", ["inner_product", "commutator_norm", "apply_kernel",
                                  "classify_by_translation", "selection_scan"])
def test_every_grid_check_raises_grid_mismatch(site):
    with pytest.raises(GridMismatchError, match="grids differ"):
        _grid_checks()[site]()


def test_translate_plane_wave_phase():
    # One-cell shift multiplies exp(i k_l x) by exp(+i k_l a).
    grid = RingGrid(8, 1.0, 32)
    for l in range(8):
        psi = plane_wave(grid, l)
        shifted = translate_by_cells(psi, 1)
        phase = np.exp(1j * grid.wavevector(l) * grid.cell_length)
        assert np.max(np.abs(shifted.samples - phase * psi.samples)) < 1e-12


def test_translate_composition_and_period(rng):
    grid = RingGrid(8, 1.0, 32)
    psi = WaveFunction(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
    one_then_two = translate_by_cells(translate_by_cells(psi, 1), 2)
    three = translate_by_cells(psi, 3)
    assert np.array_equal(one_then_two.samples, three.samples)
    # Going all the way around is the identity, exactly.
    assert np.array_equal(translate_by_cells(psi, 8).samples, psi.samples)
    roundtrip = translate_by_cells(translate_by_cells(psi, 5), -5)
    assert np.array_equal(roundtrip.samples, psi.samples)


def test_translate_is_an_exact_permutation(rng):
    grid = RingGrid(8, 1.0, 32)
    psi = WaveFunction(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
    moved = translate_by_cells(psi, 3)
    # Samples are carried over bit for bit; only their order changes, so the
    # norm can move by a last-bit reassociation of the sum but nothing more.
    assert np.array_equal(np.sort_complex(moved.samples), np.sort_complex(psi.samples))
    assert moved.norm() == pytest.approx(psi.norm(), rel=1e-14)


def test_translate_preserves_inner_product(rng):
    grid = RingGrid(8, 1.0, 32)
    a = WaveFunction(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
    b = WaveFunction(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
    before = inner_product(a, b)
    after = inner_product(translate_by_cells(a, 2), translate_by_cells(b, 2))
    assert after == pytest.approx(before, abs=1e-13)
