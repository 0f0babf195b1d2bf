import numpy as np
import pytest
import scipy.linalg

from blochlab import RingGrid
from blochlab.derivatives import (
    SCHEMES,
    _finite_difference_column,
    _momentum_column,
    _spectral_column,
    fornberg_weights,
)
from conftest import momentum_matrix


def test_fornberg_classic_stencils():
    # Second derivative, three points.
    w = fornberg_weights(2, np.array([-1, 0, 1]))
    assert np.allclose(w, [1.0, -2.0, 1.0], atol=1e-14)
    # First derivative, three points.
    w = fornberg_weights(1, np.array([-1, 0, 1]))
    assert np.allclose(w, [-0.5, 0.0, 0.5], atol=1e-14)
    # First derivative, five points (fourth-order).
    w = fornberg_weights(1, np.array([-2, -1, 0, 1, 2]))
    assert np.allclose(w, [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12], atol=1e-14)


def test_fornberg_rejects_short_stencil():
    with pytest.raises(ValueError):
        fornberg_weights(3, np.array([-1, 0, 1]))


def test_spectral_exact_on_plane_waves():
    grid = RingGrid(8, 1.0, 32)
    x = grid.points
    for winding in (-5, -1, 0, 2, 7):
        k = 2.0 * np.pi * winding / grid.ring_length
        psi = np.exp(1j * k * x)
        for n in (1, 2, 3, 4):
            mat = momentum_matrix(grid, n, "spectral")
            # Roundoff in the matvec is set by the largest multiplier on the
            # grid, (pi/h)^n, not by the mode being differentiated.
            tol = 1e-13 * max(1.0, (np.pi / grid.spacing) ** n)
            assert np.max(np.abs(mat @ psi - k**n * psi)) < tol


def test_zero_power_is_identity():
    grid = RingGrid(4, 1.0, 8)
    assert np.array_equal(momentum_matrix(grid, 0, "fd4"), np.eye(32))


@pytest.mark.parametrize("scheme", ["spectral", "fd2", "fd4", "fd6", "fd8"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_hermitian_every_scheme_and_power(scheme, n):
    grid = RingGrid(4, 1.0, 16)
    mat = momentum_matrix(grid, n, scheme)
    # The circulant column is mirror-symmetrized exactly, so this holds
    # bit for bit, not merely to rounding.
    assert np.array_equal(mat, mat.conj().T)


@pytest.mark.parametrize("scheme", ["spectral", "fd2", "fd8"])
def test_commutes_with_sample_shift(scheme):
    # Circulants are shift-invariant: rolling rows and columns changes nothing.
    grid = RingGrid(4, 1.0, 16)
    mat = momentum_matrix(grid, 2, scheme)
    rolled = np.roll(np.roll(mat, grid.points_per_cell, axis=0), grid.points_per_cell, axis=1)
    assert np.array_equal(mat, rolled)


def test_fd_accuracy_improves_with_order():
    grid = RingGrid(8, 1.0, 32)
    x = grid.points
    k = 2.0 * np.pi * 3 / grid.ring_length
    psi = np.exp(1j * k * x)
    errors = []
    for scheme in ("fd2", "fd4", "fd6", "fd8"):
        mat = momentum_matrix(grid, 2, scheme)
        errors.append(np.max(np.abs(mat @ psi - k**2 * psi)))
    assert errors[0] > errors[1] > errors[2] > errors[3]
    # And spectral is exact.
    exact = momentum_matrix(grid, 2, "spectral")
    assert np.max(np.abs(exact @ psi - k**2 * psi)) < 1e-9


def test_fd_refinement_rate():
    # Halving h should cut the fd2 error by about 4.
    k = 2.0 * np.pi * 2 / 8.0
    errs = []
    for p in (32, 64):
        grid = RingGrid(8, 1.0, p)
        psi = np.exp(1j * k * grid.points)
        mat = momentum_matrix(grid, 2, "fd2")
        errs.append(np.max(np.abs(mat @ psi - k**2 * psi)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_scheme_and_power_validation():
    grid = RingGrid(4, 1.0, 8)
    with pytest.raises(ValueError):
        momentum_matrix(grid, 9, "spectral")
    with pytest.raises(ValueError):
        momentum_matrix(grid, -1, "spectral")
    with pytest.raises(ValueError):
        momentum_matrix(grid, 2, "fd3")
    with pytest.raises(ValueError):
        momentum_matrix(grid, 2, "chebyshev")


@pytest.mark.parametrize("scheme,spacing,message", [
    *((s, h, r"spacing\^2 is not a positive finite float") for s in ("fd2", "fd4", "fd8")
      for h in (1e200, 1e-200)),
    *((s, 1e-154, r"column is not finite") for s in SCHEMES),
    ("spectral", 1e-200, r"column is not finite"),
])
def test_a_column_that_is_not_finite_is_a_value_error(scheme, spacing, message):
    # h^2 overflows a float at h = 1e200 and is 0 at 1e-200.  At 1e-154 it is
    # positive, but the fd weights / h^2 and the spectral k^2 overflow.  Each is one
    # ValueError and no RuntimeWarning (the test settings make one an error).
    with pytest.raises(ValueError, match=message):
        _momentum_column(RingGrid(8, 32 * spacing, 32), 2, scheme)


def scipy_circulant_oracle(grid, n, scheme):
    """The matrix as scipy.linalg.circulant builds it from the folded column."""
    accuracy = SCHEMES[scheme]
    if accuracy is None:
        col = _spectral_column(grid, n)
    else:
        col = _finite_difference_column(grid, n, accuracy)
    col = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    return scipy.linalg.circulant(col)


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("n_cells,points", [(4, 8), (3, 9)], ids=["even_g", "odd_g"])
def test_matrix_is_the_scipy_circulant_bit_for_bit(scheme, n_cells, points):
    # Odd n on the even grid covers the spectral scheme's zeroed Nyquist mode.
    grid = RingGrid(n_cells, 1.0, points)
    for n in range(1, 9):
        mat = momentum_matrix(grid, n, scheme)
        assert mat.dtype == (complex if n % 2 else np.float64)
        assert np.array_equal(mat, scipy_circulant_oracle(grid, n, scheme)), n


def complex_arithmetic_circulant(grid, n, scheme):
    """The matrix with its column built and folded in complex arithmetic for
    every n: the reference that the real even-power matrices must equal."""
    g = grid.total_points
    if n == 0:
        return np.eye(g, dtype=complex)
    accuracy = SCHEMES[scheme]
    if accuracy is None:
        k = 2.0 * np.pi * np.fft.fftfreq(g, d=grid.spacing)
        col = np.fft.ifft(k**n).real.astype(complex)
    else:
        # (-1)^(n/2) twice returns the bare Fornberg column exactly.
        col = (-1j) ** n * ((-1) ** (n // 2) * _finite_difference_column(grid, n, accuracy))
    col = 0.5 * (col + np.conj(np.roll(col[::-1], 1)))
    return scipy.linalg.circulant(col)


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("n_cells,points", [(4, 8), (3, 9)], ids=["even_g", "odd_g"])
def test_even_powers_are_real_and_equal_the_complex_build(scheme, n_cells, points):
    grid = RingGrid(n_cells, 1.0, points)
    for n in range(0, 9, 2):
        mat = momentum_matrix(grid, n, scheme)
        oracle = complex_arithmetic_circulant(grid, n, scheme)
        assert mat.dtype == np.float64, n
        assert np.array_equal(mat, oracle), n
        assert not np.any(oracle.imag), n
