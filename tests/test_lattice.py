import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochlab import (
    GridMismatchError,
    LocalObservableSeries,
    OperatorMatrix,
    PotentialSpec,
    RingGrid,
    build_hamiltonian,
    build_translation,
    cell_periodicity_defect,
    classify_by_translation,
    materialize,
)
from blochlab.derivatives import SCHEMES, _circulant
from blochlab.lattice import (
    _SLAB,
    _add_rows,
    _commutator_slabs,
    _frobenius_norm,
    _hamiltonian_rows,
    _matrix_rows,
    _require_hermitian,
    commutator_norm,
    is_one_cell_shift,
)
from blochlab.observables import _series_rows
from conftest import dense_translation, fourier_coefficient, momentum_matrix


def test_potential_sampling_tiles_exactly():
    grid = RingGrid(8, 1.0, 32)
    pot = PotentialSpec(0.5, ((1, 2.0, 0.0), (3, 0.1, -0.4)))
    values = pot.sample(grid)
    assert values.tobytes() == np.tile(values[:32], 8).tobytes()
    # Spot value: V(0) = const + sum of cosine amplitudes.
    assert values[0] == pytest.approx(0.5 + 2.0 + 0.1, abs=1e-14)


def test_potential_validation():
    with pytest.raises(ValueError):
        PotentialSpec(np.nan)
    with pytest.raises(ValueError):
        PotentialSpec(0.0, ((0, 1.0, 0.0),))
    with pytest.raises(ValueError):
        PotentialSpec(0.0, ((1, 1.0, 0.0), (1, 0.5, 0.0)))
    with pytest.raises(ValueError):
        PotentialSpec(0.0, ((2, np.inf, 0.0),))
    # A non-number, a bool, a non-triple or an int beyond the float range is a
    # ValueError too, not a TypeError or a silent harmonic 1.
    for constant, harmonics in (("x", ()), (10**400, ()), (0.0, ((1, "a", 0.0),)),
                                (0.0, (5,)), (0.0, ((True, 1.0, 0.0),))):
        with pytest.raises(ValueError):
            PotentialSpec(constant, harmonics)


def test_fourier_coefficients():
    # The coefficient helper is the oracle of the sector solver's Toeplitz table.
    pot = PotentialSpec(0.3, ((1, 2.0, 0.0), (2, 0.0, 1.0)))
    assert fourier_coefficient(pot, 0) == pytest.approx(0.3)
    # 2 cos(g x) = exp(igx) + exp(-igx).
    assert fourier_coefficient(pot, 1) == pytest.approx(1.0)
    assert fourier_coefficient(pot, -1) == pytest.approx(1.0)
    # sin(2gx) = (exp(2igx) - exp(-2igx)) / 2i.
    assert fourier_coefficient(pot, 2) == pytest.approx(-0.5j)
    assert fourier_coefficient(pot, -2) == pytest.approx(0.5j)
    assert fourier_coefficient(pot, 5) == 0.0
    # Coefficients reproduce the sampled values.
    grid = RingGrid(8, 1.0, 32)
    x = grid.points
    rebuilt = sum(
        fourier_coefficient(pot, g) * np.exp(2j * np.pi * g * x / grid.cell_length)
        for g in range(-2, 3)
    )
    assert np.max(np.abs(rebuilt - pot.sample(grid))) < 1e-12


def test_operator_matrix_validation():
    grid = RingGrid(4, 1.0, 8)
    with pytest.raises(ValueError):
        OperatorMatrix(grid, np.zeros((3, 3)))
    for dtype, value in ((float, np.inf), (float, -np.inf), (float, np.nan),
                         (complex, 1j * np.inf), (complex, complex(0.0, np.nan)),
                         (complex, -1j * np.inf), (complex, -np.inf),
                         (complex, complex(np.nan, 0.0)), (complex, complex(np.inf, 0.0))):
        # Row-major, column-major and a strided view: a NaN or an inf in the real
        # part alone or in the imaginary part alone fails in every layout.
        bad = np.zeros((64, 64), dtype=dtype)
        bad[10, 6] = value
        for layout in (bad[::2, ::2], np.asfortranarray(bad[::2, ::2]), bad[::2, ::2].copy()):
            with pytest.raises(ValueError, match="must be finite"):
                OperatorMatrix(grid, layout)


def test_operator_matrix_takes_a_column_major_matrix_as_it_is(traced_peak):
    # The finiteness check reads the (re, im) pairs through a view: no G x G copy.
    grid = RingGrid(16, 1.0, 64)
    g = grid.total_points
    entries = np.asfortranarray(np.arange(g * g).reshape(g, g) * (1.0 + 0.5j))
    with traced_peak() as peak:
        op = OperatorMatrix(grid, entries)
        assert peak() <= 0.001 * entries.nbytes
    assert op.entries is entries


def test_operator_symmetrized():
    grid = RingGrid(4, 1.0, 8)
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    op = OperatorMatrix(grid, raw)
    assert np.max(np.abs(op.entries - op.entries.conj().T)) > 0.1
    sym = OperatorMatrix(grid, 0.5 * (op.entries + op.entries.conj().T))
    assert np.max(np.abs(sym.entries - sym.entries.conj().T)) < 1e-14


def test_hermitian_gate_is_relative_to_the_operator(rng):
    # At scale 1e-12 an absolute floor of 1e-10 would pass any matrix at all.
    raw = 1e-12 * rng.normal(size=(64, 64))
    with pytest.raises(ValueError, match="not Hermitian"):
        _require_hermitian(raw, "operator")
    assert _require_hermitian(raw + raw.T, "operator") == float(np.max(np.abs(raw + raw.T)))
    assert _require_hermitian(np.zeros((64, 64)), "operator") == 0.0


def test_hamiltonian_is_hermitian_and_commutes_with_shift(ref_hamiltonian, ref_translation):
    h = ref_hamiltonian.entries
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert commutator_norm(ref_hamiltonian, ref_translation) == 0.0


def test_fd_hamiltonian_also_commutes(ref_grid, ref_potential, ref_translation):
    h = build_hamiltonian(ref_grid, ref_potential, scheme="fd4")
    assert commutator_norm(h, ref_translation) == 0.0


def test_free_hamiltonian_plane_wave_eigenstate():
    grid = RingGrid(8, 1.0, 32)
    h = build_hamiltonian(grid, PotentialSpec())
    k = 2.0 * np.pi * 3 / grid.ring_length
    psi = np.exp(1j * k * grid.points)
    assert np.max(np.abs(h.entries @ psi - (k**2 / 2.0) * psi)) < 1e-9


def test_constant_potential_shifts_spectrum():
    grid = RingGrid(4, 1.0, 16)
    base = build_hamiltonian(grid, PotentialSpec(0.0, ((1, 1.3, 0.2),)))
    shifted = build_hamiltonian(grid, PotentialSpec(2.5, ((1, 1.3, 0.2),)))
    e0 = np.linalg.eigvalsh(base.entries)
    e1 = np.linalg.eigvalsh(shifted.entries)
    assert np.max(np.abs(e1 - e0 - 2.5)) < 1e-10


def test_hamiltonian_mass_validation(ref_grid, ref_potential):
    with pytest.raises(ValueError):
        build_hamiltonian(ref_grid, ref_potential, mass=0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(ref_grid, ref_potential, mass=-1.0)
    with pytest.raises(ValueError):
        build_hamiltonian(ref_grid, ref_potential, hbar=0.0)


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("shape", [(8, 32), (5, 13)])
def test_hamiltonian_has_the_bits_of_kinetic_plus_diagonal(scheme, shape):
    # The fd kinetic matrices hold -0.0 off the band; the dense sum with a
    # diagonal makes them +0.0, and the in-place build must too.
    grid = RingGrid(shape[0], 1.0, shape[1])
    potential = PotentialSpec(-0.0, ((1, 2.0, 0.5), (2, -0.3, 0.0)))
    kinetic = (1.3**2 / (2.0 * 0.7)) * momentum_matrix(grid, 2, scheme)
    expected = kinetic + np.diag(potential.sample(grid))
    h = build_hamiltonian(grid, potential, mass=0.7, hbar=1.3, scheme=scheme)
    assert h.entries.tobytes() == expected.tobytes()
    if scheme != "spectral":
        assert np.any(np.signbit(kinetic[kinetic == 0.0]))


def test_hamiltonian_holds_one_g_by_g_array(traced_peak):
    grid = RingGrid(32, 1.0, 64)
    potential = PotentialSpec(0.0, ((1, 2.0, 0.0),))
    for scheme in ("spectral", "fd4"):
        with traced_peak() as peak:
            h = build_hamiltonian(grid, potential, scheme=scheme)
            assert peak() <= 1.04 * h.entries.nbytes, scheme


def _signed_zeros_and_normals(rng, shape):
    """Normal samples with about a third of them +0.0 and a third -0.0."""
    pick = rng.integers(0, 3, size=shape)
    return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, rng.normal(size=shape)))


@given(source=st.sampled_from(["h", "shift", "series"]),
       scheme=st.sampled_from(sorted(SCHEMES)), n_cells=st.integers(2, 7),
       points=st.integers(8, 15), into=st.sampled_from(["real", "complex", "+0.0", "-0.0"]),
       seed=st.integers(0, 2**32 - 1))
@example("h", "fd2", 3, 131, "real", 0)  # G = 393: three full row slabs and a short one
@example("h", "fd4", 3, 131, "complex", 1)
@example("series", "fd6", 3, 131, "+0.0", 2)
@example("shift", "fd2", 2, 9, "real", 3)  # N = 2: T = T^dagger
@example("shift", "fd2", 3, 9, "complex", 4)
@settings(max_examples=60, deadline=None)
def test_add_rows_has_the_bits_of_r_plus_a(source, scheme, n_cells, points, into, seed):
    # Oracle: R + A with A built whole: H from its kinetic matrix and its diagonal, T as
    # the dense shift (its source reads build_translation's read-only view), a series by
    # one call of its row source over all G rows.  R holds +0.0 and -0.0 in every part,
    # so H's off-band -0.0 must be +0.0 and V must be on H's diagonal before H meets R.
    # From zeros of either sign (build_hamiltonian's and materialize's starts) the sum is
    # A, which the public builders return bit for bit.  A^dagger's source, walked into
    # the same R, gives R + conj(A)^T; H and a symmetrized series have none.
    grid = RingGrid(n_cells, 1.0, points)
    g = grid.total_points
    rng = np.random.default_rng(seed)
    if source == "h":
        potential = PotentialSpec(rng.normal(), ((1, rng.normal(), rng.normal()),))
        mass, hbar = rng.uniform(0.5, 2.0, size=2)
        dtype, rows, adjoint = float, _hamiltonian_rows(grid, potential, mass, hbar, scheme), None
        kinetic = hbar**2 / (2.0 * mass) * momentum_matrix(grid, 2, scheme)
        a = kinetic + np.diag(potential.sample(grid))
        built = build_hamiltonian(grid, potential, mass=mass, hbar=hbar, scheme=scheme).entries
    elif source == "shift":
        built = build_translation(grid).entries
        dtype, rows, a = float, _matrix_rows(built), dense_translation(grid).entries
        adjoint = _matrix_rows(built.T)  # T is real, so T^dagger = T^T
    else:
        series = LocalObservableSeries(((1, int(rng.integers(0, 4)), *rng.normal(size=2)),
                                        (3, 2, *rng.normal(size=2)), (0, 0, rng.normal(), 0.0)),
                                       symmetrize=bool(rng.integers(2)))
        dtype, rows, adjoint = _series_rows(series, grid, scheme)
        assert (adjoint is None) == series.symmetrize
        a = np.full((g, g), np.nan, dtype=dtype)  # every entry is written
        rows(a, 0)
        built = materialize(series, grid, scheme=scheme).entries
    if into in ("+0.0", "-0.0"):
        zero = float(into)
        r = np.full((g, g), zero if dtype is float else complex(zero, zero))
    else:
        r = _signed_zeros_and_normals(rng, (g, g))
        if into == "complex" or np.dtype(dtype) == complex:
            r = r + 1j * _signed_zeros_and_normals(rng, (g, g))
    expected = r + a
    if adjoint is not None:
        walked, dagger = r.copy(), r + a.conj().T
        _add_rows(walked, dtype, adjoint)
        if np.dtype(dtype) == complex:  # B^dagger may hold +0.0 where conj gives -0.0
            walked, dagger = walked + 0.0, dagger + 0.0
        assert walked.tobytes() == dagger.tobytes()
    _add_rows(r, dtype, rows)
    assert r.dtype == expected.dtype
    assert r.tobytes() == expected.tobytes()
    assert np.asarray(built).tobytes() == a.tobytes()
    if into in ("+0.0", "-0.0"):
        assert r.tobytes() == a.tobytes()


@given(scheme=st.sampled_from(sorted(SCHEMES)), n_cells=st.integers(2, 7),
       points=st.integers(8, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
@example(scheme="fd4", n_cells=7, points=37, seed=0, data=None)  # G = 259
@settings(max_examples=60, deadline=None)
def test_hamiltonian_rows_have_the_bits_of_build_hamiltonian(scheme, n_cells, points, seed,
                                                             data):
    # H's row source, asked for any run of at most _SLAB rows from any start, writes the
    # bytes of those rows of build_hamiltonian's H.
    grid = RingGrid(n_cells, 1.0, points)
    g = grid.total_points
    rng = np.random.default_rng(seed)
    potential = PotentialSpec(rng.normal(), ((1, rng.normal(), rng.normal()),
                                             (3, rng.normal(), 0.0)))
    mass, hbar = rng.uniform(0.5, 2.0, size=2)
    expected = build_hamiltonian(grid, potential, mass=mass, hbar=hbar, scheme=scheme).entries
    rows = _hamiltonian_rows(grid, potential, mass, hbar, scheme)
    if data is None:
        start, height = max(g - 40, 0), min(_SLAB, g)  # rows 219-250 of 259 cross 224
    else:
        start = data.draw(st.integers(0, g - 1))
        height = data.draw(st.integers(1, min(_SLAB, g - start)))
    out = np.full((height, g), np.nan)  # every entry is written
    rows(out, start)
    assert out.tobytes() == expected[start:start + height].tobytes()


def test_add_rows_holds_no_g_by_g_temporary(traced_peak):
    # One 32-row slab of H at a time: well under a MiB beside a 64 MiB complex R.
    grid = RingGrid(32, 1.0, 64)
    r = np.zeros((grid.total_points,) * 2, dtype=complex)
    with traced_peak() as peak:
        _add_rows(r, float, _hamiltonian_rows(grid, PotentialSpec(0.0, ((1, 2.0, 0.0),)), 1.0,
                                              1.0, "fd4"))
        assert peak() <= 0.02 * r.nbytes


def test_translation_is_unitary_permutation(ref_grid, ref_translation):
    t = ref_translation.entries
    eye = np.eye(t.shape[0])
    assert t.dtype == np.float64
    assert np.array_equal(t, np.roll(eye.astype(complex), ref_grid.points_per_cell, axis=1))
    assert np.array_equal(t @ t.conj().T, eye)
    # N applications go all the way around.
    power = np.linalg.matrix_power(t, 8)
    assert np.array_equal(power, eye)


def test_operator_dtype_follows_the_input_dtype(ref_grid):
    g = ref_grid.total_points
    for dtype in (int, np.float32, np.float64):
        assert OperatorMatrix(ref_grid, np.eye(g, dtype=dtype)).entries.dtype == np.float64
    # Complex input stays complex even when every imaginary part is zero.
    for dtype in (np.complex64, np.complex128):
        assert OperatorMatrix(ref_grid, np.eye(g, dtype=dtype)).entries.dtype == np.complex128
    eye = OperatorMatrix(ref_grid, np.eye(g)).entries
    assert OperatorMatrix(ref_grid, 0.5 * (eye + eye.conj().T)).entries.dtype == np.float64


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("n_cells,points", [(4, 8), (3, 9)], ids=["even_g", "odd_g"])
def test_hamiltonian_of_a_real_potential_is_real(scheme, n_cells, points):
    grid = RingGrid(n_cells, 1.3, points)
    potential = PotentialSpec(0.3, ((1, 2.0, 0.7), (3, 0.0, -1.1)))
    h = build_hamiltonian(grid, potential, mass=0.9, hbar=1.1, scheme=scheme)
    # The same sum in complex arithmetic; the kinetic matrix itself is
    # checked against its complex build in test_derivatives.
    kinetic = momentum_matrix(grid, 2, scheme).astype(complex)
    oracle = (1.1**2 / (2.0 * 0.9)) * kinetic + np.diag(potential.sample(grid).astype(complex))
    assert h.entries.dtype == np.float64
    assert np.array_equal(h.entries, oracle)
    assert not np.any(oracle.imag)


@pytest.mark.parametrize("n_cells, points", [(8, 32), (16, 64), (2, 11), (3, 9), (5, 8)])
def test_translation_is_a_read_only_view_of_the_dense_shift(n_cells, points):
    grid = RingGrid(n_cells, 1.0, points)
    translation = build_translation(grid)
    t, dense = translation.entries, dense_translation(grid).entries
    assert t.dtype == dense.dtype and t.shape == dense.shape
    assert t.tobytes() == dense.tobytes()
    assert not t.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        t[0, grid.points_per_cell] = 2.0
    assert is_one_cell_shift(translation)


def test_translation_and_its_defect_hold_no_g_by_g_array(traced_peak):
    # G = 2048: the dense shift would be 32 MiB.  The view is backed by 2G floats;
    # building it holds those, the unit column, and the 64 KiB (8192-float) buffer of
    # numpy's reduction when the finiteness check reads the strided view.  Its
    # periodicity defect holds one reused 128-row slab of [T, T].
    grid = RingGrid(32, 1.0, 64)
    dense_bytes = grid.total_points**2 * 8
    with traced_peak() as peak:
        translation = build_translation(grid)
        assert peak() <= 128 * 2**10
        peak.reset()
        assert cell_periodicity_defect(translation) == 0.0
        assert peak() <= 0.07 * dense_bytes


@pytest.mark.parametrize("n_cells, points", [(8, 32), (9, 29)], ids=["g256", "g261"])
def test_commutator_slabs_read_a_strided_view_as_its_copy(n_cells, points, rng):
    # G = 256 fills whole 128-row slabs and G = 261 leaves a short one.  The shifted
    # rows come from two row slices of the view, with the bytes of its contiguous copy.
    grid = RingGrid(n_cells, 1.0, points)
    g, p = grid.total_points, grid.points_per_cell
    views = [build_translation(grid).entries,
             _circulant(rng.normal(size=g) + 1j * rng.normal(size=g))]
    for view in views:
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        for slab, expected in zip(_commutator_slabs(view, p), _commutator_slabs(copy, p),
                                  strict=True):
            assert slab.tobytes() == expected.tobytes()


def test_translation_action_matches_roll(ref_grid, ref_translation, rng):
    samples = rng.normal(size=256) + 1j * rng.normal(size=256)
    moved = ref_translation.entries @ samples
    assert np.array_equal(moved, np.roll(samples, -ref_grid.points_per_cell))


@given(n_cells=st.integers(2, 6), points=st.integers(8, 13), seed=st.integers(0, 2**32 - 1))
@example(3, 131, 0)  # G = 393: three full row slabs and a short one
@settings(max_examples=40, deadline=None)
def test_shift_products_match_the_dense_oracle(slab_order_norm, n_cells, points, seed):
    # The index shifts must reproduce the dense permutation products exactly,
    # with the norms summed in the library's slab order.
    grid = RingGrid(n_cells, 1.0, points)
    g, p = grid.total_points, grid.points_per_cell
    rng = np.random.default_rng(seed)
    a = OperatorMatrix(grid, rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g)))
    translation = build_translation(grid)
    t = translation.entries
    # Each slab is overwritten by the next one, so it is copied as it is yielded.
    slabs = np.vstack([slab.copy() for slab in _commutator_slabs(a.entries, p)])
    rolled = np.roll(a.entries, p, axis=1) - np.roll(a.entries, -p, axis=0)
    assert slabs.tobytes() == rolled.tobytes()
    dense_commutator = slab_order_norm(a.entries @ t - t @ a.entries)
    assert commutator_norm(a, translation) == dense_commutator
    moved = t @ a.entries @ t.conj().T
    # [A, T] is A - T A T^dagger with its columns moved by P.
    commutator = np.roll(a.entries - moved, p, axis=1)
    dense_defect = slab_order_norm(commutator) / _frobenius_norm(a.entries)
    assert cell_periodicity_defect(a) == dense_defect
    # The norm itself against numpy's, independently of the helper.
    assert dense_commutator == pytest.approx(np.linalg.norm(a.entries @ t - t @ a.entries), rel=1e-13)
    assert dense_defect == pytest.approx(
        np.linalg.norm(a.entries - moved) / np.linalg.norm(a.entries), rel=1e-13)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_frobenius_norm_matches_numpy(dtype, rng):
    for shape in [(1, 1), (7, 5), (64, 64)]:
        a = rng.normal(size=shape).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.normal(size=shape)
        assert _frobenius_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-13)
    assert _frobenius_norm(np.zeros((3, 3), dtype=dtype)) == 0.0


def test_one_cell_shift_test_accepts_only_the_shift(ref_grid, ref_translation):
    assert is_one_cell_shift(ref_translation)
    assert is_one_cell_shift(build_translation(RingGrid(3, 2.0, 9)))
    assert not is_one_cell_shift(OperatorMatrix(ref_grid, np.eye(256)))


def _not_the_shift(grid):
    """Operators the shift test must reject, unitary ones included."""
    t = build_translation(grid).entries
    return {
        "half_identity": 0.5 * np.eye(grid.total_points),
        "two_cell_shift": t @ t,
        "inverse_shift": t.conj().T,
        "phased_shift": np.exp(0.3j) * t,
        "shift_plus_entry": t + 1e-3 * np.eye(grid.total_points),
    }


@pytest.mark.parametrize("name", ["half_identity", "two_cell_shift", "inverse_shift",
                                  "phased_shift", "shift_plus_entry"])
def test_operators_other_than_the_shift_are_rejected(name, ref_grid, ref_hamiltonian):
    bad = OperatorMatrix(ref_grid, _not_the_shift(ref_grid)[name])
    with pytest.raises(ValueError, match="unitary one-cell shift"):
        classify_by_translation(ref_hamiltonian, bad, 2)
    with pytest.raises(ValueError, match="one-cell shift"):
        commutator_norm(ref_hamiltonian, bad)
    with pytest.raises(ValueError, match="one-cell shift"):
        commutator_norm(bad, ref_hamiltonian)


def test_commutator_norm_needs_the_shift_as_an_operand(ref_hamiltonian, ref_translation):
    with pytest.raises(ValueError, match="one-cell shift"):
        commutator_norm(ref_hamiltonian, ref_hamiltonian)
    # T is taken only as the second operand.
    with pytest.raises(ValueError, match="one-cell shift as its second operand"):
        commutator_norm(ref_translation, ref_hamiltonian)


def test_shift_sites_reject_a_grid_mismatch(ref_hamiltonian):
    other = build_translation(RingGrid(8, 1.0, 16))
    with pytest.raises(GridMismatchError):
        classify_by_translation(ref_hamiltonian, other, 2)
    with pytest.raises(GridMismatchError):
        commutator_norm(ref_hamiltonian, other)
