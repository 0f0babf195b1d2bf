import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    OperatorMatrix,
    PotentialSpec,
    PropagationExperiment,
    RingGrid,
    build_hamiltonian,
    build_wannier,
    exact_amplitude,
    first_order_amplitude,
    linear_response_slope,
    solve_bands,
    wannier_projector,
)
from blochlab.dynamics import (
    cell_transport_profile,
    first_order_error_exponent,
)
from blochlab.lattice import _hermitian_check
from conftest import transport_profile


def eigh_propagator(experiment):
    """Oracle: U(eps) = exp(-i eps H_m / hbar) from one dense diagonalization."""
    energies, vectors = np.linalg.eigh(experiment.hamiltonian.entries)

    def propagator(eps, columns=slice(None)):
        phases = np.exp(-1j * eps * energies / experiment.hbar)
        return (vectors * phases) @ vectors[columns].conj().T

    return propagator


def series_first_order_error(experiment, epsilons):
    """Oracle: |exact - first_order| * h as sum_{k>=2} [(-i eps H_m / hbar)^k / k!]_{yz},
    summed in extended precision.

    The eigh oracle's absolute noise (~2e-16 in U) is a visible share of
    errors near 1e-13, enough to move a fitted exponent by 1e-4; this series
    resolves them.
    """
    a = experiment.hamiltonian.entries.astype(np.clongdouble) / experiment.hbar
    term = np.zeros(len(a), dtype=np.clongdouble)
    term[experiment.source] = 1.0
    eps = np.asarray(epsilons, dtype=np.longdouble)
    total = np.zeros(eps.shape, dtype=np.clongdouble)
    for k in range(1, 400):
        term = a @ term / k
        if k >= 2:
            size = np.max(np.abs(term)) * np.max(np.abs(eps)) ** k
            total += (-1j * eps) ** k * term[experiment.target]
            if size < 1e-40:
                break
    return np.abs(total).astype(float)


@pytest.fixture(scope="module")
def banded_hamiltonian(ref_grid, ref_potential):
    return build_hamiltonian(ref_grid, ref_potential, scheme="fd4")


@pytest.fixture(scope="module")
def h_m(ref_grid, banded_hamiltonian, site0_projector):
    """H_m = H + R with the site-0 projector as R: the generator of acceptance criterion 7."""
    return OperatorMatrix(ref_grid, banded_hamiltonian.entries + site0_projector.entries)


@pytest.fixture(scope="module")
def distant_pair(ref_grid):
    return ref_grid.index_of_cell(2), ref_grid.index_of_cell(6)


def test_zero_time_is_a_discrete_delta(ref_grid, banded_hamiltonian, h_m, distant_pair):
    y, z = distant_pair
    h = ref_grid.spacing
    apart = PropagationExperiment(h_m, source=z, target=y)
    assert exact_amplitude(apart, 0.0) == 0.0
    delta = np.zeros(ref_grid.total_points)
    delta[z] = 1.0 / h**2
    assert np.array_equal(transport_profile(apart, 0.0), delta)
    same = PropagationExperiment(banded_hamiltonian, source=z, target=z)
    assert exact_amplitude(same, 0.0) == 1.0 / h


def test_first_order_formula_is_literal(ref_grid, banded_hamiltonian, h_m, distant_pair):
    y, z = distant_pair
    h = ref_grid.spacing
    experiment = PropagationExperiment(h_m, source=z, target=y)
    eps = 3e-4
    expected = -1j * eps * experiment.kernel_entry() / h
    assert first_order_amplitude(experiment, eps) == pytest.approx(expected, abs=1e-15)
    same = PropagationExperiment(banded_hamiltonian, source=z, target=z)
    on_site = first_order_amplitude(same, eps)
    assert on_site == pytest.approx(1.0 / h - 1j * eps * same.kernel_entry() / h, abs=1e-12)


def test_banded_kernel_vanishes_between_distant_cells(banded_hamiltonian, distant_pair):
    y, z = distant_pair
    experiment = PropagationExperiment(banded_hamiltonian, source=z, target=y)
    assert experiment.kernel_entry() == 0.0
    # Cells 2 and 6 sit four cells apart either way around the 8-cell ring.
    assert experiment.ring_distance() == pytest.approx(4.0)


def test_projector_restores_the_kernel_entry(h_m, distant_pair):
    y, z = distant_pair
    experiment = PropagationExperiment(h_m, source=z, target=y)
    # Frozen: h |W(y)| |W(z)| for the reference site-0 state.
    assert abs(experiment.kernel_entry()) == pytest.approx(0.0012034308882, rel=1e-8)


def test_linear_response_slope_matches_kernel(ref_grid, h_m, distant_pair):
    y, z = distant_pair
    experiment = PropagationExperiment(h_m, source=z, target=y)
    eps = np.geomspace(1e-4, 1e-3, 9)
    slope, _ = linear_response_slope(experiment, eps)
    predicted = abs(experiment.kernel_entry()) / ref_grid.spacing
    assert abs(slope - predicted) / predicted < 1e-3
    assert slope == pytest.approx(0.0385097, abs=1e-6)


def test_first_order_error_is_second_order(h_m, distant_pair):
    y, z = distant_pair
    experiment = PropagationExperiment(h_m, source=z, target=y)
    exponent = first_order_error_exponent(experiment, np.geomspace(1e-4, 1e-3, 9))
    assert exponent == pytest.approx(2.0, abs=0.05)


def test_propagator_unitarity_rows(ref_grid, h_m):
    h = ref_grid.spacing
    for source in (0, 80, 133):
        experiment = PropagationExperiment(h_m, source=source, target=0)
        profile = transport_profile(experiment, 5e-4)
        assert h**2 * profile.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.sqrt(profile.max()) <= 1.0 / h + 1e-9


def test_transport_profile_with_and_without_long_range_part(
    banded_hamiltonian, h_m, ref_grid, distant_pair
):
    y, z = distant_pair
    eps = 1e-4
    with_projector = PropagationExperiment(h_m, source=z, target=y)
    cells = cell_transport_profile(with_projector, eps)
    assert cells.sum() == pytest.approx(1.0, abs=1e-10)
    # The projector reaches every cell at first order in eps.
    assert cells[0] > 1e-13
    bare = PropagationExperiment(banded_hamiltonian, source=z, target=y)
    bare_cells = cell_transport_profile(bare, eps)
    # Without it, leakage to cells away from the band is higher order only.
    assert bare_cells[0] < 1e-20
    assert bare_cells[1] < 1e-20
    assert cells[0] / max(bare_cells[0], 1e-300) > 1e6


def test_propagator_composes(ref_grid, h_m, distant_pair):
    y, z = distant_pair
    experiment = PropagationExperiment(h_m, source=z, target=y)
    propagator = eigh_propagator(experiment)
    u = propagator(2e-4) @ propagator(3e-4)
    direct = propagator(5e-4)
    assert np.max(np.abs(u - direct)) < 1e-10
    assert exact_amplitude(experiment, 5e-4) * ref_grid.spacing == pytest.approx(u[y, z],
                                                                                abs=1e-12)


def test_hbar_rescales_time(h_m, distant_pair):
    y, z = distant_pair
    one = PropagationExperiment(h_m, source=z, target=y)
    two = PropagationExperiment(h_m, source=z, target=y, hbar=2.0)
    assert exact_amplitude(two, 8e-4) == pytest.approx(exact_amplitude(one, 4e-4), abs=1e-12)


def test_experiment_validation(ref_grid, banded_hamiltonian):
    with pytest.raises(ValueError):
        PropagationExperiment(banded_hamiltonian, source=-1, target=0)
    with pytest.raises(ValueError):
        PropagationExperiment(banded_hamiltonian, source=0, target=256)
    with pytest.raises(ValueError):
        PropagationExperiment(banded_hamiltonian, source=0, target=0, hbar=0.0)
    skew = banded_hamiltonian.entries + 1j * np.triu(np.ones((256, 256)))
    with pytest.raises(ValueError, match="Hermitian"):
        PropagationExperiment(OperatorMatrix(ref_grid, skew), source=0, target=0)


def test_slope_fit_validation(banded_hamiltonian, h_m, distant_pair):
    y, z = distant_pair
    experiment = PropagationExperiment(h_m, source=z, target=y)
    with pytest.raises(ValueError):
        linear_response_slope(experiment, np.array([1e-4]))
    with pytest.raises(ValueError):
        linear_response_slope(experiment, np.array([1e-4, -1e-4]))
    same = PropagationExperiment(banded_hamiltonian, source=z, target=z)
    with pytest.raises(ValueError):
        linear_response_slope(same, np.array([1e-4, 2e-4]))


def test_error_exponent_sweep_validation(h_m, distant_pair, capfd):
    y, z = distant_pair
    experiment = PropagationExperiment(h_m, source=z, target=y)
    for sweep in ([1e-4, -1e-4], [1e-4, 0.0], [1e-4, np.nan], [1e-4, np.inf]):
        with pytest.raises(ValueError, match="positive and finite"):
            first_order_error_exponent(experiment, np.array(sweep))
    # A negative epsilon must not reach np.log and LAPACK, which writes to stderr.
    assert capfd.readouterr().err == ""


def test_fits_refuse_a_sweep_of_one_repeated_time(h_m, distant_pair, capfd):
    # Three equal times are one sample: the fits would be rank deficient.
    y, z = distant_pair
    experiment = PropagationExperiment(h_m, source=z, target=y)
    for fit in (linear_response_slope, first_order_error_exponent):
        with pytest.raises(ValueError, match="two or more distinct times"):
            fit(experiment, np.array([1e-4, 1e-4, 1e-4]))
    assert capfd.readouterr().err == ""


def test_exact_amplitude_rejects_nonfinite_time(banded_hamiltonian):
    experiment = PropagationExperiment(banded_hamiltonian, source=0, target=1)
    with pytest.raises(ValueError):
        exact_amplitude(experiment, np.nan)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("profile", [transport_profile, cell_transport_profile])
def test_profiles_reject_nonfinite_time(profile, epsilon):
    # A non-finite epsilon must raise, not grow the Lanczos basis forever.
    grid = RingGrid(2, 1.0, 8)
    experiment = PropagationExperiment(build_hamiltonian(grid, PotentialSpec()), 0, 9)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        profile(experiment, epsilon)


@pytest.fixture(scope="module")
def g1024_experiment(ref_potential):
    grid = RingGrid(16, 1.0, 64)
    projector = wannier_projector(build_wannier(solve_bands(grid, ref_potential, 1), 0, 0))
    hamiltonian = build_hamiltonian(grid, ref_potential, scheme="fd4")
    return PropagationExperiment(
        OperatorMatrix(grid, hamiltonian.entries + projector.entries),
        source=grid.index_of_cell(12), target=grid.index_of_cell(4),
    )


@pytest.fixture(scope="module")
def reference_experiment(h_m, distant_pair):
    # The set-up of acceptance criterion 7.
    y, z = distant_pair
    return PropagationExperiment(h_m, source=z, target=y)


@pytest.mark.parametrize("name", ["reference_experiment", "g1024_experiment"])
def test_lanczos_agrees_with_the_eigh_oracle(name, request):
    experiment = request.getfixturevalue(name)
    y, z = experiment.target, experiment.source
    h = experiment.hamiltonian.grid.spacing
    propagator = eigh_propagator(experiment)
    eps = np.geomspace(1e-4, 1e-3, 9)
    columns = {e: propagator(e, z) for e in eps}
    oracle = np.array([columns[e][y] / h for e in eps])
    amps = np.array([exact_amplitude(experiment, e) for e in eps])
    assert np.max(np.abs(amps - oracle)) * h <= 1e-12
    for e in (eps[0], eps[-1]):
        oracle_profile = np.abs(columns[e] / h) ** 2
        assert np.max(np.abs(transport_profile(experiment, e) - oracle_profile)) * h**2 <= 1e-12

    fit = np.column_stack([eps, eps**2])
    oracle_slope = np.linalg.lstsq(fit, np.abs(oracle), rcond=None)[0][0]
    slope, _ = linear_response_slope(experiment, eps)
    assert abs(slope - oracle_slope) <= 1e-8 * abs(oracle_slope)
    errors = series_first_order_error(experiment, eps)
    oracle_exponent = np.polyfit(np.log(eps), np.log(errors), 1)[0]
    assert first_order_error_exponent(experiment, eps) == pytest.approx(oracle_exponent,
                                                                        abs=1e-4)


def test_negative_time_is_the_adjoint(ref_grid, h_m, distant_pair):
    y, z = distant_pair
    forward = PropagationExperiment(h_m, source=z, target=y)
    backward = PropagationExperiment(h_m, source=y, target=z)
    for eps in (1e-4, 7e-4):
        back = exact_amplitude(backward, -eps)
        assert back * ref_grid.spacing == pytest.approx(
            np.conj(exact_amplitude(forward, eps)) * ref_grid.spacing, abs=1e-12
        )


def test_diagonal_generator_breaks_down_exactly(ref_grid, rng):
    energies = rng.uniform(-50.0, 50.0, ref_grid.total_points)
    diagonal = OperatorMatrix(ref_grid, np.diag(energies))
    h = ref_grid.spacing
    for eps in (3e-4, -0.2, 5.0):
        same = PropagationExperiment(diagonal, source=17, target=17)
        assert exact_amplitude(same, eps) == np.exp(-1j * eps * energies[17]) / h
        apart = PropagationExperiment(diagonal, source=17, target=40)
        assert exact_amplitude(apart, eps) == 0.0


def test_basis_reaching_the_whole_space_matches_the_oracle(ref_potential, rng):
    # A random Hermitian perturbation breaks the reflection and time-reversal
    # degeneracies that would otherwise close the Krylov space early.
    grid = RingGrid(3, 1.0, 8)
    g = grid.total_points
    noise = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
    h_m = build_hamiltonian(grid, ref_potential).entries + (noise + noise.conj().T)
    experiment = PropagationExperiment(OperatorMatrix(grid, h_m), source=5, target=19)
    amp = exact_amplitude(experiment, 10.0)
    assert len(experiment._alpha) == g
    oracle = eigh_propagator(experiment)(10.0, 5)[19] / grid.spacing
    assert abs(amp - oracle) * grid.spacing <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    n_cells=st.integers(2, 5),
    points=st.integers(8, 13),
    harmonics=st.lists(
        st.tuples(st.integers(1, 3), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        max_size=2, unique_by=lambda term: term[0],
    ),
    scheme=st.sampled_from(["spectral", "fd2", "fd4", "fd6", "fd8"]),
    hbar=st.floats(0.5, 2.0),
    epsilon=st.floats(-2e-2, 2e-2),
    perturbed=st.booleans(),
    data=st.data(),
)
def test_lanczos_property(n_cells, points, harmonics, scheme, hbar, epsilon, perturbed, data):
    grid = RingGrid(n_cells, 1.0, points)
    g = grid.total_points
    source = data.draw(st.integers(0, g - 1), label="source")
    target = data.draw(st.integers(0, g - 1), label="target")
    hamiltonian = build_hamiltonian(grid, PotentialSpec(0.0, tuple(harmonics)), hbar=hbar,
                                    scheme=scheme)
    if perturbed:
        noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        r = noise.normal(size=(g, g)) + 1j * noise.normal(size=(g, g))
        hamiltonian = OperatorMatrix(grid, hamiltonian.entries + (r + r.conj().T))
    experiment = PropagationExperiment(hamiltonian, source=source, target=target, hbar=hbar)
    h = grid.spacing
    column = eigh_propagator(experiment)(epsilon, source)
    assert abs(exact_amplitude(experiment, epsilon) - column[target] / h) * h <= 1e-12
    profile = transport_profile(experiment, epsilon)
    assert np.max(np.abs(profile - np.abs(column / h) ** 2)) * h**2 <= 1e-12
    assert h**2 * profile.sum() == pytest.approx(1.0, abs=1e-12)


def test_experiment_holds_no_g_by_g_temporary(ref_potential, traced_peak):
    # 32 x 64 (G = 2048): the real H (32 MiB) and the site projector kept rank one.  The
    # Lanczos basis's np.zeros (64 MiB complex) counts in full here, though only filled
    # rows become resident; beyond it the experiment holds nothing G x G, in particular
    # no complex copy of H for its products with the complex Lanczos vectors.
    grid = RingGrid(32, 1.0, 64)
    hamiltonian = build_hamiltonian(grid, ref_potential, scheme="fd4")
    site = build_wannier(solve_bands(grid, ref_potential, 1), 0, 0)
    source, target = grid.index_of_cell(20), grid.index_of_cell(4)
    with traced_peak() as peak:
        experiment = PropagationExperiment(hamiltonian, source, target, site=site)
        for eps in (1e-4, 8e-4):
            exact_amplitude(experiment, eps)
            cell_transport_profile(experiment, eps)
        assert peak() <= 2048**2 * 16 + 0.1 * hamiltonian.entries.nbytes
        assert experiment.hamiltonian.entries is hamiltonian.entries


def fit_bound(design, delta, values):
    """Largest move of each least-squares coefficient over ``design`` when the fitted
    values move by at most ``delta`` each: the fit is linear in them, so |pinv| @ delta,
    plus 1e-12 |values| of rounding per value."""
    return np.abs(np.linalg.pinv(design)) @ (delta + 1e-12 * np.abs(values))


@settings(max_examples=40, deadline=None)
@given(
    n_cells=st.integers(2, 7),
    points=st.integers(8, 13),
    harmonics=st.lists(
        st.tuples(st.integers(1, 3), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        max_size=2, unique_by=lambda term: term[0],
    ),
    scheme=st.sampled_from(["spectral", "fd2", "fd4", "fd6", "fd8"]),
    hbar=st.floats(0.5, 2.0),
    mass=st.floats(0.8, 1.25),
    eps0=st.floats(1e-4, 1e-3),
    data=st.data(),
)
def test_rank_one_projector_matches_the_dense_generator(n_cells, points, harmonics, scheme,
                                                         hbar, mass, eps0, data):
    # Oracle: the same experiment on the dense H + wannier_projector(W).  The kernel entry
    # keeps its bits; amplitudes and cell probabilities agree to roundoff (measured at most
    # 7.1e-16 and 4.9e-15 over 900 seeded draws of this set-up); the fits are linear in
    # what they fit, so they may move only as far as that roundoff moves them.
    grid = RingGrid(n_cells, 1.0, points)
    g = grid.total_points
    potential = PotentialSpec(0.0, tuple(harmonics))
    band_count = data.draw(st.integers(1, 3), label="band_count")
    bands = solve_bands(grid, potential, band_count, mass=mass, hbar=hbar)
    site = build_wannier(bands, data.draw(st.integers(0, band_count - 1), label="band"),
                         data.draw(st.integers(0, n_cells - 1), label="site"))
    source = data.draw(st.integers(0, g - 1), label="source")
    target = (source + data.draw(st.integers(1, g - 1), label="offset")) % g
    hamiltonian = build_hamiltonian(grid, potential, mass=mass, hbar=hbar, scheme=scheme)
    rank_one = PropagationExperiment(hamiltonian, source, target, hbar, site=site)
    dense = PropagationExperiment(
        OperatorMatrix(grid, hamiltonian.entries + wannier_projector(site).entries),
        source, target, hbar)
    assert (np.complex128(rank_one.kernel_entry()).tobytes()
            == np.complex128(dense.kernel_entry()).tobytes())

    h, eps = grid.spacing, eps0 * np.arange(1.0, 5.0)
    amps = np.array([exact_amplitude(rank_one, e) for e in eps])
    oracle = np.array([exact_amplitude(dense, e) for e in eps])
    moved = np.abs(amps - oracle)
    assert np.max(moved) * h <= 1e-14
    cells = cell_transport_profile(rank_one, eps[0])
    assert np.max(np.abs(cells - cell_transport_profile(dense, eps[0]))) <= 3e-14

    bound = fit_bound(np.column_stack([eps, eps**2]), moved, oracle)
    fitted = np.subtract(linear_response_slope(rank_one, eps), linear_response_slope(dense, eps))
    assert np.all(np.abs(fitted) <= bound)
    # |exact - first order| moves by at most |amps - oracle|, so its log by -log1p(-x).
    errors = np.abs(oracle - np.array([first_order_amplitude(dense, e) for e in eps]))
    if np.all(moved < 0.5 * errors):
        ratio = moved / errors
        bound = fit_bound(np.column_stack([np.log(eps), np.ones(4)]), -np.log1p(-ratio),
                          np.log(errors))[0]
        exponent = first_order_error_exponent(rank_one, eps)
        assert abs(exponent - first_order_error_exponent(dense, eps)) <= bound


@pytest.mark.parametrize("shape", [(3, 131), (16, 64)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("hermitian", [True, False])
def test_tiled_hermitian_check_matches_the_whole_matrix_formulas(shape, dtype, hermitian, rng):
    g = shape[0] * shape[1]
    a = rng.normal(size=(g, g))
    if dtype is complex:
        a = a + 1j * rng.normal(size=(g, g))
    a[-1, 0] = 40.0  # the largest entry, in the last row's first tile
    if hermitian:
        a = a + a.conj().T
    defect, max_abs = _hermitian_check(a)
    assert defect == float(np.max(np.abs(a - a.conj().T)))
    assert max_abs == float(np.max(np.abs(a)))
    assert (defect == 0.0) == hermitian


def test_non_hermitian_generator_keeps_its_message(ref_potential, rng):
    grid = RingGrid(3, 1.0, 131)
    g = grid.total_points
    skew = rng.normal(size=(g, g)) * 1e-3 + 1j * np.triu(np.ones((g, g)))
    hamiltonian = build_hamiltonian(grid, ref_potential)
    total = hamiltonian.entries + skew
    defect = float(np.max(np.abs(total - total.conj().T)))
    with pytest.raises(ValueError) as raised:
        PropagationExperiment(OperatorMatrix(grid, total), 0, 1)
    assert str(raised.value) == f"total generator is not Hermitian (defect {defect:.3e})"


def test_in_place_sum_has_the_bits_of_h_plus_r():
    # The propagate command sums the real H into R's buffer.  Signed zeros
    # included, R += H must have the bits of H + R for a real or complex R.
    # Tiled to 128 x 128, past numpy's casting buffer of 8192 elements.
    def tiled(*values):
        return np.tile(np.array(values), (128, 16))

    h = tiled(-0.0, -0.0, 0.0, 0.0, 1.5, -2.0, -0.0, 3.0)
    re = tiled(-0.0, 0.0, -0.0, 0.0, -1.5, 0.5, 2.0, -0.0)
    im = tiled(-0.0, 0.0, 0.0, -0.0, -0.0, 1.0, -0.0, 0.0)
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    assert np.signbit(z.imag).any() and np.signbit(z.real[re == 0.0]).any()
    for r in (re, z):
        expected = h + r
        r += h
        assert r.tobytes() == expected.tobytes()
