"""Acceptance gate: the eight headline checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every check uses the reference configuration (8 cells, a = 1, 32 points per
cell, V = 2 cos(2 pi x / a), four bands) unless stated otherwise.
"""

import numpy as np
import pytest

from blochlab import (
    LocalObservableSeries,
    OperatorMatrix,
    PotentialSpec,
    PropagationExperiment,
    build_hamiltonian,
    build_wannier,
    cell_periodicity_defect,
    classify_by_translation,
    linear_response_slope,
    locality_report,
    materialize,
    selection_scan,
    solve_bands,
    wannier_projector,
    winding_number,
)
from blochlab.dynamics import first_order_error_exponent
from blochlab.grid import WaveFunction
from conftest import inner_product, matrix_element, momentum_matrix, regauged, state


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_bloch_basis_validity(ref_bands):
    orth = ref_bands.orthonormality_defect()
    trans = ref_bands.translation_defect()
    cell = ref_bands.cell_periodicity_defect()
    ok = orth <= 1e-8 and trans <= 1e-8 and cell <= 1e-8
    assert verdict(
        1, ok,
        f"orthonormality {orth:.2e}, translation eigenvalue {trans:.2e}, "
        f"cell periodicity {cell:.2e} (all <= 1e-8)",
    )


def test_criterion_2_superselection_for_cell_periodic_operators(
    ref_grid, ref_bands, ref_hamiltonian
):
    operators = {
        "H": ref_hamiltonian,
        "cos(2 pi x / a)": materialize(
            LocalObservableSeries(((8, 0, 1.0, 0.0),)), ref_grid
        ),
        "series m in {N, 2N}": materialize(
            LocalObservableSeries(((8, 1, 0.3, 0.2), (16, 2, 0.15, 0.0))), ref_grid
        ),
    }
    worst = {name: selection_scan(op, ref_bands).off_sector_max()
             for name, op in operators.items()}
    ok = all(v <= 1e-8 for v in worst.values())
    detail = ", ".join(f"{name}: {v:.2e}" for name, v in worst.items())
    assert verdict(2, ok, f"largest off-sector modulus {detail} (all <= 1e-8)")


def test_criterion_3_interference_moduli_in_any_gauge(ref_bands):
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(10):
        if trial == 0:
            bands = ref_bands
        else:
            bands = regauged(ref_bands, rng.uniform(0.0, 2.0 * np.pi, size=(4, 8)))
        projector = wannier_projector(build_wannier(bands, 0, 0))
        for i in range(8):
            for ip in range(8):
                el = matrix_element(projector, state(bands, 0, i), state(bands, 0, ip))
                worst = max(worst, abs(abs(el) - 0.125))
    ok = worst <= 1e-8
    assert verdict(
        3, ok,
        f"|<psi_0i|P|psi_0i'>| = 1/8 within {worst:.2e} over 64 pairs x 10 gauges",
    )


def test_criterion_4_projector_nonlocality_vs_banded_kinetic(ref_grid, site0_projector):
    defect = cell_periodicity_defect(site0_projector)
    mass = locality_report(site0_projector).bandwidth_mass(ref_grid.cell_length)
    kinetic = OperatorMatrix(ref_grid, 0.5 * momentum_matrix(ref_grid, 2, "fd4"))
    kin_width = locality_report(kinetic).locality_width(0.99)
    kin_defect = cell_periodicity_defect(kinetic)
    ok = (defect > 0.01 and mass < 0.9
          and kin_width <= 2 * ref_grid.spacing and kin_defect <= 1e-10)
    assert verdict(
        4, ok,
        f"projector defect {defect:.3f} (> 0.01), one-cell mass {mass:.3f} (< 0.9); "
        f"fd4 kinetic width {kin_width:.4f} (<= {2 * ref_grid.spacing:.4f}), "
        f"defect {kin_defect:.1e} (<= 1e-10)",
    )


def test_criterion_5_winding_numbers_of_band_zero(ref_grid):
    bands = solve_bands(ref_grid, PotentialSpec(0.0, ((1, 0.5, 0.0),)), 1)
    outcomes = []
    all_ok = True
    for l in range(8):
        result = winding_number(state(bands, 0, l).wavefunction)
        # "Equal to l" with the Brillouin-zone wrap: l or l - N.
        good = result.defined and result.value % 8 == l
        all_ok = all_ok and good
        outcomes.append(
            f"l={l}: {result.value if result.defined else 'undefined'}"
            + ("" if good else " (!)")
        )

    rng = np.random.default_rng(23)
    additive_failures = 0
    x = ref_grid.points
    for _ in range(100):
        w1, w2 = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        curves = []
        for w in (w1, w2):
            envelope = np.zeros(ref_grid.total_points, dtype=complex)
            for harmonic in range(1, 4):
                amp = 0.25 * (rng.normal() + 1j * rng.normal()) / harmonic
                envelope += amp * np.exp(2j * np.pi * harmonic * x / ref_grid.ring_length)
            curves.append(np.exp(envelope)
                          * np.exp(2j * np.pi * w * x / ref_grid.ring_length))
        wf = winding_number(WaveFunction(ref_grid, curves[0]))
        wg = winding_number(WaveFunction(ref_grid, curves[1]))
        wfg = winding_number(WaveFunction(ref_grid, curves[0] * curves[1]))
        if not (wf.defined and wg.defined and wfg.defined
                and wfg.value == wf.value + wg.value):
            additive_failures += 1

    ok = all_ok and additive_failures == 0
    assert verdict(
        5, ok,
        f"band-0 windings for V = 0.5 cos: {'; '.join(outcomes)}; "
        f"additivity failures {additive_failures}/100 "
        "(the l=4 zone-edge state is an exact standing wave with nodes, "
        "so its winding is undefined by the zero-modulus guard)",
    )


def test_criterion_6_measured_selection_rules(ref_grid, ref_bands):
    ring = materialize(LocalObservableSeries(((1, 0, 1.0, 0.0),)), ref_grid)
    profile_ring = selection_scan(ring, ref_bands).sector_difference_profile()
    on = min(profile_ring[1], profile_ring[7])
    off = float(np.max(np.delete(profile_ring, [1, 7])))

    cell = materialize(LocalObservableSeries(((8, 0, 1.0, 0.0),)), ref_grid)
    profile_cell = selection_scan(cell, ref_bands).sector_difference_profile()
    stay = profile_cell[0]
    leak = float(np.max(profile_cell[1:]))

    ok = on > 1e-3 and off <= 1e-8 and stay > 1e-3 and leak <= 1e-8
    assert verdict(
        6, ok,
        f"m=1 couples dl = +-1 only (on {on:.3f}, off {off:.2e}); "
        f"m=N couples dl = 0 only (on {stay:.3f}, off {leak:.2e})",
    )


def test_criterion_7_linear_response_of_the_thought_experiment(
    ref_grid, ref_potential, site0_projector
):
    banded = build_hamiltonian(ref_grid, ref_potential, scheme="fd4")
    total = banded.entries + site0_projector.entries
    experiment = PropagationExperiment(
        OperatorMatrix(ref_grid, total),
        source=ref_grid.index_of_cell(6),
        target=ref_grid.index_of_cell(2),
    )
    eps = np.geomspace(1e-4, 1e-3, 9)
    slope, _ = linear_response_slope(experiment, eps)
    predicted = abs(experiment.kernel_entry()) / ref_grid.spacing
    slope_rel = abs(slope - predicted) / predicted
    exponent = first_order_error_exponent(experiment, eps)

    # Unitarity of every propagator row, checked on the full matrix
    # exponential: h^2 sum_z |U_yz / h|^2 = sum_z |U_yz|^2 row by row.
    energies, vectors = np.linalg.eigh(total)
    u = (vectors * np.exp(-1j * 5e-4 * energies)) @ vectors.conj().T
    row_sums = np.sum(np.abs(u) ** 2, axis=1)
    row_defect = float(np.max(np.abs(row_sums - 1.0)))

    ok = slope_rel < 0.01 and abs(exponent - 2.0) <= 0.1 and row_defect <= 1e-8
    assert verdict(
        7, ok,
        f"slope {slope:.6f} vs |r(y,z)|/hbar {predicted:.6f} (rel {slope_rel:.1e}, < 1%); "
        f"error exponent {exponent:.4f} (2.0 +- 0.1); "
        f"worst row unitarity defect {row_defect:.1e} (<= 1e-8)",
    )


def test_criterion_8_independent_oracles_agree(
    ref_grid, ref_potential, ref_bands, ref_hamiltonian, ref_translation
):
    classified = classify_by_translation(ref_hamiltonian, ref_translation, 4)
    energy_gap = float(np.max(np.abs(classified.energies() - ref_bands.energies())))
    overlap_gap = 0.0
    for n in range(4):
        for l in range(8):
            ov = abs(inner_product(state(ref_bands, n, l).wavefunction,
                                   state(classified, n, l).wavefunction))
            overlap_gap = max(overlap_gap, abs(ov - 1.0))

    free = solve_bands(ref_grid, PotentialSpec(), 4)
    p = ref_grid.points_per_cell
    m = np.arange(-(p // 2), p - p // 2)
    free_gap = 0.0
    for l in range(8):
        kappa = 2.0 * np.pi * (l + 8 * m) / ref_grid.ring_length
        expected = np.sort(kappa**2 / 2.0)[:4]
        got = np.sort(free.energies()[:, l])
        free_gap = max(free_gap, float(np.max(np.abs(got - expected))))

    ok = energy_gap <= 1e-8 and overlap_gap <= 1e-8 and free_gap <= 1e-10
    assert verdict(
        8, ok,
        f"solver vs classifier: energies within {energy_gap:.2e} (<= 1e-8), "
        f"overlap moduli within {overlap_gap:.2e} of 1 (<= 1e-8); "
        f"free energies within {free_gap:.2e} of k^2/2 (<= 1e-10)",
    )
