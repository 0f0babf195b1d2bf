import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochlab
from blochlab import (
    LocalObservableSeries,
    PropagationExperiment,
    build_hamiltonian,
    build_translation,
    build_wannier,
    locality_report,
    materialize,
    selection_scan,
    solve_bands,
    wannier_projector,
)
from blochlab.cli import main, write_csv, write_json
from blochlab.config import load_config
from blochlab.lattice import OperatorMatrix, _add_rows, _hermitian_check, _matrix_rows
from blochlab.superselection import _guarded, _scan
from conftest import dense_translation

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import checks, workloads  # noqa: E402


# Child interpreters import blochlab from the same tree as this one.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(Path(blochlab.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)}


def write_config(path, **overrides):
    data = {
        "lattice": {"n_cells": 8, "cell_length": 1.0, "points_per_cell": 32},
        "potential": {"harmonics": [[1, 2.0, 0.0]]},
        "bands": 4,
        "observables": [
            {"name": "site0", "kind": "wannier_projector", "band": 0, "site": 0},
            {"name": "ring1", "kind": "series", "terms": [[1, 0, 1.0, 0.0]]},
            {"name": "h", "kind": "hamiltonian"},
        ],
        "dynamics": {"epsilons": [1e-4, 2e-4, 4e-4, 8e-4], "source_cell": 6,
                     "target_cell": 2, "kinetic_scheme": "fd4", "perturbation": "site0"},
        "output_dir": str(path.parent / "out"),
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_solve_outputs_free_particle_energies(tmp_path):
    config = write_config(tmp_path / "run.json",
                          potential={"harmonics": []}, bands=2)
    assert main(["solve", "--config", str(config)]) == 0
    header, rows = read_csv(tmp_path / "out" / "bands.csv")
    assert header == ["band", "sector", "wavevector", "energy"]
    table = {(int(r[0]), int(r[1])): (float(r[2]), float(r[3])) for r in rows}
    k1, e1 = table[(0, 1)]
    assert k1 == pytest.approx(2.0 * np.pi / 8.0, abs=1e-12)
    assert e1 == pytest.approx(np.pi**2 / 32.0, abs=1e-10)
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["residuals"]["orthonormality"] < 1e-8
    assert summary["config"]["lattice"]["n_cells"] == 8


def test_outputs_are_deterministic(tmp_path):
    config = write_config(tmp_path / "run.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(config), "--out", str(out2)]) == 0
    assert main(["scan", "--config", str(config), "--observable", "site0",
                 "--out", str(out1)]) == 0
    assert main(["scan", "--config", str(config), "--observable", "site0",
                 "--out", str(out2)]) == 0
    assert main(["propagate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["propagate", "--config", str(config), "--out", str(out2)]) == 0
    for name in ("bands.csv", "solve_summary.json", "scan.csv", "scan_summary.json",
                 "locality.csv", "propagation.csv", "propagation_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scan_reports_selection_structure(tmp_path):
    config = write_config(tmp_path / "run.json")
    assert main(["scan", "--config", str(config), "--observable", "h"]) == 0
    summary = json.loads((tmp_path / "out" / "scan_summary.json").read_text())
    assert summary["periodicity_defect"] == 0.0
    assert summary["off_sector_max"] < 1e-8

    assert main(["scan", "--config", str(config), "--observable", "site0"]) == 0
    summary = json.loads((tmp_path / "out" / "scan_summary.json").read_text())
    assert summary["periodicity_defect"] > 0.01
    assert summary["bandwidth_mass_one_cell"] < 0.9
    header, rows = read_csv(tmp_path / "out" / "scan.csv")
    same_band = [float(r[6]) for r in rows if r[0] == "0" and r[2] == "0"]
    assert len(same_band) == 64
    assert np.max(np.abs(np.array(same_band) - 0.125)) < 1e-8

    assert main(["scan", "--config", str(config), "--observable", "ring1"]) == 0
    summary = json.loads((tmp_path / "out" / "scan_summary.json").read_text())
    profile = summary["sector_difference_profile"]
    assert profile[1] > 0.4 and profile[7] > 0.4
    assert max(profile[0], *profile[2:7]) < 1e-8


def test_winding_command_reports_wrap_and_undefined(tmp_path):
    config = write_config(tmp_path / "run.json")
    assert main(["winding", "--config", str(config), "--band", "0"]) == 0
    header, rows = read_csv(tmp_path / "out" / "winding.csv")
    values = {int(r[1]): r[2] for r in rows}
    assert values[1] == "1" and values[3] == "3" and values[5] == "-3"
    # The zone-edge standing wave has no winding; the cell is left empty.
    assert values[4] == ""
    summary = json.loads((tmp_path / "out" / "winding_summary.json").read_text())
    assert summary["windings"]["4"] is None


def test_wannier_command(tmp_path):
    config = write_config(tmp_path / "run.json")
    assert main(["wannier", "--config", str(config), "--band", "0", "--site", "3"]) == 0
    summary = json.loads((tmp_path / "out" / "wannier_summary.json").read_text())
    assert summary["norm"] == pytest.approx(1.0, abs=1e-10)
    assert sum(summary["cell_probability"]) == pytest.approx(1.0, abs=1e-10)
    header, rows = read_csv(tmp_path / "out" / "wannier.csv")
    assert header == ["index", "x", "re", "im", "density"]
    assert len(rows) == 256


def test_propagate_command_fits_the_kernel_slope(tmp_path):
    config = write_config(tmp_path / "run.json")
    assert main(["propagate", "--config", str(config)]) == 0
    summary = json.loads((tmp_path / "out" / "propagation_summary.json").read_text())
    assert summary["perturbation"] == "site0"
    assert summary["ring_distance"] == pytest.approx(4.0)
    fitted, predicted = summary["fitted_slope"], summary["predicted_slope"]
    assert abs(fitted - predicted) / predicted < 0.01
    assert summary["first_order_error_exponent"] == pytest.approx(2.0, abs=0.1)
    header, rows = read_csv(tmp_path / "out" / "propagation.csv")
    assert len(rows) == 4

    # Without the projector the banded kernel entry is zero and the fitted
    # slope collapses accordingly.
    bare = write_config(tmp_path / "bare.json",
                        dynamics={"epsilons": [1e-4, 2e-4, 4e-4, 8e-4],
                                  "source_cell": 6, "target_cell": 2,
                                  "kinetic_scheme": "fd4"})
    assert main(["propagate", "--config", str(bare)]) == 0
    summary = json.loads((tmp_path / "out" / "propagation_summary.json").read_text())
    assert summary["kernel_entry_modulus"] == 0.0
    assert abs(summary["fitted_slope"]) < 1e-6


def test_propagate_solves_bands_only_for_a_projector(tmp_path, monkeypatch):
    config = write_config(tmp_path / "run.json")

    def refuse(*args, **kwargs):
        raise RuntimeError("solve_bands called")

    monkeypatch.setattr("blochlab.cli.solve_bands", refuse)
    for observable in ("ring1", "h"):
        assert main(["propagate", "--config", str(config), "--observable", observable]) == 0
    assert main(["propagate", "--config", str(config), "--observable", "site0"]) == 3


def test_propagate_hands_the_experiment_h_and_a_rank_one_projector(tmp_path, monkeypatch):
    # A projector is never made a G x G matrix: the experiment gets the real H, with the
    # bits of build_hamiltonian, and the site state W.  Any other perturbation R is written
    # and gets H added in place, so the dense part has the bits of H + R for R from the
    # public builders, and a real R keeps it real.  With no perturbation the dense part is H.
    config = write_config(tmp_path / "run.json")
    bare = write_config(tmp_path / "bare.json",
                        dynamics={"epsilons": [1e-4, 2e-4, 4e-4, 8e-4], "source_cell": 6,
                                  "target_cell": 2, "kinetic_scheme": "fd4"})
    seen = []

    class Recorder(PropagationExperiment):
        def __post_init__(self):
            seen.append(self)
            super().__post_init__()

    monkeypatch.setattr("blochlab.cli.PropagationExperiment", Recorder)
    assert main(["propagate", "--config", str(config)]) == 0
    assert main(["propagate", "--config", str(config), "--observable", "h"]) == 0
    assert main(["propagate", "--config", str(config), "--observable", "ring1"]) == 0
    assert main(["propagate", "--config", str(bare)]) == 0
    projector, real, series, plain = seen
    run = load_config(config)
    h = build_hamiltonian(run.grid(), run.potential(), scheme="fd4").entries
    assert projector.hamiltonian.entries.dtype == np.float64
    assert projector.hamiltonian.entries.tobytes() == h.tobytes()
    w = build_wannier(solve_bands(run.grid(), run.potential(), run.bands), 0, 0).samples
    assert projector.site.samples.tobytes() == w.tobytes()
    for experiment, name in ((real, "h"), (series, "ring1")):
        assert experiment.site is None
        r = dense_operator(run, run.observable(name)).entries
        assert experiment.hamiltonian.entries.dtype == r.dtype
        assert experiment.hamiltonian.entries.tobytes() == (h + r).tobytes()
    assert real.hamiltonian.entries.dtype == np.float64
    assert plain.site is None and plain.hamiltonian.entries.tobytes() == h.tobytes()


def dense_operator(run, obs):
    """The G x G matrix of an observable that is not a projector, from the public builders."""
    grid = run.grid()
    if obs.kind == "hamiltonian":
        return build_hamiltonian(grid, run.potential(), mass=run.mass, hbar=run.hbar)
    if obs.kind == "translation":
        return build_translation(grid)
    series = LocalObservableSeries(obs.terms, symmetrize=obs.symmetrize)
    return materialize(series, grid, scheme=obs.scheme)


def write_expected_scan_files(directory, run, observable, op):
    """The scan files written from selection_scan(op, bands) and locality_report(op)."""
    bands = solve_bands(run.grid(), run.potential(), run.bands, mass=run.mass, hbar=run.hbar)
    scan, report = selection_scan(op, bands), locality_report(op)
    labels = np.indices(scan.table.shape).reshape(4, -1)
    elements = scan.table.ravel()
    write_csv(directory / "scan.csv", {
        **dict(zip(("band_bra", "sector_bra", "band_ket", "sector_ket"), labels)),
        "re": elements.real, "im": elements.imag, "modulus": map(abs, elements.tolist()),
    })
    write_csv(directory / "locality.csv", {
        "distance": np.arange(report.cumulative.size) * run.grid().spacing,
        "cumulative_mass": report.cumulative,
    })
    write_json(directory / "scan_summary.json", {
        "config": run.resolved(),
        "observable": observable,
        "periodicity_defect": scan.periodicity_defect,
        "off_sector_max": scan.off_sector_max(),
        "hermitian_symmetry_defect": scan.hermitian_symmetry_defect(),
        "sector_difference_profile": [float(v) for v in scan.sector_difference_profile()],
        "locality_width_99": report.locality_width(0.99),
        "bandwidth_mass_one_cell": report.bandwidth_mass(run.cell_length),
    })


def assert_same_files(actual, expected, names):
    for name in names:
        assert (actual / name).read_bytes() == (expected / name).read_bytes(), name


def assert_rank_one_scan_files_close(actual, expected, total_points):
    """A projector scan's files against the dense projector's: the labels, distances and
    config keep their bytes, and every number lies within 2 G u of its scale (the largest
    modulus, the defect, the total mass), the bound of the rank-one route's oracle property
    in test_superselection.py."""
    bound = 2 * total_points * np.finfo(float).eps
    header, rows = read_csv(actual / "scan.csv")
    want_header, want_rows = read_csv(expected / "scan.csv")
    got, want = np.array(rows, dtype=float), np.array(want_rows, dtype=float)
    largest = float(np.max(want[:, 6]))
    assert header == want_header and np.array_equal(got[:, :4], want[:, :4])
    assert np.max(np.abs(got[:, 4:] - want[:, 4:])) <= bound * largest
    header, rows = read_csv(actual / "locality.csv")
    want_header, want_rows = read_csv(expected / "locality.csv")
    assert header == want_header and [r[0] for r in rows] == [r[0] for r in want_rows]
    mass = np.array([float(r[1]) for r in rows])
    want_mass = np.array([float(r[1]) for r in want_rows])
    assert np.max(np.abs(mass - want_mass)) <= bound
    summary = json.loads((actual / "scan_summary.json").read_text())
    want = json.loads((expected / "scan_summary.json").read_text())
    assert summary.keys() == want.keys()
    assert (summary["config"], summary["observable"]) == (want["config"], want["observable"])
    defect = want["periodicity_defect"]
    assert abs(summary["periodicity_defect"] - defect) <= bound * defect
    for key in ("off_sector_max", "hermitian_symmetry_defect"):
        assert abs(summary[key] - want[key]) <= bound * largest, key
    assert np.max(np.abs(np.subtract(summary["sector_difference_profile"],
                                     want["sector_difference_profile"]))) <= bound * largest
    assert abs(summary["bandwidth_mass_one_cell"] - want["bandwidth_mass_one_cell"]) <= bound
    # The 99 % width is where the mass crosses 0.99: no mass lies within the bound of it.
    assert np.min(np.abs(want_mass - 0.99)) > bound
    assert summary["locality_width_99"] == want["locality_width_99"]


@pytest.mark.parametrize("observable", ["site0", "ring1", "h", "shift", "raw"])
def test_scan_files_match_the_public_scan_and_report(tmp_path, observable):
    # cmd_scan drops the bands and streams A's rows past its own state matrix; its files
    # must have the bytes of files written from selection_scan(op, bands) and
    # locality_report(op) of the whole A, unsymmetrized series included.  A projector
    # stays rank one in cmd_scan, so its files match those of the dense
    # wannier_projector of the Wannier state, built here as cmd_scan builds it, within
    # the rank-one route's bound.
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    data["observables"] += [{"name": "shift", "kind": "translation"},
                            {"name": "raw", "kind": "series", "symmetrize": False,
                             "scheme": "fd6", "terms": [[3, 1, 1.0, 0.4], [9, 2, 0.2, 0.0]]}]
    config.write_text(json.dumps(data))
    assert main(["scan", "--config", str(config), "--observable", observable]) == 0
    run = load_config(config)
    obs = run.observable(observable)
    names = ("scan.csv", "locality.csv", "scan_summary.json")
    if obs.kind != "wannier_projector":
        write_expected_scan_files(tmp_path / "expected", run, observable,
                                  dense_operator(run, obs))
        assert_same_files(tmp_path / "out", tmp_path / "expected", names)
        return
    bands = solve_bands(run.grid(), run.potential(), run.bands, mass=run.mass, hbar=run.hbar)
    write_expected_scan_files(tmp_path / "expected", run, observable,
                              wannier_projector(build_wannier(bands, obs.band, obs.site)))
    assert_rank_one_scan_files_close(tmp_path / "out", tmp_path / "expected",
                                     run.grid().total_points)


def test_a_projector_scan_reads_the_site_state_and_holds_no_g_by_g_array(tmp_path,
                                                                        traced_peak):
    # 32 x 64 (G = 2048) with 2 bands: the dense h W W^dagger would be a 64 MiB complex
    # array.  The scan reads W and the state matrix, and beside the states it holds
    # nothing near G x G; its files are the dense projector's within the rank-one bound.
    config = write_config(tmp_path / "run.json", bands=2,
                          lattice={"n_cells": 32, "cell_length": 1.0, "points_per_cell": 64})
    with traced_peak() as peak:
        assert main(["scan", "--config", str(config), "--observable", "site0"]) == 0
        assert peak() <= 0.25 * 2048**2 * 8
    run = load_config(config)
    bands = solve_bands(run.grid(), run.potential(), run.bands, mass=run.mass, hbar=run.hbar)
    write_expected_scan_files(tmp_path / "expected", run, "site0",
                              wannier_projector(build_wannier(bands, 0, 0)))
    assert_rank_one_scan_files_close(tmp_path / "out", tmp_path / "expected", 2048)


def test_both_scan_routes_pass_the_table_guards(tmp_path, monkeypatch):
    # The leakage and rounding-noise guards are one helper.  A projector, H and a
    # symmetrized series are Hermitian by construction, so their kernel check is skipped;
    # an unsymmetrized series and the shift pass the check their streamed pass measured,
    # which gives the dense matrix's max |A - A^dagger| and max |A|.
    checks = []

    def guarded(scan, kernel_check):
        checks.append(kernel_check)
        return _guarded(scan, kernel_check)

    monkeypatch.setattr("blochlab.superselection._guarded", guarded)
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    data["observables"] += [{"name": "raw", "kind": "series", "symmetrize": False,
                             "terms": [[3, 1, 1.0, 0.4], [1, 0, 0.5, 0.0]]},
                            {"name": "shift", "kind": "translation"}]
    config.write_text(json.dumps(data))
    names = ("site0", "h", "ring1", "raw", "shift")
    for name in names:
        assert main(["scan", "--config", str(config), "--observable", name]) == 0
    assert checks[:3] == [None, None, None]
    run = load_config(config)
    for name, check in zip(names[3:], checks[3:]):
        dense = _hermitian_check(dense_operator(run, run.observable(name)).entries)
        assert check() == dense and dense[0] > 0.0, name


def test_a_translation_scan_has_the_dense_shifts_bytes_and_no_g_by_g_array(tmp_path,
                                                                          traced_peak):
    # 32 x 64 (G = 2048): the dense shift would be a 32 MiB array.  The scan reads the
    # shift's read-only view and writes the files of the dense shift's scan and report.
    # Beside the states and its slabs it holds no array near G x G.
    config = write_config(
        tmp_path / "run.json", bands=2,
        lattice={"n_cells": 32, "cell_length": 1.0, "points_per_cell": 64},
        observables=[{"name": "shift", "kind": "translation"}],
        dynamics={"epsilons": [1e-4], "source_cell": 6, "target_cell": 2,
                  "perturbation": "shift"})
    with traced_peak() as peak:
        assert main(["scan", "--config", str(config), "--observable", "shift"]) == 0
        assert peak() <= 0.25 * 2048**2 * 8
    run = load_config(config)
    write_expected_scan_files(tmp_path / "expected", run, "shift", dense_translation(run.grid()))
    assert_same_files(tmp_path / "out", tmp_path / "expected",
                      ("scan.csv", "locality.csv", "scan_summary.json"))


def shift_perturbed_config(path, n_cells):
    return write_config(
        path, lattice={"n_cells": n_cells, "cell_length": 1.0, "points_per_cell": 32},
        observables=[{"name": "shift", "kind": "translation"}],
        dynamics={"epsilons": [1e-4, 2e-4, 4e-4], "source_cell": 0, "target_cell": 1,
                  "kinetic_scheme": "fd4", "perturbation": "shift"})


def test_the_shift_perturbs_propagate_as_the_dense_shift_at_two_cells(tmp_path, monkeypatch):
    # At N = 2, T = T^dagger, so H + T is Hermitian.  H is added into the perturbation's
    # buffer, and T's read-only view gets a private copy for it: the files are those
    # of the dense shift.
    config = shift_perturbed_config(tmp_path / "run.json", 2)
    assert main(["propagate", "--config", str(config), "--out", str(tmp_path / "view")]) == 0
    monkeypatch.setattr("blochlab.cli.build_translation", dense_translation)
    assert main(["propagate", "--config", str(config), "--out", str(tmp_path / "dense")]) == 0
    assert_same_files(tmp_path / "view", tmp_path / "dense",
                      ("propagation.csv", "propagation_summary.json"))


def test_the_shift_is_not_a_hermitian_perturbation_at_three_cells(tmp_path, capsys):
    config = shift_perturbed_config(tmp_path / "run.json", 3)
    out = tmp_path / "out"
    assert main(["propagate", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: total generator is not Hermitian")
    assert not out.exists()


@pytest.mark.parametrize("observable, shape, bands", [("ring13", (128, 16), 2),
                                                      ("h", (32, 64), 4)], ids=["series", "h"])
def test_a_streamed_scan_holds_no_g_by_g_array_beside_its_states(tmp_path, traced_peak,
                                                                 monkeypatch, observable,
                                                                 shape, bands):
    # G = 2048: the series would be a 64 MiB complex matrix and H a 32 MiB real one.  From
    # the pass on, beside the state matrix (8 and 4 MiB), the scan holds a 128-row slab
    # of A, the table and a few row slabs, and it writes its files in chunks.  Before the
    # pass it drops u before it copies psi into the state matrix, and psi after, so up to
    # the pass it peaks under 2.7 times the states' B N G complex numbers.
    config = write_config(
        tmp_path / "run.json", bands=bands,
        lattice={"n_cells": shape[0], "cell_length": 1.0, "points_per_cell": shape[1]},
        observables=[{"name": "ring13", "kind": "series", "scheme": "fd4",
                      "terms": [[1, 1, 1.0, 0.3], [3, 2, 0.5, -0.2]]},
                     {"name": "h", "kind": "hamiltonian"}],
        dynamics={"epsilons": [1e-4], "source_cell": 6, "target_cell": 2,
                  "perturbation": "ring13"})
    streamed_scan = blochlab.cli._streamed_scan

    def from_the_pass_on(*args):
        before.append(peak())
        peak.reset()
        return streamed_scan(*args)

    monkeypatch.setattr("blochlab.cli._streamed_scan", from_the_pass_on)
    before = []
    with traced_peak() as peak:
        assert main(["scan", "--config", str(config), "--observable", observable]) == 0
        assert peak() <= 0.25 * 2048**2 * 8
    # Measured 2.59 (series) and 2.33 (h); a scan that holds u while it copies psi reads 3.0.
    assert before[0] <= 2.7 * bands * shape[0] * 2048 * 16


def test_a_projector_propagate_holds_the_real_h_and_the_basis(tmp_path, traced_peak):
    # 32 x 64 (G = 2048) under the site projector: the run holds the real H (32 MiB) and
    # the Lanczos basis, whose np.zeros (64 MiB complex) tracemalloc counts in full.  The
    # projector stays rank one, so no 64 MiB complex R is built.
    config = write_config(tmp_path / "run.json",
                          lattice={"n_cells": 32, "cell_length": 1.0, "points_per_cell": 64},
                          dynamics={"epsilons": [1e-4, 2e-4, 4e-4, 8e-4], "source_cell": 20,
                                    "target_cell": 4, "kinetic_scheme": "fd4",
                                    "perturbation": "site0"})
    with traced_peak() as peak:
        assert main(["propagate", "--config", str(config)]) == 0
        assert peak() <= 1.1 * 2048**2 * 8 + 2048**2 * 16


@pytest.mark.parametrize("power, itemsize, bound", [(1, 16, 2.02), (0, 8, 2.03)],
                         ids=["complex", "real"])
def test_a_dense_propagate_holds_h_plus_r_and_the_basis(tmp_path, traced_peak, power, itemsize,
                                                        bound):
    # 32 x 64 (G = 2048) under a series R, complex for an odd momentum power: the run holds
    # H + R and the Lanczos basis of R's dtype, whose np.zeros tracemalloc counts in full.
    # R's row source and its slabs are freed before the basis is allocated: the source's
    # two 32-row buffers alone would add 0.03 of G^2 entries.
    config = write_config(
        tmp_path / "run.json", lattice={"n_cells": 32, "cell_length": 1.0, "points_per_cell": 64},
        observables=[{"name": "ring", "kind": "series", "scheme": "fd4",
                      "terms": [[1, power, 1.0, 0.3], [3, 0, 0.5, -0.2]]}],
        dynamics={"epsilons": [1e-4, 2e-4, 4e-4, 8e-4], "source_cell": 20, "target_cell": 4,
                  "kinetic_scheme": "fd4", "perturbation": "ring"})
    with traced_peak() as peak:
        assert main(["propagate", "--config", str(config)]) == 0
        assert peak() <= bound * 2048**2 * itemsize


@pytest.mark.parametrize("hbar", [1e154, 1e200])
@pytest.mark.parametrize("args", [["solve"], ["scan", "--observable", "h"], ["propagate"],
                                  ["propagate", "--observable", "h"]],
                         ids=["solve", "scan", "propagate", "propagate-h"])
def test_an_overflowing_hbar_is_a_numerical_failure(tmp_path, capsys, hbar, args):
    # hbar^2/2m overflows a float at 1e200 and hbar^2/2m k^2 at 1e154: one error
    # line, exit 3, no file and no RuntimeWarning (the test settings make one an error).
    config = write_config(
        tmp_path / "run.json",
        lattice={"n_cells": 4, "cell_length": 1.0, "points_per_cell": 16, "hbar": hbar},
        dynamics={"epsilons": [1e-4, 2e-4], "source_cell": 0, "target_cell": 2,
                  "perturbation": "site0"})
    out = tmp_path / "out"
    out.mkdir()
    assert main([args[0], "--config", str(config), *args[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


def test_a_tiny_hbar_is_a_numerical_failure(tmp_path, capsys):
    # At hbar = 1e-200 the phases eps theta / hbar reach ~1e199 rad, where one
    # rounding of a Ritz value moves them by far more than 2 pi.
    config = write_config(
        tmp_path / "run.json",
        lattice={"n_cells": 8, "cell_length": 1.0, "points_per_cell": 32, "hbar": 1e-200})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["propagate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: phases ") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


def test_an_underflowing_kinetic_scale_is_a_numerical_failure(tmp_path, capsys):
    # hbar^2/2m underflows to 0.0 at hbar 1e-200 and k^2 overflows at cell_length
    # 1e-300, so the sector block's kinetic diagonal is 0 * inf: one error line, exit
    # 3, no file and no RuntimeWarning (the test settings make one an error).
    config = write_config(
        tmp_path / "run.json",
        lattice={"n_cells": 8, "cell_length": 1e-300, "points_per_cell": 32, "hbar": 1e-200})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["solve", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args, amplitude", [(["scan", "--observable", "huge"], 1e300),
                                             (["propagate"], 1e160)], ids=["scan", "propagate"])
def test_a_floating_point_overflow_is_a_numerical_failure(tmp_path, capsys, args, amplitude):
    # A 1e300 fd4 series overflows the locality report's squared moduli, which left NaN
    # in locality.csv and bare NaN (not JSON) in the summary; a 1e160 one overflows the
    # Lanczos norm.  Either is one error line, exit 3 and no file, with no RuntimeWarning.
    config = write_config(
        tmp_path / "run.json",
        observables=[{"name": "huge", "kind": "series", "scheme": "fd4",
                      "terms": [[3, 2, amplitude, 0.0]]}],
        dynamics={"epsilons": [1e-4, 2e-4, 4e-4, 8e-4], "source_cell": 6, "target_cell": 2,
                  "kinetic_scheme": "fd4", "perturbation": "huge"})
    out = tmp_path / "out"
    out.mkdir()
    assert main([args[0], "--config", str(config), *args[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: overflow") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("numerator, message", [(0.0, "invalid value"), (1.0, "divide by zero")],
                         ids=["invalid", "divide"])
def test_an_invalid_value_or_a_division_by_zero_is_a_numerical_failure(
        tmp_path, monkeypatch, capsys, numerator, message):
    # 0 / 0 or 1 / 0 in any value a command computes fails it like an overflow does.
    def nonfinite(*args, **kwargs):
        return np.full(8, numerator) / np.zeros(8)

    monkeypatch.setattr("blochlab.cli.cell_probability", nonfinite)
    config = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["wannier", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message} encountered in divide\n"
    assert list(out.iterdir()) == []


def test_a_huge_cell_length_propagates(tmp_path, capsys):
    # At cell_length 1e200 h^2 overflows a Python float, and the spectral columns are
    # tiny or zero rather than infinite: the run succeeds, its cell probabilities summed
    # from the propagator column itself.
    config = write_config(
        tmp_path / "run.json",
        lattice={"n_cells": 8, "cell_length": 1e200, "points_per_cell": 32},
        observables=[{"name": "wave", "kind": "series", "scheme": "spectral",
                      "terms": [[1, 1, 1.0, 0.0], [3, 2, 0.5, 0.1]]}],
        dynamics={"epsilons": [1e-4, 2e-4], "source_cell": 6, "target_cell": 2,
                  "kinetic_scheme": "spectral", "perturbation": "wave"})
    assert main(["propagate", "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "propagation_summary.json").read_text())
    probabilities = np.array(summary["cell_arrival_probability"])
    assert np.all(np.isfinite(probabilities))
    assert abs(probabilities.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("observable", ["h", "cell"])
def test_a_small_cell_length_scans_cell_periodic_kernels(tmp_path, observable):
    # At cell_length 1e-3 the table's moduli reach ~1e7, so the leakage guard
    # must be relative to them: roundoff leakage of ~1e-8 is not a broken scan.
    config = write_config(
        tmp_path / "run.json",
        lattice={"n_cells": 8, "cell_length": 1e-3, "points_per_cell": 32},
        observables=[{"name": "site0", "kind": "wannier_projector", "band": 0, "site": 0},
                     {"name": "h", "kind": "hamiltonian"},
                     {"name": "cell", "kind": "series", "scheme": "fd2",
                      "terms": [[16, 1, 0.72, -0.36], [8, 2, 0.13, 0.30]]}])
    assert main(["scan", "--config", str(config), "--observable", observable]) == 0
    summary = json.loads((tmp_path / "out" / "scan_summary.json").read_text())
    assert summary["periodicity_defect"] <= 1e-10


_UNIT_RUNS = [["solve"], ["wannier", "--band", "0", "--site", "1"], ["winding", "--band", "1"],
              *(["scan", "--observable", name] for name in ("site0", "ring1", "h", "shift"))]


def unit_run_outputs(shape, k):
    """Exit code and CSV cells of each run in _UNIT_RUNS on an N x P grid, hbar 2^k, V 4^k."""
    c = 4.0**k
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(
            Path(tmp) / "run.json",
            lattice={"n_cells": shape[0], "cell_length": 1.0, "points_per_cell": shape[1],
                     "hbar": 2.0**k},
            potential={"constant": 0.3 * c,
                       "harmonics": [[1, 0.8 * c, 0.4 * c], [2, 0.2 * c, 0.0]]},
            bands=2,
            observables=[{"name": "site0", "kind": "wannier_projector", "band": 0, "site": 1},
                         {"name": "ring1", "kind": "series", "terms": [[1, 1, 1.0, 0.5]],
                          "scheme": "fd6"},
                         {"name": "h", "kind": "hamiltonian"},
                         {"name": "shift", "kind": "translation"}],
            dynamics=None)
        for i, args in enumerate(_UNIT_RUNS):
            out = Path(tmp) / str(i)
            code = main([args[0], "--config", str(config), "--out", str(out), *args[1:]])
            results.append((code, {p.name: read_csv(p) for p in sorted(out.glob("*.csv"))}))
    return results


@given(k=st.integers(-40, 40), shape=st.sampled_from([(2, 8), (3, 9), (4, 8), (5, 10)]))
@settings(max_examples=20, deadline=None)
def test_every_csv_is_independent_of_the_energy_unit(k, shape):
    """hbar -> 2^k hbar and V -> 4^k V give 4^k H bit for bit.  So every CSV of solve,
    wannier, winding and scan (each observable kind) keeps its bytes, except the energies
    and the elements of the H scan, which are exactly 4^k times larger.  propagate is left
    out: its generator H + eps R adds a projector or series R that does not scale with the
    unit, so its amplitudes change."""
    # (last argument, file) -> the columns that scale with the unit.
    scaled = {("solve", "bands.csv"): {"energy"}, ("h", "scan.csv"): {"re", "im", "modulus"}}
    for args, (code, files), (ref_code, ref_files) in zip(
            _UNIT_RUNS, unit_run_outputs(shape, k), unit_run_outputs(shape, 0), strict=True):
        assert ref_code == 0 and (code, files.keys()) == (ref_code, ref_files.keys()), args
        for name, (header, rows) in files.items():
            ref_header, ref_rows = ref_files[name]
            assert header == ref_header and len(rows) == len(ref_rows), (args, name)
            for j, column in enumerate(header):
                got, want = [r[j] for r in rows], [r[j] for r in ref_rows]
                if column in scaled.get((args[-1], name), ()):
                    assert [float(v) for v in got] == [4.0**k * float(v) for v in want], column
                else:
                    assert got == want, (args, name, column)


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_write_csv_writes_in_chunks_the_bytes_of_the_whole_text(tmp_path, rows):
    # Rows are formatted and written 4096 at a time; the file has the bytes of the whole
    # text built at once, for numpy, list and iterator columns alike.
    rng = np.random.default_rng(rows)
    values = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    columns = {"index": np.arange(rows), "x": values, "label": [f"r{i}" for i in range(rows)],
               "modulus": map(abs, values.tolist())}
    write_csv(tmp_path / "out.csv", columns)
    cells = [map(str, np.arange(rows).tolist()), map(str, values.tolist()),
             (f"r{i}" for i in range(rows)), map(str, map(abs, values.tolist()))]
    lines = ["index,x,label,modulus", *map(",".join, zip(*cells))]
    assert (tmp_path / "out.csv").read_text() == "\n".join(lines) + "\n"


def test_write_csv_refuses_unequal_columns_and_leaves_no_file(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", {"a": np.arange(5000), "b": list(range(4999))})
    assert list(tmp_path.iterdir()) == []


def test_csv_modulus_and_density_are_scalar_abs_of_the_written_parts(tmp_path):
    # With a sine term the states are complex enough that numpy's vectorized
    # abs differs from the scalar abs in the last bit on about a third of them.
    config = write_config(tmp_path / "run.json",
                          potential={"constant": 0.3, "harmonics": [[1, 2.0, 0.4]]})
    assert main(["scan", "--config", str(config), "--observable", "ring1"]) == 0
    assert main(["wannier", "--config", str(config), "--band", "1", "--site", "5"]) == 0
    header, rows = read_csv(tmp_path / "out" / "scan.csv")
    assert len(rows) == 4 * 8 * 4 * 8
    for row in rows:
        assert row[6] == repr(abs(complex(float(row[4]), float(row[5]))))
    header, rows = read_csv(tmp_path / "out" / "wannier.csv")
    assert len(rows) == 256
    for row in rows:
        assert row[4] == repr(abs(complex(float(row[2]), float(row[3]))) ** 2)


def test_scan_csv_matches_the_row_by_row_reference(tmp_path):
    # Reference: the element-by-element loop the column writer replaced.
    config = write_config(tmp_path / "run.json")
    assert main(["scan", "--config", str(config), "--observable", "ring1"]) == 0
    cfg = load_config(config)
    bands = solve_bands(cfg.grid(), cfg.potential(), cfg.bands)
    table = selection_scan(materialize(LocalObservableSeries(((1, 0, 1.0, 0.0),)), cfg.grid()),
                           bands).table
    lines = ["band_bra,sector_bra,band_ket,sector_ket,re,im,modulus"]
    for index in np.ndindex(table.shape):
        el = table[index]
        cells = [*map(str, index), *(repr(float(v)) for v in (el.real, el.imag, abs(el)))]
        lines.append(",".join(cells))
    assert (tmp_path / "out" / "scan.csv").read_text() == "\n".join(lines) + "\n"


def test_missing_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    del data["lattice"]["cell_length"]
    config.write_text(json.dumps(data))
    assert main(["solve", "--config", str(config)]) == 2
    assert "cell_length" in capsys.readouterr().err


def test_bad_config_paths_exit_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    assert main(["solve", "--config", str(garbled)]) == 2
    capsys.readouterr()
    # Python refuses to read an integer of over 4300 digits: still a bad run file.
    digits = write_config(tmp_path / "digits.json")
    digits.write_text(digits.read_text().replace('"n_cells": 8', '"n_cells": ' + "9" * 5000))
    assert main(["solve", "--config", str(digits)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_unreadable_config_files_exit_2(tmp_path, capsys):
    # A run file that is not UTF-8, or a directory, is a configuration problem:
    # neither a numerical failure (exit 3) nor a traceback.
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"output_dir": "caf\xe9"}')
    for path in (latin1, tmp_path):
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config file {str(path)!r} cannot be read")


def test_unknown_observable_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "run.json")
    assert main(["scan", "--config", str(config), "--observable", "ghost"]) == 2
    assert "ghost" in capsys.readouterr().err


def test_out_of_range_band_exits_2(tmp_path):
    config = write_config(tmp_path / "run.json")
    assert main(["wannier", "--config", str(config), "--band", "7", "--site", "0"]) == 2
    assert main(["winding", "--config", str(config), "--band", "9"]) == 2


def test_propagate_without_dynamics_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    del data["dynamics"]
    config.write_text(json.dumps(data))
    assert main(["propagate", "--config", str(config)]) == 2
    assert "dynamics" in capsys.readouterr().err


def test_propagate_with_one_repeated_epsilon_exits_2(tmp_path, capsys):
    # Three equal times give the fits one sample: a bad run file, not a fit.
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    data["dynamics"]["epsilons"] = [1e-4, 1e-4, 1e-4]
    config.write_text(json.dumps(data))
    assert main(["propagate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dynamics.epsilons" in err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path / "run.json")

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setattr("blochlab.cli.solve_bands", explode)
    assert main(["solve", "--config", str(config)]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_overflowing_generator_fails_the_hermitian_gate(tmp_path, capsys):
    # 1e308 on the diagonals of H and of an unsymmetrized R: the in-place sum
    # H + R overflows to inf there, inf - inf makes the Hermitian defect NaN,
    # and the gate must reject it before LAPACK sees the matrix.
    config = write_config(
        tmp_path / "run.json", potential={"constant": 1e308},
        observables=[{"name": "huge", "kind": "series", "symmetrize": False,
                      "terms": [[0, 0, 1e308, 0.0]]}],
        dynamics={"epsilons": [1e-4, 2e-4], "source_cell": 6, "target_cell": 2,
                  "perturbation": "huge"})
    assert main(["propagate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: total generator is not Hermitian (defect nan)\n"


def test_an_overflowing_h_alone_fails_the_hermitian_gate(tmp_path, capsys):
    # No perturbation: V = 1e308 (1 + cos) overflows to inf on H's diagonal.  The walker
    # leaves the inf in the generator, and the Hermitian gate rejects it (inf - inf).
    config = write_config(
        tmp_path / "run.json", potential={"constant": 1e308, "harmonics": [[1, 1e308, 0.0]]},
        dynamics={"epsilons": [1e-4, 2e-4], "source_cell": 6, "target_cell": 2})
    assert main(["propagate", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: total generator is not Hermitian (defect nan)\n"
    assert not (tmp_path / "out").exists()


def test_failed_scan_leaves_no_output(tmp_path, capsys):
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    data["observables"].append({"name": "zero", "kind": "series", "terms": [[1, 0, 0.0, 0.0]]})
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["scan", "--config", str(config), "--observable", "zero", "--out", str(out)]) == 3
    assert "zero operator" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_failed_propagate_leaves_no_output(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path / "run.json")

    def explode(*args, **kwargs):
        raise ValueError("slope fit failed")

    monkeypatch.setattr("blochlab.cli.linear_response_slope", explode)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["propagate", "--config", str(config), "--out", str(out)]) == 3
    assert "slope fit failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


_LATE_VALUES = {
    "solve": ("blochlab.cli.BandStructure.translation_defect", ["solve"]),
    "wannier": ("blochlab.cli.cell_probability", ["wannier", "--band", "0", "--site", "1"]),
    "scan": ("blochlab.superselection._locality", ["scan", "--observable", "ring1"]),
    "winding": ("blochlab.cli.winding_number", ["winding", "--band", "0"]),
    "propagate": ("blochlab.cli.cell_transport_profile", ["propagate"]),
}


@pytest.mark.parametrize("command", list(_LATE_VALUES))
def test_a_failed_command_writes_no_file(tmp_path, monkeypatch, capsys, command):
    # A value each command computes after most of its outputs fails: main writes
    # only what a command returns, so no file may be left behind.
    target, args = _LATE_VALUES[command]

    def explode(*args, **kwargs):
        raise ValueError("late value failed")

    monkeypatch.setattr(target, explode)
    config = write_config(tmp_path / "run.json")
    out = tmp_path / "out"
    out.mkdir()
    assert main([args[0], "--config", str(config), *args[1:], "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: late value failed\n"
    assert list(out.iterdir()) == []


def test_an_output_path_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    # A path under a regular file fails whatever the permissions, so it holds as root too.
    config = write_config(tmp_path / "run.json")
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output path {str(out)!r} cannot be written")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file", config]
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("cell_length", [1e200, 1e-200])
@pytest.mark.parametrize("args", [["propagate"], ["scan", "--observable", "wave"]],
                         ids=["propagate", "scan"])
def test_an_extreme_spacing_fails_the_momentum_column(tmp_path, capsys, cell_length, args):
    # An fd4 series of momentum powers 1 and 2 and the fd4 kinetic term: h^n overflows
    # a float at cell_length 1e200 and is 0 at 1e-200.  One error line, exit 3, no
    # file, and no RuntimeWarning (the test settings make one an error).
    config = write_config(
        tmp_path / "run.json",
        lattice={"n_cells": 8, "cell_length": cell_length, "points_per_cell": 32},
        observables=[{"name": "wave", "kind": "series", "scheme": "fd4",
                      "terms": [[3, 1, 0.7, 0.2], [5, 2, 0.4, -0.3]]}],
        dynamics={"epsilons": [1e-4, 2e-4], "source_cell": 6, "target_cell": 2,
                  "kinetic_scheme": "fd4", "perturbation": "wave"})
    out = tmp_path / "out"
    out.mkdir()
    assert main([args[0], "--config", str(config), *args[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


def test_module_entrypoint_smoke(tmp_path):
    config = write_config(tmp_path / "run.json")
    result = subprocess.run(
        [sys.executable, "-m", "blochlab", "solve", "--config", str(config)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert (tmp_path / "out" / "bands.csv").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    data["lattice"]["mas"] = 2.0
    config.write_text(json.dumps(data))
    assert main(["solve", "--config", str(config)]) == 2
    assert "lattice.mas" in capsys.readouterr().err


@pytest.mark.parametrize("command,mutate,key", [
    (["solve"], lambda d: d["lattice"].__setitem__("n_cells", 10**400), "lattice.n_cells"),
    (["solve"], lambda d: d["lattice"].__setitem__("n_cells", 2**70), "lattice.n_cells"),
    (["propagate"], lambda d: d["potential"]["harmonics"][0].__setitem__(0, 10**400),
     "potential.harmonics[0][0]"),
    (["scan", "--observable", "ring1"],
     lambda d: d["observables"][1]["terms"][0].__setitem__(0, 10**400),
     "observables[1].terms[0][0]"),
], ids=["n_cells-1e400", "n_cells-2^70", "harmonic-1e400", "series-m-1e400"])
def test_a_huge_integer_is_a_config_error_at_its_key(tmp_path, capsys, command, mutate, key):
    # Integers beyond 2**53 are refused where they are read, not met later as an
    # OverflowError traceback.
    config = write_config(tmp_path / "run.json")
    data = json.loads(config.read_text())
    mutate(data)
    config.write_text(json.dumps(data))
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config key '{key}': ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_an_overflowing_ring_length_is_a_config_error_at_its_key(tmp_path, capsys):
    # N * a = 8e308 is inf: the grid refuses it, with no RuntimeWarning from sampling it.
    config = write_config(tmp_path / "run.json",
                          lattice={"n_cells": 8, "cell_length": 1e308, "points_per_cell": 32})
    assert main(["solve", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config key 'lattice.cell_length': ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_grid_too_large_to_allocate_is_a_numerical_failure(tmp_path, capsys):
    # G = 2**53 * 32 samples (2 EiB of positions) fails at its first allocation.
    config = write_config(tmp_path / "run.json",
                          lattice={"n_cells": 2**53, "cell_length": 1.0, "points_per_cell": 32})
    assert main(["solve", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_outputs_honor_the_umask(tmp_path):
    config = write_config(tmp_path / "run.json")
    previous = os.umask(0o022)
    try:
        assert main(["scan", "--config", str(config), "--observable", "h"]) == 0
    finally:
        os.umask(previous)
    for name in ("scan.csv", "locality.csv", "scan_summary.json"):
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == 0o644


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write_json(tmp_path / "summary.json", {"a": 1})
    assert list(tmp_path.iterdir()) == []


_NO_SCIPY = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import blochlab
assert not scipy_modules(), ("import blochlab", scipy_modules())
from blochlab.cli import main
config = sys.argv[1]
for argv in (["solve"], ["wannier", "--band", "0", "--site", "0"],
             ["scan", "--observable", "site0"], ["scan", "--observable", "ring1"],
             ["scan", "--observable", "h"], ["scan", "--observable", "shift"],
             ["winding", "--band", "0"], ["propagate"]):
    assert main(argv + ["--config", config]) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())

from blochlab import build_hamiltonian, build_translation, classify_by_translation
from blochlab.config import load_config
from blochlab.lattice import commutator_norm
run = load_config(config)
h = build_hamiltonian(run.grid(), run.potential(), mass=run.mass, hbar=run.hbar)
t = build_translation(run.grid())
assert commutator_norm(h, t) == 0.0
classify_by_translation(h, t, run.bands)
assert not scipy_modules(), ("classify_by_translation", scipy_modules())
"""


def test_import_and_every_command_load_no_scipy(tmp_path):
    # blochlab runs on numpy alone, the translation classifier included;
    # scipy serves only the tests' oracles.
    config = write_config(tmp_path / "run.json", observables=[
        {"name": "site0", "kind": "wannier_projector", "band": 0, "site": 0},
        {"name": "ring1", "kind": "series", "terms": [[1, 1, 1.0, 0.5]], "scheme": "fd6"},
        {"name": "h", "kind": "hamiltonian"},
        {"name": "shift", "kind": "translation"},
    ])
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(config)],
                            capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr


_NORMS = """
import numpy as np
from blochlab import OperatorMatrix, RingGrid, build_translation, cell_periodicity_defect
from blochlab.lattice import commutator_norm

grid = RingGrid(8, 1.0, 32)
g = grid.total_points
rng = np.random.default_rng(7)
t = build_translation(grid)
for entries in (rng.normal(size=(g, g)), rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))):
    op = OperatorMatrix(grid, entries)
    print(repr(commutator_norm(op, t)), repr(cell_periodicity_defect(op)))
"""


def test_norms_do_not_depend_on_the_blas_thread_count():
    # The scan summary's periodicity defect must be the same bytes on any
    # machine, so the Frobenius sums may not follow BLAS's thread split.
    outputs = []
    for threads in ("1", "2"):
        env = {**CHILD_ENV, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
        result = subprocess.run([sys.executable, "-c", _NORMS],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def outputs_at_one_and_two_threads(tmp_path, args, names):
    """The bytes of the named output files of one CLI run at each BLAS thread count."""
    outputs = []
    for threads in ("1", "2"):
        env = {**CHILD_ENV, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
        out = tmp_path / f"threads{threads}"
        result = subprocess.run([sys.executable, "-m", "blochlab", *args, "--out", str(out)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


def test_propagate_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # G = 2048 with a projector perturbation: the Lanczos products and the
    # P = 64 sector solves must give the same bytes at 1 and 2 BLAS threads.
    config = write_config(tmp_path / "run.json",
                          lattice={"n_cells": 32, "cell_length": 1.0, "points_per_cell": 64},
                          dynamics={"epsilons": [1e-4, 2e-4, 4e-4, 8e-4], "source_cell": 20,
                                    "target_cell": 4, "kinetic_scheme": "fd4",
                                    "perturbation": "site0"})
    outputs = outputs_at_one_and_two_threads(
        tmp_path, ["propagate", "--config", str(config)],
        ("propagation.csv", "propagation_summary.json"))
    assert outputs[0] == outputs[1]


def test_bands_at_p256_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At P = 256 the sector eigenvectors follow the thread count, so
    # solve_summary.json's residuals may differ.  The energies in bands.csv do not
    # for this potential, but that is not general at 8 x 256: most potentials move
    # some of their 32 energies in the last bits, and a circulant sector block (with
    # the aliased coupling) moves all 32 on every potential tried, this one included.
    config = write_config(tmp_path / "run.json",
                          lattice={"n_cells": 8, "cell_length": 1.0, "points_per_cell": 256},
                          potential={"constant": 0.4, "harmonics": [[1, 2.0, -0.7], [3, 0.01, 0.2]]})
    outputs = outputs_at_one_and_two_threads(
        tmp_path, ["solve", "--config", str(config)], ("bands.csv",))
    assert outputs[0] == outputs[1]


def write_16x64_config(path):
    """A G = 1024 run file at P = 64, the largest cell the thread-count guards cover."""
    return write_config(path,
                        lattice={"n_cells": 16, "cell_length": 1.0, "points_per_cell": 64},
                        observables=[{"name": "site0", "kind": "wannier_projector",
                                      "band": 0, "site": 0},
                                     {"name": "h", "kind": "hamiltonian"},
                                     {"name": "ring13", "kind": "series",
                                      "terms": [[1, 1, 1.0, 0.3], [3, 2, 0.5, -0.2]]}])


@pytest.mark.parametrize("observable", ["h", "ring13", "site0"])
def test_scan_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, observable):
    # G = 1024 at P = 64: the real H multiplies the states viewed as floats and the
    # odd-power series the complex states, one 128-row slab of A at a time; the
    # projector's rank-one route sums W against the states in einsum's own loops.
    config = write_16x64_config(tmp_path / "run.json")
    outputs = outputs_at_one_and_two_threads(
        tmp_path, ["scan", "--config", str(config), "--observable", observable],
        ("scan.csv", "locality.csv", "scan_summary.json"))
    assert outputs[0] == outputs[1]


def test_a_projector_scan_at_the_benchmark_shape_does_not_depend_on_the_blas_thread_count(
        tmp_path):
    # 32 x 64 (G = 2048) with 4 bands, the shape of scan_large's projector scan.
    config = write_config(tmp_path / "run.json",
                          lattice={"n_cells": 32, "cell_length": 1.0, "points_per_cell": 64})
    outputs = outputs_at_one_and_two_threads(
        tmp_path, ["scan", "--config", str(config), "--observable", "site0"],
        ("scan.csv", "locality.csv", "scan_summary.json"))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("args, names", [
    (["solve"], ("bands.csv", "solve_summary.json")),
    (["wannier"], ("wannier.csv", "wannier_summary.json")),
    (["winding"], ("winding.csv", "winding_summary.json")),
], ids=["solve", "wannier", "winding"])
def test_band_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, args, names):
    # The P = 64 sector solves, the Wannier synthesis and the windings read
    # the same bytes at 1 and 2 BLAS threads.
    config = write_16x64_config(tmp_path / "run.json")
    outputs = outputs_at_one_and_two_threads(
        tmp_path, [*args, "--config", str(config)], names)
    assert outputs[0] == outputs[1]


def run_extreme_draw(root, n_cells, points, bands, observable, seed, scales):
    """Run all five commands through ``main`` on a benchmark-shaped run file whose cell
    length, mass, hbar, potential amplitudes, series amplitudes and time steps are
    multiplied by ``scales``; return (job key, problem) pairs that break the contract.

    Exit 0 must leave output that passes the benchmark's check for its command; exit 2
    or 3 exactly one stderr line and no file.  Any other exit code fails, and an
    exception escaping ``main`` (a traceback) propagates.
    """
    rng = random.Random(seed)
    config = workloads.run_file(rng, n_cells, points, bands, perturbation=observable)
    length, mass, hbar, potential, series, epsilon = scales
    config["lattice"].update(cell_length=length, mass=mass, hbar=hbar)
    config["potential"]["harmonics"] = [[h, potential * c, potential * s]
                                        for h, c, s in config["potential"]["harmonics"]]
    for obs in config["observables"]:
        if obs["kind"] == "series":
            obs["terms"] = [[m, n, series * c, series * d] for m, n, c, d in obs["terms"]]
    config["dynamics"]["epsilons"] = [epsilon * e for e in config["dynamics"]["epsilons"]]
    (root / "run.json").write_text(json.dumps(config))
    problems = []
    for i, job in enumerate(workloads.cli_jobs(rng, "run.json", config, observable)):
        out, err = root / f"out_{i}", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([job.command, "--config", str(root / "run.json"), "--out", str(out),
                         *job.args])
        lines = err.getvalue().splitlines()
        files = sorted(p.name for p in out.rglob("*")) if out.exists() else []
        if code == 0:
            problems += [(job.key, p) for p in checks.check(job, config, out)]
        elif code not in (2, 3):
            problems.append((job.key, f"exit {code}"))
        elif len(lines) != 1 or files:
            problems.append((job.key, f"exit {code} with stderr {lines} and files {files}"))
    return problems


_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@given(n_cells=st.integers(2, 8), points=st.integers(8, 16), bands=st.integers(1, 3),
       observable=st.sampled_from(sorted(workloads.OBSERVABLE_PERIODIC)),
       seed=st.integers(0, 2**32 - 1), scales=st.lists(_MAGNITUDE, min_size=6, max_size=6))
# Draws the search found: ħ²/2m underflows to 0, so the 'wave' table is rounding
# noise (exit 0 with a non-Hermitian table before); a Wannier density subnormal at
# cell length 1.4e287 (exit 0 with a density column the check rejects); ħ h
# underflows to 0 in the predicted slope (a ZeroDivisionError traceback).
@example(4, 14, 1, "wave", 560070907, [1.6e-112, 3.8e-121, 3.9e-241, 9.4e-241, 2.6e-137, 2.7e16])
@example(3, 14, 3, "cell", 3486345474, [1.4e287, 6.2e108, 6.2e128, 4.0e-178, 1.2e-260, 5.4e42])
@example(3, 13, 3, "site", 259587125, [9.5e-150, 3.5e-73, 2.1e-192, 1.1e-194, 1.5e-79, 1.6e-200])
@settings(max_examples=50, deadline=None)
def test_every_command_at_extreme_magnitudes_passes_its_check_or_fails_cleanly(
        n_cells, points, bands, observable, seed, scales):
    # Log-uniform magnitudes in [1e-300, 1e300]: overflow, underflow, 0 * inf and
    # allocation failures must each end in exit 2 or 3 with one line, never in a
    # warning, a traceback, a nan in a file or output the benchmark would reject.
    with tempfile.TemporaryDirectory() as tmp:
        assert run_extreme_draw(Path(tmp), n_cells, points, bands, observable, seed,
                                scales) == []


def dense_scan(grid, dtype, rows, adjoint, psis, band_count):
    """The dense route of cmd_scan: A built whole by the row walker from -0.0, as
    materialize builds it, then _scan and locality_report.  It first holds the source of
    A^dagger to conj(A)^T's values, or A to Hermitian if there is none."""
    a = np.full((grid.total_points,) * 2, -0.0 if dtype is float else complex(-0.0, -0.0))
    _add_rows(a, dtype, rows)
    with np.errstate(all="ignore"):  # the route's errors stay those of the dense route
        dagger = a
        if adjoint is not None:
            adjoint(dagger := np.empty_like(a), 0)
        assert np.array_equal(dagger, a.conj().T, equal_nan=True)
    op = OperatorMatrix(grid, a)
    return _scan(op, psis, band_count), locality_report(op)


_AMPLITUDE = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)
_UNIT = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@given(n_cells=st.integers(2, 6), points=st.integers(8, 24), bands=st.integers(1, 3),
       observable=st.sampled_from(["wave", "cell", "raw", "h", "shift"]),
       seed=st.integers(0, 2**32 - 1), series=_AMPLITUDE,
       scales=st.lists(_UNIT, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_a_streamed_scan_exits_and_writes_as_the_dense_route(tmp_path_factory, n_cells, points,
                                                             bands, observable, seed, series,
                                                             scales):
    # Series amplitudes log-uniform in [1e-300, 1e308], with cell length, mass, hbar and
    # potential in [1e-3, 1e3] so that the bands solve and the scan runs: the one pass
    # defers each step's floating-point error to the dense route's order, so the exit
    # code, the stderr line and every file's bytes are those of the dense route.
    rng = random.Random(seed)
    config = workloads.run_file(rng, n_cells, points, bands)
    length, mass, hbar, potential = scales
    config["lattice"].update(cell_length=length, mass=mass, hbar=hbar)
    config["potential"]["harmonics"] = [[h, potential * c, potential * s]
                                        for h, c, s in config["potential"]["harmonics"]]
    for obs in config["observables"]:
        if obs["kind"] == "series":
            obs["terms"] = [[m, n, series * c, series * d] for m, n, c, d in obs["terms"]]
    config["observables"] += [{**config["observables"][1], "name": "raw", "symmetrize": False},
                              {"name": "shift", "kind": "translation"}]
    root = tmp_path_factory.mktemp("draw")
    (root / "run.json").write_text(json.dumps(config))
    results = []
    for route in (blochlab.cli._streamed_scan, dense_scan):
        out, err = root / route.__name__, io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
            patch.setattr("blochlab.cli._streamed_scan", route)
            code = main(["scan", "--config", str(root / "run.json"), "--observable", observable,
                         "--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        results.append((code, err.getvalue(), files))
    assert results[0] == results[1]


def whole_source(config, obs):
    """The oracle's observable dispatch: R built whole by the public builders, which check
    it finite, and read back by slicing."""
    r = dense_operator(config, obs).entries
    return r.dtype.type, _matrix_rows(r), None


def add_whole(entries, dtype, rows):
    """The oracle's adder: entries += A in place, A written whole by one call of its rows."""
    a = np.empty(entries.shape, dtype=dtype)
    rows(a, 0)
    with np.errstate(over="ignore"):
        entries += a


@given(n_cells=st.integers(2, 4), points=st.integers(8, 16), bands=st.integers(1, 3),
       perturbation=st.sampled_from(["wave", "cell", "h", "shift", "site", None]),
       seed=st.integers(0, 2**32 - 1),
       scales=st.lists(st.one_of(_UNIT, _MAGNITUDE), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_propagate_exits_and_writes_as_the_public_builders(tmp_path_factory, n_cells, points,
                                                           bands, perturbation, seed, scales):
    # Cell length, mass, hbar, potential and series amplitudes and time steps each in
    # [1e-3, 1e3] or log-uniform in [1e-300, 1e300].  Propagate's dense part, R written by
    # its row source and checked finite, then H added a slab at a time, exits and writes
    # as the oracle does: R from materialize, build_hamiltonian or build_translation, and
    # H's rows added in place whole.  A projector or no perturbation adds H into zeros.
    rng = random.Random(seed)
    config = workloads.run_file(rng, n_cells, points, bands)
    length, mass, hbar, potential, series, epsilon = scales
    config["lattice"].update(cell_length=length, mass=mass, hbar=hbar)
    config["potential"]["harmonics"] = [[h, potential * c, potential * s]
                                        for h, c, s in config["potential"]["harmonics"]]
    for obs in config["observables"]:
        if obs["kind"] == "series":
            obs["terms"] = [[m, n, series * c, series * d] for m, n, c, d in obs["terms"]]
    config["observables"].append({"name": "shift", "kind": "translation"})
    config["dynamics"]["epsilons"] = [epsilon * e for e in config["dynamics"]["epsilons"]]
    config["dynamics"]["perturbation"] = perturbation
    root = tmp_path_factory.mktemp("draw")
    (root / "run.json").write_text(json.dumps(config))
    results = []
    for route in ("walker", "oracle"):
        out, err = root / route, io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
            if route == "oracle":
                patch.setattr("blochlab.cli._row_source", whole_source)
                patch.setattr("blochlab.cli._add_rows", add_whole)
            code = main(["propagate", "--config", str(root / "run.json"), "--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        results.append((code, err.getvalue(), files))
    assert results[0] == results[1]
