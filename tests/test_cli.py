import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blochlab
from blochlab import (
    LocalObservableSeries,
    PropagationExperiment,
    build_hamiltonian,
    materialize,
    selection_scan,
    solve_bands,
)
from blochlab.cli import _resolve_operator, main, write_json
from blochlab.config import load_config


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


def test_propagate_hands_the_experiment_one_summed_generator(tmp_path, monkeypatch):
    # H is added into the perturbation's buffer: the experiment gets H_m with the
    # bits of H + R, a real R keeps H_m real, and with no perturbation H_m is H.
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
    assert main(["propagate", "--config", str(bare)]) == 0
    site, real, plain = (experiment.hamiltonian.entries for experiment in seen)
    run = load_config(config)
    h = build_hamiltonian(run.grid(), run.potential(), scheme="fd4").entries
    r = _resolve_operator(run, run.observable("site0")).entries
    assert site.tobytes() == (h + r).tobytes()
    r = _resolve_operator(run, run.observable("h")).entries
    assert r.dtype == real.dtype == np.float64
    assert real.tobytes() == (h + r).tobytes()
    assert plain.tobytes() == h.tobytes()


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
    print(repr(commutator_norm(op, t)), repr(cell_periodicity_defect(op, t)))
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
    # solve_summary.json's residuals may differ; the energies in bands.csv may not.
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


@pytest.mark.parametrize("observable", ["h", "ring13"])
def test_scan_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, observable):
    # G = 1024 at P = 64: the real H is multiplied by the states' real and
    # imaginary parts apart, the odd-power series as one complex product.
    config = write_16x64_config(tmp_path / "run.json")
    outputs = outputs_at_one_and_two_threads(
        tmp_path, ["scan", "--config", str(config), "--observable", observable],
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
