"""Each output check passes real output and rejects a corrupted copy."""

import csv
import json
import random

import pytest

from blochlab.cli import main as cli_main
from perfbench import checks, crosscheck, workloads
from perfbench.workloads import Job


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Real outputs of every job kind on a 4-cell, 8-sample ring."""
    base = tmp_path_factory.mktemp("outputs")
    config = workloads.run_file(random.Random(7), 4, 8, bands=2)
    config["potential"] = {"constant": 0.0, "harmonics": [[1, 2.0, 0.0]]}
    path = base / "run.json"
    path.write_text(json.dumps(config))
    jobs = {
        "solve": Job("solve", "run.json"),
        "wannier": Job("wannier", "run.json", ("--band", "1", "--site", "2")),
        "scan_h": Job("scan", "run.json", ("--observable", "h")),
        "scan_site": Job("scan", "run.json", ("--observable", "site")),
        "winding": Job("winding", "run.json", ("--band", "0")),
        "propagate": Job("propagate", "run.json"),
        "crosscheck": Job("crosscheck", "run.json"),
    }
    outs = {}
    for name, job in jobs.items():
        out = base / name
        io = ["--config", str(path), "--out", str(out)]
        if job.command == "crosscheck":
            assert crosscheck.main(io) == 0
        else:
            assert cli_main([job.command, *io, *job.args]) == 0
        outs[name] = out
    return config, jobs, outs


def _copy(tmp_path, out):
    dest = tmp_path / out.name
    dest.mkdir()
    for f in out.iterdir():
        (dest / f.name).write_bytes(f.read_bytes())
    return dest


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_csv(path, row, column, value):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row + 1][column] = value
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _set(key, value):
    def edit(data):
        node = data
        for part in key[:-1]:
            node = node[part]
        node[key[-1]] = value
    return edit


def _scale(key, factor):
    def edit(data):
        data[key] = [v * factor for v in data[key]]
    return edit


CORRUPTIONS = {
    "solve": [
        lambda out: _edit_json(out / "solve_summary.json",
                               _set(("residuals", "orthonormality"), 1e-6)),
        lambda out: _edit_csv(out / "bands.csv", 0, 3, "1e9"),
        lambda out: (out / "bands.csv").write_text(
            "\n".join((out / "bands.csv").read_text().splitlines()[:-1]) + "\n"),
    ],
    "wannier": [
        lambda out: _edit_json(out / "wannier_summary.json", _set(("norm",), 1.001)),
        lambda out: _edit_json(out / "wannier_summary.json", _scale("cell_probability", 1.01)),
        lambda out: _edit_csv(out / "wannier.csv", 3, 4, "5.0"),
    ],
    "scan_h": [
        lambda out: _edit_csv(out / "scan.csv", 1, 4, "0.001"),
        lambda out: _edit_json(out / "scan_summary.json", _set(("periodicity_defect",), 0.5)),
        lambda out: _edit_json(out / "scan_summary.json", _set(("off_sector_max",), 0.1)),
    ],
    "scan_site": [
        lambda out: _edit_csv(out / "scan.csv", 1, 5, "0.25"),
        lambda out: _edit_json(out / "scan_summary.json", _set(("periodicity_defect",), 0.0)),
        lambda out: _edit_csv(out / "locality.csv", 0, 1, "2.0"),
    ],
    "winding": [
        lambda out: _edit_csv(out / "winding.csv", 1, 2, "2"),
        lambda out: _edit_json(out / "winding_summary.json", _set(("windings", "1"), 5)),
    ],
    "propagate": [
        lambda out: _edit_json(out / "propagation_summary.json",
                               _scale("cell_arrival_probability", 1.01)),
        lambda out: _edit_csv(out / "propagation.csv", 0, 0, "0.5"),
        lambda out: _edit_csv(out / "propagation.csv", 1, 3, "7.0"),
    ],
    "crosscheck": [
        lambda out: _edit_json(out / "crosscheck.json",
                               lambda d: d["solver_energies"][0].__setitem__(0, 1e-3 + d[
                                   "solver_energies"][0][0])),
        lambda out: _edit_json(out / "crosscheck.json", _set(("commutator_norm",), 1.0)),
    ],
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_passes_real_output(run, name):
    config, jobs, outs = run
    assert checks.check(jobs[name], config, outs[name]) == []


@pytest.mark.parametrize("name,index", [(n, i) for n in sorted(CORRUPTIONS)
                                        for i in range(len(CORRUPTIONS[n]))])
def test_check_rejects_corrupted_output(run, tmp_path, name, index):
    config, jobs, outs = run
    out = _copy(tmp_path, outs[name])
    CORRUPTIONS[name][index](out)
    assert checks.check(jobs[name], config, out) != []


def test_undefined_winding_is_valid_output(run, tmp_path):
    config, jobs, outs = run
    out = _copy(tmp_path, outs["winding"])
    _edit_csv(out / "winding.csv", 2, 2, "")
    _edit_json(out / "winding_summary.json", _set(("windings", "2"), None))
    assert checks.check(jobs["winding"], config, out) == []


def test_missing_output_is_a_problem(run, tmp_path):
    config, jobs, _ = run
    assert checks.check(jobs["solve"], config, tmp_path) != []


def test_digest_sees_one_changed_byte(run, tmp_path):
    _, _, outs = run
    out = _copy(tmp_path, outs["solve"])
    before = checks.digest(out)
    assert before == checks.digest(outs["solve"])
    data = bytearray((out / "bands.csv").read_bytes())
    data[-2] ^= 1
    (out / "bands.csv").write_bytes(bytes(data))
    assert checks.digest(out) != before
