"""Output checks that hold for every correct implementation and every input.

``check(job, config, out)`` reads what one job wrote to ``out`` and returns
a list of problems; an empty list means the output passed.  The checks read
the CSV tables as well as the summaries, so a summary cannot vouch for a
table it disagrees with.  An undefined winding (the zone-edge standing wave
of a real potential) is valid output: only defined windings are checked.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-9      # each residual in solve_summary.json
PROBABILITY_TOL = 1e-9   # norms and sums of probabilities
HERMITIAN_RTOL = 1e-9    # scan table against its conjugate transpose
PERIODIC_TOL = 1e-10     # periodicity defect of a cell-periodic observable
LEAK_RTOL = 1e-8         # off-sector modulus of a cell-periodic observable
ENERGY_RTOL = 1e-9       # classifier against solver energies
COMMUTATOR_RTOL = 1e-9   # Frobenius norm of [H, T] per entry of H


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _table(path: Path, columns: int) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"{path.name} has {rows.shape[1]} columns, expected {columns}")
    return rows


def _within(value, limit: float) -> bool:
    """True when ``value`` is a finite number of size at most ``limit``."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and abs(value) <= limit)


def check_solve(config: dict, out: Path) -> list[str]:
    problems = []
    summary = _json(out / "solve_summary.json")
    for name, value in summary["residuals"].items():
        if not _within(value, RESIDUAL_TOL):
            problems.append(f"solve residual {name} = {value!r} exceeds {RESIDUAL_TOL}")
    bands, n_cells = config["bands"], config["lattice"]["n_cells"]
    rows = _table(out / "bands.csv", 4)
    if rows.shape[0] != bands * n_cells:
        return problems + [f"bands.csv has {rows.shape[0]} rows, expected {bands * n_cells}"]
    pairs = sorted(zip(rows[:, 0].astype(int).tolist(), rows[:, 1].astype(int).tolist()))
    if pairs != [(n, l) for n in range(bands) for l in range(n_cells)]:
        return problems + ["bands.csv does not list every (band, sector) pair once"]
    energy = np.empty((bands, n_cells))
    energy[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 3]
    if not np.all(np.isfinite(energy)):
        problems.append("bands.csv holds a non-finite energy")
    elif np.any(np.diff(energy, axis=0) < -1e-12 * max(1.0, float(np.abs(energy).max()))):
        problems.append("bands.csv energies decrease with band index in some sector")
    return problems


def check_wannier(config: dict, out: Path, band: int, site: int) -> list[str]:
    problems = []
    summary = _json(out / "wannier_summary.json")
    lattice = config["lattice"]
    n_cells, points = lattice["n_cells"], lattice["points_per_cell"]
    spacing = lattice["cell_length"] / points
    if (summary["band"], summary["site"]) != (band, site):
        problems.append(f"wannier summary is for band/site {summary['band']}/{summary['site']}")
    if not _within(summary["norm"] - 1.0, PROBABILITY_TOL):
        problems.append(f"Wannier norm {summary['norm']!r} is not 1")
    probs = np.asarray(summary["cell_probability"], dtype=float)
    if probs.shape != (n_cells,) or np.any(probs < -PROBABILITY_TOL):
        problems.append("cell probabilities are not N non-negative numbers")
    elif not _within(float(probs.sum()) - 1.0, PROBABILITY_TOL):
        problems.append(f"cell probabilities sum to {float(probs.sum())!r}, not 1")
    rows = _table(out / "wannier.csv", 5)
    if rows.shape[0] != n_cells * points:
        return problems + [f"wannier.csv has {rows.shape[0]} rows, expected {n_cells * points}"]
    if not np.allclose(rows[:, 4], rows[:, 2] ** 2 + rows[:, 3] ** 2, rtol=1e-12, atol=0.0):
        problems.append("wannier.csv density is not |re + i im|^2")
    if not _within(spacing * float(rows[:, 4].sum()) - 1.0, PROBABILITY_TOL):
        problems.append("wannier.csv density does not integrate to 1")
    return problems


def check_scan(config: dict, out: Path, periodic: bool) -> list[str]:
    problems = []
    summary = _json(out / "scan_summary.json")
    lattice = config["lattice"]
    n_cells, size = lattice["n_cells"], config["bands"] * lattice["n_cells"]
    rows = _table(out / "scan.csv", 7)
    if rows.shape[0] != size * size:
        return problems + [f"scan.csv has {rows.shape[0]} rows, expected {size * size}"]
    index = rows[:, :4].astype(int)
    expected = np.indices((config["bands"], n_cells) * 2).reshape(4, -1).T
    if not np.array_equal(index, expected):
        return problems + ["scan.csv rows are not the (band, sector) pairs in order"]
    table = (rows[:, 4] + 1j * rows[:, 5]).reshape(size, size)
    scale = max(1.0, float(np.abs(table).max()))
    if float(np.abs(table - table.conj().T).max()) > HERMITIAN_RTOL * scale:
        problems.append("scan.csv table is not Hermitian")
    if not _within(summary["hermitian_symmetry_defect"], HERMITIAN_RTOL * scale):
        problems.append(f"hermitian_symmetry_defect {summary['hermitian_symmetry_defect']!r}")
    defect = summary["periodicity_defect"]
    if periodic:
        if not _within(defect, PERIODIC_TOL):
            problems.append(f"cell-periodic observable has periodicity defect {defect!r}")
        sectors = np.tile(np.arange(n_cells), config["bands"])
        off_sector = sectors[:, None] != sectors[None, :]
        leak = float(np.abs(table[off_sector]).max())
        if leak > LEAK_RTOL * scale or not _within(summary["off_sector_max"], LEAK_RTOL * scale):
            problems.append(f"cell-periodic observable leaks between sectors ({leak!r})")
    elif not (isinstance(defect, float) and defect > PERIODIC_TOL):
        problems.append(f"non-periodic observable reports periodicity defect {defect!r}")
    locality = _table(out / "locality.csv", 2)
    total = n_cells * lattice["points_per_cell"]
    if locality.shape[0] != total // 2 + 1:
        problems.append(f"locality.csv has {locality.shape[0]} rows, expected {total // 2 + 1}")
    elif (np.any(np.diff(locality[:, 1]) < -1e-12)
          or not _within(float(locality[-1, 1]) - 1.0, PROBABILITY_TOL)):
        problems.append("locality.csv cumulative mass is not non-decreasing up to 1")
    return problems


def check_winding(config: dict, out: Path, band: int) -> list[str]:
    problems = []
    n_cells = config["lattice"]["n_cells"]
    summary = _json(out / "winding_summary.json")
    with open(out / "winding.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if [int(r["sector"]) for r in rows] != list(range(n_cells)):
        return problems + ["winding.csv does not list sectors 0..N-1 in order"]
    for row in rows:
        sector = int(row["sector"])
        value = None if row["winding"] == "" else int(row["winding"])
        if int(row["band"]) != band:
            problems.append(f"winding.csv row for band {row['band']}, expected {band}")
        if value is not None and (value - sector) % n_cells:
            problems.append(f"sector {sector}: winding {value} is not congruent to l mod {n_cells}")
        if summary["windings"].get(str(sector), "missing") != value:
            problems.append(f"sector {sector}: summary and winding.csv disagree")
    return problems


def check_propagate(config: dict, out: Path) -> list[str]:
    problems = []
    summary = _json(out / "propagation_summary.json")
    probs = np.asarray(summary["cell_arrival_probability"], dtype=float)
    if probs.shape != (config["lattice"]["n_cells"],) or np.any(probs < -PROBABILITY_TOL):
        problems.append("arrival probabilities are not N non-negative numbers")
    elif not _within(float(probs.sum()) - 1.0, PROBABILITY_TOL):
        problems.append(f"arrival probabilities sum to {float(probs.sum())!r}, not 1")
    rows = _table(out / "propagation.csv", 4)
    epsilons = config["dynamics"]["epsilons"]
    if rows[:, 0].tolist() != epsilons:
        problems.append("propagation.csv does not list the configured epsilons")
    elif not np.allclose(rows[:, 3], np.hypot(rows[:, 1], rows[:, 2]), rtol=1e-12, atol=0.0):
        problems.append("propagation.csv modulus is not |re + i im|")
    return problems


def check_crosscheck(config: dict, out: Path) -> list[str]:
    problems = []
    result = _json(out / "crosscheck.json")
    shape = (config["bands"], config["lattice"]["n_cells"])
    classified = np.asarray(result["classifier_energies"], dtype=float)
    solved = np.asarray(result["solver_energies"], dtype=float)
    if classified.shape != shape or solved.shape != shape:
        return problems + [f"energy tables are {classified.shape} and {solved.shape}, not {shape}"]
    scale = max(1.0, float(np.abs(classified).max()), float(np.abs(solved).max()))
    gap = float(np.abs(classified - solved).max())
    if not _within(gap, ENERGY_RTOL * scale):
        problems.append(f"classifier and solver energies differ by {gap!r}")
    limit = COMMUTATOR_RTOL * max(1.0, result["hamiltonian_scale"]) * result["total_points"]
    if not _within(result["commutator_norm"], limit):
        problems.append(f"[H, T] has norm {result['commutator_norm']!r}")
    return problems


def check(job, config: dict, out: Path) -> list[str]:
    """Problems with the output of one :class:`~perfbench.workloads.Job`.

    Output that cannot be read counts as a problem too.
    """
    options = dict(zip(job.args[::2], job.args[1::2]))
    try:
        if job.command == "solve":
            return check_solve(config, out)
        if job.command == "wannier":
            return check_wannier(config, out, int(options["--band"]), int(options["--site"]))
        if job.command == "scan":
            return check_scan(config, out, job.periodic)
        if job.command == "winding":
            return check_winding(config, out, int(options["--band"]))
        if job.command == "propagate":
            return check_propagate(config, out)
        if job.command == "crosscheck":
            return check_crosscheck(config, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable {job.command} output: {type(exc).__name__}: {exc}"]
    return [f"no check for command {job.command!r}"]


def digest(out: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
