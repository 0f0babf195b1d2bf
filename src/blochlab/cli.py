"""Command-line interface.

Five subcommands, all driven by a JSON run file (see :mod:`blochlab.config`):

    blochlab solve     --config run.json [--out DIR]
    blochlab wannier   --config run.json --band N --site M [--out DIR]
    blochlab scan      --config run.json --observable NAME [--out DIR]
    blochlab winding   --config run.json [--band N] [--out DIR]
    blochlab propagate --config run.json [--observable NAME] [--out DIR]

Each command writes CSV data files plus a summary JSON that embeds the fully
resolved configuration, so a result directory is self-describing.  Outputs
are byte-for-byte deterministic for a given config: no timestamps, floats
written with repr.  Exit codes: 0 success, 2 configuration problems,
3 numerical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, ObservableConfig, RunConfig, load_config
from .dynamics import (
    PropagationExperiment,
    cell_transport_profile,
    exact_amplitude,
    first_order_error_exponent,
    linear_response_slope,
)
from .lattice import OperatorMatrix, build_hamiltonian, build_translation
from .observables import LocalObservableSeries, locality_report, materialize
from .spectrum import BandStructure, solve_bands
from .superselection import selection_scan, winding_number
from .wannier import build_wannier, cell_probability, wannier_projector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp creates 0600; give the file the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _solve(config: RunConfig) -> BandStructure:
    return solve_bands(
        config.grid(), config.potential(), config.bands, mass=config.mass, hbar=config.hbar
    )


def _resolve_operator(config: RunConfig, obs: ObservableConfig,
                      bands: BandStructure) -> OperatorMatrix:
    grid = config.grid()
    if obs.kind == "hamiltonian":
        return build_hamiltonian(grid, config.potential(), mass=config.mass, hbar=config.hbar)
    if obs.kind == "translation":
        return build_translation(grid)
    if obs.kind == "wannier_projector":
        return wannier_projector(build_wannier(bands, obs.band, obs.site))
    series = LocalObservableSeries(obs.terms, symmetrize=obs.symmetrize)
    return materialize(series, grid, scheme=obs.scheme)


def cmd_solve(config: RunConfig, out: Path) -> int:
    bands = _solve(config)
    rows = []
    for state in bands.all_states():
        rows.append([state.band, state.sector, state.wavevector, state.energy])
    write_csv(out / "bands.csv", ["band", "sector", "wavevector", "energy"], rows)
    write_json(
        out / "solve_summary.json",
        {
            "config": config.resolved(),
            "band_count": bands.band_count,
            "residuals": {
                "orthonormality": bands.orthonormality_defect(),
                "translation_eigenvalue": bands.translation_defect(),
                "cell_periodicity": bands.cell_periodicity_defect(),
            },
        },
    )
    return EXIT_OK


def cmd_wannier(config: RunConfig, out: Path, band: int, site: int) -> int:
    bands = _solve(config)
    wannier = build_wannier(bands, band, site)
    grid = bands.grid
    samples = wannier.wavefunction.samples
    rows = [
        [i, grid.points[i], samples[i].real, samples[i].imag, abs(samples[i]) ** 2]
        for i in range(grid.total_points)
    ]
    write_csv(out / "wannier.csv", ["index", "x", "re", "im", "density"], rows)
    write_json(
        out / "wannier_summary.json",
        {
            "config": config.resolved(),
            "band": band,
            "site": site,
            "norm": wannier.wavefunction.norm(),
            "cell_probability": [float(p) for p in cell_probability(wannier)],
        },
    )
    return EXIT_OK


def cmd_scan(config: RunConfig, out: Path, observable: str) -> int:
    obs = config.observable(observable)
    bands = _solve(config)
    op = _resolve_operator(config, obs, bands)
    scan = selection_scan(op, bands, label=obs.name)
    rows = []
    b, n = scan.band_count, scan.n_cells
    for n_bra in range(b):
        for l_bra in range(n):
            for n_ket in range(b):
                for l_ket in range(n):
                    el = scan.table[n_bra, l_bra, n_ket, l_ket]
                    rows.append([n_bra, l_bra, n_ket, l_ket, el.real, el.imag, abs(el)])
    write_csv(
        out / "scan.csv",
        ["band_bra", "sector_bra", "band_ket", "sector_ket", "re", "im", "modulus"],
        rows,
    )
    report = locality_report(op.symmetrized())
    distances = np.arange(bands.grid.total_points // 2 + 1) * bands.grid.spacing
    write_csv(
        out / "locality.csv",
        ["distance", "cumulative_mass"],
        [[distances[i], float(report.cumulative[i])] for i in range(distances.size)],
    )
    write_json(
        out / "scan_summary.json",
        {
            "config": config.resolved(),
            "observable": obs.name,
            "periodicity_defect": scan.periodicity_defect,
            "off_sector_max": scan.off_sector_max(),
            "hermitian_symmetry_defect": scan.hermitian_symmetry_defect(),
            "sector_difference_profile": [float(v) for v in scan.sector_difference_profile()],
            "locality_width_99": report.locality_width(0.99),
            "bandwidth_mass_one_cell": report.bandwidth_mass(config.cell_length),
        },
    )
    return EXIT_OK


def cmd_winding(config: RunConfig, out: Path, band: int) -> int:
    bands = _solve(config)
    if not 0 <= band < bands.band_count:
        raise ConfigError(f"config key 'bands': band {band} not solved (bands={bands.band_count})")
    rows = []
    values = {}
    for l in range(bands.n_cells):
        state = bands.state(band, l)
        result = winding_number(state.wavefunction)
        rows.append(
            [
                band,
                l,
                "" if result.value is None else result.value,
                result.min_modulus,
                result.max_step,
                result.residual,
            ]
        )
        values[str(l)] = result.value
    write_csv(
        out / "winding.csv",
        ["band", "sector", "winding", "min_modulus", "max_step", "residual"],
        rows,
    )
    write_json(
        out / "winding_summary.json",
        {"config": config.resolved(), "band": band, "windings": values},
    )
    return EXIT_OK


def cmd_propagate(config: RunConfig, out: Path, observable: str | None) -> int:
    if config.dynamics is None:
        raise ConfigError("config key 'dynamics': missing (required by the propagate command)")
    dyn = config.dynamics
    grid = config.grid()
    perturb_name = observable if observable is not None else dyn.perturbation
    hamiltonian = build_hamiltonian(
        grid, config.potential(), mass=config.mass, hbar=config.hbar,
        scheme=dyn.kinetic_scheme,
    )
    perturbation = None
    if perturb_name is not None:
        obs = config.observable(perturb_name)
        bands = _solve(config)
        perturbation = _resolve_operator(config, obs, bands)
    experiment = PropagationExperiment(
        hamiltonian=hamiltonian,
        source=grid.index_of_cell(dyn.source_cell),
        target=grid.index_of_cell(dyn.target_cell),
        perturbation=perturbation,
        hbar=config.hbar,
    )
    rows = []
    for eps in dyn.epsilons:
        amp = exact_amplitude(experiment, eps)
        rows.append([eps, amp.real, amp.imag, abs(amp)])
    write_csv(out / "propagation.csv", ["epsilon", "re", "im", "modulus"], rows)

    summary = {
        "config": config.resolved(),
        "perturbation": perturb_name,
        "source_index": experiment.source,
        "target_index": experiment.target,
        "ring_distance": experiment.ring_distance(),
        "kernel_entry_modulus": abs(experiment.kernel_entry()),
        "predicted_slope": abs(experiment.kernel_entry()) / (config.hbar * grid.spacing),
        "cell_arrival_probability": [
            float(p) for p in cell_transport_profile(experiment, dyn.epsilons[0])
        ],
    }
    if len(dyn.epsilons) >= 2:
        slope, curvature = linear_response_slope(experiment, np.array(dyn.epsilons))
        summary["fitted_slope"] = slope
        summary["fitted_curvature"] = curvature
        try:
            summary["first_order_error_exponent"] = first_order_error_exponent(
                experiment, np.array(dyn.epsilons)
            )
        except ValueError:
            summary["first_order_error_exponent"] = None
    write_json(out / "propagation_summary.json", summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="Band structure, lattice-site states, selection scans, "
        "windings, and short-time propagation on a periodic ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON run file")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir)")

    p_solve = sub.add_parser("solve", help="solve the band structure")
    common(p_solve)

    p_wannier = sub.add_parser("wannier", help="build one lattice-site state")
    common(p_wannier)
    p_wannier.add_argument("--band", type=int, default=0, help="band index (default 0)")
    p_wannier.add_argument("--site", type=int, default=0, help="site index (default 0)")

    p_scan = sub.add_parser("scan", help="matrix-element scan of one observable")
    common(p_scan)
    p_scan.add_argument("--observable", required=True, help="observable name from the config")

    p_winding = sub.add_parser("winding", help="winding numbers of one band")
    common(p_winding)
    p_winding.add_argument("--band", type=int, default=0, help="band index (default 0)")

    p_prop = sub.add_parser("propagate", help="short-time amplitude sweep")
    common(p_prop)
    p_prop.add_argument(
        "--observable", default=None,
        help="perturbation observable name (default: dynamics.perturbation)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        out = Path(args.out) if args.out is not None else Path(config.output_dir)
        if args.command == "solve":
            return cmd_solve(config, out)
        if args.command == "wannier":
            if not 0 <= args.band < config.bands:
                raise ConfigError(
                    f"config key 'bands': band {args.band} not solved (bands={config.bands})"
                )
            if not 0 <= args.site < config.n_cells:
                raise ConfigError(
                    f"config key 'lattice.n_cells': site {args.site} outside "
                    f"[0, {config.n_cells})"
                )
            return cmd_wannier(config, out, args.band, args.site)
        if args.command == "scan":
            return cmd_scan(config, out, args.observable)
        if args.command == "winding":
            return cmd_winding(config, out, args.band)
        return cmd_propagate(config, out, args.observable)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())
