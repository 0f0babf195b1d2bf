"""Command-line interface.

Five subcommands, all driven by a JSON run file (see :mod:`blochlab.config`):

    blochlab solve     --config run.json [--out DIR]
    blochlab wannier   --config run.json --band N --site M [--out DIR]
    blochlab scan      --config run.json --observable NAME [--out DIR]
    blochlab winding   --config run.json [--band N] [--out DIR]
    blochlab propagate --config run.json [--observable NAME] [--out DIR]

Each command writes CSV data files plus a summary JSON that embeds the fully
resolved configuration, so a result directory is self-describing.  Outputs
are byte-for-byte deterministic for a given config at a fixed BLAS thread
count: no timestamps, floats written with repr.  Across thread counts they
match only where a test guards it (every command at P <= 64).  Exit codes:
0 success, 2 configuration problems, 3 numerical failures.
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
from .lattice import OperatorMatrix, _add_hamiltonian, build_hamiltonian, build_translation
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


def write_csv(path: Path, columns: dict) -> None:
    """One row per index of the equal-length named columns.  Numpy columns go
    through ``tolist()``, so every cell is ``str`` of a Python scalar (a float's repr)."""
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _solve(config: RunConfig) -> BandStructure:
    return solve_bands(
        config.grid(), config.potential(), config.bands, mass=config.mass, hbar=config.hbar
    )


def _resolve_operator(config: RunConfig, obs: ObservableConfig,
                      bands: BandStructure | None = None) -> OperatorMatrix:
    """The observable's matrix; only a projector needs bands, solved if not given."""
    grid = config.grid()
    if obs.kind == "hamiltonian":
        return build_hamiltonian(grid, config.potential(), mass=config.mass, hbar=config.hbar)
    if obs.kind == "translation":
        return build_translation(grid)
    if obs.kind == "wannier_projector":
        bands = bands if bands is not None else _solve(config)
        return wannier_projector(build_wannier(bands, obs.band, obs.site))
    series = LocalObservableSeries(obs.terms, symmetrize=obs.symmetrize)
    return materialize(series, grid, scheme=obs.scheme)


def _require_band(config: RunConfig, band: int) -> None:
    if not 0 <= band < config.bands:
        raise ConfigError(f"config key 'bands': band {band} not solved (bands={config.bands})")


def cmd_solve(config: RunConfig, out: Path) -> int:
    bands = _solve(config)
    sectors = np.tile(np.arange(bands.n_cells), bands.band_count)
    write_csv(out / "bands.csv", {
        "band": np.repeat(np.arange(bands.band_count), bands.n_cells),
        "sector": sectors,
        "wavevector": bands.grid.wavevector(sectors),
        "energy": bands.energies().ravel(),
    })
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
    _require_band(config, band)
    if not 0 <= site < config.n_cells:
        raise ConfigError(
            f"config key 'lattice.n_cells': site {site} outside [0, {config.n_cells})"
        )
    bands = _solve(config)
    wannier = build_wannier(bands, band, site)
    samples = wannier.samples
    write_csv(out / "wannier.csv", {
        "index": np.arange(samples.size),
        "x": bands.grid.points,
        "re": samples.real,
        "im": samples.imag,
        "density": (abs(z) ** 2 for z in samples.tolist()),
    })
    write_json(
        out / "wannier_summary.json",
        {
            "config": config.resolved(),
            "band": band,
            "site": site,
            "norm": wannier.norm(),
            "cell_probability": [float(p) for p in cell_probability(wannier)],
        },
    )
    return EXIT_OK


def cmd_scan(config: RunConfig, out: Path, observable: str) -> int:
    obs = config.observable(observable)
    bands = _solve(config)
    op = _resolve_operator(config, obs, bands)
    scan = selection_scan(op, bands)
    # Build every output before the first write, so a failure leaves no file.
    report = locality_report(op)
    del op  # the G x G operator goes before the output text is built
    summary = {
        "config": config.resolved(),
        "observable": obs.name,
        "periodicity_defect": scan.periodicity_defect,
        "off_sector_max": scan.off_sector_max(),
        "hermitian_symmetry_defect": scan.hermitian_symmetry_defect(),
        "sector_difference_profile": [float(v) for v in scan.sector_difference_profile()],
        "locality_width_99": report.locality_width(0.99),
        "bandwidth_mass_one_cell": report.bandwidth_mass(config.cell_length),
    }
    labels = np.indices(scan.table.shape).reshape(4, -1)
    elements = scan.table.ravel()
    write_csv(out / "scan.csv", {
        **dict(zip(("band_bra", "sector_bra", "band_ket", "sector_ket"), labels)),
        "re": elements.real,
        "im": elements.imag,
        # Scalar abs: numpy's vectorized abs can differ in the last bit.
        "modulus": map(abs, elements.tolist()),
    })
    distances = np.arange(report.cumulative.size) * bands.grid.spacing
    write_csv(out / "locality.csv", {"distance": distances, "cumulative_mass": report.cumulative})
    write_json(out / "scan_summary.json", summary)
    return EXIT_OK


def cmd_winding(config: RunConfig, out: Path, band: int) -> int:
    _require_band(config, band)
    bands = _solve(config)
    results = [winding_number(bands.state(band, l).wavefunction) for l in range(bands.n_cells)]
    write_csv(out / "winding.csv", {
        "band": [band] * len(results),
        "sector": range(len(results)),
        "winding": ["" if r.value is None else r.value for r in results],
        "min_modulus": [r.min_modulus for r in results],
        "max_step": [r.max_step for r in results],
        "residual": [r.residual for r in results],
    })
    write_json(
        out / "winding_summary.json",
        {"config": config.resolved(), "band": band,
         "windings": {str(l): r.value for l, r in enumerate(results)}},
    )
    return EXIT_OK


def cmd_propagate(config: RunConfig, out: Path, observable: str | None) -> int:
    if config.dynamics is None:
        raise ConfigError("config key 'dynamics': missing (required by the propagate command)")
    dyn = config.dynamics
    grid = config.grid()
    perturb_name = observable if observable is not None else dyn.perturbation
    if perturb_name is None:
        hamiltonian = build_hamiltonian(grid, config.potential(), mass=config.mass,
                                        hbar=config.hbar, scheme=dyn.kinetic_scheme)
    else:
        # R is fresh and held nowhere else: H is added into it a slab of rows at a
        # time, so H_m has the bits of H + R and is the one G x G array ever held.
        hamiltonian = _resolve_operator(config, config.observable(perturb_name))
        _add_hamiltonian(hamiltonian.entries, grid, config.potential(), config.mass,
                         config.hbar, dyn.kinetic_scheme)
    experiment = PropagationExperiment(
        hamiltonian=hamiltonian,
        source=grid.index_of_cell(dyn.source_cell),
        target=grid.index_of_cell(dyn.target_cell),
        hbar=config.hbar,
    )
    amplitudes = np.array([exact_amplitude(experiment, eps) for eps in dyn.epsilons])
    # The summary's fits can fail, so they run before the first write.
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
    write_csv(out / "propagation.csv", {
        "epsilon": dyn.epsilons, "re": amplitudes.real, "im": amplitudes.imag,
        "modulus": map(abs, amplitudes.tolist()),
    })
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
