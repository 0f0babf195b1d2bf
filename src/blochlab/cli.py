"""Command-line interface.

Five subcommands, all driven by a JSON run file (see :mod:`blochlab.config`):

    blochlab solve     --config run.json [--out DIR]
    blochlab wannier   --config run.json --band N --site M [--out DIR]
    blochlab scan      --config run.json --observable NAME [--out DIR]
    blochlab winding   --config run.json [--band N] [--out DIR]
    blochlab propagate --config run.json [--observable NAME] [--out DIR]

Each ``cmd_*`` computes every value and returns its files; ``main`` alone writes
them: CSV data files plus a summary JSON that embeds the fully resolved
configuration, so a result directory is self-describing.  Outputs are
byte-for-byte deterministic for a given config at a fixed BLAS thread count: no
timestamps, floats written with repr.  Across thread counts they match only
where a test guards it (every command at P <= 64).  Exit codes: 0 success,
2 configuration problems (an output path that cannot be written included),
3 numerical failures (a failed allocation or a float overflow included); on 2
or 3 no file is written.
"""

from __future__ import annotations

import argparse
import itertools
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
from .grid import WaveFunction
from .lattice import (OperatorMatrix, _add_hamiltonian, _hamiltonian_rows, _matrix_rows,
                      build_hamiltonian, build_translation)
from .observables import LocalObservableSeries, _projector_locality, _series_rows, materialize
from .spectrum import BandStructure, solve_bands
from .superselection import _projector_scan, _streamed_scan, winding_number
from .wannier import build_wannier, cell_probability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# write_csv formats and writes this many rows at a time.
_CSV_ROWS = 4096


def _atomic_write(path: Path, parts) -> None:
    """Write the strings ``parts`` in turn to a temporary file beside ``path``, then
    replace ``path`` with it; on any failure the temporary file goes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp creates 0600; give the file the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, columns: dict) -> None:
    """One row per index of the equal-length named columns, formatted and written
    _CSV_ROWS rows at a time.  Numpy columns go through ``tolist()`` a chunk at a time,
    so every cell is ``str`` of a Python scalar (a float's repr)."""
    def cells(c):
        if not isinstance(c, np.ndarray):
            return map(str, c)
        return (str(v) for i in range(0, len(c), _CSV_ROWS) for v in c[i:i + _CSV_ROWS].tolist())

    lines = map(",".join, zip(*map(cells, columns.values()), strict=True))
    chunks = iter(lambda: list(itertools.islice(lines, _CSV_ROWS)), [])
    _atomic_write(path, itertools.chain([",".join(columns) + "\n"],
                                        ("\n".join(chunk) + "\n" for chunk in chunks)))


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _solve(config: RunConfig) -> BandStructure:
    return solve_bands(
        config.grid(), config.potential(), config.bands, mass=config.mass, hbar=config.hbar
    )


def _resolve_operator(config: RunConfig, obs: ObservableConfig) -> OperatorMatrix:
    """The matrix of an observable that is not a projector, for propagate: a projector
    stays rank one, and a scan streams the rows of :func:`_row_source`."""
    grid = config.grid()
    if obs.kind == "hamiltonian":
        return build_hamiltonian(grid, config.potential(), mass=config.mass, hbar=config.hbar)
    if obs.kind == "translation":
        return build_translation(grid)
    series = LocalObservableSeries(obs.terms, symmetrize=obs.symmetrize)
    return materialize(series, grid, scheme=obs.scheme)


def _row_source(config: RunConfig, obs: ObservableConfig) -> tuple:
    """(dtype, rows, hermitian) of the observable ``_resolve_operator`` builds: its row source
    for ``_streamed_scan``, and whether it is Hermitian bit for bit by construction."""
    grid = config.grid()
    if obs.kind == "hamiltonian":
        return float, _hamiltonian_rows(grid, config.potential(), config.mass, config.hbar,
                                        "spectral"), True
    if obs.kind == "translation":  # the shift's read-only view, read by slicing
        return float, _matrix_rows(build_translation(grid).entries), False
    series = LocalObservableSeries(obs.terms, symmetrize=obs.symmetrize)
    return (*_series_rows(series, grid, obs.scheme), series.symmetrize)


def _require_band(config: RunConfig, band: int) -> None:
    if not 0 <= band < config.bands:
        raise ConfigError(f"config key 'bands': band {band} not solved (bands={config.bands})")


def cmd_solve(config: RunConfig, args: argparse.Namespace) -> dict:
    bands = _solve(config)
    sectors = np.tile(np.arange(bands.n_cells), bands.band_count)
    return {
        "bands.csv": {
            "band": np.repeat(np.arange(bands.band_count), bands.n_cells),
            "sector": sectors,
            "wavevector": bands.grid.wavevector(sectors),
            "energy": bands.energies().ravel(),
        },
        "solve_summary.json": {
            "band_count": bands.band_count,
            "residuals": {
                "orthonormality": bands.orthonormality_defect(),
                "translation_eigenvalue": bands.translation_defect(),
                "cell_periodicity": bands.cell_periodicity_defect(),
            },
        },
    }


def cmd_wannier(config: RunConfig, args: argparse.Namespace) -> dict:
    band, site = args.band, args.site
    _require_band(config, band)
    if not 0 <= site < config.n_cells:
        raise ConfigError(
            f"config key 'lattice.n_cells': site {site} outside [0, {config.n_cells})"
        )
    bands = _solve(config)
    wannier = build_wannier(bands, band, site)
    samples = wannier.samples
    density = [abs(z) ** 2 for z in samples.tolist()]
    if any(0.0 < d < sys.float_info.min for d in density):
        raise ValueError("Wannier density |W|^2 underflows to a subnormal float at some "
                         "sample, where it keeps too few digits to write")
    return {
        "wannier.csv": {
            "index": np.arange(samples.size),
            "x": bands.grid.points,
            "re": samples.real,
            "im": samples.imag,
            "density": density,
        },
        "wannier_summary.json": {
            "band": band,
            "site": site,
            "norm": wannier.norm(),
            "cell_probability": [float(p) for p in cell_probability(wannier)],
        },
    }


def cmd_scan(config: RunConfig, args: argparse.Namespace) -> dict:
    obs = config.observable(args.observable)
    bands = _solve(config)
    site = build_wannier(bands, obs.band, obs.site) if obs.kind == "wannier_projector" else None
    psis, band_count = bands.state_matrix(), bands.band_count
    del bands  # psis is the states' one copy, and the scans only read it
    if site is not None:  # h |W><W| stays rank one: the scan and report read W and psis
        scan, report = _projector_scan(site, psis, band_count), _projector_locality(site)
    else:  # any other A streams past psis, a slab of rows at a time, and is never whole
        scan, report = _streamed_scan(config.grid(), *_row_source(config, obs), psis,
                                      band_count)
    labels = np.indices(scan.table.shape).reshape(4, -1)
    elements = scan.table.ravel()
    return {
        "scan.csv": {
            **dict(zip(("band_bra", "sector_bra", "band_ket", "sector_ket"), labels)),
            "re": elements.real,
            "im": elements.imag,
            # Scalar abs: numpy's vectorized abs can differ in the last bit.
            "modulus": map(abs, elements.tolist()),
        },
        "locality.csv": {
            "distance": np.arange(report.cumulative.size) * config.grid().spacing,
            "cumulative_mass": report.cumulative,
        },
        "scan_summary.json": {
            "observable": obs.name,
            "periodicity_defect": scan.periodicity_defect,
            "off_sector_max": scan.off_sector_max(),
            "hermitian_symmetry_defect": scan.hermitian_symmetry_defect(),
            "sector_difference_profile": [float(v) for v in scan.sector_difference_profile()],
            "locality_width_99": report.locality_width(0.99),
            "bandwidth_mass_one_cell": report.bandwidth_mass(config.cell_length),
        },
    }


def cmd_winding(config: RunConfig, args: argparse.Namespace) -> dict:
    band = args.band
    _require_band(config, band)
    bands = _solve(config)
    results = [winding_number(WaveFunction(bands.grid, psi)) for psi in bands.waves[band]]
    return {
        "winding.csv": {
            "band": [band] * len(results),
            "sector": range(len(results)),
            "winding": ["" if r.value is None else r.value for r in results],
            "min_modulus": [r.min_modulus for r in results],
            "max_step": [r.max_step for r in results],
            "residual": [r.residual for r in results],
        },
        "winding_summary.json": {"band": band,
                                 "windings": {str(l): r.value for l, r in enumerate(results)}},
    }


def cmd_propagate(config: RunConfig, args: argparse.Namespace) -> dict:
    if config.dynamics is None:
        raise ConfigError("config key 'dynamics': missing (required by the propagate command)")
    dyn = config.dynamics
    grid = config.grid()
    perturb_name = args.observable if args.observable is not None else dyn.perturbation
    obs = config.observable(perturb_name) if perturb_name is not None else None
    # A projector stays rank one: the experiment takes its site state W and H goes into real
    # zeros.  H is added into any other R (held nowhere else, and fresh but for the one-cell
    # shift's read-only view, copied here) a slab at a time: the one G x G array is H + R.
    projector = obs is not None and obs.kind == "wannier_projector"
    site = build_wannier(_solve(config), obs.band, obs.site) if projector else None
    if obs is None or projector:
        hamiltonian = OperatorMatrix(grid, np.zeros((grid.total_points,) * 2))
    else:
        hamiltonian = _resolve_operator(config, obs)
        hamiltonian.entries = np.require(hamiltonian.entries, requirements="W")
    _add_hamiltonian(hamiltonian.entries, grid, config.potential(), config.mass,
                     config.hbar, dyn.kinetic_scheme)
    experiment = PropagationExperiment(
        hamiltonian=hamiltonian,
        source=grid.index_of_cell(dyn.source_cell),
        target=grid.index_of_cell(dyn.target_cell),
        hbar=config.hbar,
        site=site,
    )
    amplitudes = np.array([exact_amplitude(experiment, eps) for eps in dyn.epsilons])
    summary = {
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
    return {
        "propagation.csv": {
            "epsilon": dyn.epsilons, "re": amplitudes.real, "im": amplitudes.imag,
            "modulus": map(abs, amplitudes.tolist()),
        },
        "propagation_summary.json": summary,
    }


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
    # Looked up at call time, so a wrapper installed on the module is the one called.
    commands = {"solve": cmd_solve, "wannier": cmd_wannier, "scan": cmd_scan,
                "winding": cmd_winding, "propagate": cmd_propagate}
    try:
        config = load_config(args.config)
        out = Path(args.out) if args.out is not None else Path(config.output_dir)
        # Overflow, 0 * inf or 1 / 0 fails the command, in numpy (FloatingPointError) or
        # in Python floats (ZeroDivisionError, OverflowError); a library guard's errstate wins.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            files = commands[args.command](config, args)
        for name, content in files.items():
            if name.endswith(".csv"):
                write_csv(out / name, content)
            else:
                write_json(out / name, {"config": config.resolved(), **content})
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError,
            MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # load_config raises its own as ConfigError: this is a write
        print(f"configuration error: output path {str(out)!r} cannot be written: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
