"""Seeded workloads: the run files each workload writes and the jobs it runs.

Every number in a run file comes from ``random.Random`` seeded with the
workload name and the benchmark seed, so one seed always gives the same
files.  The seed never changes a grid shape, a band count, an observable
kind or a job list: those set the cost of a job, and keeping them fixed
keeps a workload's cost the same from seed to seed.  The seed moves what
the numerics see: potentials, masses, observable terms and schemes, Wannier
band and site, propagation cells and time steps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CLI_COMMANDS = ("solve", "wannier", "scan", "winding", "propagate")
COMMANDS = CLI_COMMANDS + ("crosscheck",)
SCHEMES = ("spectral", "fd2", "fd4", "fd6", "fd8")

# Observables every run file defines, and whether each commutes with the
# one-cell shift (the scan check needs to know which selection rule holds).
OBSERVABLE_PERIODIC = {"site": False, "wave": False, "cell": True, "h": True}

# The reference grid of the README and the test suite: N = 8 cells of
# P = 32 samples.  Warm-up and probe jobs run on it.
REFERENCE_SHAPE = (8, 32)


@dataclass(frozen=True)
class Job:
    """One invocation: a CLI subcommand, or the benchmark's crosscheck driver.

    Two jobs with the same key read the same run file with the same
    arguments, so their outputs must be byte-identical.
    """

    command: str
    config: str
    args: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join((self.command, self.config) + self.args)

    @property
    def periodic(self) -> bool | None:
        """For a scan, whether the scanned observable is cell periodic."""
        if self.command != "scan":
            return None
        return OBSERVABLE_PERIODIC[self.args[self.args.index("--observable") + 1]]


@dataclass
class Workload:
    configs: dict[str, dict]
    warmups: list[Job]   # run during set-up, one per distinct command
    jobs: list[Job]      # the fixed job list one measured pass runs
    probes: list[Job]    # traced run only: reach layers the jobs never call


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _potential(rng: random.Random, low: float = 1e-6, high: float = 3.0) -> dict:
    harmonics = []
    for index in sorted(rng.sample((1, 2, 3), rng.randint(1, 2))):
        amplitude = _log_uniform(rng, low, high)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        harmonics.append([index, amplitude * math.cos(phase), amplitude * math.sin(phase)])
    return {"constant": rng.uniform(-1.0, 1.0), "harmonics": harmonics}


def _series(rng: random.Random, n_cells: int, periodic: bool, powers: tuple[int, int]) -> dict:
    # The momentum powers are fixed per workload so that the cost does not
    # depend on the seed; the harmonics and amplitudes vary.
    terms = []
    for power in powers:
        if periodic:
            m = n_cells * rng.randint(0, 2)
        else:
            m = rng.choice([m for m in range(1, 3 * n_cells) if m % n_cells])
        terms.append([m, power, rng.uniform(0.1, 1.0), rng.uniform(-0.5, 0.5)])
    return {"kind": "series", "terms": terms, "symmetrize": True, "scheme": rng.choice(SCHEMES)}


def run_file(rng: random.Random, n_cells: int, points_per_cell: int, bands: int,
             perturbation: str = "site", potential: dict | None = None,
             powers: tuple[int, int] = (1, 2)) -> dict:
    """One blochlab run file with every observable kind and a dynamics section.

    ``powers`` are the momentum powers of the two terms of each series.
    """
    source = rng.randrange(n_cells)
    eps0 = 10.0 ** rng.uniform(-4.0, -3.0)
    return {
        "lattice": {
            "n_cells": n_cells,
            "cell_length": 1.0,
            "points_per_cell": points_per_cell,
            "mass": rng.uniform(0.8, 1.25),
            "hbar": 1.0,
        },
        "potential": potential if potential is not None else _potential(rng),
        "bands": bands,
        "observables": [
            {"name": "site", "kind": "wannier_projector",
             "band": rng.randrange(bands), "site": rng.randrange(n_cells)},
            {"name": "wave", **_series(rng, n_cells, False, powers)},
            {"name": "cell", **_series(rng, n_cells, True, powers)},
            {"name": "h", "kind": "hamiltonian"},
        ],
        "dynamics": {
            "epsilons": [eps0 * k for k in (1, 2, 3, 4)],
            "source_cell": source,
            "target_cell": (source + rng.randint(1, n_cells - 1)) % n_cells,
            "kinetic_scheme": rng.choice(SCHEMES),
            "perturbation": perturbation,
        },
        "output_dir": "out",
    }


def cli_jobs(rng: random.Random, config_name: str, config: dict, observable: str) -> list[Job]:
    """One job of each CLI command on one run file, scanning ``observable``."""
    bands, n_cells = config["bands"], config["lattice"]["n_cells"]
    return [
        Job("solve", config_name),
        Job("wannier", config_name,
            ("--band", str(rng.randrange(bands)), "--site", str(rng.randrange(n_cells)))),
        Job("scan", config_name, ("--observable", observable)),
        Job("winding", config_name, ("--band", str(rng.randrange(bands)))),
        Job("propagate", config_name),
    ]


# cli_small: three reference-size run files covering N in {6, 8, 10} and
# P in {16, 32}; between them they scan a series that breaks the cell period,
# one that keeps it, and the Hamiltonian, and they propagate under a
# projector and under a series.
CLI_SMALL = (((6, 32, 2), "wave", "site"), ((8, 16, 3), "cell", "wave"),
             ((10, 32, 4), "h", "site"))


def _cli_small(rng: random.Random, configs: dict) -> tuple[list[Job], list[Job]]:
    jobs = []
    for i, ((n_cells, points, bands), observable, perturbation) in enumerate(CLI_SMALL):
        name = f"small_{i}.json"
        configs[name] = run_file(rng, n_cells, points, bands, perturbation=perturbation)
        jobs += cli_jobs(rng, name, configs[name], observable)
    return jobs[:len(CLI_COMMANDS)], jobs


# scan_large: G = 2048 in three shapes, one observable kind per job.  The
# N = 128 shape solves 128 sectors; two bands keep its (2N)^2-row scan table
# at a few megabytes.
SCAN_LARGE = ((32, 64, 4, "site"), (128, 16, 2, "wave"), (8, 256, 4, "cell"), (32, 64, 4, "h"))


def _scan_large(rng: random.Random, configs: dict) -> tuple[list[Job], list[Job]]:
    jobs = []
    for i, (n_cells, points, bands, observable) in enumerate(SCAN_LARGE):
        name = f"scan_{i}.json"
        configs[name] = run_file(rng, n_cells, points, bands)
        jobs.append(Job("scan", name, ("--observable", observable)))
    return [Job("scan", "ref.json", ("--observable", "site"))], jobs


def _propagate_large(rng: random.Random, configs: dict) -> tuple[list[Job], list[Job]]:
    # How long the dense eigh takes depends on the shape of the spectrum, so
    # the kinetic scheme is fixed and the series perturbation multiplies by
    # ring harmonics only (momentum power 0).  With momentum powers in the
    # series, the eigh time swung by up to 40 % with the harmonics drawn.
    jobs = []
    for perturbation in ("site", "wave"):
        name = f"propagate_{perturbation}.json"
        configs[name] = run_file(rng, 32, 64, 4, perturbation=perturbation, powers=(0, 0))
        configs[name]["dynamics"]["kinetic_scheme"] = "fd4"
        jobs.append(Job("propagate", name))
    return [Job("propagate", "ref.json")], jobs


def _crosscheck(rng: random.Random, configs: dict) -> tuple[list[Job], list[Job]]:
    # One strong potential and one weak one, whose near-degenerate levels
    # send the classifier through its Schur path cluster by cluster.
    jobs = []
    for name, low, high in (("cross_strong.json", 0.5, 3.0), ("cross_weak.json", 1e-6, 1e-3)):
        configs[name] = run_file(rng, 16, 64, 4, potential=_potential(rng, low, high))
        jobs.append(Job("crosscheck", name))
    return [Job("crosscheck", "ref.json")], jobs


BUILDERS = {
    "cli_small": _cli_small,
    "scan_large": _scan_large,
    "propagate_large": _propagate_large,
    "crosscheck": _crosscheck,
}


def build(name: str, seed: int) -> Workload:
    """The run files, warm-ups, jobs and probes of workload ``name``."""
    rng = random.Random(f"{name}:{seed}")
    configs = {"ref.json": run_file(rng, *REFERENCE_SHAPE, bands=4)}
    warmups, jobs = BUILDERS[name](rng, configs)
    covered = {job.command for job in jobs}
    reference = cli_jobs(rng, "ref.json", configs["ref.json"], "wave")
    probes = [job for job in reference + [Job("crosscheck", "ref.json")]
              if job.command not in covered]
    return Workload(configs, warmups, jobs, probes)
