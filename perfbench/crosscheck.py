"""Benchmark-owned driver: the two spectrum routes on one run file.

    python -m perfbench.crosscheck --config run.json --out DIR

Builds the dense Hamiltonian and the one-cell translation, checks that they
commute, classifies the full-ring eigenvectors by translation, solves the
same bands sector by sector, and writes both energy tables to
``DIR/crosscheck.json``.  No CLI command reaches ``classify_by_translation``
or ``commutator_norm``; this driver is how the benchmark times them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from blochlab.config import load_config
from blochlab.lattice import build_hamiltonian, build_translation, commutator_norm
from blochlab.spectrum import classify_by_translation, solve_bands


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="crosscheck")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    config = load_config(args.config)
    grid, potential = config.grid(), config.potential()
    hamiltonian = build_hamiltonian(grid, potential, mass=config.mass, hbar=config.hbar)
    translation = build_translation(grid)
    commutator = commutator_norm(hamiltonian, translation)
    classified = classify_by_translation(hamiltonian, translation, config.bands)
    solved = solve_bands(grid, potential, config.bands, mass=config.mass, hbar=config.hbar)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "classifier_energies": classified.energies().tolist(),
        "solver_energies": solved.energies().tolist(),
        "commutator_norm": commutator,
        "hamiltonian_scale": float(np.max(np.abs(hamiltonian.entries))),
        "total_points": grid.total_points,
    }
    (out / "crosscheck.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
