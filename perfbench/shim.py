"""Traced child process: run one job with blochlab's public functions wrapped.

    python -X importtime -m perfbench.shim --spans FILE blochlab ARGS...
    python -X importtime -m perfbench.shim --spans FILE crosscheck ARGS...

Imports blochlab first, so that its import shows in the ``-X importtime``
log as it does under the plain CLI.  Then it wraps every public function and
public method of the blochlab modules in place, and also wherever another
module (``cli``, say) imported the function by name, so a call is traced
whichever name it goes through.  After the job it switches tracing off,
computes health numbers from the band structures the job produced, and
writes spans, counters and health to FILE.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time

import blochlab
import blochlab.cli


def _public_callables(module):
    """(qualname, owner, attribute, function) for each public function and method."""
    import inspect

    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if (not attr.startswith("_") and inspect.isfunction(member)
                        and not inspect.isgeneratorfunction(member)):
                    yield f"{name}.{attr}", obj, attr, member


def install(recorder, namespaces, observers):
    """Wrap blochlab's public callables and numpy's ``eigh`` in place.

    ``namespaces`` are extra modules whose by-name imports of blochlab
    functions get the wrapper too; ``observers`` maps a span name to an
    ``observe`` callback for :meth:`Recorder.wrap`.
    """
    import importlib

    import numpy as np

    from perfbench.trace import LAYERS

    modules = [importlib.import_module(f"blochlab.{layer}") for layer in LAYERS]
    replaced = {}
    for layer, module in zip(LAYERS, modules):
        for qualname, owner, attr, fn in list(_public_callables(module)):
            name = f"{layer}.{qualname}"
            wrapper = recorder.wrap(name, fn, observers.get(name))
            setattr(owner, attr, wrapper)
            if owner is module:
                replaced[id(fn)] = wrapper
    for namespace in [blochlab, *modules, *namespaces]:
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in replaced:
                setattr(namespace, attr, replaced[id(obj)])

    eigh = np.linalg.eigh
    span_eigh = recorder.wrap("linalg.eigh", eigh)

    def counted_eigh(a, *args, **kwargs):
        if recorder.active:
            recorder.note_max("linalg.eigh_max_n", np.shape(a)[-1])
        return span_eigh(a, *args, **kwargs)

    np.linalg.eigh = counted_eigh


class Health:
    """Band structures a job returned, checked after the job from outside."""

    def __init__(self):
        self.solved = []        # ((grid, potential, mass, hbar), bands)
        self.classified = []    # (hamiltonian entries, bands)

    def observe_solve(self, args, kwargs, bands):
        import inspect

        from blochlab.spectrum import solve_bands

        bound = inspect.signature(solve_bands.__wrapped__).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        self.solved.append(((a["grid"], a["potential"], a["mass"], a["hbar"]), bands))

    def observe_classify(self, args, kwargs, bands):
        hamiltonian = kwargs.get("hamiltonian", args[0] if args else None)
        self.classified.append((hamiltonian.entries, bands))

    def numbers(self) -> dict[str, float]:
        import numpy as np

        from blochlab.lattice import build_hamiltonian

        def residual(h, bands):
            psi = bands.state_matrix()
            r = h @ psi - psi * bands.energies().ravel()[None, :]
            return float(np.sqrt(bands.grid.spacing * np.max(np.sum(np.abs(r) ** 2, axis=0))))

        out = {"eigen_residual_max": 0.0, "orthonormality_defect": 0.0,
               "route_energy_gap_max": 0.0}
        solved_energies = {}
        for (grid, potential, mass, hbar), bands in self.solved:
            h = build_hamiltonian(grid, potential, mass=mass, hbar=hbar).entries
            out["eigen_residual_max"] = max(out["eigen_residual_max"], residual(h, bands))
            out["orthonormality_defect"] = max(out["orthonormality_defect"],
                                               bands.orthonormality_defect())
            solved_energies[grid] = bands.energies()
        for h, bands in self.classified:
            out["eigen_residual_max"] = max(out["eigen_residual_max"], residual(h, bands))
            out["orthonormality_defect"] = max(out["orthonormality_defect"],
                                               bands.orthonormality_defect())
            if bands.grid in solved_energies:
                gap = float(np.max(np.abs(bands.energies() - solved_energies[bands.grid])))
                out["route_energy_gap_max"] = max(out["route_energy_gap_max"], gap)
        return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] not in ("blochlab", "crosscheck"):
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, target, rest = argv[1], argv[2], argv[3:]

    from perfbench import crosscheck
    from perfbench.trace import Recorder

    recorder = Recorder()
    health = Health()
    install(recorder, [crosscheck], {
        "spectrum.solve_bands": health.observe_solve,
        "spectrum.classify_by_translation": health.observe_classify,
    })
    try:
        if target == "blochlab":
            code = blochlab.cli.main(rest)
        else:
            code = crosscheck.main(rest)
    finally:
        recorder.active = False
        start = time.perf_counter()
        numbers = health.numbers()
        health_s = time.perf_counter() - start
        import json

        with open(spans_path, "w") as handle:
            json.dump({"spans": recorder.spans, "counters": recorder.counters,
                       "health": numbers, "health_s": health_s}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
