"""JSON run configuration: schema, validation, and object construction.

A run file is one JSON object.  Required structure, with defaults shown:

    {
      "lattice": {"n_cells": 8, "cell_length": 1.0, "points_per_cell": 32,
                  "mass": 1.0, "hbar": 1.0},
      "potential": {"constant": 0.0, "harmonics": [[1, 2.0, 0.0]]},
      "bands": 4,
      "observables": [
        {"name": "site0", "kind": "wannier_projector", "band": 0, "site": 0},
        {"name": "ring1", "kind": "series", "terms": [[1, 0, 1.0, 0.0]],
         "symmetrize": true, "scheme": "spectral"},
        {"name": "h", "kind": "hamiltonian"},
        {"name": "shift", "kind": "translation"}
      ],
      "dynamics": {"epsilons": [1e-4, ...], "source_cell": 2, "target_cell": 6,
                   "kinetic_scheme": "fd4", "perturbation": "site0"},
      "output_dir": "out"
    }

``lattice`` and ``potential`` are required; everything else has defaults
(``bands`` defaults to 1, no observables, no dynamics section).  Validation
failures, unknown keys included, raise :class:`ConfigError` whose message
names the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .derivatives import SCHEMES
from .grid import RingGrid
from .lattice import PotentialSpec


class ConfigError(ValueError):
    """A run file is missing a key or holds an out-of-range value."""


def _fail(key: str, problem: str):
    raise ConfigError(f"config key '{key}': {problem}")


def _get(mapping, key: str, path: str, required: bool = True, default=None):
    if not isinstance(mapping, dict):
        _fail(path.rsplit(".", 1)[0] if "." in path else path, "must be an object")
    if key not in mapping:
        if required:
            _fail(path, "missing")
        return default
    return mapping[key]


def _known_keys(mapping, allowed: tuple[str, ...], path: str) -> None:
    """Reject any key of ``mapping`` outside ``allowed``, at its key path."""
    if not isinstance(mapping, dict):
        _fail(path, "must be an object")
    for key in mapping:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, f"unknown key; expected one of {allowed}")


def _as_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {value}")
    return value


def _as_number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, f"must be positive, got {value}")
    return value


# A tuple, so that an unhashable JSON value fails the membership test cleanly.
_SCHEMES = tuple(SCHEMES)
# Keys each observable kind accepts, beyond "name" and "kind".
_OBSERVABLE_KEYS = {
    "series": ("terms", "symmetrize", "scheme"),
    "wannier_projector": ("band", "site"),
    "hamiltonian": (),
    "translation": (),
}
_OBSERVABLE_KINDS = tuple(_OBSERVABLE_KEYS)


@dataclass(frozen=True)
class ObservableConfig:
    name: str
    kind: str
    terms: tuple = ()
    symmetrize: bool = True
    scheme: str = "spectral"
    band: int = 0
    site: int = 0


@dataclass(frozen=True)
class DynamicsConfig:
    epsilons: tuple[float, ...]
    source_cell: int
    target_cell: int
    kinetic_scheme: str = "fd4"
    perturbation: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters plus the raw resolved dictionary."""

    n_cells: int
    cell_length: float
    points_per_cell: int
    mass: float
    hbar: float
    constant: float
    harmonics: tuple[tuple[int, float, float], ...]
    bands: int
    observables: tuple[ObservableConfig, ...]
    dynamics: DynamicsConfig | None
    output_dir: str

    def grid(self) -> RingGrid:
        return RingGrid(self.n_cells, self.cell_length, self.points_per_cell)

    def potential(self) -> PotentialSpec:
        return PotentialSpec(self.constant, self.harmonics)

    def observable(self, name: str) -> ObservableConfig:
        for obs in self.observables:
            if obs.name == name:
                return obs
        _fail("observables", f"no observable named {name!r} is defined")

    def resolved(self) -> dict:
        """Plain dictionary with every default filled in, for output provenance."""
        out = {
            "lattice": {
                "n_cells": self.n_cells,
                "cell_length": self.cell_length,
                "points_per_cell": self.points_per_cell,
                "mass": self.mass,
                "hbar": self.hbar,
            },
            "potential": {
                "constant": self.constant,
                "harmonics": [list(h) for h in self.harmonics],
            },
            "bands": self.bands,
            "observables": [
                {
                    "name": o.name,
                    "kind": o.kind,
                    **(
                        {
                            "terms": [list(t) for t in o.terms],
                            "symmetrize": o.symmetrize,
                            "scheme": o.scheme,
                        }
                        if o.kind == "series"
                        else {}
                    ),
                    **(
                        {"band": o.band, "site": o.site}
                        if o.kind == "wannier_projector"
                        else {}
                    ),
                }
                for o in self.observables
            ],
            "output_dir": self.output_dir,
        }
        if self.dynamics is not None:
            out["dynamics"] = {
                "epsilons": list(self.dynamics.epsilons),
                "source_cell": self.dynamics.source_cell,
                "target_cell": self.dynamics.target_cell,
                "kinetic_scheme": self.dynamics.kinetic_scheme,
                "perturbation": self.dynamics.perturbation,
            }
        return out


def _parse_harmonics(raw, path: str) -> tuple[tuple[int, float, float], ...]:
    if not isinstance(raw, list):
        _fail(path, "must be a list of [index, cos_amp, sin_amp] triples")
    out = []
    seen = set()
    for i, item in enumerate(raw):
        here = f"{path}[{i}]"
        if not isinstance(item, list) or len(item) != 3:
            _fail(here, "must be a [index, cos_amp, sin_amp] triple")
        idx = _as_int(item[0], here + "[0]", minimum=1)
        if idx in seen:
            _fail(here + "[0]", f"harmonic index {idx} appears twice")
        seen.add(idx)
        out.append((idx, _as_number(item[1], here + "[1]"), _as_number(item[2], here + "[2]")))
    return tuple(out)


def _parse_terms(raw, path: str) -> tuple[tuple[int, int, float, float], ...]:
    if not isinstance(raw, list) or not raw:
        _fail(path, "must be a non-empty list of [m, n, cos_amp, sin_amp] quadruples")
    out = []
    for i, item in enumerate(raw):
        here = f"{path}[{i}]"
        if not isinstance(item, list) or len(item) != 4:
            _fail(here, "must be a [m, n, cos_amp, sin_amp] quadruple")
        m = _as_int(item[0], here + "[0]", minimum=0)
        n = _as_int(item[1], here + "[1]", minimum=0, maximum=8)
        out.append((m, n, _as_number(item[2], here + "[2]"), _as_number(item[3], here + "[3]")))
    return tuple(out)


def _parse_scheme(raw, path: str) -> str:
    if raw not in _SCHEMES:
        _fail(path, f"must be one of {_SCHEMES}, got {raw!r}")
    return raw


def _parse_observable(raw, index: int, bands: int, n_cells: int) -> ObservableConfig:
    path = f"observables[{index}]"
    name = _get(raw, "name", f"{path}.name")
    if not isinstance(name, str) or not name:
        _fail(f"{path}.name", "must be a non-empty string")
    kind = _get(raw, "kind", f"{path}.kind")
    if kind not in _OBSERVABLE_KINDS:
        _fail(f"{path}.kind", f"must be one of {_OBSERVABLE_KINDS}, got {kind!r}")
    _known_keys(raw, ("name", "kind") + _OBSERVABLE_KEYS[kind], path)
    if kind == "series":
        terms = _parse_terms(_get(raw, "terms", f"{path}.terms"), f"{path}.terms")
        symmetrize = _get(raw, "symmetrize", f"{path}.symmetrize", required=False, default=True)
        if not isinstance(symmetrize, bool):
            _fail(f"{path}.symmetrize", "must be true or false")
        scheme = _parse_scheme(
            _get(raw, "scheme", f"{path}.scheme", required=False, default="spectral"),
            f"{path}.scheme",
        )
        return ObservableConfig(name, kind, terms=terms, symmetrize=symmetrize, scheme=scheme)
    if kind == "wannier_projector":
        band = _as_int(
            _get(raw, "band", f"{path}.band", required=False, default=0),
            f"{path}.band", minimum=0, maximum=bands - 1,
        )
        site = _as_int(
            _get(raw, "site", f"{path}.site", required=False, default=0),
            f"{path}.site", minimum=0, maximum=n_cells - 1,
        )
        return ObservableConfig(name, kind, band=band, site=site)
    return ObservableConfig(name, kind)


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object into a :class:`RunConfig`."""
    if not isinstance(data, dict):
        raise ConfigError("config root: must be a JSON object")
    _known_keys(data, ("lattice", "potential", "bands", "observables", "dynamics",
                       "output_dir"), "")

    lattice = _get(data, "lattice", "lattice")
    _known_keys(lattice, ("n_cells", "cell_length", "points_per_cell", "mass", "hbar"),
                "lattice")
    n_cells = _as_int(_get(lattice, "n_cells", "lattice.n_cells"), "lattice.n_cells", minimum=2)
    cell_length = _as_number(
        _get(lattice, "cell_length", "lattice.cell_length"), "lattice.cell_length", positive=True
    )
    points_per_cell = _as_int(
        _get(lattice, "points_per_cell", "lattice.points_per_cell"),
        "lattice.points_per_cell", minimum=8,
    )
    mass = _as_number(
        _get(lattice, "mass", "lattice.mass", required=False, default=1.0),
        "lattice.mass", positive=True,
    )
    hbar = _as_number(
        _get(lattice, "hbar", "lattice.hbar", required=False, default=1.0),
        "lattice.hbar", positive=True,
    )

    potential = _get(data, "potential", "potential")
    _known_keys(potential, ("constant", "harmonics"), "potential")
    constant = _as_number(
        _get(potential, "constant", "potential.constant", required=False, default=0.0),
        "potential.constant",
    )
    harmonics = _parse_harmonics(
        _get(potential, "harmonics", "potential.harmonics", required=False, default=[]),
        "potential.harmonics",
    )

    bands = _as_int(
        _get(data, "bands", "bands", required=False, default=1),
        "bands", minimum=1, maximum=points_per_cell,
    )

    raw_observables = _get(data, "observables", "observables", required=False, default=[])
    if not isinstance(raw_observables, list):
        _fail("observables", "must be a list")
    observables = []
    names = set()
    for i, raw in enumerate(raw_observables):
        obs = _parse_observable(raw, i, bands, n_cells)
        if obs.name in names:
            _fail(f"observables[{i}].name", f"duplicate observable name {obs.name!r}")
        names.add(obs.name)
        observables.append(obs)

    dynamics = None
    raw_dynamics = _get(data, "dynamics", "dynamics", required=False)
    if raw_dynamics is not None:
        _known_keys(raw_dynamics, ("epsilons", "source_cell", "target_cell", "kinetic_scheme",
                                   "perturbation"), "dynamics")
        raw_eps = _get(raw_dynamics, "epsilons", "dynamics.epsilons")
        if not isinstance(raw_eps, list) or not raw_eps:
            _fail("dynamics.epsilons", "must be a non-empty list of positive times")
        epsilons = tuple(
            _as_number(e, f"dynamics.epsilons[{i}]", positive=True) for i, e in enumerate(raw_eps)
        )
        source_cell = _as_int(
            _get(raw_dynamics, "source_cell", "dynamics.source_cell"),
            "dynamics.source_cell", minimum=0, maximum=n_cells - 1,
        )
        target_cell = _as_int(
            _get(raw_dynamics, "target_cell", "dynamics.target_cell"),
            "dynamics.target_cell", minimum=0, maximum=n_cells - 1,
        )
        kinetic_scheme = _parse_scheme(
            _get(raw_dynamics, "kinetic_scheme", "dynamics.kinetic_scheme",
                 required=False, default="fd4"),
            "dynamics.kinetic_scheme",
        )
        perturbation = _get(raw_dynamics, "perturbation", "dynamics.perturbation",
                            required=False)
        if perturbation is not None:
            if not isinstance(perturbation, str):
                _fail("dynamics.perturbation", "must be an observable name")
            if perturbation not in names:
                _fail("dynamics.perturbation",
                      f"references undefined observable {perturbation!r}")
        dynamics = DynamicsConfig(epsilons, source_cell, target_cell, kinetic_scheme, perturbation)

    output_dir = _get(data, "output_dir", "output_dir", required=False, default="out")
    if not isinstance(output_dir, str) or not output_dir:
        _fail("output_dir", "must be a non-empty string")

    return RunConfig(
        n_cells=n_cells,
        cell_length=cell_length,
        points_per_cell=points_per_cell,
        mass=mass,
        hbar=hbar,
        constant=constant,
        harmonics=harmonics,
        bands=bands,
        observables=tuple(observables),
        dynamics=dynamics,
        output_dir=output_dir,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {str(path)!r} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not valid JSON: {exc}") from exc
    return parse_config(data)
