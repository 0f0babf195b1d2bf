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
from dataclasses import asdict, dataclass
from pathlib import Path

from .derivatives import SCHEMES
from .grid import RingGrid
from .lattice import PotentialSpec


class ConfigError(ValueError):
    """A run file is missing a key or holds an out-of-range value."""


def _fail(key: str, problem: str):
    raise ConfigError(f"config key '{key}': {problem}")


# The keys of each object section, by its key path ("" is the root), in the
# order they are read; resolved() writes the same keys back.
_KEYS = {
    "": ("lattice", "potential", "bands", "observables", "dynamics", "output_dir"),
    "lattice": ("n_cells", "cell_length", "points_per_cell", "mass", "hbar"),
    "potential": ("constant", "harmonics"),
    "dynamics": ("epsilons", "source_cell", "target_cell", "kinetic_scheme", "perturbation"),
}
# Keys each observable kind accepts, beyond "name" and "kind".
_OBSERVABLE_KEYS = {
    "series": ("terms", "symmetrize", "scheme"),
    "wannier_projector": ("band", "site"),
    "hamiltonian": (),
    "translation": (),
}
# Tuples, so that an unhashable JSON value fails the membership test cleanly.
_OBSERVABLE_KINDS = tuple(_OBSERVABLE_KEYS)
_SCHEMES = tuple(SCHEMES)
_REQUIRED = object()


def _section(mapping, path: str, keys: tuple[str, ...] | None = None):
    """Check that ``mapping`` is an object with no key outside ``keys`` and return
    ``read(key, parse, default, **limits)``, which hands ``mapping[key]`` (or the
    default; no default means required) to ``parse(value, key_path, **limits)``."""
    if not isinstance(mapping, dict):
        _fail(path, "must be an object")
    for key in mapping:
        if keys is not None and key not in keys:
            _fail(f"{path}.{key}" if path else key, f"unknown key; expected one of {keys}")

    def read(key: str, parse=None, default=_REQUIRED, **limits):
        here = f"{path}.{key}" if path else key
        if key in mapping:
            value = mapping[key]
        elif default is _REQUIRED:
            _fail(here, "missing")
        else:
            value = default
        return value if parse is None else parse(value, here, **limits)

    return read


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
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if positive and value <= 0:
        _fail(path, f"must be positive, got {value}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, "must be true or false")
    return value


def _as_name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "must be a non-empty string")
    return value


def _one_of(value, path: str, choices: tuple) -> str:
    if value not in choices:
        _fail(path, f"must be one of {choices}, got {value!r}")
    return value


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
    """Validated run parameters; the lattice and potential keys are flat fields."""

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
            section: {key: getattr(self, key) for key in _KEYS[section]}
            for section in ("lattice", "potential")
        }
        out["bands"] = self.bands
        out["observables"] = [
            {key: getattr(o, key) for key in ("name", "kind", *_OBSERVABLE_KEYS[o.kind])}
            for o in self.observables
        ]
        if self.dynamics is not None:
            out["dynamics"] = asdict(self.dynamics)
        out["output_dir"] = self.output_dir
        # A JSON round trip turns the tuples into lists and changes nothing else.
        return json.loads(json.dumps(out))


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


def _parse_epsilons(raw, path: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or not raw:
        _fail(path, "must be a non-empty list of positive times")
    return tuple(_as_number(e, f"{path}[{i}]", positive=True) for i, e in enumerate(raw))


def _parse_perturbation(raw, path: str, names: set[str]) -> str | None:
    if raw is not None:
        if not isinstance(raw, str):
            _fail(path, "must be an observable name")
        if raw not in names:
            _fail(path, f"references undefined observable {raw!r}")
    return raw


def _parse_observable(raw, path: str, bands: int, n_cells: int) -> ObservableConfig:
    read = _section(raw, path)
    name = read("name", _as_name)
    kind = read("kind", _one_of, choices=_OBSERVABLE_KINDS)
    _section(raw, path, ("name", "kind", *_OBSERVABLE_KEYS[kind]))
    if kind == "series":
        return ObservableConfig(
            name, kind, terms=read("terms", _parse_terms),
            symmetrize=read("symmetrize", _as_bool, True),
            scheme=read("scheme", _one_of, "spectral", choices=_SCHEMES),
        )
    if kind == "wannier_projector":
        return ObservableConfig(
            name, kind, band=read("band", _as_int, 0, minimum=0, maximum=bands - 1),
            site=read("site", _as_int, 0, minimum=0, maximum=n_cells - 1),
        )
    return ObservableConfig(name, kind)


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object into a :class:`RunConfig`."""
    if not isinstance(data, dict):
        raise ConfigError("config root: must be a JSON object")
    root = _section(data, "", _KEYS[""])
    lattice = root("lattice", _section, keys=_KEYS["lattice"])
    n_cells = lattice("n_cells", _as_int, minimum=2)
    cell_length = lattice("cell_length", _as_number, positive=True)
    points_per_cell = lattice("points_per_cell", _as_int, minimum=8)
    mass = lattice("mass", _as_number, 1.0, positive=True)
    hbar = lattice("hbar", _as_number, 1.0, positive=True)
    potential = root("potential", _section, keys=_KEYS["potential"])
    constant = potential("constant", _as_number, 0.0)
    harmonics = potential("harmonics", _parse_harmonics, [])
    bands = root("bands", _as_int, 1, minimum=1, maximum=points_per_cell)

    raw_observables = root("observables", default=[])
    if not isinstance(raw_observables, list):
        _fail("observables", "must be a list")
    observables = []
    names = set()
    for i, raw in enumerate(raw_observables):
        obs = _parse_observable(raw, f"observables[{i}]", bands, n_cells)
        if obs.name in names:
            _fail(f"observables[{i}].name", f"duplicate observable name {obs.name!r}")
        names.add(obs.name)
        observables.append(obs)

    dynamics = root("dynamics", default=None)
    if dynamics is not None:
        read = _section(dynamics, "dynamics", _KEYS["dynamics"])
        cell = {"minimum": 0, "maximum": n_cells - 1}
        dynamics = DynamicsConfig(
            read("epsilons", _parse_epsilons),
            read("source_cell", _as_int, **cell),
            read("target_cell", _as_int, **cell),
            read("kinetic_scheme", _one_of, "fd4", choices=_SCHEMES),
            read("perturbation", _parse_perturbation, None, names=names),
        )
        if len(dynamics.epsilons) >= 2 and dynamics.target_cell == dynamics.source_cell:
            _fail("dynamics.target_cell", "must differ from source_cell when two or more "
                  "epsilons are given (the slope fit needs two distinct samples)")

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
        output_dir=root("output_dir", _as_name, "out"),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {str(path)!r} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {str(path)!r} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not valid JSON: {exc}") from exc
    return parse_config(data)
