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
(``bands`` defaults to 1, no observables, no dynamics section).

Each value rule is written once, in the library: a number or an integer leaf goes
through ``grid._number`` or ``grid._integer``, and the lattice, the potential and a
series' terms are built as :class:`RingGrid`, :class:`PotentialSpec` and
:class:`LocalObservableSeries`, whose checks name the field they reject.  This module
adds only what JSON and the run file add: object shape with unknown and missing keys,
lists, booleans, names and choices, the rules that relate keys (bands <= P,
band < bands, cells < N, perturbation names, distinct observable names, target !=
source), and two distinct times among two or more epsilons, which the fits in
``dynamics`` also require.  A failure at a key raises :class:`ConfigError` as
"config key 'PATH': problem".
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from .derivatives import SCHEMES
from .grid import RingGrid, _integer, _number
from .lattice import PotentialSpec
from .observables import LocalObservableSeries


class ConfigError(ValueError):
    """A run file is missing a key or holds an out-of-range value."""


def _fail(key: str, problem: str):
    raise ConfigError(f"config key '{key}': {problem}")


@contextmanager
def _keyed(prefix: str = ""):
    """Re-raise a library ValueError, whose message starts with the field it names, as a
    ConfigError at the key path ``prefix`` + that field."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        field, _, problem = str(exc).partition(" ")
        _fail(prefix + field, problem)


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
        with _keyed():
            return value if parse is None else parse(value, here, **limits)

    return read


def _as_list(value, path: str, non_empty: bool = False) -> list:
    if not isinstance(value, list) or (non_empty and not value):
        _fail(path, "must be a non-empty list" if non_empty else "must be a list")
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


def _parse_epsilons(raw, path: str) -> tuple[float, ...]:
    raw = _as_list(raw, path, non_empty=True)
    eps = tuple(_number(e, f"{path}[{i}]", positive=True) for i, e in enumerate(raw))
    if len(set(eps)) < 2 <= len(eps):
        _fail(path, "must hold two or more distinct times when more than one is given")
    return eps


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
        with _keyed(path + "."):
            terms = LocalObservableSeries(read("terms", _as_list, non_empty=True)).terms
        return ObservableConfig(
            name, kind, terms=terms,
            symmetrize=read("symmetrize", _as_bool, True),
            scheme=read("scheme", _one_of, "spectral", choices=_SCHEMES),
        )
    if kind == "wannier_projector":
        return ObservableConfig(
            name, kind, band=read("band", _integer, 0, minimum=0, maximum=bands - 1),
            site=read("site", _integer, 0, minimum=0, maximum=n_cells - 1),
        )
    return ObservableConfig(name, kind)


def parse_config(data: dict) -> RunConfig:
    """Validate a decoded JSON object into a :class:`RunConfig`."""
    if not isinstance(data, dict):
        raise ConfigError("config root: must be a JSON object")
    root = _section(data, "", _KEYS[""])
    lattice = root("lattice", _section, keys=_KEYS["lattice"])
    with _keyed("lattice."):
        grid = RingGrid(lattice("n_cells"), lattice("cell_length"), lattice("points_per_cell"))
    mass = lattice("mass", _number, 1.0, positive=True)
    hbar = lattice("hbar", _number, 1.0, positive=True)
    section = root("potential", _section, keys=_KEYS["potential"])
    with _keyed("potential."):
        potential = PotentialSpec(section("constant", default=0.0),
                                  section("harmonics", _as_list, []))
    bands = root("bands", _integer, 1, minimum=1, maximum=grid.points_per_cell)

    observables = []
    names = set()
    for i, raw in enumerate(root("observables", _as_list, [])):
        obs = _parse_observable(raw, f"observables[{i}]", bands, grid.n_cells)
        if obs.name in names:
            _fail(f"observables[{i}].name", f"duplicate observable name {obs.name!r}")
        names.add(obs.name)
        observables.append(obs)

    dynamics = root("dynamics", default=None)
    if dynamics is not None:
        read = _section(dynamics, "dynamics", _KEYS["dynamics"])
        cell = {"minimum": 0, "maximum": grid.n_cells - 1}
        dynamics = DynamicsConfig(
            read("epsilons", _parse_epsilons),
            read("source_cell", _integer, **cell),
            read("target_cell", _integer, **cell),
            read("kinetic_scheme", _one_of, "fd4", choices=_SCHEMES),
            read("perturbation", _parse_perturbation, None, names=names),
        )
        if len(dynamics.epsilons) >= 2 and dynamics.target_cell == dynamics.source_cell:
            _fail("dynamics.target_cell", "must differ from source_cell when two or more "
                  "epsilons are given (the slope fit needs two distinct samples)")

    return RunConfig(
        n_cells=grid.n_cells,
        cell_length=grid.cell_length,
        points_per_cell=grid.points_per_cell,
        mass=mass,
        hbar=hbar,
        constant=potential.constant,
        harmonics=potential.harmonics,
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
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config file {str(path)!r} is not valid JSON: {exc}") from exc
    return parse_config(data)
