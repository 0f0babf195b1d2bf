import json
import math
import sys
from pathlib import Path

import pytest

from blochlab.config import ConfigError, load_config, parse_config

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402


MINIMAL = {
    "lattice": {"n_cells": 8, "cell_length": 1.0, "points_per_cell": 32},
    "potential": {"harmonics": [[1, 2.0, 0.0]]},
}


def full_config():
    return {
        "lattice": {"n_cells": 8, "cell_length": 1.0, "points_per_cell": 32,
                    "mass": 1.0, "hbar": 1.0},
        "potential": {"constant": 0.0, "harmonics": [[1, 2.0, 0.0]]},
        "bands": 4,
        "observables": [
            {"name": "site0", "kind": "wannier_projector", "band": 0, "site": 0},
            {"name": "ring1", "kind": "series", "terms": [[1, 0, 1.0, 0.0]]},
            {"name": "h", "kind": "hamiltonian"},
            {"name": "shift", "kind": "translation"},
        ],
        "dynamics": {"epsilons": [1e-4, 2e-4], "source_cell": 6, "target_cell": 2,
                     "kinetic_scheme": "fd4", "perturbation": "site0"},
        "output_dir": "results",
    }


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.bands == 1
    assert cfg.mass == 1.0
    assert cfg.hbar == 1.0
    assert cfg.constant == 0.0
    assert cfg.observables == ()
    assert cfg.dynamics is None
    assert cfg.output_dir == "out"
    grid = cfg.grid()
    assert grid.total_points == 256
    assert cfg.harmonics == ((1, 2.0, 0.0),)


def test_full_config_round_trip():
    cfg = parse_config(full_config())
    assert cfg.bands == 4
    assert len(cfg.observables) == 4
    assert cfg.observable("ring1").kind == "series"
    assert cfg.dynamics.kinetic_scheme == "fd4"
    assert cfg.dynamics.perturbation == "site0"
    resolved = cfg.resolved()
    assert resolved["lattice"]["mass"] == 1.0
    assert resolved["dynamics"]["epsilons"] == [1e-4, 2e-4]
    # resolved() must be plain JSON.
    json.dumps(resolved)


@pytest.mark.parametrize(
    "mutate,expected_key",
    [
        (lambda d: d["lattice"].pop("n_cells"), "lattice.n_cells"),
        (lambda d: d["lattice"].pop("cell_length"), "lattice.cell_length"),
        (lambda d: d["lattice"].pop("points_per_cell"), "lattice.points_per_cell"),
        (lambda d: d.pop("lattice"), "lattice"),
        (lambda d: d.pop("potential"), "potential"),
        (lambda d: d["lattice"].__setitem__("n_cells", 1), "lattice.n_cells"),
        (lambda d: d["lattice"].__setitem__("points_per_cell", 4), "lattice.points_per_cell"),
        (lambda d: d["lattice"].__setitem__("cell_length", -2.0), "lattice.cell_length"),
        (lambda d: d["lattice"].__setitem__("mass", 0.0), "lattice.mass"),
        (lambda d: d.__setitem__("bands", 0), "bands"),
        (lambda d: d.__setitem__("bands", 33), "bands"),
        (lambda d: d["potential"].__setitem__("harmonics", [[1, 1.0, 0.0], [1, 2.0, 0.0]]),
         "potential.harmonics[1]"),
        (lambda d: d["potential"].__setitem__("harmonics", [[0, 1.0, 0.0]]),
         "potential.harmonics[0]"),
        (lambda d: d.__setitem__("output_dir", ""), "output_dir"),
        # Integers beyond the float range: finite in JSON, infinite as floats.
        pytest.param(lambda d: d["lattice"].__setitem__("mass", 10**400), "lattice.mass",
                     id="huge-mass"),
        pytest.param(lambda d: d["lattice"].__setitem__("cell_length", 10**400),
                     "lattice.cell_length", id="huge-cell-length"),
        pytest.param(lambda d: d["potential"].__setitem__("constant", -10**400),
                     "potential.constant", id="huge-constant"),
    ],
)
def test_errors_name_the_offending_key(mutate, expected_key):
    data = json.loads(json.dumps(full_config()))
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert expected_key in str(err.value)


@pytest.mark.parametrize(
    "mutate,expected_key",
    [
        (lambda d: d["observables"][1].__setitem__("terms", []), "observables[1].terms"),
        (lambda d: d["observables"][1].__setitem__("scheme", "fd3"), "observables[1].scheme"),
        pytest.param(
            lambda d: d["observables"][1].__setitem__("scheme", ["fd4"]),
            "observables[1].scheme",
            id="non-string-scheme",
        ),
        (lambda d: d["observables"][0].__setitem__("band", 4), "observables[0].band"),
        (lambda d: d["observables"][0].__setitem__("site", 8), "observables[0].site"),
        (lambda d: d["observables"][0].__setitem__("kind", "spin"), "observables[0].kind"),
        (lambda d: d["observables"][2].__setitem__("name", "site0"), "observables[2].name"),
        (lambda d: d["dynamics"].__setitem__("epsilons", []), "dynamics.epsilons"),
        (lambda d: d["dynamics"].__setitem__("epsilons", [0.0]), "dynamics.epsilons[0]"),
        (lambda d: d["dynamics"].__setitem__("source_cell", 8), "dynamics.source_cell"),
        (lambda d: d["dynamics"].__setitem__("perturbation", "ghost"), "dynamics.perturbation"),
        (lambda d: d["dynamics"].pop("target_cell"), "dynamics.target_cell"),
        pytest.param(lambda d: d["dynamics"]["epsilons"].__setitem__(0, 10**400),
                     "dynamics.epsilons[0]", id="huge-epsilon"),
        pytest.param(lambda d: d["dynamics"].__setitem__("target_cell", 6),
                     "dynamics.target_cell", id="target-equals-source"),
        pytest.param(lambda d: d["dynamics"].__setitem__("epsilons", [1e-4, 1e-4]),
                     "dynamics.epsilons': must hold two or more distinct times",
                     id="repeated-epsilon"),
    ],
)
def test_observable_and_dynamics_errors_name_keys(mutate, expected_key):
    data = json.loads(json.dumps(full_config()))
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert expected_key in str(err.value)


def leaves(node, keys=()):
    """(keys, value) of every value in a decoded JSON tree that is not an object or list."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from leaves(value, (*keys, key))
        else:
            yield (*keys, key), value


def key_path(keys):
    """The key path as the parser writes it, e.g. potential.harmonics[0][1]."""
    path = ""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
    return path


# Every kind of JSON value that can go wrong, NaN and infinities included (json.loads
# accepts them).
FUZZ_VALUES = [True, None, "x", [], {}, 10**400, -10**400, 2**70, -1, 0,
               math.nan, math.inf, -math.inf]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_any_value_at_any_leaf_is_accepted_or_a_config_error():
    for keys, original in leaves(full_config()):
        for value in FUZZ_VALUES:
            data = full_config()
            node = data
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
            if is_number(original) and not is_number(value):
                # A non-number in a numeric leaf fails at that leaf's own path.
                with pytest.raises(ConfigError) as err:
                    parse_config(data)
                assert str(err.value).startswith(f"config key '{key_path(keys)}': ")
            else:
                try:
                    parse_config(data)
                except ConfigError as exc:
                    assert str(exc).startswith("config key '")


def test_equal_source_and_target_cells_allowed_with_one_epsilon():
    data = full_config()
    data["dynamics"].update(epsilons=[1e-4], target_cell=6)
    assert parse_config(data).dynamics.target_cell == 6


def test_observable_lookup_failure():
    cfg = parse_config(full_config())
    with pytest.raises(ConfigError, match="ghost"):
        cfg.observable("ghost")


def test_root_must_be_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(full_config()))
    cfg = load_config(path)
    assert cfg.n_cells == 8
    assert cfg.dynamics.epsilons == (1e-4, 2e-4)


@pytest.mark.parametrize(
    "mutate,expected_key",
    [
        (lambda d: d.__setitem__("outputdir", "x"), "'outputdir'"),
        (lambda d: d["lattice"].__setitem__("mas", 2.0), "lattice.mas"),
        (lambda d: d["potential"].__setitem__("harmonic", []), "potential.harmonic"),
        (lambda d: d["dynamics"].__setitem__("scheme", "fd4"), "dynamics.scheme"),
        (lambda d: d["observables"][0].__setitem__("terms", []), "observables[0].terms"),
        (lambda d: d["observables"][1].__setitem__("band", 0), "observables[1].band"),
        (lambda d: d["observables"][2].__setitem__("scheme", "fd2"), "observables[2].scheme"),
        (lambda d: d["observables"][3].__setitem__("site", 0), "observables[3].site"),
    ],
)
def test_unknown_keys_are_rejected_at_their_path(mutate, expected_key):
    data = json.loads(json.dumps(full_config()))
    mutate(data)
    with pytest.raises(ConfigError, match="unknown key") as err:
        parse_config(data)
    assert expected_key in str(err.value)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_benchmark_run_files_use_only_known_keys(name):
    for seed in (0, 1, 2, 7):
        for payload in workloads.build(name, seed).configs.values():
            parse_config(payload)


def test_resolved_parses_back_to_the_same_config():
    # The key tables drive resolved(); parsing its output must give back the
    # config, so the tables and the parser cannot drift apart.
    payloads = [full_config(), MINIMAL]
    for name in sorted(workloads.BUILDERS):
        for seed in range(20):
            payloads += workloads.build(name, seed).configs.values()
    for payload in payloads:
        cfg = parse_config(payload)
        resolved = cfg.resolved()
        assert parse_config(resolved) == cfg
        assert json.loads(json.dumps(resolved)) == resolved
