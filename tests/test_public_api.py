import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import blochlab


def bound_public_names():
    """Names without a leading underscore that blochlab/__init__.py binds at top level."""
    tree = ast.parse(Path(blochlab.__file__).read_text())
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return [name for name in names if not name.startswith("_")]


def test_all_is_exactly_what_the_package_binds():
    assert len(blochlab.__all__) == len(set(blochlab.__all__))
    assert set(blochlab.__all__) == set(bound_public_names())
    for name in blochlab.__all__:
        assert hasattr(blochlab, name), name


@pytest.mark.parametrize("module, name", [
    ("grid", "inner_product"),
    ("grid", "translate_by_cells"),
    ("observables", "apply_kernel"),
    ("observables", "_periodicity_defect"),
    ("superselection", "matrix_element"),
    ("spectrum", "fix_gauge"),
    ("spectrum", "solve_sector"),
    ("spectrum", "BlochState"),
    ("dynamics", "transport_profile"),
    ("lattice", "_add_hamiltonian"),
    ("cli", "_resolve_operator"),
])
def test_removed_names_stay_removed(module, name):
    # Second routes to one entry of the scan table, its defect or the cell transport
    # profile, and the whole-cell shift of one wavefunction, live in the tests' conftest;
    # the gauge fix is private to the spectrum, the per-sector solve is an oracle
    # for the stacked one, and the per-state record is an oracle view of the band rows.
    # One row walker writes every dense operator, and the CLI's one observable dispatch
    # is its row source, so H's own adder and propagate's operator builder are gone.
    assert not hasattr(importlib.import_module(f"blochlab.{module}"), name)
    assert not hasattr(blochlab, name)


def test_removed_operands_and_methods_stay_removed():
    assert not hasattr(blochlab.BandStructure, "regauged")
    assert not hasattr(blochlab.BandStructure, "all_states")
    assert not hasattr(blochlab.BandStructure, "state")
    fields = [field.name for field in dataclasses.fields(blochlab.BandStructure)]
    assert fields == ["grid", "energy", "waves", "cells"]
    assert list(inspect.signature(blochlab.winding_number).parameters) == ["psi"]
    assert list(inspect.signature(blochlab.cell_periodicity_defect).parameters) == ["op"]
    from blochlab.lattice import commutator_norm
    assert list(inspect.signature(commutator_norm).parameters) == ["a", "translation"]
    # perfbench/shim.py binds solve_bands' arguments by these names.
    assert list(inspect.signature(blochlab.solve_bands).parameters) == [
        "grid", "potential", "band_count", "mass", "hbar"]


def test_readme_quick_start_runs_as_its_comments_say(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0]) == pytest.approx(np.sqrt(2), abs=1e-12)   # ~1.41
    assert np.allclose(namespace["scan"].moduli()[0, :, 0, :], 0.125, rtol=0, atol=1e-14)
    assert float(printed[-2]) < 100 * np.finfo(float).eps              # roundoff
    assert printed[-1] == "3"
