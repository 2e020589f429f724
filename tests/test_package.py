"""The package surface is exactly the union of the module ``__all__`` lists,
and that union is the pinned list below; ``verify`` and ``linalg`` load only
for ``check``, ``sim`` and numpy only for simulation."""

import json
from pathlib import Path

import numpy as np

import cycliclv
from cycliclv import darboux, model, sim, verify
from helpers import run_python, stderr_of

MODULES = (darboux, model, sim, verify)


def test_all_is_the_concatenation_of_module_lists():
    assert cycliclv.__all__ == [name for mod in MODULES for name in mod.__all__]


def test_no_name_is_exported_twice():
    assert len(set(cycliclv.__all__)) == len(cycliclv.__all__)


def test_every_exported_name_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(cycliclv, name) is getattr(mod, name), name


def test_every_exported_name_is_defined_by_the_module_that_lists_it():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(mod, name).__module__ == mod.__name__, name


# Adding a name here is a deliberate change to the public surface: a name
# only tests need belongs in tests/helpers.py instead.
EXPORTS = [
    "Classification", "CyclicLVError", "CyclicLVSystem", "InputError",
    "IntegralBasis", "IntegralOutOfRange", "IntegrationAborted", "IntegratorConfig",
    "LinearIntegral", "Method", "MonomialIntegral", "NonFiniteState",
    "PositivityBreached", "StepLimitReached", "StepUnderflow", "Trajectory",
    "VerificationReport",
    "as_fraction", "build_exponent_system", "check_independence",
    "check_jacobi_multiplier", "check_linear_integral", "check_xh_zero",
    "integral_basis", "integrate", "make_system", "nullspace",
    "random_rational_state", "structure_matrix",
]


def test_export_list_is_pinned():
    assert sorted(cycliclv.__all__) == EXPORTS
    assert len(EXPORTS) == 29


# Run in a fresh interpreter under python -S, so that no site hook loads a
# module first: which modules load depends on what ran first. Each stage
# records which of MODULES are loaded yet. site-packages is off the path
# under -S, so numpy's directory comes in as argv[1], added just before
# simulate.
IMPORT_GUARD = """
import contextlib, io, json, sys
import cycliclv, cycliclv.cli as cli

MODULES = ("numpy", "cycliclv.sim", "cycliclv.verify", "cycliclv.linalg", "random",
           "dataclasses", "inspect")

def loaded():
    return [name for name in MODULES if name in sys.modules]

stages = {"import": loaded()}
for argv in (["integrals", "--system", "spec.json", "--format", "json"],
             ["check", "--system", "spec.json"],
             ["simulate", "--system", "spec.json", "--x0", "0.2,0.3,0.5",
              "--t-end", "0.01", "--out", "t.csv"]):
    if argv[0] == "simulate":
        sys.path.append(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    stages[argv[0]] = loaded()
stages["same integrate"] = cycliclv.integrate is cycliclv.sim.integrate
print(json.dumps(stages))
"""


def test_exact_commands_load_neither_numpy_nor_sim(tmp_path):
    """integrals loads no module it does not run; check adds verify and linalg."""
    (tmp_path / "spec.json").write_text('{"k": [2, 1, 3]}', encoding="utf-8")
    numpy_dir = str(Path(np.__file__).resolve().parent.parent)
    result = run_python(["-S", "-c", IMPORT_GUARD, numpy_dir], tmp_path, timeout=120)
    assert result.returncode == 0, stderr_of(result)
    stages = json.loads(result.stdout)
    # what numpy itself imports is numpy's business
    assert stages.pop("simulate")[:2] == ["numpy", "cycliclv.sim"]
    assert stages == {
        "import": [],
        "integrals": [],
        "check": ["cycliclv.verify", "cycliclv.linalg", "random"],
        "same integrate": True,
    }
