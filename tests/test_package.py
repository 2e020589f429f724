"""The package surface is exactly the union of the module ``__all__`` lists,
and that union is the pinned list below; ``verify`` and ``linalg`` load only
for ``check``, ``sim`` and numpy only for simulation."""

import json
import os
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
    "Method", "MonomialIntegral", "NonFiniteState", "PositivityBreached",
    "StepLimitReached", "StepUnderflow", "Trajectory", "VerificationReport",
    "as_fraction", "build_exponent_system", "check_independence",
    "check_jacobi_multiplier", "check_linear_integral", "check_xh_zero",
    "integral_basis", "integrate", "make_system", "nullspace",
    "structure_matrix",
]


def test_export_list_is_pinned():
    assert sorted(cycliclv.__all__) == EXPORTS
    assert len(EXPORTS) == 27


# Run in a fresh interpreter under python -S, so that no site hook loads a
# module first: which modules load depends on what ran first. The commands
# named after argv[1] run in order, and each stage records which of MODULES
# are loaded yet. site-packages is off the path under -S, so numpy's
# directory comes in as argv[1], added just before simulate.
IMPORT_GUARD = """
import contextlib, io, json, sys
import cycliclv, cycliclv.cli as cli

MODULES = ("numpy", "cycliclv.sim", "cycliclv._reference", "cycliclv.verify", "cycliclv.linalg",
           "random", "dataclasses", "inspect", "pathlib", "hashlib", "subprocess", "sysconfig")
RUNS = {
    "integrals": ["integrals", "--system", "spec.json", "--format", "json"],
    "check": ["check", "--system", "spec.json"],
    "simulate": ["simulate", "--system", "spec.json", "--x0", "0.2,0.3,0.5",
                 "--t-end", "0.01", "--out", "t.csv"],
    "simulate-rk45": ["simulate", "--system", "spec.json", "--x0", "0.2,0.3,0.5",
                      "--method", "rk45", "--t-end", "0.01", "--out", "t.csv"],
}

def loaded():
    return [name for name in MODULES if name in sys.modules]

stages = {"import": loaded()}
for command in sys.argv[2:]:
    if command.startswith("simulate"):
        sys.path.append(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(RUNS[command]) == 0, command
    stages[command] = loaded()
stages["same integrate"] = cycliclv.integrate is cycliclv.sim.integrate
print(json.dumps(stages))
"""


def _import_stages(tmp_path, *commands: str) -> dict:
    """The modules loaded after import and after each command, run in order."""
    (tmp_path / "spec.json").write_text('{"k": [2, 1, 3]}', encoding="utf-8")
    numpy_dir = str(Path(np.__file__).resolve().parent.parent)
    result = run_python(["-S", "-c", IMPORT_GUARD, numpy_dir, *commands], tmp_path, timeout=120)
    assert result.returncode == 0, stderr_of(result)
    return json.loads(result.stdout)


def test_exact_commands_load_neither_numpy_nor_sim(tmp_path):
    """integrals loads no module it does not run; check adds verify and linalg."""
    stages = _import_stages(tmp_path, "integrals", "check", "simulate")
    # what numpy itself imports is numpy's business
    assert stages.pop("simulate")[:2] == ["numpy", "cycliclv.sim"]
    assert stages == {
        "import": [],
        "integrals": [],
        "check": ["cycliclv.verify", "cycliclv.linalg", "random"],
        "same integrate": True,
    }


def test_simulate_loads_neither_verify_nor_linalg(tmp_path):
    """simulate, run first, adds sim and numpy and none of check's modules."""
    stages = _import_stages(tmp_path, "simulate")
    # numpy loads random itself, so random is left out
    assert stages["import"] == []
    assert stages["simulate"][:2] == ["numpy", "cycliclv.sim"]
    assert "cycliclv.verify" not in stages["simulate"]
    assert "cycliclv.linalg" not in stages["simulate"]


# What only a build of the native code or a process without one loads.
BUILD_MODULES = {"cycliclv._reference", "hashlib", "subprocess", "sysconfig"}


def test_rk4_simulate_loads_no_hashlib(tmp_path, monkeypatch):
    """An RK4 simulate that builds the native loop, and one that loads it, load no hashlib.

    hashlib's OpenSSL cost an RK4 run 3.6 MB of peak RSS. subprocess and
    sysconfig, which only a build needs, load only with the build, and so
    does _reference, which holds the build, the probe and the references.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    built, loaded = (_import_stages(tmp_path, "simulate")["simulate"] for _ in range(2))
    assert {"subprocess", "cycliclv._reference"} <= set(built) and "hashlib" not in built
    assert not BUILD_MODULES & set(loaded)


def test_rk45_simulate_with_a_cached_build_loads_no_build_modules(tmp_path, monkeypatch):
    """An RKF45 simulate builds the same library, and one that loads it imports no build module."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    built, loaded = (_import_stages(tmp_path, "simulate-rk45")["simulate-rk45"] for _ in range(2))
    assert {"subprocess", "cycliclv._reference"} <= set(built) and "hashlib" not in built
    assert not BUILD_MODULES & set(loaded)


def test_simulate_without_a_build_loads_the_references(tmp_path, monkeypatch):
    """Where no build loads, as with a cache that is a regular file, simulate runs _reference."""
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    for command in ("simulate", "simulate-rk45"):
        loaded = _import_stages(tmp_path, command)[command]
        assert "cycliclv._reference" in loaded and "subprocess" not in loaded


def test_the_suite_caches_native_builds_in_a_temporary_directory(tmp_path_factory):
    """XDG_CACHE_HOME, which this process and its children read, is a temporary directory."""
    cache = Path(os.environ["XDG_CACHE_HOME"])
    assert cache.is_relative_to(tmp_path_factory.getbasetemp())
