"""The package surface is exactly the union of the module ``__all__`` lists,
and that union is the pinned list below; ``sim`` and numpy load only for
simulation."""

import json

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
    "VerificationReport", "ZeroParameter",
    "as_fraction", "build_exponent_system", "check_independence",
    "check_jacobi_multiplier", "check_linear_integral", "check_xh_zero",
    "integral_basis", "integrate", "make_system", "nullspace",
    "random_rational_state", "structure_matrix",
]


def test_export_list_is_pinned():
    assert sorted(cycliclv.__all__) == EXPORTS
    assert len(EXPORTS) == 30


# Run in a fresh interpreter: which modules load depends on what ran first.
# Each stage records whether numpy and cycliclv.sim are loaded yet.
IMPORT_GUARD = """
import contextlib, io, json, sys
import cycliclv, cycliclv.cli as cli

def loaded():
    return ["numpy" in sys.modules, "cycliclv.sim" in sys.modules]

stages = {"import": loaded()}
for argv in (["integrals", "--system", "spec.json", "--format", "json"],
             ["check", "--system", "spec.json"],
             ["simulate", "--system", "spec.json", "--x0", "0.2,0.3,0.5",
              "--t-end", "0.01", "--out", "t.csv"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    stages[argv[0]] = loaded()
stages["same integrate"] = cycliclv.integrate is cycliclv.sim.integrate
print(json.dumps(stages))
"""


def test_exact_commands_load_neither_numpy_nor_sim(tmp_path):
    (tmp_path / "spec.json").write_text('{"k": [2, 1, 3]}', encoding="utf-8")
    result = run_python(["-c", IMPORT_GUARD], tmp_path, timeout=120)
    assert result.returncode == 0, stderr_of(result)
    assert json.loads(result.stdout) == {
        "import": [False, False],
        "integrals": [False, False],
        "check": [False, False],
        "simulate": [True, True],
        "same integrate": True,
    }
