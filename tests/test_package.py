"""The package surface is exactly the union of the module ``__all__`` lists."""

import cycliclv
from cycliclv import darboux, errors, model, sim, verify

MODULES = (darboux, errors, model, sim, verify)


def test_all_is_the_concatenation_of_module_lists():
    assert cycliclv.__all__ == [name for mod in MODULES for name in mod.__all__]


def test_no_name_is_exported_twice():
    assert len(set(cycliclv.__all__)) == len(cycliclv.__all__)


def test_every_exported_name_resolves_to_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(cycliclv, name) is getattr(mod, name), name
