"""The package namespace is exactly the union of the modules' ``__all__``."""

import types

import pytest

import plcword
from plcword import arithmetic, cf, classify, repetitions, tm, witness, words

MODULES = (arithmetic, cf, classify, repetitions, tm, witness, words)


def test_all_lists_are_pairwise_disjoint():
    # a star import would let a later module shadow a duplicate silently
    owners: dict[str, str] = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_listed_names_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(plcword, name) is getattr(module, name), name


def test_no_other_public_names():
    listed = {name for module in MODULES for name in module.__all__}
    extra = {
        name
        for name, value in vars(plcword).items()
        if not name.startswith("_")
        and name not in listed
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"plcword.{name}")
    }
    assert extra == set()
