"""The package exports each module's public names, and only those."""

import importlib

import pytest

import itmfree


@pytest.mark.parametrize("module", ["errors", "itm", "ivp", "problems", "reference", "similarity"])
def test_every_module_name_is_exported(module):
    mod = importlib.import_module(f"itmfree.{module}")
    assert set(mod.__all__) <= set(itmfree.__all__)
    for name in mod.__all__:
        assert getattr(itmfree, name) is getattr(mod, name)


def test_internal_and_deleted_names_are_not_exported():
    assert "DomainExit" not in itmfree.__all__
    # the flux and height helpers at the origin are gone: no caller, and a wrong flux formula
    assert not [name for name in itmfree.__all__ if name.endswith("_at_origin")]
