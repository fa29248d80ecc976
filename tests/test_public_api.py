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
    # alpha_from_beta had no caller; check_invariance's docstring keeps its formula
    assert "alpha_from_beta" not in itmfree.__all__
    # asymptotic_eta_w only wrapped a lookup in ASYMPTOTIC_ETA_W, which the CLI reads directly
    assert "asymptotic_eta_w" not in itmfree.__all__
    # the RK4 loop's code generator serves only the two bundled RHS bodies, so it is private
    assert "inline_rhs" not in itmfree.__all__
