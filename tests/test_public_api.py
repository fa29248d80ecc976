"""The package exports each module's public names, and only those."""

import importlib
import inspect
import typing

import pytest

import itmfree

MODULES = ["errors", "itm", "ivp", "problems", "reference", "similarity"]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_name_is_exported(module):
    mod = importlib.import_module(f"itmfree.{module}")
    # no submodule object and nothing twice: ``from itmfree import *`` binds these names only
    union = {name for m in MODULES for name in importlib.import_module(f"itmfree.{m}").__all__}
    assert sorted(itmfree.__all__) == sorted(union)
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


def _annotated(mod):
    """The functions and classes a module defines, and the methods of those classes."""
    for obj in vars(mod).values():
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            yield obj
            if isinstance(obj, type):
                for attr in vars(obj).values():
                    attr = getattr(attr, "fget", getattr(attr, "__func__", attr))
                    if inspect.isfunction(attr):
                        yield attr


def test_every_annotation_names_an_imported_name():
    # annotations stay strings at run time, so nothing imports typing for them; each must
    # still resolve in its module, as typing.get_type_hints resolves it
    checked = set()
    for module in MODULES + ["cli"]:
        for obj in _annotated(importlib.import_module(f"itmfree.{module}")):
            typing.get_type_hints(obj)
            checked.add(obj.__qualname__)
    assert {"ReducedFreeBvp", "integrate_inward", "run_config", "main",
            "ExtendedScaling.__new__", "ItmResult.converged"} <= checked
