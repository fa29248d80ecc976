"""The benchmark harness (``perfbench/``) keeps working against the package.

A change to ``src/`` is measured by a harness that it may not edit, so a name
the harness needs must not go away unseen. The names are found by parsing
``perfbench/*.py``: every ``itmfree`` import, every attribute read or patched
on what such an import binds, and every keyword passed to it must resolve.
Attribute resolution is checked, not ``__all__``: ``DomainExit`` is imported
from ``itmfree.errors`` but kept out of the public names. The facts about
records that the harness relies on are listed by hand below.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import itmfree
from itmfree import (IntegrationResult, PhysicalProfile, ReducedFreeBvp, SpreadingParams,
                     State2, cli, integrate_inward, make_spreading, original_profile,
                     reconstruct_physical, spreading_exponents)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_MISSING = object()
# tracer.py wraps these names wherever present; the wrapped function no longer exists
# (ROADMAP item 5a drops the wrapper)
_TARGET_DELETED = {"asymptotic_eta_w"}


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(), name)


def _imports(tree, missing):
    """The local names an ``itmfree`` import binds, mapped to their objects."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "itmfree":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "itmfree"] = module if alias.asname else itmfree
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "itmfree":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, _MISSING)
                if value is _MISSING:
                    missing.append(f"from {node.module} import {alias.name}")
                else:
                    bound[alias.asname or alias.name] = value
    return bound


def _resolve(node, bound, used, missing):
    """The itmfree object an expression names (``_MISSING`` if not one)."""
    if isinstance(node, ast.Name):
        return bound.get(node.id, _MISSING)
    if not isinstance(node, ast.Attribute):
        return _MISSING
    base = _resolve(node.value, bound, used, missing)
    if base is _MISSING:
        return _MISSING
    dotted = f"{ast.unparse(node.value)}.{node.attr}"
    used.add(dotted)
    value = getattr(base, node.attr, _MISSING)
    if value is _MISSING:
        missing.append(dotted)
    return value


def _accepts(target, keyword):
    if hasattr(target, "_fields"):  # a record: its __new__ takes **kwargs and checks them
        return keyword in target._fields
    params = inspect.signature(target).parameters
    return keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values())


def test_every_name_the_harness_takes_from_itmfree_resolves():
    used, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path.name)
        bound = _imports(tree, missing)
        used.update(f"{path.stem}:{name}" for name in bound)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                _resolve(node, bound, used, missing)
            elif isinstance(node, ast.Call):
                target = _resolve(node.func, bound, set(), [])
                if target is not _MISSING:
                    missing += [f"{ast.unparse(node.func)}({kw.arg}=...)" for kw in node.keywords
                                if kw.arg is not None and not _accepts(target, kw.arg)]
    assert missing == []
    # the parse found what it must: a read, a patch, a library call and an unexported import
    assert {"itm.original_profile", "problems.stefan_default_guesses", "_itm.integrate_inward",
            "cli.main", "test_smoke:DomainExit"} <= used


def test_every_name_the_tracer_wraps_resolves():
    # Tracer.install wraps each name present on the namespace it is given: the worker's
    # api table or the itmfree.cli module. A name present on neither is silently not traced
    worker, tracer = _parse("worker.py"), _parse("tracer.py")
    api = {kw.arg for node in ast.walk(worker) if isinstance(node, ast.Call)
           and ast.unparse(node.func) == "SimpleNamespace" for kw in node.keywords}
    wrapped = {key.value for node in ast.walk(tracer) if isinstance(node, ast.Assign)
               and ast.unparse(node.targets[0]) == "wrappers" for key in node.value.keys}
    assert {"secant_solve", "original_profile", "neumann_eta_w"} <= wrapped
    for name in wrapped - _TARGET_DELETED:
        assert name in api or hasattr(cli, name), name
    for name in wrapped & _TARGET_DELETED:
        assert not hasattr(cli, name), f"{name} is back: take it off _TARGET_DELETED"


def test_record_facts_the_harness_relies_on():
    # tracer.py adds steps_taken to ivp.steps
    res = integrate_inward(lambda coef, z, w, dw: 0.0, None, 1.0, State2(1.0, 0.0), 5)
    assert isinstance(res, IntegrationResult) and res.steps_taken == 5
    # tracer.py swaps both RHS fields with dataclasses.replace
    assert dataclasses.is_dataclass(ReducedFreeBvp)
    assert {"rhs", "extended_rhs"} <= {f.name for f in dataclasses.fields(ReducedFreeBvp)}
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    rhs = problem.extended_rhs
    assert dataclasses.replace(problem, rhs=None, extended_rhs=rhs).extended_rhs is rhs
    # worker.py counts profile points with len() and physical rows with len(.x)
    profile = original_profile(problem, 1.0, 10)
    assert len(profile) == 11
    assert len(reconstruct_physical(profile, spreading_exponents(), 1.0, 4.0).x) == 11
    assert "x" in PhysicalProfile._fields
