"""The public API: what `ehrlab` and its modules export, and what they no longer do."""

import ast
import importlib
import inspect
from dataclasses import fields

import pytest

import ehrlab

MODULES = ("cli", "convergence", "ehrling", "operators", "optimize", "spaces", "veryweak")

# names that no job, acceptance check or benchmark read, removed with their
# callers: module -> names
REMOVED = {
    "veryweak": ("very_weak_distance", "compare_certified"),
    "ehrling": ("certificate_from_modulus", "modulus_delta"),
    "operators": ("apply",),
    # a functional is an Element, a custom sequence a SequenceGen, and an
    # operator chain a norm_handle with ops
    "spaces": ("zero_element", "basis_element", "Functional"),
    "convergence": ("term", "custom_sequence"),
    "optimize": ("operator_handle",),
    "errors": ("NullspaceEmptyError",),
}
REMOVED_ATTRIBUTES = (
    (ehrlab.CertifiedValue, "midpoint"),
    (ehrlab.CertifiedValue, "width"),
    (ehrlab.EhrlingCertificate, "row"),
    # the very weak norm is named by a DualFamily only
    (ehrlab.NormSpec, "very_weak"),
    (ehrlab.OptimalConstantResult, "as_dict"),
)
# settings that no caller varied (now module constants) or that only tests
# set: callable -> parameters
REMOVED_PARAMETERS = {
    "optimize.norm_handle": ("enclosure_tol", "norm_cap"),
    "convergence.classify": ("tau", "probes"),
    "convergence.implication_suite": ("probes",),
    "convergence.default_probes": ("n_enumerated", "n_random", "seed", "envelope"),
    "convergence.appendix_counterexample": ("dim_margin", "dim_schedule"),
    "convergence.counterexample_sequence": ("dim_margin",),
    "convergence.default_dim": ("margin",),
    "ehrling.verify_certificate": ("witnesses",),
}
REMOVED_FIELDS = (
    (ehrlab.NormSpec, ("family", "tolerance")),
    # a sequence is its elements and its declared limit
    (ehrlab.SequenceGen, ("dim_margin", "rule", "dim", "rate", "fam")),
)

API_SIZE = 62


@pytest.mark.parametrize("where", ("ehrlab",) + MODULES)
def test_every_exported_name_resolves_once(where):
    mod = ehrlab if where == "ehrlab" else importlib.import_module(f"ehrlab.{where}")
    names = mod.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [n for n in names if not hasattr(mod, n)]
    assert missing == []


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"ehrlab.{module}")
        for name in names:
            assert not hasattr(ehrlab, name), name
            assert not hasattr(mod, name), f"{module}.{name}"
            assert name not in getattr(mod, "__all__", ())
    for owner, name in REMOVED_ATTRIBUTES:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"


def test_each_name_is_exported_by_one_module():
    owners = {}
    for where in MODULES:
        for name in importlib.import_module(f"ehrlab.{where}").__all__:
            owners.setdefault(name, []).append(where)
    assert {n: w for n, w in owners.items() if len(w) > 1} == {}


def test_api_size():
    assert len(ehrlab.__all__) == API_SIZE


def test_unvaried_settings_are_constants():
    names = [f.name for f in fields(ehrlab.OptimizerSettings)]
    assert "step_init" not in names and "bisect_rel_width" not in names
    assert len(names) == 7


def test_removed_parameters_and_fields_are_gone():
    for path, params in REMOVED_PARAMETERS.items():
        module, name = path.split(".")
        fn = getattr(importlib.import_module(f"ehrlab.{module}"), name)
        present = set(inspect.signature(fn).parameters) & set(params)
        assert present == set(), path
    for owner, names in REMOVED_FIELDS:
        assert {f.name for f in fields(owner)}.isdisjoint(names), owner.__name__


def test_spaces_does_not_import_veryweak():
    tree = ast.parse(inspect.getsource(importlib.import_module("ehrlab.spaces")))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not any("veryweak" in name for name in imported), imported
