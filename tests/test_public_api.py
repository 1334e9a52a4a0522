"""The public API: what `ehrlab` and its modules export, and what they no longer do."""

import importlib
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
    "spaces": ("zero_element", "basis_element"),
}
REMOVED_ATTRIBUTES = (
    (ehrlab.CertifiedValue, "midpoint"),
    (ehrlab.CertifiedValue, "width"),
    (ehrlab.EhrlingCertificate, "row"),
)

API_SIZE = 66


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
            assert name not in mod.__all__
    for owner, name in REMOVED_ATTRIBUTES:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"


def test_api_size():
    assert len(ehrlab.__all__) == API_SIZE


def test_unvaried_settings_are_constants():
    names = [f.name for f in fields(ehrlab.OptimizerSettings)]
    assert "step_init" not in names and "bisect_rel_width" not in names
    assert len(names) == 7
