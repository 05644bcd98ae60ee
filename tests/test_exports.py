"""The export lists name only what exists, and removed helpers stay removed."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import dss_alloc
from dss_alloc.cli import RunSpec

MODULES = ["dss_alloc"] + [
    f"dss_alloc.{info.name}" for info in pkgutil.iter_modules(dss_alloc.__path__)
]

REMOVED = [
    "CandidateCheck",
    "EXACT_HARMONIC_LIMIT",
    "ThresholdResult",
    "binomial_pmf",
    "constant_prob_m1_optimal_alpha",
    "fixed_scaled_nonoptimality_threshold",
    "fixed_scaled_optimality_threshold",
    "fixed_shifted_nonoptimality_threshold",
    "fixed_shifted_optimality_threshold",
    "hypergeometric_support",
    "log_binomial",
    "optimal_alpha_profile",
    "prob_scaled_nonoptimality_threshold",
    "prob_scaled_optimality_threshold",
    "prob_shifted_nonoptimality_threshold",
    "prob_shifted_optimality_threshold",
    "sweep",
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        assert set(exported) <= set(namespace)


def test_removed_helpers_are_not_exposed():
    for name in MODULES:
        module = importlib.import_module(name)
        assert [attr for attr in REMOVED if hasattr(module, attr)] == [], name
    assert not hasattr(RunSpec, "to_dict")
