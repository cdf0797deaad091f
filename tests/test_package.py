"""The package namespace: every public name, resolved on first access."""

import importlib

import pytest

import fpfurst

# The public names, by the module that defines them.
PUBLIC = {
    "_kernel": {"backend_name"},
    "errors": {"DegenerateScaleError"},
    "exceptional": {
        "ExceptionalWitness", "certify_lower_bound", "construct_marstrand_witness",
        "construct_oberlin_rectangle",
    },
    "flags": {
        "AffineFlat", "LinearSubspace", "enumerate_affine", "enumerate_linear",
        "gaussian_binomial",
    },
    "furstenberg": {
        "FurstenbergFamily", "construct_2d", "construct_general", "lower_bound_sanity",
        "meets_upper_bound", "verify_family",
    },
    "indices": {"NEG_INF", "ceil_rational_power", "furstenberg_index", "marstrand_index"},
    "lemmas": {
        "GridSpec", "check_index_properties", "check_recursion_f1", "check_recursion_f2",
        "check_recursion_m",
    },
    "primefield": {"PrimeMatrix", "is_prime"},
    "projections": {
        "ExceptionalQuery", "PointSet", "count_small_projection_subspaces", "exceptional_set",
    },
}
NAMES = set().union(*PUBLIC.values())


def test_all_is_the_32_public_names():
    assert len(NAMES) == 32
    assert set(fpfurst.__all__) == NAMES
    assert fpfurst.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_public_name_is_its_modules_object(module):
    mod = importlib.import_module(f"fpfurst.{module}")
    for name in PUBLIC[module]:
        assert getattr(fpfurst, name) is getattr(mod, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from fpfurst import *", namespace)
    assert NAMES <= namespace.keys()
    assert NAMES <= set(dir(fpfurst))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(fpfurst, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        fpfurst.nope
    with pytest.raises(ImportError, match="nope"):
        exec("from fpfurst import nope", {})
