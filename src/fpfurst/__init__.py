"""Exact-arithmetic experiments with families of flats and projection
exceptional sets over prime fields F_p.

Each public name is imported from its module on first access (PEP 562), so
`import fpfurst` loads no submodule and a CLI launch loads only the modules
its command runs."""

import importlib

# The public names, by the module that defines them.
_MODULES = {
    "_kernel": ("backend_name",),
    "exceptional": (
        "ExceptionalWitness",
        "certify_lower_bound",
        "construct_marstrand_witness",
    ),
    "flags": (
        "AffineFlat",
        "LinearSubspace",
        "enumerate_affine",
        "enumerate_linear",
        "gaussian_binomial",
    ),
    "furstenberg": (
        "FurstenbergFamily",
        "construct_general",
        "lower_bound_sanity",
        "meets_upper_bound",
        "verify_family",
    ),
    "indices": (
        "NEG_INF",
        "ceil_rational_power",
        "furstenberg_index",
        "marstrand_index",
    ),
    "lemmas": (
        "GridSpec",
        "check_index_properties",
        "check_recursion_f1",
        "check_recursion_f2",
        "check_recursion_m",
    ),
    "primefield": ("DegenerateScaleError", "PrimeMatrix", "is_prime"),
    "projections": (
        "ExceptionalQuery",
        "PointSet",
        "count_small_projection_subspaces",
        "exceptional_set",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
