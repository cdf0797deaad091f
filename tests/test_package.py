"""The package namespace: every public name, resolved on first access; and
the token counts of the modules every `count` launch compiles."""

import importlib
import pathlib
import tokenize

import pytest

import fpfurst

# The public names, by the module that defines them; the error classes are a
# case of their own, resolved from the module named in HOME.
PUBLIC = {
    "_kernel": {"backend_name"},
    "errors": {"DegenerateScaleError"},
    "exceptional": {
        "ExceptionalWitness", "certify_lower_bound", "construct_marstrand_witness",
    },
    "flags": {
        "AffineFlat", "LinearSubspace", "enumerate_affine", "enumerate_linear",
        "gaussian_binomial",
    },
    "furstenberg": {
        "FurstenbergFamily", "construct_general", "lower_bound_sanity", "meets_upper_bound",
        "verify_family",
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
HOME = {"errors": "primefield"}
NAMES = set().union(*PUBLIC.values())


def test_all_lists_every_public_name():
    assert len(NAMES) == 30
    assert set(fpfurst.__all__) == NAMES
    assert fpfurst.__version__ == "0.1.0"


@pytest.mark.parametrize("case", sorted(PUBLIC))
def test_each_public_name_is_its_modules_object(case):
    mod = importlib.import_module(f"fpfurst.{HOME.get(case, case)}")
    for name in PUBLIC[case]:
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


# CPython's parser holds a module's tokens in an array that doubles at each
# power of two.  Past 2,048 tokens `flags.py`'s compile peak rose by about
# 115 KB, and every launch that compiles it without cached bytecode paid that
# in peak RSS.
TOKEN_STEP = 2048


def _code_tokens(path) -> int:
    """Tokens without comments and blank lines, an f-string counted as one
    token as Python 3.11's tokenizer gives it, whatever the Python."""
    count = depth = 0
    with open(path, encoding="utf-8") as f:
        for tok in tokenize.generate_tokens(f.readline):
            name = tokenize.tok_name[tok.type]
            if name in ("COMMENT", "NL"):
                continue
            if name == "FSTRING_START":
                count += depth == 0
                depth += 1
            elif name == "FSTRING_END":
                depth -= 1
            elif depth == 0:
                count += 1
    return count


@pytest.mark.parametrize("module", ["_kernel", "flags", "projections"])
def test_module_stays_below_the_parser_token_step(module):
    path = pathlib.Path(fpfurst.__file__).with_name(f"{module}.py")
    tokens = _code_tokens(path)
    assert tokens < TOKEN_STEP, (
        f"{module}.py has {tokens} code tokens, at or past the parser's {TOKEN_STEP}-token array "
        f"step: its compile peak, and so each launch's peak RSS, jumps there; take tokens out or split it"
    )
