"""Exact-arithmetic experiments with families of flats and projection
exceptional sets over prime fields F_p."""

from ._kernel import backend_name
from .errors import DegenerateScaleError
from .exceptional import (
    ExceptionalWitness,
    certify_lower_bound,
    construct_marstrand_witness,
    construct_oberlin_rectangle,
)
from .flags import (
    AffineFlat,
    LinearSubspace,
    enumerate_affine,
    enumerate_linear,
    gaussian_binomial,
)
from .furstenberg import (
    FurstenbergFamily,
    construct_2d,
    construct_general,
    lower_bound_sanity,
    meets_upper_bound,
    verify_family,
)
from .indices import (
    NEG_INF,
    ceil_rational_power,
    furstenberg_index,
    marstrand_index,
)
from .lemmas import (
    GridSpec,
    check_index_properties,
    check_recursion_f1,
    check_recursion_f2,
    check_recursion_m,
)
from .primefield import PrimeMatrix, is_prime
from .projections import (
    ExceptionalQuery,
    PointSet,
    count_small_projection_subspaces,
    exceptional_set,
)

__version__ = "0.1.0"
