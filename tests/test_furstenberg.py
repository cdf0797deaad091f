from dataclasses import replace
from fractions import Fraction

import pytest

from fpfurst.furstenberg import (
    construct_2d,
    construct_general,
    lower_bound_sanity,
    meets_upper_bound,
    verify_family,
)
from fpfurst.indices import ceil_rational_power
from fpfurst.projections import PointSet

F = Fraction


def test_strip_family_is_full_strip():
    fam = construct_2d(1, 2, 5)
    assert fam.branch == "2d-strip"
    assert len(fam.union) == 25
    assert verify_family(fam).is_valid
    assert meets_upper_bound(fam, 16)


def test_st_grid_family_bounds():
    fam = construct_2d(F(1, 2), 1, 29)
    assert fam.branch == "2d-st-grid"
    assert verify_family(fam).is_valid
    # slopes 1..ceil(29^(1/4)), intercepts 1..ceil(29^(3/4)), x-range 1..3:
    # E sits inside a 3 x 26 box, well under 8 * 29^(5/4)
    assert all(1 <= x <= 3 and 1 <= y <= 26 for (x, y) in fam.union)
    assert len(fam.union) ** 4 <= 8**4 * 29**5


def test_pencil_family_size():
    fam = construct_2d(0, F(3, 2), 7)
    assert len(fam.union) == ceil_rational_power(7, F(1, 2)) == 3
    assert verify_family(fam).is_valid
    assert fam.lam == F(1, 2)


def test_origin_pencil_single_point():
    fam = construct_2d(0, 1, 7)
    assert len(fam.union) == 1 and len(fam.members) == 7
    assert verify_family(fam).is_valid


def test_trivial_branch():
    fam = construct_2d(1, F(1, 2), 11)
    assert fam.branch == "2d-trivial"
    assert verify_family(fam).is_valid and meets_upper_bound(fam, 16)


def test_branch_selection_is_pinned():
    # overlapping ranges resolve deterministically: t = s prefers the trivial
    # sum-bound family, t = 2 - s prefers the line grid
    assert construct_2d(F(1, 2), F(1, 2), 11).branch == "2d-trivial"
    assert construct_2d(F(1, 2), F(3, 2), 11).branch == "2d-st-grid"
    assert construct_2d(F(1, 2), F(7, 4), 11).branch == "2d-strip"


def test_construct_2d_rejects_out_of_range():
    with pytest.raises(ValueError):
        construct_2d(F(3, 2), 1, 5)
    with pytest.raises(ValueError):
        construct_2d(F(1, 2), F(5, 2), 5)


def test_general_case_a_origin():
    fam = construct_general(0, 1, 3, 1, 5)
    assert fam.branch == "general-a-origin"
    assert len(fam.union) == 1
    assert verify_family(fam).is_valid and lower_bound_sanity(fam)


def test_general_case_a_transverse():
    fam = construct_general(0, F(5, 2), 3, 1, 3)
    assert fam.branch == "general-a-transverse"
    assert len(fam.union) == ceil_rational_power(3, F(1, 2)) == 2
    assert verify_family(fam).is_valid and meets_upper_bound(fam, 16)


def test_general_case_b_shared_points():
    fam = construct_general(F(3, 2), 1, 4, 3, 7)
    assert fam.branch == "general-b-shared"
    assert len(fam.union) == 19
    assert verify_family(fam).is_valid and lower_bound_sanity(fam)


def test_general_product_k1():
    fam = construct_general(1, 3, 3, 1, 11)
    assert verify_family(fam).is_valid
    assert meets_upper_bound(fam, 16) and lower_bound_sanity(fam)
    # the whole family lives over a plane-sized union: F(1,3;3,1) = 3
    assert len(fam.union) <= 11**3


def test_general_case_d():
    fam = construct_general(2, 3, 3, 2, 7)
    assert fam.branch == "general-d"
    assert verify_family(fam).is_valid and meets_upper_bound(fam, 16)
    assert len(fam.union) == 7**3  # the extreme corner fills the space


def test_general_transverse_lift():
    fam = construct_general(F(1, 2), 3, 4, 2, 3)
    assert fam.branch == "general-c-lifted"
    assert verify_family(fam).is_valid and meets_upper_bound(fam, 16)
    # every member flat meets the coordinate 3-space in exactly its seed line
    assert all(flat.k == 2 for flat, _ in fam.members)


def test_inadmissible_rejected():
    with pytest.raises(ValueError):
        construct_general(3, 1, 3, 2, 5)


def test_verify_family_detects_point_off_flat():
    fam = construct_2d(F(1, 2), 1, 29)
    flat, ys = fam.members[0]
    bad_point = next(
        q for q in PointSet.full_space(2, 29) if not flat.contains_point(q)
    )
    mutated_members = ((flat, PointSet.from_iterable([*ys, bad_point], 2, 29)),) + fam.members[1:]
    mutated = replace(fam, members=mutated_members)
    validity = verify_family(mutated)
    assert not validity.is_valid
    assert any("member 0" in f and "off its flat" in f for f in validity.failures)


def test_verify_family_detects_truncated_family():
    fam = construct_2d(F(1, 2), 1, 29)
    mutated = replace(fam, members=fam.members[:1])
    validity = verify_family(mutated)
    assert not validity.is_valid
    assert any("fewer than lambda*p^t" in f for f in validity.failures)


def test_verify_family_detects_small_y_set():
    fam = construct_2d(1, 2, 5)
    flat, ys = fam.members[0]
    mutated_members = ((flat, PointSet.from_iterable(list(ys)[:1], 2, 5)),) + fam.members[1:]
    validity = verify_family(replace(fam, members=mutated_members))
    assert not validity.is_valid
    assert any("member 0" in f and "below lambda*p^s" in f for f in validity.failures)


def test_lower_bound_sanity_all_branches():
    for fam in (
        construct_2d(F(1, 2), F(3, 2), 29),
        construct_2d(1, 2, 5),
        construct_general(F(3, 2), 1, 4, 3, 7),
    ):
        assert lower_bound_sanity(fam)


def test_determinism_and_round_trip():
    fam = construct_general(1, 3, 3, 1, 7)
    assert fam == construct_general(1, 3, 3, 1, 7)
    assert verify_family(fam).is_valid
