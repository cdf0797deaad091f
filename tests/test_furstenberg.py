import hashlib
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfurst import _kernel
from fpfurst.flags import AffineFlat, LinearSubspace, enumerate_affine, enumerate_linear
from fpfurst.furstenberg import (
    FurstenbergFamily,
    _complements,
    _cross,
    _extrude_graphs,
    _first_off_flat,
    _strip,
    construct_general,
    lower_bound_sanity,
    meets_upper_bound,
    verify_family,
)
from fpfurst.indices import ceil_rational_power
from fpfurst.primefield import DegenerateScaleError
from fpfurst.projections import PointSet
from projection_oracle import full_space
from rank_oracle import stacked_rank

F = Fraction


def test_strip_family_is_full_strip():
    fam = construct_general(1, 2, 2, 1, 5)
    assert fam.branch == "2d-strip"
    assert len(fam.union) == 25
    assert verify_family(fam).is_valid
    assert meets_upper_bound(fam, 16)


def test_st_grid_family_bounds():
    fam = construct_general(F(1, 2), 1, 2, 1, 29)
    assert fam.branch == "2d-st-grid"
    assert verify_family(fam).is_valid
    # slopes 1..ceil(29^(1/4)), intercepts 1..ceil(29^(3/4)), x-range 1..3:
    # E sits inside a 3 x 26 box, well under 8 * 29^(5/4)
    assert all(1 <= x <= 3 and 1 <= y <= 26 for (x, y) in fam.union)
    assert len(fam.union) ** 4 <= 8**4 * 29**5


def test_pencil_family_size():
    fam = construct_general(0, F(3, 2), 2, 1, 7)
    assert len(fam.union) == ceil_rational_power(7, F(1, 2)) == 3
    assert verify_family(fam).is_valid
    assert fam.lam == F(1, 2)


def test_origin_pencil_single_point():
    fam = construct_general(0, 1, 2, 1, 7)
    assert len(fam.union) == 1 and len(fam.members) == 7
    assert verify_family(fam).is_valid


def test_trivial_branch():
    fam = construct_general(1, F(1, 2), 2, 1, 11)
    assert fam.branch == "2d-trivial"
    assert verify_family(fam).is_valid and meets_upper_bound(fam, 16)


def test_branch_selection_is_pinned():
    # overlapping ranges resolve deterministically: t = s prefers the trivial
    # sum-bound family, t = 2 - s prefers the line grid
    assert construct_general(F(1, 2), F(1, 2), 2, 1, 11).branch == "2d-trivial"
    assert construct_general(F(1, 2), F(3, 2), 2, 1, 11).branch == "2d-st-grid"
    assert construct_general(F(1, 2), F(7, 4), 2, 1, 11).branch == "2d-strip"


def test_construct_2d_rejects_out_of_range():
    with pytest.raises(ValueError):
        construct_general(F(3, 2), 1, 2, 1, 5)
    with pytest.raises(ValueError):
        construct_general(F(1, 2), F(5, 2), 2, 1, 5)


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


@pytest.mark.parametrize(
    "case, branch, d, members",
    [
        pytest.param((F(1, 2), 3, 4, 2, 3), "general-c-lifted", 0, 54, id="c-lifted"),
        pytest.param((2, F(7, 2), 4, 3, 3), "general-d-lifted", 1, 81, id="d-lifted"),
    ],
)
def test_general_transverse_lift(case, branch, d, members):
    fam = construct_general(*case)
    _, _, n, k, p = case
    assert fam.branch == branch and len(fam.members) == members
    assert verify_family(fam).is_valid and meets_upper_bound(fam, 16)
    # every member k-flat meets the coordinate slice F_p^(n-k+d+1) exactly in
    # its (d+1)-dimensional seed flat, which carries the marked points
    slice_dim = n - k + d + 1
    for flat, ys in fam.members:
        assert flat.k == k
        inside = {q for q in flat.points() if not any(q[slice_dim:])}
        assert len(inside) == p ** (d + 1)
        assert set(ys) <= inside


def test_inadmissible_rejected():
    with pytest.raises(ValueError):
        construct_general(3, 1, 3, 2, 5)


def test_verify_family_detects_point_off_flat():
    fam = construct_general(F(1, 2), 1, 2, 1, 29)
    flat, ys = fam.members[0]
    bad_point = next(
        q for q in full_space(2, 29) if not flat.contains_point(q)
    )
    mutated_members = ((flat, PointSet.from_iterable([*ys, bad_point], 2, 29).points),) + fam.members[1:]
    mutated = fam.replace(members=mutated_members)
    validity = verify_family(mutated)
    assert not validity.is_valid
    assert any("member 0" in f and "off its flat" in f for f in validity.failures)


def _with_y_set(fam, i, ys):
    """fam with member i's y-set replaced."""
    return fam.replace(members=fam.members[:i] + ((fam.members[i][0], ys),) + fam.members[i + 1 :])


def test_verify_family_names_off_flat_point_of_later_member():
    p = 5
    fam = construct_general(2, 3, 3, 2, p)
    assert fam.branch == "general-d" and verify_family(fam).is_valid
    # a member after the first whose direction differs from member 0's
    first = fam.members[0][0].direction
    i = next(j for j, (fl, _) in enumerate(fam.members) if fl.direction != first)
    flat, ys = fam.members[i]
    (free,) = set(range(3)) - set(flat.direction.pivots)
    pts = list(ys)
    # shift one marked point along the non-pivot axis: it leaves the flat
    bad = tuple((e + 1) % p if c == free else e for c, e in enumerate(pts[1]))
    assert not flat.contains_point(bad)
    mutated = _with_y_set(fam, i, PointSet.from_iterable(pts[:1] + pts[2:] + [bad], 3, p).points)
    assert len(mutated.members[i][1]) == len(ys)
    assert verify_family(mutated).failures == (f"member {i}: point {bad} lies off its flat",)


@st.composite
def _flat_and_points(draw):
    """A flat of F_p^n, n <= 4, 0 <= k < n, whose basis leaves some drawn
    non-pivot columns untouched, and a list of points: on the flat, copies of
    the base, points moved off it only at an untouched column, and any points."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n - 1))
    pivots = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
    untouched = sorted(draw(st.sets(st.sampled_from([j for j in range(n) if j not in pivots]))))
    residue = st.integers(0, p - 1)
    entries = tuple(
        int(j == c) if j <= c or j in pivots or j in untouched else draw(residue)
        for c in pivots for j in range(n)
    )
    flat = AffineFlat.through(draw(st.tuples(*[residue] * n)), LinearSubspace(p, k, n, entries, pivots))
    basis = flat.direction.to_rows()
    on_flat = st.tuples(*[residue] * k).map(lambda cs: tuple(
        (b + sum(c * row[j] for c, row in zip(cs, basis))) % p for j, b in enumerate(flat.base)
    ))
    kinds = [on_flat, st.just(flat.base), st.tuples(*[residue] * n)]
    if untouched:
        kinds.append(st.tuples(on_flat, st.sampled_from(untouched), st.integers(1, p - 1)).map(
            lambda a: a[0][: a[1]] + ((a[0][a[1]] + a[2]) % p,) + a[0][a[1] + 1 :]
        ))
    return flat, tuple(draw(st.lists(st.one_of(kinds), max_size=12)))


@given(_flat_and_points())
@settings(max_examples=300, deadline=None)
def test_first_off_flat_agrees_with_reduce(case):
    flat, pts = case
    rows, p = flat.direction._rows, flat.p
    reduced = [_kernel._reduce(x, rows, p) for x in pts]
    got = _first_off_flat(pts, flat, p)
    assert (got is None) == all(r == flat.base for r in reduced)
    assert got == next((x for x, r in zip(pts, reduced) if r != flat.base), None)


def test_verify_family_empty_y_set_is_only_too_small():
    p = 5
    fam = construct_general(2, 3, 3, 2, p)
    i = len(fam.members) - 1
    validity = verify_family(_with_y_set(fam, i, ()))
    assert validity.failures == (f"member {i}: y-set has 0 points, below lambda*p^s",)


def test_verify_family_detects_truncated_family():
    fam = construct_general(F(1, 2), 1, 2, 1, 29)
    mutated = fam.replace(members=fam.members[:1])
    validity = verify_family(mutated)
    assert not validity.is_valid
    assert any("fewer than lambda*p^t" in f for f in validity.failures)


def test_verify_family_detects_small_y_set():
    fam = construct_general(1, 2, 2, 1, 5)
    flat, ys = fam.members[0]
    mutated_members = ((flat, ys[:1]),) + fam.members[1:]
    validity = verify_family(fam.replace(members=mutated_members))
    assert not validity.is_valid
    assert any("member 0" in f and "below lambda*p^s" in f for f in validity.failures)


def test_lower_bound_sanity_all_branches():
    for fam in (
        construct_general(F(1, 2), F(3, 2), 2, 1, 29),
        construct_general(1, 2, 2, 1, 5),
        construct_general(F(3, 2), 1, 4, 3, 7),
    ):
        assert lower_bound_sanity(fam)


def test_determinism_and_round_trip():
    fam = construct_general(1, 3, 3, 1, 7)
    assert fam == construct_general(1, 3, 3, 1, 7)
    assert verify_family(fam).is_valid


def test_union_is_the_union_of_the_members_y_sets():
    fam = construct_general(F(1, 2), 1, 2, 1, 29)
    assert fam._fields == ("s", "t", "n", "k", "p", "branch", "members")
    for m in (1, 7, 20):
        kept = fam.replace(members=fam.members[:m])
        assert kept.union == PointSet.from_iterable((q for _, ys in kept.members for q in ys), 2, 29)
        assert len(kept.union) < len(fam.union)


@pytest.mark.parametrize(
    "ys, bad",
    [
        pytest.param(((3, 3), (10, 10)), (10, 10), id="ys0"),  # (10, 10) mod 7 lies on the diagonal
        pytest.param(((0,), (1,)), (0,), id="ys1"),
    ],
)
def test_verify_family_reports_y_set_in_wrong_space(ys, bad):
    # points of F_11^2 or F_7^1 make the union invalid, and the y-set is then
    # re-validated in the family's space F_7^2
    fam = construct_general(F(1, 2), 1, 2, 1, 7)
    diagonal = AffineFlat.through((0, 0), LinearSubspace.from_rows([[1, 1]], 2, 7))
    validity = verify_family(fam.replace(members=((diagonal, ys),) + fam.members[1:]))
    assert validity.failures == (f"member 0: invalid y-set: bad point {bad} for F_7^2",)


# Member 0 of the p = 5 strip is the diagonal (0, 0), ..., (4, 4); every point
# of F_5^2 is marked, by member 0 first where it lies on the diagonal.
_DIAGONAL = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4))
_NOT_INTS = "member 0: invalid y-set: entries must be ints"
_NOT_TUPLES = "member 0: invalid y-set: points must be a tuple of tuples"


@pytest.mark.parametrize(
    "points, failures",
    [
        (_DIAGONAL[:4] + ((4.5, 4),), (_NOT_INTS,)),
        (_DIAGONAL[:4] + ((5, 5),), ("member 0: invalid y-set: bad point (5, 5) for F_5^2",)),
        (_DIAGONAL[:4] + ((4, 4, 0),), ("member 0: invalid y-set: bad point (4, 4, 0) for F_5^2",)),
        (_DIAGONAL + ((4, 4),), ("member 0: y-set is not strictly sorted",)),  # duplicate
        (_DIAGONAL[1::-1] + _DIAGONAL[2:], ("member 0: y-set is not strictly sorted",)),  # out of order
        # marked first, 1.0 is the union's representative of (1, 1), and refused
        (_DIAGONAL[:1] + ((1.0, 1),) + _DIAGONAL[2:], (_NOT_INTS,)),
        (_DIAGONAL[:1] + ((1.0, 1),) + _DIAGONAL[2:4] + ((4, 0),), (_NOT_INTS,)),
        # an unhashable point fails the union, then PointSet's check
        pytest.param(_DIAGONAL[:4] + ([4, 4],), (_NOT_TUPLES,), id="list-point"),
        # the right points in a container that is not a tuple: the union is valid
        pytest.param(list(_DIAGONAL), (_NOT_TUPLES,), id="list"),
        pytest.param(PointSet(2, 5, _DIAGONAL), (_NOT_TUPLES,), id="point-set"),
    ],
)
def test_verify_family_reports_unvalidated_y_set(points, failures):
    fam = construct_general(1, 2, 2, 1, 5)
    assert fam.members[0][1] == _DIAGONAL and len(fam.union) == 25
    validity = verify_family(fam.replace(members=((fam.members[0][0], points),) + fam.members[1:]))
    assert validity.failures == failures
    assert validity.is_valid == (not failures)


def test_verify_family_counts_a_float_point_after_its_int_twin():
    # member 0 marks (1, 1) before member 9 marks (1.0, 1): the union keeps the
    # int, and 1.0 counts as the point 1, by value
    fam = construct_general(1, 2, 2, 1, 5)
    ys = fam.members[9][1]
    assert (1, 1) in fam.members[0][1] and ys[1] == (1, 1)
    mutated = _with_y_set(fam, 9, ys[:1] + ((1.0, 1),) + ys[2:])
    assert verify_family(mutated).failures == ()
    assert mutated.union == fam.union


def test_verify_family_reports_flat_in_wrong_space():
    fam = construct_general(1, 2, 2, 1, 5)
    for flat in (
        AffineFlat.through((0, 0), LinearSubspace.from_rows([[1, 1]], 2, 7)),
        AffineFlat.through((0, 0, 0), LinearSubspace.from_rows([[1, 1, 0]], 3, 5)),
    ):
        mutated = fam.replace(members=((flat, fam.members[0][1]),) + fam.members[1:])
        assert verify_family(mutated).failures == ("member 0: flat in wrong space",)


def test_verify_family_reports_flat_dimension():
    # the whole plane holds member 0's marked points, but it is a 2-flat
    fam = construct_general(1, 2, 2, 1, 5)
    plane = AffineFlat.through((0, 0), LinearSubspace.coordinate((0, 1), 2, 5))
    mutated = fam.replace(members=((plane, fam.members[0][1]),) + fam.members[1:])
    assert verify_family(mutated).failures == ("member 0: flat dimension 2 != 1",)


def test_verify_family_reports_duplicate_flat():
    fam = construct_general(1, 2, 2, 1, 5)
    mutated = fam.replace(members=fam.members[:1] * 2 + fam.members[2:])
    assert verify_family(mutated).failures == ("member 1: duplicate flat",)


def test_lower_bound_sanity_refuses_small_unions():
    fam = construct_general(1, 2, 2, 1, 5)
    assert lower_bound_sanity(fam)
    axis = next(m for m in fam.members if m[0].direction.row(0) == (0, 1) and m[0].base == (0, 0))
    # #E = 2 < ceil(p^s / 2) = 3
    assert not lower_bound_sanity(fam.replace(members=((axis[0], axis[1][:2]),)))
    # #E = 3 clears the first bound, but 3 * #G(1, F_5^2) = 18 < ceil(p^3 / 4) = 32
    three = fam.replace(s=F(1), t=F(2), members=((axis[0], axis[1][:3]),))
    assert three.union.points == ((0, 0), (0, 1), (0, 2)) and not lower_bound_sanity(three)


def test_meets_upper_bound_refuses_nonpositive_constant():
    fam = construct_general(1, 2, 2, 1, 5)
    for constant in (0, -1):
        with pytest.raises(ValueError):
            meets_upper_bound(fam, constant)


def test_construct_2d_sweep_degenerates_only_at_the_slope_cap():
    # ceil(p^((t-s)/2)) slopes need p - 1 nonzero ones; every other count of
    # the 2-D recipes stays <= p on the domain, so only this cap can fire
    raised, valid = {}, 0
    for p in (2, 3, 5, 7):
        for s, t in itertools.product((F(i, 12) for i in range(13)), (F(j, 12) for j in range(25))):
            try:
                fam = construct_general(s, t, 2, 1, p)
            except DegenerateScaleError as exc:
                assert str(exc).startswith("slope count ceil(p^((t-s)/2)) = "), exc
                raised[p] = raised.get(p, 0) + 1
                continue
            assert verify_family(fam).is_valid, (s, t, p)
            valid += 1
    assert raised == {2: 132, 3: 16, 5: 2} and valid == 1150


def _strip_reference(s, t, p):
    """Each non-horizontal line's own points, filtered by strip row."""
    rows = {r % p for r in range(1, ceil_rational_power(p, s) + 1)}
    members = tuple(
        (line, tuple(sorted(q for q in line.points() if q[1] in rows)))
        for line in enumerate_affine(2, 1, p)
        if line.direction.row(0) != (1, 0)
    )
    union = PointSet.from_iterable((q for _, ys in members for q in ys), 2, p)
    return members, union


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_strip_family_matches_filtered_lines(p):
    # ceil(p^s) <= p for s <= 1, so no s of the 1/12 grid is degenerate
    for s in (F(i, 12) for i in range(13)):
        fam = FurstenbergFamily(s, F(2), 2, 1, p, "2d-strip", tuple(_strip(s, F(2), p)))
        members, union = _strip_reference(s, F(2), p)
        assert fam.members == members, s
        assert fam.union == union, s


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complements_match_the_rank_filter(n, p):
    # U + C = F_p^n for the slice C of the first n - dim axes, decided by the
    # oracle's rank of the stacked bases, in enumeration order
    for dim in range(n + 1):
        C = LinearSubspace.coordinate(range(n - dim), n, p)
        want = [U for U in enumerate_linear(n, dim, p) if stacked_rank(U, C) == n]
        assert _complements(n, dim, p) == want, dim


def _graphs_reference(member, depth, p):
    """W(T, z) = {(u, y*T + z) : u = u0 + y*B} point by point, with y found
    by search over all coefficient vectors."""
    flat, ys = member
    q, dim = flat.n, flat.k
    basis = flat.direction.to_rows()
    out = []
    for tmat in itertools.product(itertools.product(range(p), repeat=depth), repeat=dim):
        direction = LinearSubspace.from_rows(
            [list(b) + list(row) for b, row in zip(basis, tmat)], q + depth, p
        )
        for z in itertools.product(range(p), repeat=depth):
            pts = []
            for u in ys:
                (y,) = [
                    y for y in itertools.product(range(p), repeat=dim)
                    if tuple((a + sum(c * b[j] for c, b in zip(y, basis))) % p
                             for j, a in enumerate(flat.base)) == u
                ]
                lift = [(sum(c * row[j] for c, row in zip(y, tmat)) + z[j]) % p
                        for j in range(depth)]
                pts.append(tuple(u) + tuple(lift))
            out.append(
                (AffineFlat.through(flat.base + z, direction), PointSet.from_iterable(pts, q + depth, p).points)
            )
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2])
def test_extrude_graphs_matches_point_formula(p, depth):
    line = (
        AffineFlat.through((0,), LinearSubspace.coordinate((0,), 1, p)),
        tuple([(x,) for x in range(p)]),
    )
    strip = _strip(F(1, 2), F(2), p)
    members = [line, strip[1], strip[-1]]  # slanted and vertical lines
    if p ** (3 * depth) <= 729:
        members.append(_cross(strip[p + 1], 1, p, full=True))  # a 2-flat of F_p^3
    for member in members:
        got = _extrude_graphs(member, depth, p, {})
        assert got == _graphs_reference(member, depth, p)


def _family_digest(fam):
    """sha256 over the parameters, every flat (basis entries, base) with its
    marked points, and the union."""
    h = hashlib.sha256()
    h.update(repr((str(fam.s), str(fam.t), fam.n, fam.k, fam.p, str(fam.lam), fam.branch)).encode())
    for flat, ys in fam.members:
        h.update(repr((flat.direction.entries, flat.base, ys)).encode())
    h.update(repr(fam.union.points).encode())
    return h.hexdigest()


# One case per construction branch and helper path, at small p.  The digests
# were taken from the families the point-listing constructions built, before
# the strip and the graph extrusion were computed arithmetically.
GOLDEN = [
    ((0, 1, 2, 1, 7), "2d-origin-pencil",
     "fbf452f7e70e2b5654752d0c37157f6bd7ad08db9b7d41a099d2d1c715d86715"),
    ((0, F(3, 2), 2, 1, 7), "2d-axis-pencils",
     "195f94716aad52e0baa5edc2b004618746d975ab651a7a651fe509825d0a58d8"),
    ((1, F(1, 2), 2, 1, 11), "2d-trivial",
     "723cbd81b62f5416806c2597a8844af0596dd2a6eeae5b07feb35d76a7b4cebe"),
    ((F(1, 2), 1, 2, 1, 29), "2d-st-grid",
     "49ce8d5bdc09c6e0975188b5d8905ecc111127ffea4474541ac5054ca94fa122"),
    ((F(1, 2), F(7, 4), 2, 1, 11), "2d-strip",
     "03a08158a374571aa8d18af5793f2d5534756e0916980fe72d5007586219a5b7"),
    ((1, 2, 2, 1, 5), "2d-strip",
     "eb7e6c4efca062f282eeaa75235b82345d8cef34a71de235eb504aead488ce51"),
    ((0, 1, 3, 1, 5), "general-a-origin",
     "fda81a4180cc86fc83a71485a6d5a673fd0b3778e1b3ad0c2202dd8e4e10f875"),
    ((0, F(5, 2), 3, 1, 3), "general-a-transverse",
     "111d5293fb7a65698f7468ef821ce2a7679442410039e0eefc1973b6d5e1fe58"),
    ((F(3, 2), 1, 4, 3, 7), "general-b-shared",
     "1945199e1271f76813e26b0fdd28a896163883f99f5f8539f8f4954ae0c9c9d7"),
    ((1, 3, 3, 1, 5), "general-c",
     "543edd2f8db3890b9cdf36502b3e7f7b26daf02cf858f6848525f6e6f7c2581d"),
    ((F(1, 2), F(5, 2), 4, 1, 3), "general-c",  # padded to n
     "5ed1167a1f4c075630d8851bfcd0fd05d5aa674bb1c2be3d002a2cd5835fb582"),
    ((2, F(7, 2), 4, 2, 3), "general-c",  # full extrusion, then graphs over 2-flats
     "0dd14b37502ccd801ad7e1e130a66c75d3434f9c01bcd2efaee38455effd0088"),
    ((F(1, 2), 3, 4, 2, 3), "general-c-lifted",
     "43406600c4155273319bc7645a4261ac8e5387bf2e12e10d526efa81216abc9f"),
    ((2, 3, 3, 2, 5), "general-d",
     "f2f3281949b9d64c9ff3d8553132d510eb2235e03e6a87b51e132d5a520f840a"),
    ((2, F(7, 2), 4, 3, 3), "general-d-lifted",
     "0c384493fad980da5d20626f71f611f0575ab781396d570f6cf8b5239b8ee6e8"),
]


@pytest.mark.parametrize("case, branch, digest", GOLDEN)
def test_family_golden_digest(case, branch, digest):
    fam = construct_general(*case)
    assert fam.branch == branch
    assert _family_digest(fam) == digest


@pytest.mark.parametrize("case", [case for case, _, _ in GOLDEN])
def test_verify_family_names_a_point_moved_off_its_flat(case):
    # one marked point of a later member, moved by +1 along each non-pivot
    # axis in turn, is the one failure
    fam = construct_general(*case)
    i = len(fam.members) // 2
    assert i > 0
    flat, ys = fam.members[i]
    pt = ys[len(ys) // 2]
    for j in sorted(set(range(fam.n)) - set(flat.direction.pivots)):
        bad = pt[:j] + ((pt[j] + 1) % fam.p,) + pt[j + 1 :]
        moved = tuple(sorted({*ys, bad} - {pt}))
        assert len(moved) == len(ys)
        assert verify_family(_with_y_set(fam, i, moved)).failures == (
            f"member {i}: point {bad} lies off its flat",
        )


@pytest.mark.parametrize("case", [case for case, _, _ in GOLDEN])
def test_golden_y_sets_survive_validation(case):
    # A y-set is a plain tuple that no constructor checks; PointSet's
    # constructor must accept it, and sorting and deduplicating it must not
    # change it.
    fam = construct_general(*case)
    for ys in {id(ys): ys for _, ys in fam.members}.values():
        assert PointSet(fam.n, fam.p, ys) == PointSet.from_iterable(ys, fam.n, fam.p)


@pytest.mark.parametrize(
    "case, primes, branch, validations",
    [
        ((1, 2, 2, 1), (5, 7), "2d-strip", 1),
        ((F(1, 2), 1, 2, 1), (11, 29), "2d-st-grid", 1),
        ((1, 3, 3, 1), (5, 7), "general-c", 1),
        ((2, 3, 3, 2), (5, 7), "general-d", 1),
        ((F(3, 2), 1, 4, 3), (5, 7), "general-b-shared", 1),
    ],
)
def test_validation_work_per_construction(case, primes, branch, validations, monkeypatch):
    # A construction validates nothing; verify_family builds the union, the
    # only PointSet, so the count is the same at both primes while the member
    # count grows.  It checks the marked points column-major, one
    # _reduce_columns per member, with no _reduce call under any name the
    # package binds it to.
    checks, reduces, columns = [], [], []
    check, reduce, reduce_columns = PointSet.__init__, _kernel._reduce, _kernel._reduce_columns
    monkeypatch.setattr(PointSet, "__init__", lambda self, *a: checks.append(1) or check(self, *a))
    for module in [m for name, m in sys.modules.items() if name.startswith("fpfurst.")]:
        if getattr(module, "_reduce", None) is reduce:
            monkeypatch.setattr(module, "_reduce", lambda *a: reduces.append(1) or reduce(*a))
        if getattr(module, "_reduce_columns", None) is reduce_columns:
            monkeypatch.setattr(module, "_reduce_columns", lambda *a: columns.append(1) or reduce_columns(*a))
    members = set()
    for p in primes:
        fam = construct_general(*case, p)
        assert fam.branch == branch
        members.add(len(fam.members))
        assert not checks
        reduces.clear()
        columns.clear()
        assert verify_family(fam).is_valid
        assert len(checks) == validations
        assert not reduces and len(columns) == len(fam.members)
        # the patch is live: one membership test is one _reduce
        flat, ys = fam.members[-1]
        assert flat.contains_point(ys[0]) and len(reduces) == 1
        checks.clear()
    assert len(members) == len(primes)


def _sweep_digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _sweep(q, p, summary):
    """Every admissible (s, t; n, k) of the 1/q grid for n <= 4 at p builds a
    valid family within both bounds, or is degenerate.  Returns the
    degenerate keys and, per built point, its key followed by
    `summary(family)`, both in grid order."""
    raised, built = [], []
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        for i, j in itertools.product(range(q * k + 1), range(q * (k + 1) * (n - k) + 1)):
            s, t = F(i, q), F(j, q)
            key = (str(s), str(t), n, k)
            try:
                fam = construct_general(s, t, n, k, p)
            except DegenerateScaleError:
                raised.append(key)
                continue
            assert verify_family(fam).is_valid, key
            assert meets_upper_bound(fam, 16) and lower_bound_sanity(fam), key
            built.append((key, *summary(fam)))
    assert any(item[1].endswith("-lifted") for item in built)  # _lift_transverse ran
    return raised, built


@pytest.mark.parametrize(
    "p, degenerate, degenerate_digest, branch_digest",
    [
        pytest.param(
            2, 30, "20496a44be9e0d9d4417815f0593f4c591cfc08e4bc328beba5fe11b1d061ad9",
            "a50ab7deaebfaae9c0d487a902b2160cc8dce2eb2ffcb3d3408c813bfeeb5d3a", id="p2",
        ),
        pytest.param(
            3, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
            "3f3993b9de6d8ce6c5ab86c4a3002abef9008b0043c1c002211d76d84d266cab", id="p3",
        ),
    ],
)
def test_construction_sweep_over_the_half_grid(p, degenerate, degenerate_digest, branch_digest):
    # The digests pin the degenerate points and each built point's branch.
    raised, branches = _sweep(2, p, lambda fam: (fam.branch,))
    assert len(raised) + len(branches) == 244
    assert len(raised) == degenerate and _sweep_digest(raised) == degenerate_digest
    assert _sweep_digest(branches) == branch_digest


def test_construction_sweep_over_the_third_grid():
    # A case-c family's branch does not name its 2-D seed, so each built
    # point's member and union sizes are pinned with its branch; the digests
    # were taken from the constructions that dispatched on their own
    # conditions, before they read the piece label.
    raised, built = _sweep(3, 3, lambda fam: (fam.branch, len(fam.members), len(fam.union)))
    assert (len(built), len(raised)) == (474, 15)
    assert _sweep_digest(raised) == "127dcfeb5efd5c272604a8fcf39b259354efe106d3644c32fd828c4944be406f"
    assert _sweep_digest(built) == "a9ef224f07fbc0a39af9250e856b2666960fc2e7b5fee20768a663c7fee26d73"
