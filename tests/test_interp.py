import itertools
import random

import pytest

from oracles import (
    all_polynomials,
    interpolates,
    lex_poly_key,
    lex_standard_monomials,
)
from zddgb.boolgb import greedy_nf
from zddgb.boolpoly import BoolRing, eval_poly
from zddgb.interp import (
    InterpolationError,
    PartialFn,
    PointSet,
    add_partial,
    interpolate_simple,
    interpolate_smallest_lex,
    leading_monomials_variety,
    minimal_elements,
    nf_by_interpolate,
    ones,
    points_gb,
    standard_monomials,
    zeros,
)


def rand_poly(ring, rnd, max_terms=5):
    return ring.from_terms(
        frozenset(v for v in range(ring.n) if rnd.random() < 0.4)
        for _ in range(rnd.randrange(max_terms))
    )


def rand_points(ring, rnd, at_most):
    pts = {
        tuple(rnd.randrange(2) for _ in range(ring.n))
        for _ in range(rnd.randrange(at_most + 1))
    }
    return PointSet.from_points(ring, pts)


# -- zeros / ones ------------------------------------------------------------------


def test_zeros_examples():
    ring = BoolRing(["x"], "lp")
    S = PointSet.full_cube(ring)
    assert zeros(ring.zero, S) == S
    assert len(zeros(ring.one, S)) == 0
    assert sorted(zeros(ring.parse("x + 1"), S).points()) == [(1,)]
    assert sorted(ones(ring.parse("x"), S).points()) == [(1,)]
    assert ones(ring.one, S) == S
    assert len(ones(ring.zero, S)) == 0


def test_zeros_partition_and_pointwise():
    rnd = random.Random(31)
    for _ in range(60):
        n = rnd.randrange(1, 7)
        ring = BoolRing.indexed(n, "lp")
        f = rand_poly(ring, rnd)
        S = rand_points(ring, rnd, 12)
        Z = zeros(f, S)
        O = ones(f, S)
        assert Z.union(O) == S
        assert len(Z.intersect(O)) == 0
        for p in S.points():
            assert (p in set(Z.points())) == (eval_poly(f, p) == 0)


# -- partial functions ----------------------------------------------------------------


def test_partial_fn_overlap_rejected():
    ring = BoolRing(["x"], "lp")
    P = PointSet.from_points(ring, [(1,)])
    with pytest.raises(InterpolationError):
        PartialFn(P, P)


def test_add_partial_examples():
    ring = BoolRing(["x"], "lp")
    z0 = PointSet.from_points(ring, [(0,)])
    o1 = PointSet.from_points(ring, [(1,)])
    f = PartialFn(z0, o1)
    s = add_partial(f, f)
    assert s.zeros == f.domain() and len(s.ones) == 0
    empty = PartialFn(PointSet(ring, 0), PointSet(ring, 0))
    s2 = add_partial(f, empty)
    assert len(s2.zeros) == 0 and len(s2.ones) == 0
    g = PartialFn(o1, z0)
    s3 = add_partial(f, g)
    assert len(s3.zeros) == 0
    assert sorted(s3.ones.points()) == [(0,), (1,)]


# -- interpolation ----------------------------------------------------------------------


def test_interpolate_simple_examples():
    ring = BoolRing(["x"], "lp")
    empty = PointSet(ring, 0)
    pts0 = PointSet.from_points(ring, [(0,)])
    pts1 = PointSet.from_points(ring, [(1,)])
    assert interpolate_simple(PartialFn(empty, pts1)).is_one()
    assert interpolate_simple(PartialFn(pts0, empty)).is_zero()
    assert interpolate_simple(PartialFn(pts0, pts1)) == ring.parse("x")


def test_interpolate_smallest_lex_examples():
    ring = BoolRing(["x"], "lp")
    empty = PointSet(ring, 0)
    pts0 = PointSet.from_points(ring, [(0,)])
    pts1 = PointSet.from_points(ring, [(1,)])
    assert interpolate_smallest_lex(PartialFn(empty, pts1)).is_one()
    assert interpolate_smallest_lex(PartialFn(pts0, empty)).is_zero()
    assert interpolate_smallest_lex(PartialFn(pts0, pts1)) == ring.parse("x")
    r2 = BoolRing(["x", "y"], "lp")
    Z = PointSet.from_points(r2, [(0, 0), (1, 1)])
    O = PointSet.from_points(r2, [(0, 1), (1, 0)])
    # all four points fixed; the interpolant is unique among 16 candidates
    assert interpolate_smallest_lex(PartialFn(Z, O)) == r2.parse("x + y")


def test_both_interpolators_agree_on_domain():
    rnd = random.Random(32)
    for _ in range(60):
        n = rnd.randrange(1, 6)
        ring = BoolRing.indexed(n, "lp")
        dom = rand_points(ring, rnd, 10)
        Zp = PointSet.from_points(
            ring, [q for q in dom.points() if rnd.getrandbits(1)]
        )
        b = PartialFn(Zp, dom.diff(Zp))
        for interp in (interpolate_simple, interpolate_smallest_lex):
            p = interp(b)
            for q in b.zeros.points():
                assert eval_poly(p, q) == 0
            for q in b.ones.points():
                assert eval_poly(p, q) == 1


def test_lex_minimality_bruteforce_n3():
    rnd = random.Random(33)
    ring = BoolRing.indexed(3, "lp")
    candidates = list(all_polynomials(3))
    for _ in range(60):
        dom_pts = [
            tuple(rnd.randrange(2) for _ in range(3))
            for _ in range(rnd.randrange(9))
        ]
        zs = {p for p in dom_pts if rnd.random() < 0.5}
        os_ = set(dom_pts) - zs
        b = PartialFn(
            PointSet.from_points(ring, zs), PointSet.from_points(ring, os_)
        )
        got = interpolate_smallest_lex(b)
        feasible = [c for c in candidates if interpolates(c, zs, os_)]
        best = min(feasible, key=lambda c: lex_poly_key(c, 3))
        got_terms = frozenset(frozenset(t) for t in got.terms())
        assert lex_poly_key(got_terms, 3) == lex_poly_key(best, 3)


# -- normal form against a variety ----------------------------------------------------------


def test_nf_by_interpolate_examples():
    ring = BoolRing(["x", "y"], "lp")
    cube = PointSet.full_cube(ring)
    assert nf_by_interpolate(ring.zero, cube).is_zero()
    assert nf_by_interpolate(ring.parse("x*y + x"), PointSet(ring, 0)).is_zero()
    assert nf_by_interpolate(ring.parse("x*y"), cube) == ring.parse("x*y")


def test_nf_by_interpolate_idempotent_and_bounded():
    rnd = random.Random(34)
    for _ in range(50):
        n = rnd.randrange(1, 6)
        ring = BoolRing.indexed(n, "lp")
        f = rand_poly(ring, rnd)
        P = rand_points(ring, rnd, 12)
        r = nf_by_interpolate(f, P)
        assert nf_by_interpolate(r, P) == r
        assert len(r) <= len(P)


# -- standard monomials and the points basis ---------------------------------------------------


def test_standard_monomials_examples():
    ring = BoolRing(["x", "y"], "lp")
    single = PointSet.from_points(ring, [(1, 0)])
    assert set(ring.manager.iter_paths(standard_monomials(single))) == {()}
    cube = PointSet.full_cube(ring)
    assert set(ring.manager.iter_paths(standard_monomials(cube))) == {
        (),
        (0,),
        (1,),
        (0, 1),
    }
    P = PointSet.from_points(ring, [(0, 0), (1, 0)])
    assert set(ring.manager.iter_paths(standard_monomials(P))) == {(), (0,)}


def test_standard_monomials_cardinality_and_closure():
    rnd = random.Random(35)
    for _ in range(40):
        n = rnd.randrange(1, 6)
        ring = BoolRing.indexed(n, "lp")
        P = rand_points(ring, rnd, 14)
        S = standard_monomials(P)
        mons = set(ring.manager.iter_paths(S))
        assert len(mons) == len(P)
        for m in mons:
            for k in range(len(m)):
                assert tuple(v for i, v in enumerate(m) if i != k) in mons


def test_standard_monomials_match_gf2_elimination():
    rnd = random.Random(37)
    for _ in range(300):
        n = rnd.randrange(1, 7)
        ring = BoolRing.indexed(n, "lp")
        pts = {
            tuple(rnd.randrange(2) for _ in range(n))
            for _ in range(rnd.randrange(25))
        }
        S = standard_monomials(PointSet.from_points(ring, pts))
        got = {frozenset(m) for m in ring.manager.iter_paths(S)}
        assert got == lex_standard_monomials(pts, n)


def test_leading_monomials_examples():
    ring = BoolRing(["x", "y"], "lp")
    cube = PointSet.full_cube(ring)
    assert set(ring.manager.iter_paths(leading_monomials_variety(cube))) == set()
    assert set(
        ring.manager.iter_paths(leading_monomials_variety(PointSet(ring, 0)))
    ) == {()}
    P = PointSet.from_points(ring, [(0, 0), (1, 0)])
    assert set(ring.manager.iter_paths(leading_monomials_variety(P))) == {(1,)}


def test_minimal_elements():
    ring = BoolRing(["x", "y", "z"], "lp")
    man = ring.manager
    S = man.from_sets([[0], [0, 1]])
    assert set(man.iter_paths(minimal_elements(man, S))) == {(0,)}
    anti = man.from_sets([[0], [1], [2]])
    assert minimal_elements(man, anti) == anti
    assert minimal_elements(man, 0) == 0


def test_points_gb_examples():
    ring = BoolRing(["x", "y"], "lp")
    assert [str(g) for g in points_gb(PointSet(ring, 0))] == ["1"]
    assert points_gb(PointSet.full_cube(ring)) == []
    P = PointSet.from_points(ring, [(1, 1)])
    assert [str(g) for g in points_gb(P)] == ["x + 1", "y + 1"]


def test_cross_algorithm_identity():
    rnd = random.Random(36)
    for _ in range(60):
        n = rnd.randrange(1, 6)
        ring = BoolRing.indexed(n, "lp")
        f = rand_poly(ring, rnd)
        P = rand_points(ring, rnd, 12)
        assert nf_by_interpolate(f, P) == greedy_nf(f, points_gb(P))
