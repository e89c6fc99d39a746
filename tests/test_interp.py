import gc
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_polynomials,
    interpolates,
    leading_monomials_variety,
    lex_poly_key,
    lex_standard_monomials,
    minimal_elements,
)
from zddgb.boolgb import buchberger, greedy_nf
from zddgb.boolpoly import BoolPoly, BoolRing, RingMismatchError, eval_poly
from zddgb.interp import (
    InterpolationError,
    PartialFn,
    PointSet,
    interpolate_smallest_lex,
    nf_by_interpolate,
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
    assert sorted(S.diff(zeros(ring.parse("x"), S)).points()) == [(1,)]
    assert S.diff(zeros(ring.one, S)) == S
    assert len(S.diff(zeros(ring.zero, S))) == 0


def test_zeros_partition_and_pointwise():
    rnd = random.Random(31)
    for _ in range(60):
        n = rnd.randrange(1, 7)
        ring = BoolRing.indexed(n, "lp")
        f = rand_poly(ring, rnd)
        S = rand_points(ring, rnd, 12)
        Z = zeros(f, S)
        O = S.diff(Z)
        assert Z.union(O) == S
        assert len(Z.intersect(O)) == 0
        for p in S.points():
            assert (p in set(Z.points())) == (eval_poly(f, p) == 0)


def test_zeros_polynomial_above_point_set():
    # p's top variables lie above every variable S uses, so `zeros` walks
    # p's else-chain first; compare with evaluation at each point
    rnd = random.Random(37)
    ring = BoolRing.indexed(6, "lp")
    fixed = ["x0 + x0*x1", "x0*x2 + 1", "x0 + x1*x3 + x4", "x0*x1 + x1*x5 + x2 + 1"]
    polys = [ring.parse(t) for t in fixed] + [rand_poly(ring, rnd) for _ in range(40)]
    for i, f in enumerate(polys):
        low = 2 + i % 3
        pts = {
            (0,) * low + tuple(rnd.randrange(2) for _ in range(6 - low))
            for _ in range(rnd.randrange(1, 12))
        }
        S = PointSet.from_points(ring, pts)
        want = {p for p in pts if eval_poly(f, p) == 0}
        assert set(zeros(f, S).points()) == want


@st.composite
def polys_and_point_sets(draw):
    """(n, terms, points): S leaves its first `low` variables at 0, so p's
    top variable may lie above S's; half the time p also skips S's top
    variable, so `zeros` splits S alone."""
    n = draw(st.integers(1, 6))
    low = draw(st.integers(0, n))
    pts = {
        (0,) * low + p[low:]
        for p in draw(st.sets(st.tuples(*[st.integers(0, 1)] * n),
                              max_size=2 ** n))
    }
    terms = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=6))
    top = min((i for p in pts for i in range(n) if p[i]), default=None)
    if top is not None and draw(st.booleans()):
        terms = [t for t in terms if top not in t]
    return n, terms, pts


@settings(max_examples=300)
@given(polys_and_point_sets())
def test_zeros_matches_evaluation(case):
    n, terms, pts = case
    ring = BoolRing.indexed(n, "lp")
    f = ring.from_terms(terms)
    S = PointSet.from_points(ring, pts)
    want = {p for p in pts if eval_poly(f, p) == 0}
    assert set(zeros(f, S).points()) == want


# -- partial functions ----------------------------------------------------------------


def test_partial_fn_overlap_rejected():
    ring = BoolRing(["x"], "lp")
    P = PointSet.from_points(ring, [(1,)])
    with pytest.raises(InterpolationError):
        PartialFn(P, P)


def test_point_sets_of_two_rings_raise():
    """Set algebra, `zeros`, `nf_by_interpolate` and `PartialFn` refuse
    diagrams of two rings, as polynomial arithmetic does: a node index
    means nothing in the other ring's manager (A ∩ B once read
    [(1, 0)] for a B holding only (0, 1))."""
    R1, R2 = BoolRing(["x", "y"], "lp"), BoolRing(["x", "y"], "lp")
    A = PointSet.from_points(R1, [(1, 0), (0, 1)])
    B = PointSet.from_points(R2, [(0, 1)])
    f = R1.parse("x + y")
    calls = [lambda: A.union(B), lambda: A.intersect(B), lambda: A.diff(B),
             lambda: zeros(f, B), lambda: nf_by_interpolate(f, B),
             lambda: PartialFn(A, B)]
    for call in calls:
        with pytest.raises(RingMismatchError):
            call()
    assert sorted(A.intersect(PointSet.from_points(R1, [(0, 1)])).points()) == [(0, 1)]


# -- interpolation ----------------------------------------------------------------------


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
        p = interpolate_smallest_lex(b)
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


@st.composite
def domain_and_two_one_sets(draw):
    """(n, D, O1, O2) with O1, O2 ⊆ D ⊆ {0,1}^n."""
    n = draw(st.integers(1, 6))
    dom = sorted(draw(st.sets(st.tuples(*[st.integers(0, 1)] * n),
                              max_size=2 ** n)))
    picks = st.lists(st.booleans(), min_size=len(dom), max_size=len(dom))
    o1 = {p for p, b in zip(dom, draw(picks)) if b}
    o2 = {p for p, b in zip(dom, draw(picks)) if b}
    return n, dom, o1, o2


@settings(max_examples=200)
@given(domain_and_two_one_sets())
def test_interpolate_smallest_lex_is_linear_on_a_domain(case):
    # on a fixed domain D the lex-smallest interpolant is the normal form
    # modulo I(D) of any interpolant, so it is GF(2)-linear in the values
    n, dom, o1, o2 = case
    ring = BoolRing.indexed(n, "lp")

    def lex(ones_):
        zs = [p for p in dom if p not in ones_]
        return interpolate_smallest_lex(PartialFn(
            PointSet.from_points(ring, zs), PointSet.from_points(ring, ones_)))

    assert lex(o1 ^ o2) == lex(o1) + lex(o2)
    if dom:
        assert lex(set(dom) - o1) == lex(o1) + ring.one


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
    # random families, the empty set included, against brute force
    rnd = random.Random(41)
    man = BoolRing.indexed(6, "lp").manager
    for _ in range(200):
        family = {
            frozenset(v for v in range(6) if rnd.random() < rnd.random())
            for _ in range(rnd.randrange(12))
        }
        expected = {a for a in family if not any(b < a for b in family)}
        got = minimal_elements(man, man.from_sets(family))
        assert {frozenset(t) for t in man.iter_paths(got)} == expected


def test_points_gb_examples():
    ring = BoolRing(["x", "y"], "lp")
    assert [str(g) for g in points_gb(PointSet(ring, 0))] == ["1"]
    assert points_gb(PointSet.full_cube(ring)) == []
    P = PointSet.from_points(ring, [(1, 1)])
    assert [str(g) for g in points_gb(P)] == ["x + 1", "y + 1"]


def test_points_gb_matches_lead_route():
    # the recursion against the route it replaced: the minimal non-standard
    # monomials of the lex game as leads, then one normal form per lead
    rnd = random.Random(43)
    cases = []
    for n in range(1, 8):
        ring = BoolRing.indexed(n, "lp")
        cases += [(ring, set()), (ring, set(itertools.product((0, 1), repeat=n)))]
        for k in range(24):
            pts = {
                tuple(rnd.randrange(2) for _ in range(n))
                for _ in range(rnd.randrange(1, 2 ** n + 1))
            }
            if k % 3 == 0:
                # variable x_j never occurs: every point has x_j = 0
                j = rnd.randrange(n)
                pts = {p[:j] + (0,) + p[j + 1:] for p in pts}
            cases.append((ring, pts))
    for ring, pts in cases:
        man = ring.manager
        P = PointSet.from_points(ring, pts)
        basis = points_gb(P)
        leads = [
            BoolPoly(ring, man.singleton(t))
            for t in man.iter_paths(leading_monomials_variety(P))
        ]
        assert basis == [t + nf_by_interpolate(t, P) for t in leads]
        for g in basis:
            assert all(eval_poly(g, p) == 0 for p in pts)
        for _ in range(3):
            f = rand_poly(ring, rnd)
            assert greedy_nf(f, basis) == nf_by_interpolate(f, P)


def test_cross_algorithm_identity():
    rnd = random.Random(36)
    for _ in range(60):
        n = rnd.randrange(1, 6)
        ring = BoolRing.indexed(n, "lp")
        f = rand_poly(ring, rnd)
        P = rand_points(ring, rnd, 12)
        assert nf_by_interpolate(f, P) == greedy_nf(f, points_gb(P))


def test_len_stops_at_maxsize_and_count_paths_counts_any_set():
    # CPython's len() must fit a Py_ssize_t, 2^63 - 1 on 64-bit builds: a
    # point set or polynomial with more members raises OverflowError there,
    # while count_paths counts a set of any size
    ring = BoolRing.indexed(sys.maxsize.bit_length())
    no_origin = PointSet.full_cube(ring).diff(
        PointSet.from_points(ring, [(0,) * ring.n]))
    assert len(no_origin) == len(ring.poly(no_origin.z)) == sys.maxsize
    for n in (ring.n, 64):
        ring = BoolRing.indexed(n)
        cube = PointSet.full_cube(ring)
        for big in (cube, ring.poly(cube.z)):
            with pytest.raises(OverflowError):
                len(big)
        assert ring.manager.count_paths(cube.z) == 2**n


def test_memo_dicts_and_unique_subtables_stay_untracked():
    # int keys and values keep every manager dict out of the garbage
    # collector's sight; a tuple key would make it tracked
    ring = BoolRing.indexed(6, "dlex")
    man = ring.manager
    f = ring.parse("x0*x1 + x2 + 1")
    g = ring.parse("x1*x3 + x4*x5 + x0")
    h = f * g
    greedy_nf(ring.parse("x0*x1*x2*x3 + x5 + x1*x4"), buchberger([f, g]))
    points_gb(zeros(h, PointSet.full_cube(ring)))
    memos = {k: d for k, d in vars(man).items() if isinstance(d, dict)}
    for name in ("_bmul", "_nfmon", "_deg", "_xor", "_zeros", "_ilex"):
        assert memos[name], name
    assert not any(gc.is_tracked(d) for d in memos.values())
    assert sum(map(len, man._unique)) == len(man)
    assert not any(gc.is_tracked(sub) for sub in man._unique)
