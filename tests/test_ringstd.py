import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eval_zm_terms,
    is_strong_basis,
    nf_ring_reference,
    rednf_ring_reference,
    solve_lead,
    verify_standard_rep,
    zm_annihilator_set,
    zm_div_exact,
    zm_divides,
    zm_ideal_generated,
    zm_lcm,
    zm_nu,
    zm_variety,
)
from zddgb.boolpoly import RingMismatchError
from zddgb.ringstd import (
    _ORDERINGS,
    EXPONENT_LIMIT,
    ExponentOverflowError,
    Modulus,
    RingStrategy,
    ZmPoly,
    ZmRing,
    nf_ring,
    rednf_ring,
    spoly_extended,
    spoly_ring,
    std_basis,
    zero_criterion,
)

MODULI = (4, 8, 12, 16, 36)


# -- valuations and divisibility ---------------------------------------------------


def test_nu_examples():
    m12 = Modulus(12)
    assert m12.primes == ((2, 2), (3, 1))
    assert m12.nu(9) == (0, 1)          # nu_3(9) = 1
    assert m12.nu(0) == (2, 1)
    assert m12.nu(5) == (0, 0)


def test_nu_laws_exhaustive():
    for m in MODULI:
        mod = Modulus(m)
        es = tuple(e for _, e in mod.primes)
        for a in range(m):
            for b in range(m):
                nab = mod.nu(a * b % m)
                assert nab == tuple(
                    min(x + y, e) for x, y, e in zip(mod.nu(a), mod.nu(b), es)
                )
                for i in range(len(es)):
                    if mod.nu(a)[i] > 0 and mod.nu(b)[i] == 0:
                        assert mod.nu((a + b) % m)[i] == 0
        for a in range(m):
            assert (mod.nu(a) == (0,) * len(es)) == mod.is_unit(a)


def test_unit_normalize_exhaustive():
    for m in MODULI:
        mod = Modulus(m)
        for a in range(m):
            u, core = mod.unit_normalize(a)
            assert mod.is_unit(u)
            assert u * core % m == a
    assert Modulus(4).unit_normalize(1) == (1, 1)
    u, core = Modulus(8).unit_normalize(4)
    assert core == 4 and u % 2 == 1
    u, core = Modulus(12).unit_normalize(9)
    assert core == 3 and u * 3 % 12 == 9


def test_divides_matches_exhaustive_search():
    for m in MODULI:
        mod = Modulus(m)
        for a in range(m):
            for b in range(m):
                assert mod.divides(a, b) == zm_divides(m, a, b), (m, a, b)
        assert all(mod.divides(a, 0) for a in range(m))


def test_gcd_lcm():
    m12 = Modulus(12)
    assert m12.gcd(9, 6) == 3
    assert m12.lcm(9, 6) == 6
    # universal properties against the divisibility relation
    for m in (12, 16):
        mod = Modulus(m)
        for a in range(m):
            assert mod.gcd(a, a) == mod.core(mod.nu(a))
            for b in range(m):
                g, l = mod.gcd(a, b), mod.lcm(a, b)
                assert mod.divides(g, a) and mod.divides(g, b)
                assert mod.divides(a, l) and mod.divides(b, l)
                for c in range(m):
                    if mod.divides(c, a) and mod.divides(c, b):
                        assert mod.divides(c, g)
                    if mod.divides(a, c) and mod.divides(b, c):
                        assert mod.divides(l, c)


def test_ann_generator():
    m8 = Modulus(8)
    assert m8.ann_generator(4) == 2
    assert zm_annihilator_set(8, 4) == zm_ideal_generated(8, 2)
    for m in MODULI:
        mod = Modulus(m)
        for a in range(m):
            g = mod.ann_generator(a)
            assert zm_annihilator_set(m, a) == zm_ideal_generated(m, g)
        assert mod.ann_generator(0) == 1
        for a in range(m):
            if mod.is_unit(a):
                assert mod.ann_generator(a) == 0


def test_modulus_arithmetic_matches_reference_exhaustive():
    for m in range(2, 65):
        mod = Modulus(m)
        ideals = [zm_ideal_generated(m, b) for b in range(m)]
        for a in range(m):
            assert mod.nu(a) == mod.nu(a + m) == zm_nu(m, a), (m, a)
        for a in range(m):
            for b in range(m):
                lcm, divides = zm_lcm(m, a, b), a in ideals[b]
                assert mod.lcm(a, b) == lcm, (m, a, b)
                assert mod.divides(b, a) == divides, (m, a, b)
                if divides:
                    quotient = zm_div_exact(m, a, b)
                    assert mod.div_exact(a, b) == quotient, (m, a, b)
                    assert b * quotient % m == a
                else:
                    with pytest.raises(ValueError):
                        mod.div_exact(a, b)


@settings(max_examples=400)
@given(st.integers(2, 400).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(-3 * m, 3 * m),
                        st.integers(-3 * m, 3 * m))
))
def test_modulus_methods_match_oracles_unreduced(case):
    # arguments outside [0, m), negative ones included, act as their residues
    m, a, b = case
    mod = Modulus(m)
    assert mod.nu(a) == zm_nu(m, a)
    assert mod.divides(b, a) == zm_divides(m, b, a)
    assert mod.lcm(a, b) == zm_lcm(m, a, b)
    assert zm_annihilator_set(m, a) == zm_ideal_generated(m, mod.ann_generator(a))
    if zm_divides(m, b, a):
        assert mod.div_exact(a, b) == zm_div_exact(m, a, b)
    else:
        with pytest.raises(ValueError):
            mod.div_exact(a, b)
    assert zero_criterion(mod, a, b) == zero_criterion(mod, b, a) == (
        mod.lcm(a, b) == 0
    )


# -- s-polynomials ---------------------------------------------------------------------


def test_spoly_examples():
    R = ZmRing(4, ["x", "y", "z"])
    f, g = R.parse("2*x + 2*y"), R.parse("2*y + 3*z")
    assert spoly_ring(f, f).is_zero()
    # direct expansion from the definitions
    assert str(spoly_ring(f, g)) == "x*z + 2*y^2"
    r2 = ZmRing(4, ["x", "y"])
    s = spoly_ring(r2.parse("x + 1"), r2.parse("y + 1"))
    assert s == r2.parse("y - x")


def test_spoly_leads_cancel():
    rnd = random.Random(40)
    for _ in range(80):
        m = rnd.choice(MODULI)
        R = ZmRing(m, ["x", "y"], rnd.choice(["lp", "dlex"]))
        f, g = rand_zm(R, rnd), rand_zm(R, rnd)
        if f.is_zero() or g.is_zero():
            continue
        s = spoly_ring(f, g)
        lcm_mon = tuple(
            max(a, b) for a, b in zip(f.lm(), g.lm())
        )
        if not s.is_zero():
            assert R.sort_key(s.lm()) <= R.sort_key(lcm_mon)
            assert s.lt() != (lcm_mon, R.mod.lcm(f.lc(), g.lc()))


def test_spoly_extended_examples():
    R8 = ZmRing(8, ["x", "y"])
    assert str(spoly_extended(R8.parse("4*x + y"))) == "2*y"
    assert spoly_extended(R8.parse("x + 3")).is_zero()
    R4 = ZmRing(4, ["x"])
    assert spoly_extended(R4.parse("2")).is_zero()


def rand_zm(R, rnd, max_terms=4, max_deg=3):
    terms = []
    for _ in range(rnd.randrange(max_terms)):
        exps = [0] * R.n
        for _ in range(rnd.randrange(max_deg + 1)):
            exps[rnd.randrange(R.n)] += 1
        terms.append((tuple(exps), rnd.randrange(R.m)))
    return R.poly(terms)


# -- normal form -----------------------------------------------------------------------


def test_nf_examples():
    R4 = ZmRing(4, ["x"])
    assert nf_ring(R4.parse("2*x^2"), [R4.parse("2*x")]).is_zero()
    assert nf_ring(R4.parse("x"), [R4.parse("2*x")]) == R4.parse("x")
    # rednf_ring reads its reducers once, so a one-shot iterator reduces
    # the tail too
    R8 = ZmRing(8, ["x", "y"])
    assert str(rednf_ring(R8.parse("x + y"), iter([R8.parse("y - 2")]))) == "x + 2"


def test_nf_z8_pair_value():
    # the remainder depends on the variable order; with x > y the
    # division oracle fixes it as 4*x^2*y + x^2
    R = ZmRing(8, ["x", "y", "t"])
    f, g = R.parse("x^5 + 2*x^2"), R.parse("4*y + x^3 + 1")
    s = spoly_ring(f, g)
    r = nf_ring(s, [f, g])
    assert str(r) == "4*x^2*y + x^2"
    # and the remainder's lead is reducible by neither generator
    assert not any(
        all(a <= b for a, b in zip(h.lm(), r.lm())) and R.mod.divides(h.lc(), r.lc())
        for h in (f, g)
    )


def test_nf_weak_normal_form_property():
    rnd = random.Random(41)
    for _ in range(80):
        m = rnd.choice((4, 8, 12))
        R = ZmRing(m, ["x", "y"], rnd.choice(["lp", "dlex"]))
        f = rand_zm(R, rnd)
        G = [g for g in (rand_zm(R, rnd) for _ in range(3)) if not g.is_zero()]
        r = nf_ring(f, G)
        if r.is_zero() or not G:
            continue
        cands = [g for g in G if all(a <= b for a, b in zip(g.lm(), r.lm()))]
        assert solve_lead(R.mod, r.lc(), [g.lc() for g in cands]) is None


@st.composite
def reducer_case(draw):
    """A polynomial and a reducer list that holds zero polynomials and
    reducers sharing a lead monomial."""
    m = draw(st.sampled_from((4, 8, 12, 30, 36, 2**61 - 1)))
    n = draw(st.integers(1, 3))
    ring = ZmRing(m, [f"x{i}" for i in range(n)], draw(st.sampled_from(("lp", "dlex"))))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(0, m - 1))

    def poly(max_terms):
        return ZmPoly(ring, draw(st.lists(term, max_size=max_terms)))

    G = [poly(4) for _ in range(draw(st.integers(0, 5)))]
    for g in list(G):
        if g.terms and draw(st.booleans()):
            # same lead monomial: a multiple of g, or its lead over a new tail
            below = [t for t in poly(4).terms
                     if ring.sort_key(t[0]) < ring.sort_key(g.lm())]
            twin = ZmPoly(ring, (g.lt(), *below))
            G.append(draw(st.sampled_from((g.scale(draw(term)[1]), twin))))
    G.insert(draw(st.integers(0, len(G))), ring.zero)
    # f is an ideal member plus noise, so that its leads meet the reducers'
    f = poly(3)
    for g in G:
        if draw(st.booleans()):
            exps, c = draw(term)
            f = f + g.mul_term(exps, c)
    return f, draw(st.permutations(G))


@settings(max_examples=400)
@given(reducer_case())
def test_nf_ring_matches_reference(case):
    # nf_ring and rednf_ring reduce against a table of leads built once per
    # call; their answers are the references' term for term
    f, G = case
    assert nf_ring(f, G).terms == nf_ring_reference(f, G).terms
    assert rednf_ring(f, G).terms == rednf_ring_reference(f, G).terms


def test_solve_lead_examples():
    assert Modulus(8).solve(4, [2]) == [2]
    sol = Modulus(12).solve(1, [4, 3])
    assert sol is not None and (4 * sol[0] + 3 * sol[1]) % 12 == 1
    assert Modulus(8).solve(1, [2]) is None


@settings(max_examples=400)
@given(st.sampled_from((4, 8, 6, 12, 30, 36, 2**61 - 1)).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, m - 1),
                        st.lists(st.integers(0, m - 1), max_size=4))))
def test_modulus_solve_property(case):
    # solvable exactly when gcd(coeffs, m) divides c; then the solution is
    # reduced mod m and zero past the shortest prefix whose gcd divides c
    m, c, coeffs = case
    sol = Modulus(m).solve(c, coeffs)
    if c % math.gcd(*coeffs, m):
        assert sol is None
        return
    assert sol is not None and len(sol) == len(coeffs)
    assert sum(x * a for x, a in zip(sol, coeffs)) % m == c
    assert all(0 <= x < m for x in sol)
    k = next(k for k in range(len(coeffs) + 1)
             if c % math.gcd(*coeffs[:k], m) == 0)
    assert not any(sol[k:])


# -- standard bases -----------------------------------------------------------------------


def test_std_basis_examples():
    R = ZmRing(4, ["x", "y"])
    basis = std_basis([R.parse("2*x"), R.parse("2*y")])
    assert [str(g) for g in basis] == ["2*x", "2*y"]
    Rx = ZmRing(4, ["x"])
    basis2 = std_basis([Rx.parse("x + 2"), Rx.parse("2")])
    # tails are reduced: x + 2 normalizes to x against the generator 2
    assert [str(g) for g in basis2] == ["x", "2"]
    assert [str(g) for g in std_basis([Rx.parse("1")])] == ["1"]


def canonical_leads(mod, basis):
    return {(g.lm(), mod.core(mod.nu(g.lc()))) for g in basis}


def test_std_basis_membership_and_criteria():
    rnd = random.Random(42)
    for _ in range(25):
        m = rnd.choice((4, 8))
        R = ZmRing(m, ["x", "y"], rnd.choice(["lp", "dlex"]))
        gens = [g for g in (rand_zm(R, rnd) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        basis = std_basis(gens)
        # random ideal combinations reduce to zero
        for _ in range(60):
            f = R.zero
            for g in gens:
                f = f + rand_zm(R, rnd, 3, 2) * g
            assert nf_ring(f, basis).is_zero()
        # every s-polynomial and extended s-polynomial reduces to zero
        for i in range(len(basis)):
            assert nf_ring(spoly_extended(basis[i]), basis).is_zero()
            for j in range(i + 1, len(basis)):
                assert nf_ring(spoly_ring(basis[i], basis[j]), basis).is_zero()
        off = RingStrategy(
            product_criterion=False, chain_criterion=False, zero_criterion=False
        )
        basis_off = std_basis(gens, strategy=off)
        assert canonical_leads(R.mod, basis) == canonical_leads(R.mod, basis_off)


def test_std_basis_variety_preservation_exhaustive():
    rnd = random.Random(43)
    for _ in range(20):
        R = ZmRing(4, ["x", "y"])
        gens = [g for g in (rand_zm(R, rnd, 3, 2) for _ in range(2)) if not g.is_zero()]
        if not gens:
            continue
        basis = std_basis(gens)
        assert zm_variety(gens, 2, 4) == zm_variety(basis, 2, 4)


def test_criteria_helpers():
    from oracles import _lcm_term, _term_divides

    from zddgb.ringstd import product_criterion_ring

    R4 = ZmRing(4, ["x", "y", "z"])
    assert product_criterion_ring(R4.parse("x"), R4.parse("y"))
    assert not product_criterion_ring(R4.parse("2*x"), R4.parse("y"))
    assert not product_criterion_ring(R4.parse("x*y"), R4.parse("y*z"))

    mod4 = Modulus(4)
    lt = lambda c, mon: (mon, c)
    # chain test: middle 2xy divides lcm(2x, 2y) = 2xy
    assert _term_divides(
        mod4, ((1, 1, 0), 2), _lcm_term(mod4, ((1, 0, 0), 2), ((0, 1, 0), 2))
    )
    mod8 = Modulus(8)
    # coefficient 4 does not divide coefficient 2 at equal monomials
    assert not _term_divides(
        mod8, ((1, 1, 0), 4), _lcm_term(mod8, ((1, 0, 0), 2), ((0, 1, 0), 2))
    )

    # the lemma's printed hypothesis (ann | lcm) is unsound: over Z8 it
    # would drop the pair of 4x+y and 2x, losing the ideal element y; the
    # sound condition divides the lcm by c_i first
    assert not zero_criterion(mod8, 4, 2)       # ann(4)=2, lcm/c_i = 1
    assert not zero_criterion(mod8, 1, 1)       # units: ann = 0
    mod12 = Modulus(12)
    assert not zero_criterion(mod12, 4, 2)      # ann(4)=3 does not divide 1
    assert zero_criterion(mod12, 4, 3)          # lcm(4,3) = 0: q = 0


def test_zero_criterion_counterexample_soundness():
    # with the unsound printed condition the basis of {4x+y, 2x} over Z8
    # misses y; the shipped criterion must keep the pair
    R = ZmRing(8, ["x", "y"])
    gens = [R.parse("4*x + y"), R.parse("2*x")]
    basis = std_basis(gens)
    target = R.parse("y")
    assert nf_ring(target, basis).is_zero()


def test_solver_path_never_factorizes(monkeypatch, tmp_path, capsys):
    # only nu, core and unit_normalize need the primes of m; with the
    # factorization unavailable a prime modulus near 2^61 is as cheap as 12
    from zddgb import cli, ringstd

    def no_factorize(mod):
        raise AssertionError(f"Modulus({mod.m}).primes read")

    monkeypatch.setattr(ringstd.Modulus, "primes", property(no_factorize))
    for m in (12, 2**61 - 1):
        R = ZmRing(m, ["x", "y"])
        gens = [R.parse("2*x + 3*y"), R.parse("x*y + 5"), R.parse("6*y^2 + 4")]
        basis = std_basis(gens)
        basis_off = std_basis(gens, RingStrategy(False, False, False))
        assert {(g.lm(), math.gcd(g.lc(), m)) for g in basis} == {
            (g.lm(), math.gcd(g.lc(), m)) for g in basis_off
        }
        member = gens[0] * gens[1] - gens[2]
        assert nf_ring(member, basis).is_zero()
        assert rednf_ring(member, basis).is_zero()
        f = R.parse("x^2*y + 7*x")
        assert nf_ring(rednf_ring(f, basis) - f, basis).is_zero()
    path = tmp_path / "sys.txt"
    path.write_text("vars x y\nmod 2305843009213693951\n2*x + 3*y\nx*y + 5\n")
    assert cli.main(["gb", str(path)]) == 0
    assert capsys.readouterr().out


def test_verify_standard_rep():
    R = ZmRing(4, ["x", "y"])
    g = R.parse("2*x")
    assert verify_standard_rep(g, [g])
    assert verify_standard_rep(R.zero, [g])
    assert not verify_standard_rep(R.parse("y"), [g])


def test_is_strong_basis():
    R = ZmRing(8, ["x", "y"])
    assert is_strong_basis([R.parse("1")])
    rnd = random.Random(44)
    for _ in range(10):
        gens = [g for g in (rand_zm(R, rnd, 3, 2) for _ in range(2)) if not g.is_zero()]
        if not gens:
            continue
        basis = std_basis(gens)
        # over a weak 1-factorial ring every standard basis is strong
        assert is_strong_basis(basis, samples=40, seed=7)
    # dropping a generator loses lead coverage of the full ideal
    gens = [R.parse("2*x"), R.parse("3*y")]
    basis = std_basis(gens)
    truncated = [g for g in basis if "y" not in str(g)]
    assert not is_strong_basis(truncated, samples=80, seed=7, gens=gens)


def test_mixed_rings_raise():
    """Arithmetic and the engines refuse polynomials of two rings, of two
    moduli or of one modulus, instead of computing modulo one of them."""
    for m1, m2 in ((4, 8), (4, 4)):
        R1, R2 = ZmRing(m1, ["x", "y"]), ZmRing(m2, ["x", "y"])
        f, g = R1.parse("x*y + 2*x"), R2.parse("x + 3")
        calls = [
            lambda: f + g, lambda: f - g, lambda: f * g, lambda: g * f,
            lambda: nf_ring(f, [g]), lambda: nf_ring(f, [R2.zero]),
            lambda: std_basis([f, g]), lambda: std_basis([R1.const(1), g]),
            lambda: std_basis([f, R2.zero]),
        ]
        for call in calls:
            with pytest.raises(RingMismatchError):
                call()
    assert f + f == f.scale(2)


def test_parse_print_roundtrip():
    rnd = random.Random(45)
    for _ in range(40):
        m = rnd.choice(MODULI)
        R = ZmRing(m, ["x", "y"], rnd.choice(["lp", "dlex"]))
        f = rand_zm(R, rnd)
        assert R.parse(str(f)) == f


def test_parse_rejects_bad_exponent_and_dangling_sign():
    R = ZmRing(4, ["x", "y"])
    # "x^-1" once read as x - 1 and "x^" as x; "x+" dropped its empty term
    for text in ("x^-1", "x^", "x^y", "x+", "x + ", "x + -y", "-", "x*y^"):
        with pytest.raises(ValueError):
            R.parse(text)
    assert R.parse("-x + y") == R.parse("3*x + y")
    assert R.parse("+x - 1") == R.parse("x + 3")
    assert R.parse("x^0*y^2") == R.parse("y^2")
    # a power of a coefficient is a power, not its base
    assert R.parse("3^2*x") == R.parse("x")


# -- packed monomials ----------------------------------------------------------


@st.composite
def packed_pair(draw):
    """A ring and two exponent vectors with fields at 0, at the limit and
    between; under dlex the degree is bounded too, so each field of a
    vector takes a share of the limit, or one field takes all of it."""
    ordering = draw(st.sampled_from(_ORDERINGS))
    n = draw(st.integers(1, 4))
    ring = ZmRing(4, [f"x{i}" for i in range(n)], ordering)
    cap = EXPONENT_LIMIT if ordering == "lp" else EXPONENT_LIMIT // n
    field = st.one_of(st.just(0), st.just(cap), st.integers(0, cap))
    at_limit = st.integers(0, n - 1).map(
        lambda i: tuple(EXPONENT_LIMIT if k == i else 0 for k in range(n)))
    vec = st.one_of(st.tuples(*[field] * n), at_limit)
    return ring, draw(vec), draw(vec)


@settings(max_examples=400)
@given(packed_pair())
def test_packed_monomials_match_tuple_operations(case):
    ring, a, b = case
    A, B = ring.sort_key(a), ring.sort_key(b)
    assert ring._unpack(A) == a and ring._unpack(B) == b
    key = (lambda e: (sum(e), e)) if ring._dlex else (lambda e: e)
    assert (A < B) == (key(a) < key(b)) and (A == B) == (a == b)

    def fits(e):
        return max(e) <= EXPONENT_LIMIT and (
            not ring._dlex or sum(e) <= EXPONENT_LIMIT)

    fa, fb = ring.poly([(a, 1)]), ring.poly([(b, 1)])
    # divisibility and quotient, as the normal form reads them
    divides = all(x <= y for x, y in zip(a, b))
    assert nf_ring(fb, [fa]).is_zero() == divides
    if divides:
        assert ring._unpack(B - A) == tuple(y - x for x, y in zip(a, b))
    # the lcm is exact even past the dlex degree limit: such a pair is
    # queued, and only its s-polynomial raises (test_exponent_limit)
    lcm = tuple(map(max, a, b))
    L = ring._lcm(A, B)
    assert ring._unpack(L) == lcm
    assert L >> 16 * ring.n == (sum(lcm) if ring._dlex else 0)
    product = tuple(x + y for x, y in zip(a, b))
    if fits(product):
        assert A + B == ring.sort_key(product)
        assert (fa * fb).terms == fa.mul_term(b, 1).terms == ((product, 1),)
    else:
        for call in (lambda: fa * fb, lambda: fa.mul_term(b, 1)):
            with pytest.raises(ExponentOverflowError):
                call()


def test_exponent_limit():
    for ordering in _ORDERINGS:
        R = ZmRing(8, ["x", "y"], ordering)
        f = R.parse("x^32767 + y")
        assert str(f) == "x^32767 + y" and R.parse(str(f)) == f
        calls = [
            lambda: R.parse("x^32768"),
            lambda: R.poly([((0, 10**9), 1)]),
            lambda: f * R.parse("x + 1"),
            lambda: f.mul_term((1, 0), 3),
        ]
        for call in calls:
            with pytest.raises(ExponentOverflowError):
                call()
        for bad in ((1,), (1, 2, 3), (-1, 0), (0.5, 1)):
            with pytest.raises(ValueError):
                R.poly([(bad, 1)])
    # the degree field bounds dlex monomials only
    lex, dlex = ZmRing(4, ["x", "y"]), ZmRing(4, ["x", "y"], "dlex")
    assert str(lex.parse("x^20000*y^20000")) == "x^20000*y^20000"
    with pytest.raises(ExponentOverflowError):
        dlex.parse("x^20000*y^20000")
    # a pair whose lcm passes the degree limit is queued all the same: the
    # product or the chain criterion drops it, or its s-polynomial raises
    R8 = ZmRing(8, ["x", "y"], "dlex")
    coprime = [R8.parse("x^20000 + y"), R8.parse("y^20000 + x")]
    assert [str(g) for g in std_basis(coprime)] == ["x^20000 + y", "y^20000 + x"]
    chained = [R8.parse(t) for t in ("2*x^20000", "2*y^20000", "2*x*y")]
    assert [str(g) for g in std_basis(chained)] == [
        "2*x^20000", "2*y^20000", "2*x*y"]
    with pytest.raises(ExponentOverflowError):
        std_basis(chained, RingStrategy(chain_criterion=False))
    # under lp a tail can outgrow the lead: y^32767 * (x + y) reduces
    # x*y^32767, and y^13000 * (x + y^20000) - x*y^13000 = y^33000
    for call in (lambda: nf_ring(lex.parse("x*y^32767"), [lex.parse("x + y")]),
                 lambda: spoly_ring(lex.parse("x + y^20000"),
                                    lex.parse("x*y^13000"))):
        with pytest.raises(ExponentOverflowError):
            call()


# -- order-preserving term-list operations ---------------------------------------------


FAST_PATH_MODULI = (4, 8, 12, 36, 2**16)


@st.composite
def ring_and_raw_terms(draw, count=2):
    """A ring and `count` raw term lists: repeated monomials, unreduced,
    negative and zero coefficients, in no particular order."""
    m = draw(st.sampled_from(FAST_PATH_MODULI))
    n = draw(st.integers(1, 3))
    ring = ZmRing(m, [f"x{i}" for i in range(n)], draw(st.sampled_from(("lp", "dlex"))))
    term = st.tuples(
        st.tuples(*[st.integers(0, 3)] * n), st.integers(-2 * m, 2 * m)
    )
    return ring, [draw(st.lists(term, max_size=8)) for _ in range(count)]


def assert_canonical(ring, f):
    key = ring.sort_key
    assert all(0 < c < ring.m for _, c in f.terms)
    assert all(key(a) > key(b) for (a, _), (b, _) in zip(f.terms, f.terms[1:]))


@settings(max_examples=300)
@given(ring_and_raw_terms())
def test_add_sub_merge_match_canonicalized_concatenation(case):
    ring, (s, t) = case
    f, g = ZmPoly(ring, s), ZmPoly(ring, t)
    total, diff = f + g, f - g
    assert total.terms == ZmPoly(ring, s + t).terms
    assert diff.terms == ZmPoly(ring, s + [(e, -c) for e, c in t]).terms
    assert_canonical(ring, total)
    assert_canonical(ring, diff)
    assert (f - f).is_zero()


@settings(max_examples=300)
@given(ring_and_raw_terms(count=1), st.data())
def test_mul_term_scale_tail_match_canonicalized_terms(case, data):
    ring, (s,) = case
    f = ZmPoly(ring, s)
    exps = data.draw(st.tuples(*[st.integers(0, 3)] * ring.n))
    c = data.draw(st.integers(-2 * ring.m, 2 * ring.m))
    shifted = [(tuple(a + b for a, b in zip(e, exps)), x * c) for e, x in s]
    assert f.mul_term(exps, c).terms == ZmPoly(ring, shifted).terms
    assert f.scale(c).terms == ZmPoly(ring, [(e, x * c) for e, x in s]).terms
    assert f.tail().terms == ZmPoly(ring, f.terms[1:]).terms
    for h in (f.mul_term(exps, c), f.scale(c), f.tail()):
        assert_canonical(ring, h)
        assert h.ecart() == (max(map(sum, (e for e, _ in h.terms))) - sum(h.lm())
                             if h.terms else 0)


@settings(max_examples=300)
@given(ring_and_raw_terms(), st.data())
def test_arithmetic_matches_eval(case, data):
    ring, (s, t) = case
    m = ring.m
    f, g = ZmPoly(ring, s), ZmPoly(ring, t)
    point = data.draw(st.tuples(*[st.integers(-m, 2 * m)] * ring.n))
    fp, gp = f.eval(point), g.eval(point)
    assert fp == eval_zm_terms(s, point, m)
    assert (f * g).eval(point) == fp * gp % m
    assert (f + g).eval(point) == (fp + gp) % m
    assert (f - g).eval(point) == (fp - gp) % m


# -- standard-basis membership ----------------------------------------------------------


@st.composite
def zm_ideal_and_multipliers(draw):
    """Generators of an ideal over Z/m and, per combination, one multiplier
    for each generator; small enough that the criteria-off run stays fast."""
    m = draw(st.sampled_from((4, 8, 12, 36)))
    n = draw(st.integers(1, 3))
    ring = ZmRing(m, [f"x{i}" for i in range(n)], draw(st.sampled_from(("lp", "dlex"))))

    def poly(max_terms):
        term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(0, m - 1))
        return ZmPoly(ring, draw(st.lists(term, min_size=1, max_size=max_terms)))

    gens = [poly(3) for _ in range(draw(st.integers(1, 3)))]
    combos = [[poly(2) for _ in gens] for _ in range(draw(st.integers(1, 4)))]
    return ring, gens, combos


@settings(max_examples=150)
@given(zm_ideal_and_multipliers())
def test_std_basis_membership_property(case):
    ring, gens, combos = case
    basis = std_basis(gens)
    for hs in combos:
        f = ring.zero
        for h, g in zip(hs, gens):
            f = f + h * g
        assert nf_ring(f, basis).is_zero()
    off = RingStrategy(
        product_criterion=False, chain_criterion=False, zero_criterion=False
    )
    assert canonical_leads(ring.mod, basis) == canonical_leads(
        ring.mod, std_basis(gens, strategy=off)
    )


# -- exact answers on the benchmark's Z/m pool -------------------------------------------


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# sha256 over repr([g.terms for g in basis]) of each basis in turn, first 64
# ideals of Z/4 then of Z/8, recorded before the ring layer was optimized
ZM_POOL_HEAD_DIGEST = "5cd8afed73a76b66"


def test_benchmark_pool_bases_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    from workloads import ZM_MODULI, zm_instance

    ref = json.loads((PERFBENCH / "reference.json").read_text())["instances"]
    h = hashlib.sha256()
    for m in ZM_MODULI:
        for i in range(64):
            names, order, gen_terms = zm_instance(m, i)
            ring = ZmRing(m, names, order)
            basis = std_basis([ring.poly(t) for t in gen_terms])
            assert checks.zm_lead_digest(basis) == ref[f"zm:{m}:{i}"]["leads"], (m, i)
            h.update(repr([g.terms for g in basis]).encode())
    assert h.hexdigest()[:16] == ZM_POOL_HEAD_DIGEST


def test_std_basis_stops_at_a_unit(monkeypatch, tmp_path, capsys):
    """A remainder that is a unit constant u makes the ideal the whole ring:
    std_basis forms no s-polynomial after it and returns [u].  A loop that
    went on would form 33 more on pool ideal zm:8:203."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import zm_instance

    from zddgb import cli, ringstd

    events = []

    def recording(name):
        fn = getattr(ringstd, name)

        def wrapped(*args):
            if name == "_reduce_basis":
                events.append((name, None))
            out = fn(*args)
            events.append((name, out))
            return out

        monkeypatch.setattr(ringstd, name, wrapped)

    # std_basis reduces through _nf, whose return value is the remainder
    for name in ("spoly_ring", "spoly_extended", "_nf", "_reduce_basis"):
        recording(name)
    for m, i, unit in ((8, 203, "7"), (8, 5, "1"), (8, 145, "3"), (4, 124, "1"),
                       (4, 12, "3")):
        events.clear()
        names, order, gen_terms = zm_instance(m, i)
        ring = ZmRing(m, names, order)
        basis = std_basis([ring.poly(t) for t in gen_terms])
        assert [str(g) for g in basis] == [unit], (m, i)
        # the build phase: everything before _reduce_basis starts
        build = events[:[name for name, _ in events].index("_reduce_basis")]
        units = [k for k, (name, h) in enumerate(build) if name == "_nf"
                 and h.terms and not any(h.lm()) and ring.mod.is_unit(h.lc())]
        assert units and str(build[units[0]][1]) == unit, (m, i)
        # no s-polynomial and no reduction after the first unit remainder
        assert units[0] == len(build) - 1, (m, i)
    # the CLI prints the basis of zm:8:203 byte for byte
    path = tmp_path / "unit.txt"
    path.write_text("vars x0 x1 x2 x3\n"
                    "2*x0*x1*x2 + 2*x0*x1*x3 + x1^2 + 3\n"
                    "7*x0*x3^2 + 5*x1^2 + 2\n"
                    "5*x0*x2 + 2*x1\n"
                    "3*x1^2*x2 + 3*x3 + 7\n"
                    "7*x0*x3 + 3*x0 + 6*x1*x2 + 5\n")
    assert cli.main(["gb", str(path), "--mod", "8"]) == 0
    assert capsys.readouterr() == ("7\n", "")


# sha256 over the term lists of std_basis(gens), nf_ring(f, basis),
# nf_ring(f, gens) and rednf_ring(f, gens), in that order, for the first 32
# pool-shaped ideals of each modulus with one seeded f each; recorded before
# the reduction step was rewritten to solve each lead once
ZM_MULTI_PRIME_DIGEST = "546309a0c6b93ad6"


def test_multi_prime_reductions_unchanged(monkeypatch):
    """Over Z/4 and Z/8 the gcd of several coefficients is always one of
    them, so only moduli with two or more primes reach the extended-gcd
    combination of several reducers; this pins that branch."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import zm_instance

    from zddgb import ringstd

    combos = 0
    solve = ringstd.Modulus.solve

    def counting_solve(mod, c, coeffs):
        nonlocal combos
        sol = solve(mod, c, coeffs)
        combos += sol is not None and sum(1 for x in sol if x) > 1
        return sol

    monkeypatch.setattr(ringstd.Modulus, "solve", counting_solve)
    h = hashlib.sha256()
    for m in (6, 12, 30, 36):
        for i in range(32):
            names, order, gen_terms = zm_instance(m, i)
            ring = ZmRing(m, names, order)
            gens = [ring.poly(t) for t in gen_terms]
            rnd = random.Random(f"zm-multi:{m}:{i}")
            f = ring.poly([
                (tuple(rnd.randint(0, 3) for _ in names), rnd.randrange(1, m))
                for _ in range(6)
            ])
            basis = std_basis(gens)
            for out in (basis, [nf_ring(f, basis)], [nf_ring(f, gens)],
                        [rednf_ring(f, gens)]):
                h.update(repr([g.terms for g in out]).encode())
    assert combos > 0
    assert h.hexdigest()[:16] == ZM_MULTI_PRIME_DIGEST


def test_permuted_generators_give_bases_of_one_ideal(monkeypatch):
    """Over moduli with two or more primes the printed basis is not
    canonical: its tails, and even its leads, can follow the generators'
    order (README, `nf`).  Whatever the order, each basis reduces the
    other's elements to 0, so both generate the same ideal."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import zm_instance

    for m in (12, 36):
        for i in range(16):
            names, order, gen_terms = zm_instance(m, i)
            ring = ZmRing(m, names, order)
            gens = [ring.poly(t) for t in gen_terms]
            one, other = std_basis(gens), std_basis(gens[::-1])
            assert all(nf_ring(g, other).is_zero() for g in one), (m, i)
            assert all(nf_ring(g, one).is_zero() for g in other), (m, i)
