import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    zm_annihilator_set,
    zm_div_exact,
    zm_divides,
    zm_ideal_generated,
    zm_lcm,
    zm_nu,
    zm_variety,
)
from zddgb.ringstd import (
    Modulus,
    RingStrategy,
    ZmPoly,
    ZmRing,
    is_strong_basis,
    nf_ring,
    rednf_ring,
    solve_lead,
    spoly_extended,
    spoly_ring,
    std_basis,
    verify_standard_rep,
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


def test_memoized_arithmetic_matches_reference_exhaustive():
    # each query twice: the first call fills the caches, the second reads them
    for m in range(2, 65):
        mod = Modulus(m)
        ideals = [zm_ideal_generated(m, b) for b in range(m)]
        for a in range(m):
            assert mod.nu(a) == mod.nu(a + m) == zm_nu(m, a), (m, a)
        for a in range(m):
            for b in range(m):
                lcm, divides = zm_lcm(m, a, b), a in ideals[b]
                quotient = zm_div_exact(m, a, b) if divides else None
                for _ in range(2):
                    assert mod.lcm(a, b) == lcm, (m, a, b)
                    assert mod.divides(b, a) == divides, (m, a, b)
                    if divides:
                        assert mod.div_exact(a, b) == quotient, (m, a, b)
                        assert b * quotient % m == a
                    else:
                        with pytest.raises(ValueError):
                            mod.div_exact(a, b)


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
            assert R.ordering.sort_key(s.lm()) <= R.ordering.sort_key(lcm_mon)
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


def test_solve_lead_examples():
    assert solve_lead(Modulus(8), 4, [2]) == [2]
    sol = solve_lead(Modulus(12), 1, [4, 3])
    assert sol is not None and (4 * sol[0] + 3 * sol[1]) % 12 == 1
    assert solve_lead(Modulus(8), 1, [2]) is None


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
    from zddgb.ringstd import (
        _lcm_term,
        _term_divides,
        product_criterion_ring,
        zero_criterion,
    )

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


def test_parse_print_roundtrip():
    rnd = random.Random(45)
    for _ in range(40):
        m = rnd.choice(MODULI)
        R = ZmRing(m, ["x", "y"], rnd.choice(["lp", "dlex"]))
        f = rand_zm(R, rnd)
        assert R.parse(str(f)) == f


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
    key = ring.ordering.sort_key
    assert all(0 < c < ring.m for _, c in f.terms)
    assert all(key(a) > key(b) for (a, _), (b, _) in zip(f.terms, f.terms[1:]))


@settings(max_examples=300, deadline=None)
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


@settings(max_examples=300, deadline=None)
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
