"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with pytest -s); every
comparison is exact.  Timed criteria assert their stated wall-clock
budget.
"""

import itertools
import random
import time

import pytest

from oracles import (
    all_polynomials,
    eval_terms,
    interpolates,
    lex_poly_key,
    naive_add,
    naive_mul,
    naive_nf_monomials,
    variety,
)
from zddgb.boolgb import Strategy, buchberger, greedy_nf, sat_check
from zddgb.boolpoly import BoolRing, eval_poly, mul_monomial, spoly
from zddgb.cli import main as cli_main
from zddgb.encode import bit_mul, mult_verification, pigeonhole_cnf
from zddgb.interp import (
    PartialFn,
    PointSet,
    interpolate_smallest_lex,
    nf_by_interpolate,
    points_gb,
    standard_monomials,
    zeros,
)
from zddgb.ringstd import (
    Modulus,
    RingStrategy,
    ZmRing,
    nf_ring,
    std_basis,
)


def report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def rand_terms(rnd, n, max_terms, max_deg=None):
    out = []
    for _ in range(rnd.randrange(max_terms + 1)):
        t = frozenset(v for v in range(n) if rnd.random() < 0.4)
        if max_deg is not None:
            t = frozenset(sorted(t)[:max_deg])
        out.append(t)
    return out


def test_criterion_1_boolean_arithmetic_oracle():
    """1,000 random pairs in 6 variables: add, mul, monomial NF and zeros
    agree with exhaustive truth-table evaluation on all 64 points."""
    t0 = time.perf_counter()
    rnd = random.Random(101)
    n = 6
    points = list(itertools.product((0, 1), repeat=n))
    ring = BoolRing.indexed(n, "lp")
    man = ring.manager

    def table(poly):
        return tuple(eval_poly(poly, p) for p in points)

    for _ in range(1000):
        fts = rand_terms(rnd, n, 6)
        gts = rand_terms(rnd, n, 6)
        f, g = ring.from_terms(fts), ring.from_terms(gts)
        # oracle tables straight from the raw term multisets
        red_f = frozenset(t for t in map(frozenset, fts) if fts.count(t) % 2)
        red_g = frozenset(t for t in map(frozenset, gts) if gts.count(t) % 2)
        tf = tuple(eval_terms(red_f, p) for p in points)
        tg = tuple(eval_terms(red_g, p) for p in points)
        assert table(f + g) == tuple(a ^ b for a, b in zip(tf, tg))
        assert table(f * g) == tuple(a & b for a, b in zip(tf, tg))
        mons = rand_terms(rnd, n, 3)
        G = 0
        for m in mons:
            G = man.union(G, man.singleton(m))
        from zddgb.boolpoly import nf_monomial_set

        got = nf_monomial_set(f, G)
        want = naive_nf_monomials(red_f, mons)
        assert frozenset(map(frozenset, got.term_set())) == frozenset(want)
        pts = {p for p in points if rnd.random() < 0.3}
        S = PointSet.from_points(ring, pts)
        zs = set(zeros(f, S).points())
        assert zs == {p for p in pts if eval_terms(red_f, p) == 0}
    elapsed = time.perf_counter() - t0
    report("1 boolean-arithmetic-oracle", elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_2_groebner_correctness():
    """200 random systems (<= 8 vars, <= 6 gens, deg <= 3): varieties are
    preserved and every surviving s-polynomial reduces to zero."""
    t0 = time.perf_counter()
    rnd = random.Random(102)
    for trial in range(200):
        n = rnd.randrange(2, 9)
        ring = BoolRing.indexed(n, rnd.choice(["lp", "dlex", "dp_asc"]))
        gens = []
        for _ in range(rnd.randrange(1, 7)):
            g = ring.from_terms(rand_terms(rnd, n, 4, max_deg=3))
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        basis = buchberger(gens)
        vin = variety([g.term_set() for g in gens], n)
        vout = variety([g.term_set() for g in basis], n)
        assert vin == vout, trial
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert greedy_nf(spoly(basis[i], basis[j]), basis).is_zero()
            for v in basis[i].vars_of():
                fp = mul_monomial(basis[i], ring.monomial((v,)))
                assert greedy_nf(fp, basis).is_zero()
    elapsed = time.perf_counter() - t0
    report("2 groebner-correctness", elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_3_benchmark_verdicts(tmp_path, capsys):
    """hole4..hole6 exit 20, with hole6 at 42 variables and 133
    clauses; mult3x3 and mult4x4 collapse to the basis {1}."""
    nvars, clauses = pigeonhole_cnf(6)
    assert nvars == 42 and len(clauses) == 133
    for k in (4, 5, 6):
        nv, cls = pigeonhole_cnf(k)
        text = f"p cnf {nv} {len(cls)}\n" + "".join(
            " ".join(map(str, c)) + " 0\n" for c in cls
        )
        path = tmp_path / f"hole{k}.cnf"
        path.write_text(text)
        t0 = time.perf_counter()
        code = cli_main(["sat", str(path), "--preprocess", "conjunction"])
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert code == 20, f"hole{k} exit {code}"
        assert elapsed < 60, f"hole{k} took {elapsed:.1f}s"
    for size in (3, 4):
        system = mult_verification(size)
        t0 = time.perf_counter()
        basis = buchberger(system.polys)
        elapsed = time.perf_counter() - t0
        assert len(basis) == 1 and basis[0].is_one()
        assert elapsed < 60
    report("3 benchmark-verdicts", True)


def test_criterion_4_interpolation_minimality():
    """500 random partial functions on 3 variables with at most 8 points:
    the interpolant equals the brute-force minimum over all 256 candidate
    polynomials under the lexicographic extension."""
    t0 = time.perf_counter()
    rnd = random.Random(104)
    ring = BoolRing.indexed(3, "lp")
    candidates = list(all_polynomials(3))
    points = list(itertools.product((0, 1), repeat=3))
    for _ in range(500):
        dom = rnd.sample(points, rnd.randrange(9))
        zs = {p for p in dom if rnd.random() < 0.5}
        os_ = set(dom) - zs
        b = PartialFn(
            PointSet.from_points(ring, zs), PointSet.from_points(ring, os_)
        )
        got = interpolate_smallest_lex(b)
        best = min(
            (c for c in candidates if interpolates(c, zs, os_)),
            key=lambda c: lex_poly_key(c, 3),
        )
        got_terms = frozenset(frozenset(t) for t in got.terms())
        assert lex_poly_key(got_terms, 3) == lex_poly_key(best, 3)
    elapsed = time.perf_counter() - t0
    report("4 interpolation-minimality", elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_5_cross_algorithm_identity():
    """300 random (f, P) with n <= 6 and |P| <= 20: the interpolation
    normal form equals greedy reduction by the points basis, and the
    standard monomial count equals |P|."""
    rnd = random.Random(105)
    for _ in range(300):
        n = rnd.randrange(1, 7)
        ring = BoolRing.indexed(n, "lp")
        pts = {
            tuple(rnd.randrange(2) for _ in range(n))
            for _ in range(rnd.randrange(21))
        }
        P = PointSet.from_points(ring, pts)
        f = ring.from_terms(rand_terms(rnd, n, 5))
        assert nf_by_interpolate(f, P) == greedy_nf(f, points_gb(P))
        S = standard_monomials(P)
        assert ring.manager.count_paths(S) == len(P)
    report("5 cross-algorithm-identity", True)


def test_criterion_6_ring_layer_laws():
    """Exhaustive valuation/divisibility/unit/annihilator laws for
    m in {4, 8, 12, 16, 36}; nu_3(9) = 1 in Z_12."""
    from oracles import zm_annihilator_set, zm_divides, zm_ideal_generated

    assert Modulus(12).nu(9)[1] == 1
    for m in (4, 8, 12, 16, 36):
        mod = Modulus(m)
        es = tuple(e for _, e in mod.primes)
        for a in range(m):
            assert (mod.nu(a) == (0,) * len(es)) == mod.is_unit(a)
            u, core = mod.unit_normalize(a)
            assert mod.is_unit(u) and u * core % m == a
            assert zm_annihilator_set(m, a) == zm_ideal_generated(
                m, mod.ann_generator(a)
            )
            for b in range(m):
                assert mod.divides(a, b) == zm_divides(m, a, b)
                nab = mod.nu(a * b % m)
                assert nab == tuple(
                    min(x + y, e)
                    for x, y, e in zip(mod.nu(a), mod.nu(b), es)
                )
    report("6 ring-layer-laws", True)


def rand_zm(R, rnd, max_terms=4, max_deg=3):
    terms = []
    for _ in range(rnd.randrange(max_terms)):
        exps = [0] * R.n
        for _ in range(rnd.randrange(max_deg + 1)):
            exps[rnd.randrange(R.n)] += 1
        terms.append((tuple(exps), rnd.randrange(R.m)))
    return R.poly(terms)


def test_criterion_7_std_basis_membership():
    """100 random ideals over Z4 and Z8 (<= 3 vars, deg <= 3): 1,000
    random ideal combinations each reduce to zero, and criteria on/off
    produce identical lead sets."""
    t0 = time.perf_counter()
    rnd = random.Random(107)
    off = RingStrategy(
        product_criterion=False, chain_criterion=False, zero_criterion=False
    )
    done = 0
    while done < 100:
        m = rnd.choice((4, 8))
        n = rnd.randrange(1, 4)
        R = ZmRing(m, [f"x{i}" for i in range(n)], rnd.choice(["lp", "dlex"]))
        gens = [
            g for g in (rand_zm(R, rnd) for _ in range(rnd.randrange(1, 4)))
            if not g.is_zero()
        ]
        if not gens:
            continue
        done += 1
        basis = std_basis(gens)
        for _ in range(1000):
            f = R.zero
            for g in gens:
                f = f + rand_zm(R, rnd, 3, 2) * g
            assert nf_ring(f, basis).is_zero()
        basis_off = std_basis(gens, strategy=off)
        mod = R.mod

        def leads(bs):
            return {(g.lm(), mod.core(mod.nu(g.lc()))) for g in bs}

        assert leads(basis) == leads(basis_off)
    elapsed = time.perf_counter() - t0
    report("7 std-basis-membership", elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_8_disequality_and_bit_mul():
    """The gadget s*(f-e) = 2^(n-1) is solvable iff f != e (n <= 4,
    exhaustive); bit_mul matches integer multiplication mod 2^n for all
    inputs up to n = 5."""
    for n in (1, 2, 3, 4):
        m = 2**n
        half = 2 ** (n - 1)
        for f in range(m):
            for e in range(m):
                solvable = any(s * (f - e) % m == half for s in range(m))
                assert solvable == (f != e)
    for n in (1, 2, 3, 4, 5):
        names = [f"a{i}" for i in range(n - 1, -1, -1)] + [
            f"b{i}" for i in range(n - 1, -1, -1)
        ]
        ring = BoolRing(names, "lp")
        a = [ring.var(f"a{i}") for i in range(n)]
        b = [ring.var(f"b{i}") for i in range(n)]
        prods, _ = bit_mul(a, b)
        for x in range(2**n):
            for y in range(2**n):
                point = [0] * (2 * n)
                for i in range(n):
                    point[ring.index(f"a{i}")] = (x >> i) & 1
                    point[ring.index(f"b{i}")] = (y >> i) & 1
                pt = tuple(point)
                got = sum(eval_poly(prods[i], pt) << i for i in range(n))
                assert got == (x * y) % 2**n
    report("8 disequality-and-bit-mul", True)


def test_criterion_9_linear_lead_criterion_soundness():
    """200 random systems containing products with linear-lead factors:
    reduced bases agree with the criterion enabled and disabled."""
    rnd = random.Random(109)
    on = Strategy(linear_lead_criterion=True)
    off = Strategy(linear_lead_criterion=False)
    for trial in range(200):
        n = rnd.randrange(3, 7)
        ring = BoolRing.indexed(n, rnd.choice(["lp", "dlex"]))
        gens = []
        for _ in range(rnd.randrange(1, 4)):
            g = ring.from_terms(rand_terms(rnd, n, 3))
            if g.is_zero():
                continue
            v = rnd.randrange(n)
            l = ring.var(v)
            if rnd.random() < 0.5:
                l = l + ring.one
            gens.append(l * g if rnd.random() < 0.8 else g)
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        a = buchberger(gens, strategy=on)
        b = buchberger(gens, strategy=off)
        assert [g.z for g in a] == [g.z for g in b], trial
    report("9 linear-lead-criterion", True)
