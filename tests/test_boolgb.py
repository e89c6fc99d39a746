import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_normal_form, variety
from test_boolpoly import orderings
from zddgb.boolgb import (
    GBState,
    Strategy,
    SymCache,
    bgb_single,
    buchberger,
    conjunction_generator,
    factor_linear_leads,
    greedy_nf,
    interreduce,
    linear_lead_criterion,
    sat_check,
    suitable_shift,
    weighted_length,
)
from zddgb.boolpoly import (
    BoolRing,
    OrderingError,
    eval_poly,
    lead,
    lead_vars,
    mul_monomial,
    parse_ordering,
    spoly,
)
from zddgb.encode import pigeonhole
from zddgb.interp import PointSet, points_gb


def rand_poly(ring, rnd, max_terms=5, density=0.4):
    terms = [
        frozenset(v for v in range(ring.n) if rnd.random() < density)
        for _ in range(rnd.randrange(max_terms))
    ]
    return ring.from_terms(terms)


def certificate_holds(G, ring):
    """Every surviving s-polynomial, field pairs included, reduces to 0."""
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not greedy_nf(spoly(G[i], G[j]), G).is_zero():
                return False
        for v in G[i].vars_of():
            fp = mul_monomial(G[i], ring.monomial((v,)))
            if not greedy_nf(fp, G).is_zero():
                return False
    return True


# -- greedy normal form -----------------------------------------------------------


def test_greedy_nf_examples():
    ring = BoolRing(["a", "b", "c"], "lp")
    f = ring.parse("a*c + c")
    assert greedy_nf(f, [f]).is_zero()
    assert greedy_nf(f, [ring.parse("c")]).is_zero()
    r2 = BoolRing(["x", "y"], "lp")
    # x*y + x = x (*) (y + 1): derived by truth-table membership
    assert greedy_nf(r2.parse("x*y + x"), [r2.parse("y + 1")]).is_zero()


def test_greedy_nf_reduced_and_in_ideal():
    rnd = random.Random(21)
    ring = BoolRing.indexed(6, "lp")
    pts = list(itertools.product((0, 1), repeat=6))
    for _ in range(40):
        f = rand_poly(ring, rnd)
        G = [g for g in (rand_poly(ring, rnd) for _ in range(3)) if g]
        r = greedy_nf(f, G)
        leads = [set(lead(g).vars) for g in G]
        for t in r.terms():
            assert not any(lm <= set(t) for lm in leads)
        # f - r vanishes on the common zeros of G
        for p in pts:
            if all(eval_poly(g, p) == 0 for g in G):
                assert eval_poly(f, p) == eval_poly(r, p)


@settings(max_examples=150, deadline=None)
@given(orderings(), st.integers(0, 2**32))
def test_greedy_nf_against_reduced_basis_matches_term_list_oracle(
        n_ordering, seed):
    # the reduced normal form is unique, whatever reductor each step picks
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    rnd = random.Random(seed)
    gens = [g for g in (rand_poly(ring, rnd) for _ in range(3)) if g]
    if not gens:
        return
    G = buchberger(gens)
    basis = [g.term_set() for g in G]

    def key(t):
        return ordering.sort_key(tuple(sorted(t)))

    for _ in range(5):
        f = rand_poly(ring, rnd, 8)
        got = frozenset(map(frozenset, greedy_nf(f, G).terms()))
        assert got == naive_normal_form(f.term_set(), basis, key)


def interreduce_by_greedy_nf(basis):
    """interreduce with one greedy_nf call per element (the reference)."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return []
    if any(g.is_one() for g in basis):
        return [basis[0].ring.one]
    key = basis[0].ring.ordering.sort_key
    kept = []
    for g in sorted(basis, key=lambda g: key(lead_vars(g))):
        if not any(set(lead_vars(h)) <= set(lead_vars(g)) for h in kept):
            kept.append(g)
    for i, g in enumerate(kept):
        kept[i] = greedy_nf(g, kept[:i] + kept[i + 1:])
    return kept[::-1]


@settings(max_examples=150, deadline=None)
@given(orderings(), st.integers(0, 2**32))
def test_interreduce_matches_elementwise_greedy_nf(n_ordering, seed):
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    rnd = random.Random(seed)
    gens = [rand_poly(ring, rnd, 6) for _ in range(rnd.randrange(1, 7))]
    expected = interreduce_by_greedy_nf(gens)
    assert [g.z for g in interreduce(gens)] == [g.z for g in expected]


# -- criteria -----------------------------------------------------------------------


def all_factorizations(ring, f, v):
    """Exhaustive search for f = l (*) g with lead(l) = x_v (oracle)."""
    n = ring.n
    monomials = [
        frozenset(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
    ]
    polys = []
    for mask in range(2 ** len(monomials)):
        polys.append(
            ring.from_terms(
                m for i, m in enumerate(monomials) if (mask >> i) & 1
            )
        )
    for l in polys:
        if l.is_zero() or lead(l).vars != (v,):
            continue
        for g in polys:
            if not g.is_zero() and l * g == f:
                return True
    return False


def test_linear_lead_criterion_examples():
    ring = BoolRing(["x", "y"], "lp")
    assert linear_lead_criterion(ring.parse("x*y + x"), 0)
    assert linear_lead_criterion(ring.parse("x"), 0)
    r3 = BoolRing(["x", "y", "z"], "lp")
    f = r3.parse("x*y + z")
    assert not linear_lead_criterion(f, 0)
    assert not all_factorizations(r3, f, 0)


def test_linear_lead_criterion_never_lies():
    # when the detector fires, an actual factorization must exist
    rnd = random.Random(22)
    ring = BoolRing.indexed(3, "lp")
    for _ in range(40):
        f = rand_poly(ring, rnd)
        if f.is_zero():
            continue
        for v in range(3):
            if linear_lead_criterion(f, v):
                assert all_factorizations(ring, f, v)


# -- factorization and shifting -----------------------------------------------------


def test_factor_linear_leads_examples():
    ring = BoolRing(["x", "y"], "lp")
    factors, core = factor_linear_leads(ring.parse("x*y + y"))
    prod = core
    for l in factors:
        prod = prod * l
    assert prod == ring.parse("x*y + y")
    assert core.is_one()
    assert {str(l) for l in factors} == {"y", "x + 1"}

    factors, core = factor_linear_leads(ring.parse("x"))
    assert [str(l) for l in factors] == ["x"] and core.is_one()

    f = ring.parse("x*y + 1")
    factors, core = factor_linear_leads(f)
    assert factors == [] and core == f


def test_factor_reconstruction_random():
    rnd = random.Random(23)
    ring = BoolRing.indexed(5, "lp")
    for _ in range(60):
        p = rand_poly(ring, rnd)
        if p.is_zero():
            continue
        factors, core = factor_linear_leads(p)
        prod = core
        for l in factors:
            prod = prod * l
        assert prod == p
        # core admits no further linear-lead factor of either shape
        if not core.is_one():
            man = ring.manager
            for v in core.vars_of():
                s1, s0 = man.subset1(core.z, v), man.subset0(core.z, v)
                assert s0 != 0 and s1 != s0


def test_suitable_shift():
    ring = BoolRing.indexed(10, "lp")
    p = ring.from_terms([{5, 9}, {9}])
    shifted, mapping = suitable_shift(p)
    assert mapping == {5: 0, 9: 1}
    assert shifted == ring.from_terms([{0, 1}, {1}])
    q = ring.from_terms([{0, 1}])
    shifted2, mapping2 = suitable_shift(q)
    assert shifted2 == q and mapping2 == {0: 0, 1: 1}
    blocked = BoolRing.indexed(10, parse_ordering("block(dlex:5,dp_asc:10)"))
    with pytest.raises(OrderingError):
        suitable_shift(blocked.from_terms([{2, 7}]))


def test_shift_preserves_comparisons():
    rnd = random.Random(24)
    for kind in ("lp", "dlex", "dp_asc"):
        ring = BoolRing.indexed(8, kind)
        for _ in range(40):
            p = rand_poly(ring, rnd, 6)
            if p.is_zero():
                continue
            shifted, mapping = suitable_shift(p)
            key = ring.ordering.sort_key
            terms = sorted(p.terms(), key=key)
            mapped = sorted(
                (tuple(sorted(mapping[v] for v in t)) for t in p.terms()),
                key=key,
            )
            assert [tuple(sorted(mapping[v] for v in t)) for t in terms] == mapped


# -- bgb_single ------------------------------------------------------------------------


def test_bgb_single_examples():
    ring = BoolRing(["x", "y"], "lp")
    assert [str(g) for g in bgb_single(ring.parse("x"))] == ["x"]
    assert [str(g) for g in bgb_single(ring.parse("x*y"))] == ["x*y"]
    assert [str(g) for g in bgb_single(ring.parse("x*y + 1"))] == ["x + 1", "y + 1"]


def test_bgb_single_matches_points_gb():
    # the reduced lex basis of a principal Boolean ideal equals the basis
    # reconstructed from its variety
    rnd = random.Random(25)
    ring = BoolRing.indexed(4, "lp")
    pts = list(itertools.product((0, 1), repeat=4))
    for _ in range(40):
        p = rand_poly(ring, rnd)
        if p.is_zero():
            continue
        basis = bgb_single(p)
        vpts = [q for q in pts if eval_poly(p, q) == 0]
        P = PointSet.from_points(ring, vpts)
        expected = points_gb(P)
        assert {g.z for g in basis} == {g.z for g in expected}


def test_buchberger_matches_points_gb():
    # a reduced lex basis is determined by its variety: the engine and the
    # basis interpolated from brute-force zeros must agree as lists
    rnd = random.Random(31)
    for _ in range(300):
        n = rnd.randint(1, 7)
        ring = BoolRing.indexed(n, "lp")
        gens = [rand_poly(ring, rnd, 6) for _ in range(rnd.randint(1, 4))]
        pts = variety([g.term_set() for g in gens], n)
        expected = points_gb(PointSet.from_points(ring, sorted(pts)))
        assert buchberger(gens) == expected


def test_bgb_single_cache_hits():
    ring = BoolRing.indexed(6, "lp")
    cache = SymCache()
    b1 = bgb_single(ring.from_terms([{0, 1}, {}]), cache=cache)
    # same shape on different variables hits the cache after shifting
    b2 = bgb_single(ring.from_terms([{3, 5}, {}]), cache=cache)
    assert cache.hits >= 1
    assert [str(g) for g in b1] == ["x0 + 1", "x1 + 1"]
    assert [str(g) for g in b2] == ["x3 + 1", "x5 + 1"]


# -- buchberger --------------------------------------------------------------------------


def test_buchberger_examples():
    ring = BoolRing(["x", "y"], "lp")
    assert [str(g) for g in buchberger([ring.parse("x + y"), ring.parse("y")])] == [
        "x",
        "y",
    ]
    assert [str(g) for g in buchberger([ring.parse("x*y + 1")])] == [
        "x + 1",
        "y + 1",
    ]
    assert [str(g) for g in buchberger([ring.parse("x"), ring.parse("x + 1")])] == [
        "1"
    ]


ALL_OFF = Strategy(
    product_criterion=False,
    chain_criterion=False,
    linear_lead_criterion=False,
    sugar=False,
    symmetry_cache=False,
)


def test_gb_soundness_completeness_and_conservativity():
    rnd = random.Random(26)
    for trial in range(40):
        n = rnd.randrange(2, 7)
        kind = rnd.choice(["lp", "dlex", "dp_asc"])
        ring = BoolRing.indexed(n, kind)
        gens = [g for g in (rand_poly(ring, rnd) for _ in range(4)) if g]
        if not gens:
            continue
        G = buchberger(gens)
        vin = variety([g.term_set() for g in gens], n)
        if G:
            vout = variety([g.term_set() for g in G], n)
        else:
            vout = variety([], n)
        assert vin == vout
        assert certificate_holds(G, ring)
        G2 = buchberger(gens, strategy=ALL_OFF)
        assert [g.z for g in G] == [g.z for g in G2]


def test_queued_field_pairs_pass_their_criteria(monkeypatch):
    """Field pairs are decided when they are made: every one queued is live."""
    pushed = []
    push = GBState.push

    def recording_push(self, kind, a, b, lcm_vars, sugar):
        if kind == "field":
            pushed.append((self.strategy, self.gens[a], b))
        return push(self, kind, a, b, lcm_vars, sugar)

    monkeypatch.setattr(GBState, "push", recording_push)
    rnd = random.Random(31)
    for strategy in (Strategy(), Strategy(product_criterion=False)):
        for _ in range(40):
            n = rnd.randrange(2, 7)
            kind = rnd.choice(["lp", "dlex", "dp_asc", f"block(dlex:{n})"])
            ring = BoolRing.indexed(n, kind)
            gens = [g for g in (rand_poly(ring, rnd) for _ in range(4)) if g]
            buchberger(gens, strategy)
    assert {st.product_criterion for st, _, _ in pushed} == {True, False}
    for strategy, g, v in pushed:
        if strategy.product_criterion:
            assert v in lead(g).vars
        if strategy.linear_lead_criterion:
            assert not linear_lead_criterion(g, v)


@settings(max_examples=150, deadline=None)
@given(orderings(), st.integers(0, 2**32))
def test_criteria_keep_basis_and_variety(n_ordering, seed):
    """Block orderings bypass the symmetry cache, so every field pair goes
    through the queue; the criteria must not change the reduced basis."""
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    rnd = random.Random(seed)
    gens = [g for g in (rand_poly(ring, rnd) for _ in range(4)) if g]
    G = buchberger(gens)
    assert G == buchberger(gens, ALL_OFF)
    vin = variety([g.term_set() for g in gens], n)
    assert variety([g.term_set() for g in G], n) == vin


def test_gb_deterministic_byte_identical():
    rnd = random.Random(27)
    ring = BoolRing.indexed(6, "lp")
    gens = [g for g in (rand_poly(ring, rnd) for _ in range(5)) if g]
    a = "\n".join(str(g) for g in buchberger(gens))
    b = "\n".join(str(g) for g in buchberger(gens))
    assert a == b


def test_multiplying_gb_by_fresh_linear_lead_poly():
    # a basis multiplied by a linear-lead polynomial on disjoint variables
    # stays a basis: check the certificate on random instances
    rnd = random.Random(28)
    for _ in range(15):
        ring = BoolRing.indexed(6, "lp")
        gens = [
            g
            for g in (
                ring.from_terms(
                    [
                        frozenset(v for v in range(3) if rnd.random() < 0.5)
                        for _ in range(rnd.randrange(1, 4))
                    ]
                )
                for _ in range(2)
            )
            if g
        ]
        if not gens:
            continue
        G = buchberger(gens)
        if not G or G[0].is_one():
            continue
        # l = x_4 or x_4 + tail in the fresh variables {4, 5}
        l = ring.from_terms(
            [{4}] + ([{5}] if rnd.random() < 0.5 else []) + ([set()] if rnd.random() < 0.5 else [])
        )
        lifted = [g * l for g in G]
        assert certificate_holds(lifted, ring)


def test_weighted_length():
    ring = BoolRing(["x", "y"], "lp")
    assert weighted_length(ring.parse("x*y + x + 1")) == 3 + 2 + 1
    assert weighted_length(ring.zero) == 0
    assert weighted_length(ring.one) == 1


# one ring for every example, so later examples meet cached nodes
_WL_RING = BoolRing.indexed(7)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 6)), max_size=24))
def test_weighted_length_counts_terms_and_degrees(terms):
    f = _WL_RING.from_terms(terms)
    assert weighted_length(f) == sum(1 + len(t) for t in f.terms())


# -- sat ----------------------------------------------------------------------------------


def test_sat_examples():
    ring = BoolRing(["x", "y"], "lp")
    assert sat_check([ring.parse("x"), ring.parse("x + 1")]) == ("UNSAT", None)
    verdict, model = sat_check([ring.parse("x*y + 1")])
    assert verdict == "SAT" and model == (1, 1)


def test_sat_pigeonhole_2():
    system = pigeonhole(2)
    assert sat_check(system.polys)[0] == "UNSAT"
    assert sat_check(system.polys, preprocess="conjunction")[0] == "UNSAT"


def test_sat_models_verified():
    rnd = random.Random(29)
    for _ in range(30):
        n = rnd.randrange(2, 6)
        ring = BoolRing.indexed(n, "lp")
        gens = [g for g in (rand_poly(ring, rnd) for _ in range(3)) if g]
        if not gens:
            continue
        verdict, model = sat_check(gens)
        vin = variety([g.term_set() for g in gens], n)
        if verdict == "SAT":
            assert model in vin
            assert model == min(vin)
        else:
            assert not vin


def test_hole5_conjunction_node_budget():
    # regression guard on the Boolean product: the count is deterministic,
    # 60,073 with three recursive products per shared top variable and
    # 72,759 with four
    system = pigeonhole(5)
    assert sat_check(system.polys, preprocess="conjunction")[0] == "UNSAT"
    assert len(system.ring.manager) <= 65_000


def test_conjunction_generator_is_unique_generator():
    rnd = random.Random(30)
    for _ in range(20):
        n = rnd.randrange(2, 6)
        ring = BoolRing.indexed(n, "lp")
        gens = [g for g in (rand_poly(ring, rnd) for _ in range(3)) if g]
        if not gens:
            continue
        c = conjunction_generator(gens)
        vin = variety([g.term_set() for g in gens], n)
        vc = variety([c.term_set()], n)
        assert vin == vc
