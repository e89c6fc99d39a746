import itertools
import random
import signal
import time
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gm_new_pairs, gm_partners, gm_pruned, naive_normal_form, variety
from test_boolpoly import orderings
from zddgb import boolgb
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
)
from zddgb.boolpoly import (
    BoolRing,
    RingMismatchError,
    deg,
    eval_poly,
    lead_vars,
    mul_boolean,
    mul_monomial,
    spoly,
)
from zddgb.encode import cnf_to_polys, mult_verification, pigeonhole
from zddgb.interp import PointSet, nf_by_interpolate, points_gb


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
        leads = [set(lead_vars(g)) for g in G]
        for t in r.terms():
            assert not any(lm <= set(t) for lm in leads)
        # f - r vanishes on the common zeros of G
        for p in pts:
            if all(eval_poly(g, p) == 0 for g in G):
                assert eval_poly(f, p) == eval_poly(r, p)


@settings(max_examples=150)
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
        return ring.sort_key(tuple(sorted(t)))

    for _ in range(5):
        f = rand_poly(ring, rnd, 8)
        got = frozenset(map(frozenset, greedy_nf(f, G).terms()))
        assert got == naive_normal_form(f.term_set(), basis, key)


@pytest.mark.parametrize("kind", ["lp", "dlex", "dp_asc", "block(dp_asc:2,dlex:4)"])
def test_reductor_set_holding_one(kind):
    """1 divides every term: its lead is the constant, which divides every
    monomial the reductor table is asked about, wherever its entry sorts."""
    ring = BoolRing.indexed(4, kind)
    rnd = random.Random(kind)
    for _ in range(10):
        f = rand_poly(ring, rnd, 6)
        G = [g for g in (rand_poly(ring, rnd) for _ in range(3)) if g]
        assert greedy_nf(f, G + [ring.one]).is_zero()
        assert greedy_nf(f, [ring.one] + G).is_zero()
        for strategy in TOGGLES:
            assert buchberger(G + [ring.one], strategy) == [ring.one]
            assert buchberger([ring.one] + G, strategy) == [ring.one]


@settings(max_examples=200)
@given(orderings(max_n=10), st.integers(0, 2**32))
def test_index_pick_matches_divisor_diagram_pick(n_ordering, seed):
    """The bitmask index picks the lead the diagram walk picked: the
    smallest entry among the leads in divisors_within(lead_set, m),
    with and without a skipped lead."""
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    man = ring.manager
    rnd = random.Random(seed)
    table = boolgb._ReductionTable(ring)
    for _ in range(rnd.randrange(1, 12)):
        g = rand_poly(ring, rnd, 5, rnd.choice([0.2, 0.4, 0.7]))
        if g:
            table.add(g, lead_vars(g))
    if rnd.random() < 0.2:
        table.add(ring.one, ())
    leads = list(table.by_lead)
    for _ in range(20):
        m = tuple(v for v in range(n) if rnd.random() < 0.6)
        skip = rnd.choice(leads + [None])
        hits = [d for d in man.iter_paths(man.divisors_within(table.lead_set, m))
                if d != skip]
        want = min(hits, key=table.by_lead.__getitem__) if hits else None
        got = table.pick(m, skip)
        if want is None:
            assert got is None
        else:
            assert got == table.by_lead[want]


@settings(max_examples=200)
@given(orderings(max_n=5), st.integers(0, 2**32))
def test_one_pass_table_matches_add(n_ordering, seed):
    """The table built from a reductor list holds the entries, by_lead
    and lead_set of one filled by add in list order; leads repeat with
    reductors of different and of equal length, so the first of the least
    rank must win."""
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    key = ring.sort_key
    monomials = [m for k in range(n + 1) for m in itertools.combinations(range(n), k)]
    rnd = random.Random(seed)
    reductors = []
    for _ in range(rnd.randrange(12)):
        g = rand_poly(ring, rnd, 5, rnd.choice([0.2, 0.4, 0.7]))
        if not g:
            continue
        lead, terms = lead_vars(g), g.term_set()
        reductors.append((g, lead))
        below = [m for m in monomials if key(m) < key(lead) and m not in terms]
        tails = sorted(terms - {lead})
        if below and rnd.random() < 0.5:
            # the same lead, one term longer
            reductors.append((ring.from_terms(terms | {rnd.choice(below)}), lead))
        if below and tails and rnd.random() < 0.5:
            # the same lead and length: one tail term swapped
            swapped = terms - {rnd.choice(tails)} | {rnd.choice(below)}
            reductors.append((ring.from_terms(swapped), lead))
    if rnd.random() < 0.2:
        reductors.append((ring.one, ()))
    rnd.shuffle(reductors)
    filled = boolgb._ReductionTable(ring)
    for g, lead in reductors:
        filled.add(g, lead)
    built = boolgb._ReductionTable(ring, reductors)
    assert built.entries == filled.entries
    assert built.by_lead == filled.by_lead
    assert built.lead_set == filled.lead_set
    assert boolgb._ReductionTable(ring, []).lead_set == 0


@settings(max_examples=200)
@given(orderings(max_n=10), st.integers(0, 2**32))
def test_pick_is_smallest_dividing_entry(n_ordering, seed):
    """pick(m, skip) is the smallest entry of by_lead whose lead divides m
    and is not skip, found by a plain scan, also after replace has given
    some leads a new reductor."""
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    rnd = random.Random(seed)
    table = boolgb._ReductionTable(ring)
    for _ in range(rnd.randrange(1, 12)):
        g = rand_poly(ring, rnd, 5, rnd.choice([0.2, 0.4, 0.7]))
        if g:
            table.add(g, lead_vars(g))
    if rnd.random() < 0.2:
        table.add(ring.one, ())
    leads = list(table.by_lead)
    for lead in leads:
        if rnd.random() < 0.3:
            table.replace(ring.monomial(lead), lead)
    for _ in range(20):
        m = tuple(v for v in range(n) if rnd.random() < 0.6)
        for skip in (None, rnd.choice(leads + [None])):
            hits = [e for lead, e in table.by_lead.items()
                    if set(lead) <= set(m) and lead != skip]
            assert table.pick(m, skip) == (min(hits) if hits else None)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_engines_refuse_mixed_rings():
    """Polynomials of two rings with the same names hold node ids of two
    managers; every engine raises instead of mixing them, which can loop
    in greedy_nf or give a wrong basis.  The time limit turns a loop into
    a failure."""
    ring, other = BoolRing(["x", "y"]), BoolRing(["x", "y"])
    f, g = ring.parse("x*y + x"), other.parse("x + 1")
    assert buchberger([f, ring.parse("x + 1")]) == [
        ring.parse("x + 1"), ring.parse("y + 1")]
    calls = [
        lambda: greedy_nf(f, [g]),
        lambda: greedy_nf(f, [other.zero]),
        lambda: buchberger([f, g]),
        lambda: buchberger([f, other.zero]),
        lambda: interreduce([f, g]),
        lambda: sat_check([f, g]),
        lambda: sat_check([f, g], preprocess="conjunction"),
    ]
    for call in calls:
        with time_limit(5), pytest.raises(RingMismatchError):
            call()


def interreduce_by_greedy_nf(basis):
    """interreduce with one greedy_nf call per element (the reference)."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return []
    if any(g.is_one() for g in basis):
        return [basis[0].ring.one]
    key = basis[0].ring.sort_key
    kept = []
    for g in sorted(basis, key=lambda g: key(lead_vars(g))):
        if not any(set(lead_vars(h)) <= set(lead_vars(g)) for h in kept):
            kept.append(g)
    for i, g in enumerate(kept):
        kept[i] = greedy_nf(g, kept[:i] + kept[i + 1:])
    return kept[::-1]


@settings(max_examples=150)
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
        if l.is_zero() or lead_vars(l) != (v,):
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
    blocked = BoolRing.indexed(10, "block(dlex:5,dp_asc:10)")
    with pytest.raises(ValueError, match="symmetric ordering"):
        suitable_shift(blocked.from_terms([{2, 7}]))
    with pytest.raises(ValueError, match="symmetric ordering"):
        bgb_single(blocked.from_terms([{2, 7}]))
    # a single block is the degree ordering it names
    one_block = BoolRing.indexed(10, "block(dlex:10)")
    p = one_block.from_terms([{5, 9}, {9}])
    assert suitable_shift(p)[1] == {5: 0, 9: 1}
    dlex = BoolRing.indexed(10, "dlex").from_terms([{5, 9}, {9}])
    assert [str(g) for g in bgb_single(p)] == [str(g) for g in bgb_single(dlex)]


def test_shift_preserves_comparisons():
    rnd = random.Random(24)
    for kind in ("lp", "dlex", "dp_asc"):
        ring = BoolRing.indexed(8, kind)
        for _ in range(40):
            p = rand_poly(ring, rnd, 6)
            if p.is_zero():
                continue
            shifted, mapping = suitable_shift(p)
            key = ring.sort_key
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
    # a reduced lex basis is determined by its variety: the pair loop and
    # the basis interpolated from brute-force zeros must agree as lists (an
    # explicit Strategy keeps clause systems off the variety route, which
    # would compare points_gb with itself)
    rnd = random.Random(31)
    for _ in range(300):
        n = rnd.randint(1, 7)
        ring = BoolRing.indexed(n, "lp")
        gens = [rand_poly(ring, rnd, 6) for _ in range(rnd.randint(1, 4))]
        pts = variety([g.term_set() for g in gens], n)
        expected = points_gb(PointSet.from_points(ring, sorted(pts)))
        assert buchberger(gens, Strategy()) == expected


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
            assert v in lead_vars(g)
        if strategy.linear_lead_criterion:
            assert not linear_lead_criterion(g, v)


def mask_set(mask: int) -> frozenset:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def queued(state) -> Counter:
    # queue entries are (heap key, kind, a, b, lcm bitmask)
    return Counter((k, a, b, mask_set(l)) for _, k, a, b, l in state.queue)


TOGGLES = [Strategy()] + [
    Strategy(**{name: False})
    for name in ("product_criterion", "chain_criterion",
                 "linear_lead_criterion")
]


def test_pair_bookkeeping_matches_frozenset_oracle(monkeypatch):
    """Each insert queues exactly the generator pairs of the Gebauer-Moeller
    and product rules over its partner set, with their sugar, and prunes
    exactly the queued pairs the new lead mediates, under every strategy
    toggle."""
    pushes = []
    push, add_generator = GBState.push, GBState.add_generator

    def recording_push(self, kind, a, b, lcm, sugar):
        pushes.append((kind, a, b, mask_set(lcm), sugar))
        return push(self, kind, a, b, lcm, sugar)

    seen = Counter()

    def checked_add_generator(self, h):
        before = queued(self)
        pushes.clear()
        if not add_generator(self, h):
            return False
        flags = self.strategy
        leads = [frozenset(lead_vars(g)) for g in self.gens]
        new, idx = leads[-1], len(leads) - 1
        partners = gm_partners(leads[:-1], flags.chain_criterion)
        expected = gm_new_pairs(leads, [deg(g) for g in self.gens], partners,
                                flags.chain_criterion, flags.product_criterion)
        assert [(j, l, s) for k, j, b, l, s in pushes if k == "pair"] == expected
        assert all(b == idx for k, _, b, _, _ in pushes if k == "pair")
        pruned = (gm_pruned(before.elements(), leads, new)
                  if flags.chain_criterion else [])
        after = before - Counter(pruned)
        after.update((k, a, b, l) for k, a, b, l, _ in pushes)
        assert queued(self) == after
        seen["pushed"] += len(expected)
        seen["pruned"] += len(pruned)
        seen["retired"] += idx - len(partners)
        return True

    monkeypatch.setattr(GBState, "push", recording_push)
    monkeypatch.setattr(GBState, "add_generator", checked_add_generator)
    rnd = random.Random(32)
    for strategy in TOGGLES:
        for _ in range(30):
            n = rnd.randrange(2, 8)
            kind = rnd.choice(["lp", "dlex", "dp_asc", f"block(dlex:{n})"])
            ring = BoolRing.indexed(n, kind)
            gens = [g for g in (rand_poly(ring, rnd, 6) for _ in range(4)) if g]
            buchberger(gens, strategy)
    assert seen["pushed"] > 0 and seen["pruned"] > 0 and seen["retired"] > 0


def test_retired_generators_get_no_new_pairs(monkeypatch):
    """With the chain criterion a new generator is never paired with one
    whose lead a later generator's lead divides; under ALL_OFF it is
    paired with every earlier generator."""
    partners = []
    push, add_generator = GBState.push, GBState.add_generator

    def recording_push(self, kind, a, b, lcm, sugar):
        if kind == "pair":
            partners.append(a)
        return push(self, kind, a, b, lcm, sugar)

    seen = Counter()

    def checked_add_generator(self, h):
        partners.clear()
        if not add_generator(self, h):
            return False
        leads = [frozenset(lead_vars(g)) for g in self.gens]
        idx = len(leads) - 1
        retired = {j for j in range(idx)
                   if any(leads[k] <= leads[j] for k in range(j + 1, idx))}
        if self.strategy.chain_criterion:
            assert not retired.intersection(partners)
            seen["retired"] += len(retired)
        else:
            assert sorted(partners) == list(range(idx))
            seen["paired"] += idx
        return True

    monkeypatch.setattr(GBState, "push", recording_push)
    monkeypatch.setattr(GBState, "add_generator", checked_add_generator)
    rnd = random.Random(33)
    for strategy in (Strategy(), ALL_OFF):
        for _ in range(30):
            n = rnd.randrange(2, 8)
            kind = rnd.choice(["lp", "dlex", "dp_asc", f"block(dlex:{n})"])
            ring = BoolRing.indexed(n, kind)
            gens = [g for g in (rand_poly(ring, rnd, 6) for _ in range(4)) if g]
            buchberger(gens, strategy)
    assert seen["retired"] > 0 and seen["paired"] > 0


@settings(max_examples=150)
@given(orderings(), st.integers(0, 2**32))
def test_criteria_keep_basis_and_variety(n_ordering, seed):
    """Every field pair goes through the queue, under block orderings as
    under the others; the criteria must not change the reduced basis."""
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


def reduction_trace(monkeypatch, ring, term_lists):
    """Every `_ReductionTable.reduce` input (term set, lead set) and the
    number of reduction steps (q*g products) of `buchberger` on the system,
    run through the pair loop."""
    calls, steps = [], []
    reduce, mul = boolgb._ReductionTable.reduce, boolgb._mul

    def traced(self, fz, skip=None):
        man = self.ring.manager
        calls.append((frozenset(man.iter_paths(fz)),
                      frozenset(self.by_lead) - {skip}))
        return reduce(self, fz, skip)

    def counted(man, a, b):
        steps.append(None)
        return mul(man, a, b)

    with monkeypatch.context() as m:
        m.setattr(boolgb._ReductionTable, "reduce", traced)
        m.setattr(boolgb, "_mul", counted)
        buchberger([ring.from_terms(t) for t in term_lists], Strategy())
    return calls, len(steps)


def test_reductor_choice_is_history_free(monkeypatch):
    """The same system reduces the same way in a fresh ring and in one
    whose manager already holds the nodes of an unrelated computation."""
    for seed in range(11):
        rnd = random.Random(seed)
        n = rnd.randrange(6, 10)
        ordering = rnd.choice(["lp", "dlex", "dp_asc"])

        def draw():
            return [frozenset(v for v in range(n) if rnd.random() < 0.4)
                    for _ in range(rnd.randrange(1, 6))]

        system = [draw() for _ in range(rnd.randrange(3, 7))]
        other = [draw() for _ in range(5)]
        fresh = reduction_trace(monkeypatch, BoolRing.indexed(n, ordering),
                                system)
        assert fresh[0]
        ring = BoolRing.indexed(n, ordering)
        buchberger([ring.from_terms(t) for t in other], ALL_OFF)
        assert reduction_trace(monkeypatch, ring, system) == fresh


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


def test_pair_loop_refutes_hole3():
    system = pigeonhole(3)
    assert buchberger(system.polys, Strategy()) == [system.ring.one]


# -- the variety route for dense clause systems ------------------------------------------


def random_cnf(rnd, n, m, width=3):
    """m random clauses of `width` distinct literals over v1..vn."""
    return [[v if rnd.random() < 0.5 else -v
             for v in rnd.sample(range(1, n + 1), width)] for _ in range(m)]


def clause_systems():
    """(name, clause polynomials) on lp rings: random 3-CNF on both sides
    of CLAUSE_DENSITY, pigeonhole (k + 1 pigeons in k holes: no zero),
    units, repeats, the empty clause and clauses over part of the ring."""
    rnd = random.Random(41)
    for i in range(40):
        n = rnd.randint(3, 10)
        m = rnd.randint(1, 4 * n)
        yield f"3cnf{i}", cnf_to_polys((n, random_cnf(rnd, n, m))).polys
    for k in (2, 3, 4):
        yield f"hole{k}", pigeonhole(k).polys
    yield "units", cnf_to_polys((3, [[1], [-2], [3], [-1, 2]])).polys
    yield "complementary units", cnf_to_polys((3, [[2], [-2]])).polys
    yield "repeats", cnf_to_polys((3, [[1, 2]] * 5 + [[-1, 3]] * 2)).polys
    yield "empty clause", cnf_to_polys((2, [[1], []])).polys
    yield "zero", [BoolRing.indexed(2, "lp").zero]
    partial = cnf_to_polys((9, random_cnf(rnd, 4, 12)))
    yield "part of the ring", partial.polys + [partial.ring.zero]


def test_variety_route_agrees_with_pair_loop_and_brute_force():
    for name, gens in clause_systems():
        ring = gens[0].ring
        # brute force over hole4's 2^20 points would take minutes
        pts = (set() if name.startswith("hole")
               else variety([g.term_set() for g in gens], ring.n))
        expected = points_gb(PointSet.from_points(ring, sorted(pts)))
        assert buchberger(gens) == buchberger(gens, Strategy()) == expected, name
        verdict, model = sat_check(gens)
        if pts:
            assert (verdict, model) == ("SAT", min(pts)), name
        else:
            assert (verdict, model) == ("UNSAT", None), name


def dense_by_rule(gens):
    """The routing rule, restated: each nonzero generator a product of
    factors x_v and x_v + 1, distinct clauses at least CLAUSE_DENSITY
    times the variables they mention."""
    clauses = {frozenset(map(frozenset, g.terms())) for g in gens if g}
    mentioned = set()
    for terms in clauses:
        support = frozenset().union(*terms)
        lows = frozenset.intersection(*terms)
        # a clause's terms are the sets between its positive-literal
        # variables and its whole support, all of them
        if len(terms) != 1 << len(support - lows):
            return False
        mentioned |= support
    return len(clauses) >= boolgb.CLAUSE_DENSITY * len(mentioned)


@pytest.fixture
def variety_calls(monkeypatch):
    calls = []
    route = boolgb._variety_basis

    def spy(ring, clauses):
        calls.append(len(clauses))
        return route(ring, clauses)

    monkeypatch.setattr(boolgb, "_variety_basis", spy)
    return calls


def test_variety_route_taken_exactly_when_the_rule_holds(variety_calls):
    for name, gens in clause_systems():
        expected = dense_by_rule(gens)
        buchberger(gens)
        assert variety_calls == ([len({g.z for g in gens if g})]
                                 if expected else []), name
        variety_calls.clear()
        # a Strategy always runs the pair loop
        buchberger(gens, Strategy())
        assert not variety_calls, name
    dense = random_cnf(random.Random(42), 8, 24)
    for ordering in ("dlex", "dp_asc", "block(dlex:4,dp_asc:8)"):
        buchberger(cnf_to_polys((8, dense), ordering).polys)
    assert not variety_calls
    system = cnf_to_polys((8, dense))
    assert dense_by_rule(system.polys)
    buchberger(system.polys + [system.ring.parse("v1*v2 + v3")])
    assert not variety_calls


def test_density_threshold_counts_distinct_clauses(variety_calls):
    # 8 variables: 15 distinct clauses stay on the pair loop however often
    # they repeat, and the 16th takes the variety route
    rnd = random.Random(43)
    clauses = []
    while len(clauses) < 16:
        c = sorted(random_cnf(rnd, 8, 1)[0], key=abs)
        if c not in clauses:
            clauses.append(c)
    clauses[0] = [1, 2, 3, 4, 5, 6, 7, 8]
    below = cnf_to_polys((8, clauses[:15] * 3)).polys
    assert buchberger(below) == buchberger(below, Strategy())
    assert not variety_calls
    at = cnf_to_polys((8, clauses)).polys
    assert buchberger(at) == buchberger(at, Strategy())
    assert variety_calls == [16]


@pytest.mark.parametrize("nvars,m", [(300, 40), (60, 30)])
def test_sparse_wide_cnf_stays_on_pair_loop(variety_calls, nvars, m):
    # clause shape alone would send these to the variety route, but a
    # sparse system has a large zero set with a wide diagram: CNF of these
    # sizes ran out of a 2 GB cap there and took under a second on the
    # pair loop
    system = cnf_to_polys((nvars, random_cnf(random.Random(m), nvars, m)))
    t0 = time.perf_counter()
    basis = buchberger(system.polys)
    assert time.perf_counter() - t0 < 60
    assert basis and not basis[0].is_one()
    assert not variety_calls


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


@settings(max_examples=150)
@given(orderings(max_n=8), st.integers(0, 2**32))
def test_sat_model_is_lex_min_of_variety(n_ordering, seed):
    """The verdict matches the brute-force variety under every ordering,
    and the model is its lex-smallest point, whatever order the basis is
    intersected in."""
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    rnd = random.Random(seed)
    gens = [g for g in (rand_poly(ring, rnd) for _ in range(rnd.randrange(1, 6))) if g]
    if not gens:
        return
    verdict, model = sat_check(gens)
    vin = variety([g.term_set() for g in gens], n)
    if vin:
        assert verdict == "SAT" and model == min(vin)
    else:
        assert (verdict, model) == ("UNSAT", None)


def test_mult5_tampered_model_node_budget():
    # regression guard on model extraction: the count is deterministic,
    # 7,396 nodes when the variety is intersected in ascending-lead order
    # and 57,967 in lead-descending order
    system = mult_verification(5, tamper=True)
    man = system.ring.manager
    before = len(man)
    assert sat_check(system.polys)[0] == "SAT"
    assert len(man) - before <= 12_000


def test_hole4_plain_node_budget():
    # memory guard on the pair loop (a dense clause system, so the Strategy
    # keeps it off the variety route): the count is deterministic, 33,360
    # nodes when every reduced polynomial enters the basis directly and
    # 47,031 when each went through the single-polynomial symmetry cache
    system = pigeonhole(4)
    man = system.ring.manager
    before = len(man)
    assert buchberger(system.polys, Strategy()) == [system.ring.one]
    assert len(man) - before <= 40_000


def test_greedy_nf_points_basis_node_budget():
    # regression guard on the reductor rank: the count is deterministic,
    # 49,121 nodes with the rank len(g) << deg(lead) and 113,065 with the
    # weighted length (terms plus their degrees) it replaced
    rnd = random.Random(0)
    ring = BoolRing.indexed(12, "lp")
    P = PointSet.from_points(ring, sorted(
        {tuple(rnd.randrange(2) for _ in range(12)) for _ in range(500)}))
    queries = [
        ring.from_terms(frozenset(v for v in range(12) if rnd.random() < 0.3)
                        for _ in range(16))
        for _ in range(2)
    ]
    basis = points_gb(P)
    man = ring.manager
    before = len(man)
    results = [greedy_nf(f, basis) for f in queries]
    assert len(man) - before <= 60_000
    assert results == [nf_by_interpolate(f, P) for f in queries]


def test_hole5_conjunction_node_budget():
    # regression guard on the Boolean product of the conjunction, built
    # here because `conjunction_generator` reads the zero set: the count is
    # deterministic, 60,073 with three recursive products per shared top
    # variable and 72,759 with four, factors 1 + g shortest first
    system = pigeonhole(5)
    ring = system.ring
    count = ring.manager.count_paths
    product = ring.one
    for f in sorted((g + ring.one for g in system.polys),
                    key=lambda f: count(f.z)):
        product = mul_boolean(product, f)
    assert product.is_zero()
    assert len(ring.manager) <= 65_000


@pytest.mark.parametrize("system, bound", [
    # deterministic counts of the whole manager: 2,331, 24,270 and 76,589
    # nodes (the hole5 product alone builds 60,073)
    (lambda: pigeonhole(5), 3_000),
    (lambda: pigeonhole(7), 30_000),
    (lambda: mult_verification(5), 90_000),
], ids=["hole5", "hole7", "mult5"])
def test_conjunction_zero_set_node_budget(system, bound):
    system = system()
    assert sat_check(system.polys, preprocess="conjunction")[0] == "UNSAT"
    assert len(system.ring.manager) <= bound


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


def test_conjunction_generator_matches_product():
    # the generator read off the zero set is the explicit 1 + prod(1 + g),
    # term for term, under every ordering; zero generators drop out, a
    # constant 1 gives 1 and the all-zero list gives 0
    rnd = random.Random(29)
    for order in ("lp", "dlex", "dp_asc"):
        for _ in range(40):
            ring = BoolRing.indexed(rnd.randrange(1, 7), order)
            gens = [rand_poly(ring, rnd) for _ in range(rnd.randrange(1, 5))]
            gens += [ring.zero] * rnd.randrange(2)
            gens += [ring.one] * (rnd.random() < 0.15)
            rnd.shuffle(gens)
            product = ring.one
            for g in gens:
                product = mul_boolean(product, g + ring.one)
            assert conjunction_generator(gens) == ring.one + product
        ring = BoolRing.indexed(4, order)
        assert conjunction_generator([ring.zero, ring.zero]).is_zero()
        assert conjunction_generator([ring.zero, ring.one]).is_one()
