import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    OrderingReference,
    naive_add,
    naive_mul,
    naive_nf_monomials,
    truth_table,
)
from zddgb.boolpoly import (
    BoolRing,
    RingMismatchError,
    deg,
    eval_poly,
    lead,
    lead_vars,
    mul_boolean,
    mul_monomial,
    nf_monomial_set,
    spoly,
    terms_iter,
)
from zddgb.zdd import ZddError


@pytest.fixture
def ring():
    return BoolRing(["a", "b", "c"], "lp")


def rand_poly(ring, rnd, max_terms=6):
    terms = [
        frozenset(v for v in range(ring.n) if rnd.random() < 0.5)
        for _ in range(rnd.randrange(max_terms))
    ]
    return ring.from_terms(terms)


# -- arithmetic ------------------------------------------------------------------


def test_add_examples(ring):
    f = ring.parse("a*c + c")
    assert (f + f).is_zero()
    assert f + ring.parse("b*c") == ring.parse("a*c + b*c + c")
    assert f + ring.parse("c") == ring.parse("a*c")


def test_add_ring_mismatch(ring):
    other = BoolRing(["a", "b", "c"], "lp")
    with pytest.raises(RingMismatchError):
        ring.parse("a") + other.parse("a")


def as_sets(poly):
    return frozenset(frozenset(t) for t in poly.terms())


def test_mul_examples(ring):
    x = ring.parse("a")
    assert x * x == x
    f = ring.parse("a*b + c")
    assert f * ring.one == f
    # derived via the truth-table oracle over all 8 assignments
    expected = naive_mul([{0}, {1}], [{0}, {2}])
    assert as_sets(ring.parse("a+b") * ring.parse("a+c")) == expected
    assert str(ring.parse("a+b") * ring.parse("a+c")) == "a*b + a*c + a + b*c"


def test_mul_matches_naive_term_lists():
    rnd = random.Random(10)
    ring = BoolRing.indexed(8)
    for _ in range(120):
        f, g = rand_poly(ring, rnd), rand_poly(ring, rnd)
        assert as_sets(f * g) == naive_mul(as_sets(f), as_sets(g))
        assert as_sets(f + g) == naive_add(as_sets(f), as_sets(g))


@st.composite
def term_set_pairs(draw):
    """(n, f, g): term sets on n <= 8 variables, drawn independently, with
    the same top variable, equal, or with g a constant."""
    n = draw(st.integers(1, 8))
    term_sets = st.frozensets(
        st.frozensets(st.integers(0, n - 1)), max_size=12)
    kind = draw(st.sampled_from(("free", "same_top", "equal", "constant")))
    f = draw(term_sets)
    if kind == "equal":
        return n, f, f
    if kind == "constant":
        return n, f, draw(st.sampled_from(
            (frozenset(), frozenset({frozenset()}))))
    g = draw(term_sets)
    if kind == "same_top":
        # x_v occurs in both and no smaller index does
        v = draw(st.integers(0, n - 1))
        f, g = (
            frozenset({frozenset(u for u in t if u >= v) for t in h}
                      | {frozenset({v})})
            for h in (f, g)
        )
    return n, f, g


@settings(max_examples=300)
@given(term_set_pairs())
def test_mul_and_add_match_naive_properties(pair):
    n, f_terms, g_terms = pair
    ring = BoolRing.indexed(n)
    f, g = ring.from_terms(f_terms), ring.from_terms(g_terms)
    assert as_sets(f * g) == naive_mul(f_terms, g_terms)
    assert as_sets(g * f) == naive_mul(f_terms, g_terms)
    assert as_sets(f + g) == naive_add(f_terms, g_terms)


# one ring for every example, so later examples meet cached products
_DIST_RING = BoolRing.indexed(8)


@settings(max_examples=200)
@given(st.lists(st.frozensets(st.frozensets(st.integers(0, 7)), max_size=10),
                min_size=3, max_size=3))
def test_mul_distributes_over_add(term_sets):
    f, g, h = map(_DIST_RING.from_terms, term_sets)
    assert (f * (g + h)).z == (f * g + f * h).z


@st.composite
def ordered_triples(draw):
    """(n, ordering, three term lists) with n <= 6 and lp, dlex or dp_asc."""
    n = draw(st.integers(1, 6))
    ordering = draw(st.sampled_from(("lp", "dlex", "dp_asc")))
    terms = st.lists(st.frozensets(st.integers(0, n - 1)), max_size=8)
    return n, ordering, [draw(terms) for _ in range(3)]


@settings(max_examples=200)
@given(ordered_triples())
def test_boolean_laws_match_eval_poly(case):
    """Evaluation takes + to xor and * to and on every point of the cube;
    * is idempotent, both operations associate and * distributes."""
    n, ordering, term_lists = case
    ring = BoolRing.indexed(n, ordering)
    f, g, h = map(ring.from_terms, term_lists)
    assert f * f == f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    for p in itertools.product((0, 1), repeat=n):
        a, b = eval_poly(f, p), eval_poly(g, p)
        assert eval_poly(f + g, p) == a ^ b
        assert eval_poly(f * g, p) == a & b


def test_homomorphism_into_functions():
    rnd = random.Random(11)
    ring = BoolRing.indexed(5)
    pts = list(itertools.product((0, 1), repeat=5))
    for _ in range(40):
        f, g = rand_poly(ring, rnd), rand_poly(ring, rnd)
        for p in pts:
            assert eval_poly(f + g, p) == eval_poly(f, p) ^ eval_poly(g, p)
            assert eval_poly(f * g, p) == eval_poly(f, p) & eval_poly(g, p)


def test_canonical_function_correspondence():
    rnd = random.Random(12)
    ring = BoolRing.indexed(6)
    for _ in range(60):
        f, g = rand_poly(ring, rnd), rand_poly(ring, rnd)
        same_fn = truth_table(f.term_set(), 6) == truth_table(g.term_set(), 6)
        assert (f == g) == same_fn


def test_nonconstant_polynomials_have_zeros_and_ones():
    rnd = random.Random(13)
    ring = BoolRing.indexed(6)
    pts = list(itertools.product((0, 1), repeat=6))
    for _ in range(50):
        f = rand_poly(ring, rnd)
        values = {eval_poly(f, p) for p in pts}
        if not f.is_one():
            assert 0 in values
        if not f.is_zero():
            assert 1 in values


# -- monomial helpers ----------------------------------------------------------------


def test_mul_monomial(ring):
    assert mul_monomial(ring.parse("a + 1"), ring.monomial([1])) == ring.parse(
        "a*b + b"
    )


def test_nf_monomial_set(ring):
    man = ring.manager
    f = ring.parse("a*c + c")
    assert nf_monomial_set(f, man.union(0, 1)).is_zero()      # 1 in G
    assert nf_monomial_set(f, man.singleton([2])).is_zero()
    g = ring.parse("a*b + c + 1")
    assert nf_monomial_set(g, man.singleton([0, 1])) == ring.parse("c + 1")


def test_nf_monomial_set_matches_naive():
    rnd = random.Random(14)
    ring = BoolRing.indexed(6)
    man = ring.manager
    for _ in range(80):
        f = rand_poly(ring, rnd)
        mons = [
            frozenset(v for v in range(6) if rnd.random() < 0.3)
            for _ in range(rnd.randrange(4))
        ]
        G = 0
        for m in mons:
            G = man.union(G, man.singleton(m))
        got = nf_monomial_set(f, G)
        want = (
            naive_nf_monomials(as_sets(f), mons) if mons else as_sets(f)
        )
        assert as_sets(got) == frozenset(want)
        # residue lies in the monomial ideal, term by term
        for t in (f + got).terms():
            assert any(m <= set(t) for m in mons)


def test_nf_monomial_set_then_branch_holds_empty():
    # G's then-branch holds the empty set exactly when a variable alone
    # completes a member; the descent into it must drop those terms, at
    # the root (G = {x0, x0*x1}), one level down (G = {x1*x2}) and deeper
    ring = BoolRing.indexed(5)
    man = ring.manager
    everything = ring.poly(man.full_family())
    cases = [
        [{0}, {0, 1}],
        [{1, 2}],
        [{0, 2, 4}],
        [{0, 3}, {1, 3}, {2, 3, 4}],
        [{1}, {1, 2}, {2, 3}, {0, 4}],
    ]
    for mons in cases:
        G = man.from_sets(mons)
        for f in (everything, ring.parse("x0*x1*x3 + x0*x2*x4 + x1*x2 + x3 + 1")):
            got = nf_monomial_set(f, G)
            assert as_sets(got) == naive_nf_monomials(as_sets(f), mons)
    G = man.from_sets([{0}, {0, 1}])
    f = ring.parse("x0 + x0*x2 + x1 + 1")
    assert nf_monomial_set(f, G) == ring.parse("x1 + 1")
    G = man.from_sets([{1, 2}])
    f = ring.parse("x1*x2*x3 + x1*x3 + x2 + 1")
    assert nf_monomial_set(f, G) == ring.parse("x1*x3 + x2 + 1")


# -- degrees ---------------------------------------------------------------------


def test_degrees(ring):
    assert deg(ring.one) == 0
    assert deg(ring.zero) == 0
    assert deg(ring.parse("a*c + c")) == 2


# -- orderings -------------------------------------------------------------------


def test_lead_examples():
    ring = BoolRing(["a", "b", "c"], "lp")
    assert str(lead(ring.parse("a*c + b*c + c"))) == "a*c"
    ring2 = BoolRing(["x", "y", "z"], "dlex")
    assert str(lead(ring2.parse("x + y*z"))) == "y*z"
    with pytest.raises(ValueError):
        lead(ring.zero)


def test_lead_dp_asc_reversed_variables():
    # dp_asc treats the variables in reversed order: among the degree-2
    # monomials of x*y + x*z + y*z the largest is y*z
    ring = BoolRing(["x", "y", "z"], "dp_asc")
    f = ring.parse("x*y + x*z + y*z")
    terms = list(f.terms())
    best = max(terms, key=ring.sort_key)
    assert lead_vars(f) == best == (1, 2)


def test_lead_is_max_under_comparator_all_orderings():
    rnd = random.Random(15)
    for kind in ("lp", "dlex", "dp_asc"):
        ring = BoolRing.indexed(6, kind)
        for _ in range(60):
            f = rand_poly(ring, rnd, 8)
            if f.is_zero():
                continue
            best = max(f.terms(), key=ring.sort_key)
            assert lead_vars(f) == best


def test_block_ordering_lead_and_iter():
    rnd = random.Random(16)
    ring = BoolRing.indexed(6, "block(dlex:3,dp_asc:6)")
    for _ in range(80):
        f = rand_poly(ring, rnd, 8)
        if f.is_zero():
            continue
        best = max(f.terms(), key=ring.sort_key)
        assert lead_vars(f) == best
        seq = list(terms_iter(f))
        assert seq == sorted(f.terms(), key=ring.sort_key, reverse=True)


@st.composite
def ordering_references(draw, max_n=7, min_n=1):
    """(n, OrderingReference) with min_n <= n <= max_n: lp, dlex, dp_asc or
    a block ordering with random cut points and block kinds (a single
    block of either kind, dp_asc first, ...); no block ordering at n = 0."""
    n = draw(st.integers(min_n, max_n))
    choices = ("lp", "dlex", "dp_asc") + (("block",) if n else ())
    kind = draw(st.sampled_from(choices))
    if kind != "block":
        return n, OrderingReference(kind)
    cuts = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    ends = sorted(cuts) + [n]
    kinds = draw(st.lists(st.sampled_from(("dlex", "dp_asc")),
                          min_size=len(ends), max_size=len(ends)))
    return n, OrderingReference("block", tuple(zip(kinds, ends)))


def orderings(max_n=7):
    """(n, ordering text) drawn as by `ordering_references`."""
    return ordering_references(max_n).map(lambda r: (r[0], str(r[1])))


@settings(max_examples=300)
@given(ordering_references(min_n=0), st.data())
def test_sort_key_matches_reference(n_reference, data):
    """The key the ring binds orders every pair of monomials as the
    reference descriptor does, at n = 0 too."""
    n, reference = n_reference
    ring = BoolRing.indexed(n, str(reference))
    mons = st.frozensets(st.integers(0, n - 1), max_size=n) if n else st.just(
        frozenset())
    for _ in range(20):
        a, b = (tuple(sorted(data.draw(mons))) for _ in range(2))
        ka, kb = ring.sort_key(a), ring.sort_key(b)
        ra, rb = reference.sort_key(a), reference.sort_key(b)
        assert (ka < kb, ka == kb) == (ra < rb, ra == rb)


def test_orderings_on_no_variables():
    for kind in ("lp", "dlex", "dp_asc"):
        ring = BoolRing([], kind)
        assert ring.blocks == (None if kind == "lp" else ((kind, 0),))
        f = ring.parse("1")
        assert lead_vars(f) == () and list(terms_iter(f)) == [()]
        assert str(f) == "1" and deg(f) == 0


@settings(max_examples=200)
@given(orderings(), st.integers(0, 2**32))
def test_lead_terms_iter_deg_agree_with_sort_key(n_ordering, seed):
    n, ordering = n_ordering
    ring = BoolRing.indexed(n, ordering)
    rnd = random.Random(seed)
    for _ in range(15):
        f = rand_poly(ring, rnd, 10)
        terms = list(f.terms())
        seq = list(terms_iter(f))
        assert seq == sorted(terms, key=ring.sort_key, reverse=True)
        assert deg(f) == max(map(len, terms), default=0)
        if terms:
            assert lead_vars(f) == seq[0]
            assert lead(f) == ring.monomial(lead_vars(f))


def test_block_ordering_validation():
    # a bad ordering is a ValueError, its message pinned byte for byte
    for n, text, message in (
            (6, "block(lp:3,dlex:6)",
             "only degree kinds allowed in blocks, got lp"),
            (3, "block(dlex:3,dp_asc:2)", "block ends must be strictly increasing"),
            (3, "block(dlex:0,dp_asc:3)", "block ends must be strictly increasing"),
            (4, "block(dlex:2)", "blocks must partition the variable range"),
            (3, "block()", "block segment '' needs kind:end"),
            (3, "block(dlex:2,,dp_asc:3)", "block segment '' needs kind:end"),
            (3, "block(lp:3,dlex:x)", "block end 'x' is not an integer"),
            (3, "block(", "unknown ordering kind 'block('"),
            (3, " lex ", "unknown ordering kind 'lex'")):
        with pytest.raises(ValueError) as exc:
            BoolRing.indexed(n, text)
        assert str(exc.value) == message


def test_terms_iter_strictly_decreasing():
    rnd = random.Random(17)
    for kind in ("lp", "dlex", "dp_asc"):
        ring = BoolRing.indexed(6, kind)
        for _ in range(40):
            f = rand_poly(ring, rnd, 10)
            seq = list(terms_iter(f))
            assert len(seq) == len(f)
            keys = [ring.sort_key(m) for m in seq]
            assert all(a > b for a, b in zip(keys, keys[1:]))
            if seq:
                assert lead_vars(f) == seq[0]


def test_terms_iter_examples(ring):
    assert list(terms_iter(ring.zero)) == []
    assert list(terms_iter(ring.parse("a*c + c"))) == [(0, 2), (2,)]
    ring2 = BoolRing(["x", "y", "z"], "dlex")
    assert list(terms_iter(ring2.parse("x + y*z"))) == [(1, 2), (0,)]


# -- misc ------------------------------------------------------------------------


def test_eval_examples(ring):
    assert eval_poly(ring.one, (0, 0, 0)) == 1
    r1 = BoolRing(["x"], "lp")
    assert eval_poly(r1.parse("x + 1"), (1,)) == 0
    assert eval_poly(ring.parse("a*c + c"), (1, 0, 1)) == 0


def test_spoly_properties():
    rnd = random.Random(18)
    ring = BoolRing.indexed(5, "lp")
    for _ in range(60):
        f, g = rand_poly(ring, rnd), rand_poly(ring, rnd)
        if f.is_zero() or g.is_zero():
            continue
        s = spoly(f, g)
        assert spoly(f, f).is_zero()
        if not s.is_zero():
            lcm = set(lead_vars(f)) | set(lead_vars(g))
            assert ring.sort_key(lead_vars(s)) < ring.sort_key(
                tuple(sorted(lcm)))


def test_vars_of(ring):
    assert ring.one.vars_of() == ()
    assert ring.zero.vars_of() == ()
    assert ring.parse("a*c + c").vars_of() == (0, 2)


@settings(max_examples=300)
@given(st.integers(0, 6), st.data())
def test_from_terms_matches_xor_of_singletons(n, data):
    """The one-pass sum gives the diagram of the xor-of-singletons fold:
    a term given twice cancels, and a repeated index in a term (x*x) is
    the index once."""
    ring = BoolRing.indexed(n)
    man = ring.manager
    term = st.lists(st.integers(0, n - 1), max_size=5) if n else st.just([])
    terms = data.draw(st.lists(term, max_size=10))
    terms += data.draw(st.lists(st.sampled_from(terms), max_size=4)) if terms else []
    terms = data.draw(st.permutations(terms))
    want = 0
    for t in terms:
        want = man.symmetric_diff(want, man.singleton(t))
    assert ring.from_terms(terms).z == want
    assert ring.from_terms(iter(terms)).z == want


def test_from_terms_cancels_and_checks_the_range(ring):
    assert ring.from_terms([(0, 1), (1, 0), [2, 2]]) == ring.parse("c")
    assert ring.from_terms([]) == ring.zero
    assert ring.from_terms([(), ()]) == ring.zero
    # the singleton fold refused an out-of-range term even when it cancels
    for bad in ([(3,)], [(3,), (3,)], [(0,), (-1,), (-1,)]):
        with pytest.raises(ZddError):
            ring.from_terms(bad)


def test_parse_long_monomial_without_recursion():
    """A 1500-variable monomial is one chain of nodes, built by a loop."""
    ring = BoolRing.indexed(1500)
    f = ring.parse("*".join(ring.names))
    assert len(f) == 1 and lead_vars(f) == tuple(range(1500))
    assert len(ring.parse(" + ".join(ring.names))) == 1500


def test_parse_exponents_and_roundtrip(ring):
    assert ring.parse("a^3*c^2 + b^0") == ring.parse("a*c + 1")
    rnd = random.Random(19)
    for kind in ("lp", "dlex", "dp_asc"):
        r = BoolRing.indexed(5, kind)
        for _ in range(40):
            f = rand_poly(r, rnd, 8)
            assert r.parse(str(f)) == f


def test_parse_rejects_bad_exponent_and_dangling_plus(ring):
    # "x^-1" once read as x + 1 and "a^" as a
    for text in ("a^-1", "a^", "a^b", "a*b^ + c", "a +", "a - ", "a + -b"):
        with pytest.raises(ValueError):
            ring.parse(text)
    assert ring.parse("a^ 2 - b") == ring.parse("a + b")
