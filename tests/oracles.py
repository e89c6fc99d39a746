"""Brute-force reference implementations used as test oracles.

Almost everything here works on explicit term lists (frozensets of
variable indices) or on full truth tables, never touching the ZDD code
paths it is meant to check.  The last section holds checks written on the
package's own types that no library code calls: the lead route to a
vanishing ideal's basis (standard monomials, then the divisibility
antichain of the rest) and sampled standard-basis checks over Z/m.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from zddgb.boolpoly import _nf_mon
from zddgb.interp import PointSet, standard_monomials
from zddgb.ringstd import ZmPoly, solve_lead
from zddgb.zdd import ONE, ZddManager


def eval_terms(terms, point) -> int:
    """Value at a 0/1 point of the polynomial with the given term set."""
    acc = 0
    for t in terms:
        if all(point[v] for v in t):
            acc ^= 1
    return acc


def truth_table(terms, n: int) -> tuple[int, ...]:
    return tuple(
        eval_terms(terms, p) for p in itertools.product((0, 1), repeat=n)
    )


def naive_mul(terms1, terms2) -> frozenset:
    """Term-list product reduced modulo the field relations."""
    acc: set[frozenset] = set()
    for a in terms1:
        for b in terms2:
            t = frozenset(a) | frozenset(b)
            acc.symmetric_difference_update({t})
    return frozenset(acc)


def naive_add(terms1, terms2) -> frozenset:
    return frozenset(set(map(frozenset, terms1)) ^ set(map(frozenset, terms2)))


def naive_nf_monomials(terms, monomials) -> frozenset:
    """Drop terms divisible by any member of the monomial set."""
    monomials = [frozenset(m) for m in monomials]
    return frozenset(
        t for t in map(frozenset, terms)
        if not any(m <= t for m in monomials)
    )


def naive_normal_form(terms, basis, key) -> frozenset:
    """Fully reduced normal form of a term set against polynomials given as
    term sets, under the monomial ordering whose sort key is `key`.

    The largest term t divisible by some lead lm is cancelled by adding
    (t minus lm) * g; a monomial disjoint from lm multiplies every smaller
    term of g to a term below t, so the terms handled fall strictly.
    """
    leads = [(max(g, key=key), g) for g in (frozenset(map(frozenset, g))
                                            for g in basis) if g]
    f = set(map(frozenset, terms))
    out = set()
    while f:
        t = max(f, key=key)
        hit = next(((lm, g) for lm, g in leads if lm <= t), None)
        if hit is None:
            out.add(t)
            f.remove(t)
        else:
            lm, g = hit
            f.symmetric_difference_update(naive_mul([t - lm], g))
    return frozenset(out)


@dataclass(frozen=True)
class OrderingReference:
    """The Boolean ring's orderings as one descriptor whose key branches on
    the kind at every call: the reference for the key each ring binds.

    kind is one of "lp", "dlex", "dp_asc" or "block"; a block ordering
    carries (kind, end) segments partitioning [0, n) with degree kinds only.
    """

    kind: str
    blocks: tuple[tuple[str, int], ...] = ()

    def sort_key(self, mon: tuple[int, ...]):
        """Key with key(m1) < key(m2) iff m1 < m2 in this ordering."""
        if self.kind == "lp":
            return _lex_key(mon)
        if self.kind == "dlex":
            return (len(mon), _lex_key(mon))
        if self.kind == "dp_asc":
            return (len(mon), mon)
        key = []
        start = 0
        for kind, end in self.blocks:
            part = tuple(v for v in mon if start <= v < end)
            if kind == "dlex":
                key.append((len(part), _lex_key(part)))
            else:
                key.append((len(part), part))
            start = end
        return tuple(key)

    def __str__(self) -> str:
        if self.kind == "block":
            inner = ",".join(f"{k}:{e}" for k, e in self.blocks)
            return f"block({inner})"
        return self.kind


def _lex_key(mon: tuple[int, ...]) -> tuple[int, ...]:
    # negating indices makes tuple comparison agree with lex on monomials
    return tuple(-v for v in mon)


def variety(polys_terms, n: int) -> set:
    """Common zeros in {0,1}^n of polynomials given as term sets."""
    return {
        p
        for p in itertools.product((0, 1), repeat=n)
        if all(eval_terms(ts, p) == 0 for ts in polys_terms)
    }


def all_polynomials(n: int):
    """Every Boolean polynomial on n variables, as a term set (2^(2^n))."""
    monomials = [
        frozenset(s)
        for k in range(n + 1)
        for s in itertools.combinations(range(n), k)
    ]
    for mask in range(2 ** len(monomials)):
        yield frozenset(
            m for i, m in enumerate(monomials) if (mask >> i) & 1
        )


def interpolates(terms, zeros_pts, ones_pts) -> bool:
    return all(eval_terms(terms, p) == 0 for p in zeros_pts) and all(
        eval_terms(terms, p) == 1 for p in ones_pts
    )


def lex_poly_key(terms, n: int):
    """Key realizing the lexicographic extension of lex to polynomials:
    smaller key = lex-smaller polynomial (0 smallest)."""

    def mon_key(m):
        return tuple(-v for v in sorted(m))

    return tuple(sorted((mon_key(m) for m in terms), reverse=True))


def lex_standard_monomials(points, n: int) -> set:
    """Lex standard monomials (x0 largest) of the vanishing ideal of the
    points, by Gaussian elimination over GF(2).

    Monomials are visited in ascending lex order; one is standard iff its
    evaluation vector on the points (a bitmask) is independent of the
    vectors of all smaller monomials.
    """
    pts = list(points)
    pivots: dict[int, int] = {}  # highest set bit -> reduced vector
    out = set()
    # exponent vectors (x0 first) come out in ascending lex order
    for bits in itertools.product((0, 1), repeat=n):
        m = frozenset(i for i in range(n) if bits[i])
        vec = sum(1 << j for j, p in enumerate(pts) if all(p[i] for i in m))
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = vec
                out.add(m)
                break
            vec ^= pivots[top]
    return out


# -- Boolean pair bookkeeping -----------------------------------------------------


def gm_partners(leads, chain: bool) -> list[int]:
    """Indices of the generators with `leads` (frozensets, in insertion
    order) that a next generator pairs with: with the chain criterion
    those whose lead no later lead divides (the Gebauer-Moeller update),
    without it all of them."""
    return [j for j, lj in enumerate(leads)
            if not chain or not any(lk <= lj for lk in leads[j + 1:])]


def gm_new_pairs(leads, degrees, partners, chain: bool, product: bool) -> list:
    """Generator pairs queued when the last of `leads` (frozensets) is
    inserted, given the indices `partners` of the earlier generators it
    may pair with, as [(j, lcm, sugar)] in push order.

    Groups of partners share an lcm with the new lead and are visited by
    lcm size, ties in order of first appearance.  With the chain
    criterion a group is skipped when another lcm of this insert is a
    proper subset of its own, and otherwise yields one pair (its first
    member) unless the product criterion drops it for having a member
    coprime to the new lead.  Without the chain criterion every member
    yields a pair unless the product criterion finds it coprime.  The
    sugar of (j, new) is max over both sides of deg + |lcm| - |lead|.
    """
    new = leads[-1]
    idx = len(leads) - 1
    groups: dict[frozenset, list[int]] = {}
    for j in partners:
        groups.setdefault(new | leads[j], []).append(j)

    def sugar(j, lcm):
        return max(degrees[idx] + len(lcm) - len(new),
                   degrees[j] + len(lcm) - len(leads[j]))

    out = []
    for lcm in sorted(groups, key=len):
        members = groups[lcm]
        if chain:
            if any(other < lcm for other in groups):
                continue
            if product and any(not (new & leads[j]) for j in members):
                continue
            chosen = members[:1]
        else:
            chosen = [j for j in members if not (product and not new & leads[j])]
        out.extend((j, lcm, sugar(j, lcm)) for j in chosen)
    return out


def gm_pruned(queued, leads, new) -> list:
    """The queued pairs, given as (kind, a, b, lcm) with frozenset leads and
    lcms, that inserting the lead `new` drops: generator pairs whose lcm
    `new` divides without being new | lead(a) or new | lead(b)."""
    return [
        (kind, a, b, lcm) for kind, a, b, lcm in queued
        if kind == "pair" and new <= lcm
        and new | leads[a] != lcm and new | leads[b] != lcm
    ]


# -- Z/m helpers -----------------------------------------------------------------


def _mon_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(operator.le, a, b))


def _mon_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.sub, a, b))


def _term_divides(mod, t1: tuple, t2: tuple) -> bool:
    """Term divisibility on exponent tuples: monomial divides and
    coefficient divides."""
    (m1, c1), (m2, c2) = t1, t2
    return _mon_divides(m1, m2) and mod.divides(c1, c2)


def _lcm_term(mod, t1: tuple, t2: tuple) -> tuple:
    """Lcm of two terms on exponent tuples: lcm of the monomials with lcm
    of the coefficients."""
    (m1, c1), (m2, c2) = t1, t2
    return tuple(map(max, m1, m2)), mod.lcm(c1, c2)


def zm_divides(m: int, a: int, b: int) -> bool:
    return any(a * x % m == b % m for x in range(m))


def zm_annihilator_set(m: int, a: int) -> set:
    return {x for x in range(m) if a * x % m == 0}


def zm_ideal_generated(m: int, a: int) -> set:
    return {a * x % m for x in range(m)}


def eval_zm_terms(terms, point, m: int) -> int:
    total = 0
    for exps, c in terms:
        v = c
        for x, e in zip(point, exps):
            v = v * pow(x, e, m) % m
        total = (total + v) % m
    return total


def zm_variety(polys, n: int, m: int) -> set:
    pts = itertools.product(range(m), repeat=n)
    return {
        p
        for p in pts
        if all(eval_zm_terms(f.terms, p, m) == 0 for f in polys)
    }


def zm_prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, e) with p^e exactly dividing m, by trial division over 2..m."""
    out = []
    for p in range(2, m + 1):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    return out


def zm_nu(m: int, a: int) -> tuple[int, ...]:
    """Largest k <= e with p^k | a, per prime power p^e of m."""
    a %= m
    return tuple(
        max(k for k in range(e + 1) if a % p**k == 0)
        for p, e in zm_prime_powers(m)
    )


def zm_lcm(m: int, a: int, b: int) -> int:
    """Generator of (a) ∩ (b) in Z/m that divides m as an integer:
    (a) = (gcd(a, m)), and ideals of Z/m meet like divisors of m."""
    return math.lcm(math.gcd(a, m), math.gcd(b, m)) % m


def zm_div_exact(m: int, a: int, b: int) -> int:
    """The quotient a / b that Modulus.div_exact picks, computed through a
    unit normalization: b = u * core with core = gcd(b, m) and u a unit,
    then (u^-1 * a mod m) / core."""
    a, b = a % m, b % m
    core = math.gcd(b, m)
    if core == m:
        return 0
    n = b // core
    bump = math.prod(p for p, _ in zm_prime_powers(m) if n % p)
    u = (n + m // core * bump) % m
    return pow(u, -1, m) * a % m // core


# -- checks on the package's own types -------------------------------------------


def minimal_elements(man: ZddManager, S: int, cache=None) -> int:
    """Members of S with no proper divisor in S (divisibility antichain)."""
    if S <= ONE:
        return S
    cache = {} if cache is None else cache
    r = cache.get(S)
    if r is not None:
        return r
    s0 = man._else[S]
    m1 = minimal_elements(man, man._then[S], cache)
    m0 = minimal_elements(man, s0, cache)
    # x*a is minimal when a is minimal in then(S) and no member of s0 divides a
    r = man.mk_node(man._var[S], _nf_mon(man, m1, s0), m0)
    cache[S] = r
    return r


def leading_monomials_variety(P: PointSet) -> int:
    """Minimal generators of the lex leading ideal of I(P) (Boolean part)."""
    man = P.ring.manager
    all_terms = man.full_family()
    rest = man.diff(all_terms, standard_monomials(P))
    return minimal_elements(man, rest)


def verify_standard_rep(f: ZmPoly, G) -> bool:
    """Does f have a representation sum h_i g_i with every partial product's
    lead at most lead(f)?  Decides by repeated lead cancellation."""
    mod = f.ring.mod
    G = [g for g in G if not g.is_zero()]
    while not f.is_zero():
        mf, cf = f.lt()
        cands = [g for g in G if _mon_divides(g.lm(), mf)]
        sol = solve_lead(mod, cf, [g.lc() for g in cands]) if cands else None
        if sol is None:
            return False
        for g, x in zip(cands, sol):
            if x % mod.m:
                f = f - g.mul_term(_mon_div(mf, g.lm()), x)
    return True


# `ringstd.nf_ring` as it was before it read each reducer's lead once per
# call, kept verbatim: the new one must agree with it term for term
def nf_ring_reference(f: ZmPoly, G) -> ZmPoly:
    """Polynomial weak normal form: the result is 0 or has its leading term
    outside the leading ideal of the reducer set.

    The reducers are ordered once by ecart, ties by position in G.  Each
    step hands the lead coefficients of the reducers whose lead divides
    lm(f), in that order, to one `solve_lead` call: a single divisor of
    least ecart when there is one, else a combination over the shortest
    ecart prefix that solves.  The orderings are global, so the lead falls
    strictly at every step; Mora's device of appending the remainder to
    the reducers is not needed, since no later lead could be its multiple.
    """
    mod = f.ring.mod
    T = sorted((g for g in G if not g.is_zero()), key=ZmPoly.ecart)
    while not f.is_zero():
        mf, cf = f.lt()
        cands = [g for g in T if _mon_divides(g.terms[0][0], mf)]
        if not cands:
            return f
        sol = solve_lead(mod, cf, [g.lc() for g in cands])
        if sol is None:
            return f
        for g, x in zip(cands, sol):
            if x:
                f = f - g.mul_term(_mon_div(mf, g.lm()), x)
    return f


def rednf_ring_reference(f: ZmPoly, G) -> ZmPoly:
    """Tail-reduced normal form: `nf_ring_reference` applied to every
    remaining term."""
    G = list(G)
    kept = []
    while True:
        f = nf_ring_reference(f, G)
        if f.is_zero():
            return ZmPoly(f.ring, kept)
        kept.append(f.lt())
        f = f.tail()


def is_strong_basis(G, samples: int = 50, seed: int = 0,
                    max_deg: int = 2, gens=None) -> bool:
    """Sampled check that some lt(g) divides lt(f) for ideal elements f.

    Combinations are drawn from `gens` when given (so a truncated basis can
    be tested against the full ideal), else from G itself.
    """
    G = [g for g in G if not g.is_zero()]
    if not G:
        return False
    ring = G[0].ring
    mod = ring.mod
    rng = random.Random(seed)
    source = [g for g in (gens if gens is not None else G) if not g.is_zero()]
    exps = [
        e
        for e in itertools.product(range(max_deg + 1), repeat=ring.n)
        if sum(e) <= max_deg
    ]
    for _ in range(samples):
        f = ring.zero
        for g in source:
            h = ZmPoly(
                ring,
                [
                    (rng.choice(exps), rng.randrange(ring.m))
                    for _ in range(rng.randrange(3))
                ],
            )
            f = f + h * g
        if f.is_zero():
            continue
        if not any(_term_divides(mod, g.lt(), f.lt()) for g in G):
            return False
    return True
