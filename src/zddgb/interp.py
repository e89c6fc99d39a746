"""Variety-level algorithms: zeros within a point set, lex-smallest
interpolation, normal forms against a variety, standard monomials and the
reduced lex basis of a vanishing ideal.

A point v in {0,1}^n is stored as the set {i : v_i = 1}, so a set of
points is a ZDD over the same manager as the polynomials it meets.
"""

from __future__ import annotations

from itertools import compress

from .boolpoly import (BoolPoly, BoolRing, _check_point, _contains_empty,
                       _same_ring)
from .zdd import ONE, ZERO, ZddManager


class InterpolationError(Exception):
    pass


class PointSet:
    """Subset of {0,1}^n encoded as a ZDD over the ring's manager."""

    __slots__ = ("ring", "z")

    def __init__(self, ring: BoolRing, z: int):
        self.ring = ring
        self.z = z

    @classmethod
    def from_points(cls, ring: BoolRing, points) -> "PointSet":
        """The set of the given 0/1 points (bools count); ValueError names
        the first point of the wrong length or with another coordinate."""
        points = [_check_point(ring, p) for p in points]
        return cls(ring, ring.manager.from_sets(
            compress(range(ring.n), p) for p in points))

    @classmethod
    def full_cube(cls, ring: BoolRing) -> "PointSet":
        return cls(ring, ring.manager.full_family())

    def __len__(self) -> int:
        return self.ring.manager.count_paths(self.z)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.ring is other.ring
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.z))

    def points(self):
        """Points as 0/1 tuples, in the diagram's natural order."""
        n = self.ring.n
        for s in self.ring.manager.iter_paths(self.z):
            on = set(s)
            yield tuple(1 if i in on else 0 for i in range(n))

    def union(self, other: "PointSet") -> "PointSet":
        _same_ring(self, other)
        return PointSet(self.ring, self.ring.manager.union(self.z, other.z))

    def intersect(self, other: "PointSet") -> "PointSet":
        _same_ring(self, other)
        return PointSet(self.ring, self.ring.manager.intersect(self.z, other.z))

    def diff(self, other: "PointSet") -> "PointSet":
        _same_ring(self, other)
        return PointSet(self.ring, self.ring.manager.diff(self.z, other.z))


class PartialFn:
    """Partial Boolean function given by disjoint zero- and one-sets."""

    __slots__ = ("ring", "zeros", "ones")

    def __init__(self, zeros: PointSet, ones: PointSet):
        _same_ring(zeros, ones)
        if zeros.ring.manager.intersect(zeros.z, ones.z) != ZERO:
            raise InterpolationError("zero- and one-sets overlap")
        self.ring = zeros.ring
        self.zeros = zeros
        self.ones = ones

    def domain(self) -> PointSet:
        return self.zeros.union(self.ones)


def zeros(p: BoolPoly, S: PointSet) -> PointSet:
    """{s in S : p(s) = 0}, by one cached recursion over both diagrams."""
    _same_ring(p, S)
    man = S.ring.manager
    man.activate()
    return PointSet(S.ring, _zeros(man, p.z, S.z))


def _zeros(man: ZddManager, p: int, S: int) -> int:
    if p == ZERO:
        return S
    if p == ONE or S == ZERO:
        return ZERO
    if S == ONE:
        # only the origin: value there is the constant part of p
        return ZERO if _contains_empty(man, p) else S
    var, then, els = man._var, man._then, man._else
    cache = man._zeros
    key = p << 32 | S
    r = cache.get(key)
    if r is not None:
        return r
    i = var[S]
    while var[p] < i:
        # the variable cannot be 1 on any point of S
        p = els[p]
        if p <= ONE:
            r = _zeros(man, p, S)
            cache[key] = r
            return r
    # now S's top variable x_i splits both diagrams; p may not depend on it
    s0, s1 = els[S], then[S]
    if var[p] == i:
        # where x_i = 1, p = x_i*p1 + p0 takes the values of p0 + p1
        z1 = _zeros(man, man.symmetric_diff(els[p], then[p]), s1)
        z0 = _zeros(man, els[p], s0)
    else:
        z1 = _zeros(man, p, s1)
        z0 = _zeros(man, p, s0)
    r = man.mk_node(i, z1, z0)
    cache[key] = r
    return r


def interpolate_smallest_lex(b: PartialFn) -> BoolPoly:
    """Lex-smallest Boolean polynomial agreeing with b on its domain.

    Minimality is under the lexicographic extension of the monomial order
    to polynomials (term by term, 0 smallest overall).
    """
    man = b.ring.manager
    man.activate()
    return BoolPoly(b.ring, _interp_lex(man, b.domain().z, b.ones.z))


def _interp_lex(man: ZddManager, D: int, O: int) -> int:
    """Lex-smallest interpolant of the partial function with domain D and
    one-set O ⊆ D; memo `_ilex` keyed by D << 32 | O.

    With D1, D0 (O1, O0) the cofactors at D's top variable x_i, the
    interpolant is x_i*h_t + h_e: h_t takes b1 + b0 on the conflict
    points D1 ∩ D0, and h_e takes b0 on D0 and b1 + h_t on the rest of D1.
    The domain terms depend on D alone, so calls sharing a domain share
    them.
    """
    # the O-check comes first so the fully unconstrained case yields 0,
    # which the minimality argument requires
    if O == ZERO:
        return ZERO
    if O == D:
        return ONE
    cache = man._ilex
    key = D << 32 | O
    r = cache.get(key)
    if r is not None:
        return r
    i = man._var[D]
    d1, d0 = man._then[D], man._else[D]
    o1, o0 = (man._then[O], man._else[O]) if man._var[O] == i else (ZERO, O)
    conflict = man.intersect(d1, d0)
    ht = _interp_lex(man, conflict,
                     man.intersect(man.symmetric_diff(o1, o0), conflict))
    free1 = man.diff(d1, d0)
    flips = man.diff(free1, _zeros(man, ht, free1))
    oe = man.union(man.symmetric_diff(man.diff(o1, d0), flips), o0)
    he = _interp_lex(man, man.union(d1, d0), oe)
    # h_e has no x_i, so the node x_i*h_t + h_e is the sum itself
    r = man.mk_node(i, ht, he)
    cache[key] = r
    return r


def nf_by_interpolate(f: BoolPoly, P: PointSet) -> BoolPoly:
    """Reduced lex normal form of f modulo the vanishing ideal of P."""
    man = P.ring.manager
    man.activate()
    return BoolPoly(f.ring, _interp_lex(man, P.z, man.diff(P.z, zeros(f, P).z)))


def standard_monomials(P: PointSet) -> int:
    """Lex standard monomials of I(P), as a ZDD, by the lex game.

    With x_i the top variable of P and P1, P0 its then/else cofactors,
    SM(P) = x_i * SM(P1 ∩ P0) ∪ SM(P1 ∪ P0) (Felszeghy, Ráth and Rónyai,
    "The lex game and some applications", J. Symb. Comput. 41, 2006).
    """
    P.ring.manager.activate()
    return _standard_monomials(P.ring.manager, P.z)


def _standard_monomials(man: ZddManager, P: int) -> int:
    if P <= ONE:
        return P
    cache = man._stdmon
    r = cache.get(P)
    if r is not None:
        return r
    p1 = man._then[P]
    p0 = man._else[P]
    r = man.mk_node(
        man._var[P],
        _standard_monomials(man, man.intersect(p1, p0)),
        _standard_monomials(man, man.union(p1, p0)),
    )
    cache[P] = r
    return r


def points_gb(P: PointSet) -> list[BoolPoly]:
    """Reduced lex Boolean Groebner basis of the vanishing ideal of P, in
    descending lex order of the leads, by one recursion over the variables.

    With S a point set over x_i ... x_{n-1} and S1, S0 its then/else
    cofactors at x_i (S1 = 0 when x_i does not occur),

        GB(S, i) = {x_i*g + b_g : g in GB(S0 ∩ S1, i+1), no lead of
                    GB(S0 ∪ S1, i+1) divides lead(g)} ∪ GB(S0 ∪ S1, i+1),

    where b_g, the lex-smallest interpolant of 0 on S0 and g on S1, makes
    x_i*g + b_g vanish on S; GB(∅, i) = [1] and GB({∅}, n) = [].  This is
    the Boolean case of Lederer, "The vanishing ideal of a finite set of
    closed points in affine space", J. Pure Appl. Algebra 212 (2008); its
    leads are the minimal non-standard monomials of the lex game.
    """
    ring = P.ring
    man = ring.manager
    man.activate()
    n = ring.n
    var, then, els = man._var, man._then, man._else
    memo: dict = {}

    def gb(S: int, i: int) -> list[tuple[int, int]]:
        # (lead as a bitmask of variable indices, polynomial node) pairs
        if S == ZERO:
            return [(0, ONE)]
        if i == n:
            return []
        key = S << 32 | i
        r = memo.get(key)
        if r is not None:
            return r
        s1, s0 = (then[S], els[S]) if var[S] == i else (ZERO, S)
        dom = man.union(s0, s1)
        rest = gb(dom, i + 1)
        # I(S0 ∪ S1) lies in I(S0 ∩ S1), so a lead of the union that divides
        # a (minimal) lead of the intersection equals it
        taken = {lead for lead, _ in rest}
        r = []
        for m, g in gb(man.intersect(s0, s1), i + 1):
            if m in taken:
                continue
            b = _interp_lex(man, dom, man.diff(s1, _zeros(man, g, s1)))
            r.append((m | 1 << i, man.mk_node(i, g, b)))
        r.extend(rest)
        memo[key] = r
        return r

    return [BoolPoly(ring, z) for _, z in gb(P.z, 0)]
