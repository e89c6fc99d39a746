"""Variety-level algorithms: zeros within a point set, lex-smallest
interpolation, normal forms against a variety, standard monomials and the
reduced lex basis of a vanishing ideal.

A point v in {0,1}^n is stored as the set {i : v_i = 1}, so a set of
points is a ZDD over the same manager as the polynomials it meets.
"""

from __future__ import annotations

from .boolpoly import BoolPoly, BoolRing
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
        man = ring.manager
        z = ZERO
        for p in points:
            p = tuple(p)
            if len(p) != ring.n:
                raise ValueError("point length must match the variable count")
            z = man.union(z, man.singleton(i for i, b in enumerate(p) if b))
        return cls(ring, z)

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
        return PointSet(self.ring, self.ring.manager.union(self.z, other.z))

    def intersect(self, other: "PointSet") -> "PointSet":
        return PointSet(self.ring, self.ring.manager.intersect(self.z, other.z))

    def diff(self, other: "PointSet") -> "PointSet":
        return PointSet(self.ring, self.ring.manager.diff(self.z, other.z))


class PartialFn:
    """Partial Boolean function given by disjoint zero- and one-sets."""

    __slots__ = ("ring", "zeros", "ones")

    def __init__(self, zeros: PointSet, ones: PointSet):
        if zeros.ring is not ones.ring:
            raise ValueError("point sets come from different rings")
        if zeros.ring.manager.intersect(zeros.z, ones.z) != ZERO:
            raise InterpolationError("zero- and one-sets overlap")
        self.ring = zeros.ring
        self.zeros = zeros
        self.ones = ones

    def domain(self) -> PointSet:
        return self.zeros.union(self.ones)


def zeros(p: BoolPoly, S: PointSet) -> PointSet:
    """{s in S : p(s) = 0}, by one cached recursion over both diagrams."""
    if p.ring is not S.ring:
        raise ValueError("polynomial and point set come from different rings")
    return PointSet(S.ring, _zeros(S.ring.manager, p.z, S.z))


def _zeros(man: ZddManager, p: int, S: int) -> int:
    if p == ZERO:
        return S
    if p == ONE or S == ZERO:
        return ZERO
    if S == ONE:
        # only the origin: value there is the constant part of p
        q = p
        while q > ONE:
            q = man.else_branch(q)
        return ZERO if q == ONE else S
    cache = man.cache("zeros")
    key = (p, S)
    r = cache.get(key)
    if r is not None:
        return r
    while man.top_or_end(p) < man.top_or_end(S):
        # the variable cannot be 1 on any point of S
        p = man.else_branch(p)
        if p <= ONE:
            r = _zeros(man, p, S)
            cache[key] = r
            return r
    i = min(man.top_or_end(p), man.top_or_end(S))
    p0 = man.subset0(p, i)
    p1 = man.subset1(p, i)
    s0 = man.subset0(S, i)
    s1 = man.subset1(S, i)
    z00 = _zeros(man, p0, s0)
    z01 = _zeros(man, p0, s1)
    z11 = _zeros(man, p1, s1)
    r = man.mk_node(i, man.diff(s1, man.symmetric_diff(z01, z11)), z00)
    cache[key] = r
    return r


def ones(p: BoolPoly, S: PointSet) -> PointSet:
    """Complement of zeros(p, S) within S."""
    return S.diff(zeros(p, S))


def add_partial(f: PartialFn, g: PartialFn) -> PartialFn:
    """Pointwise sum on the common domain."""
    man = f.ring.manager
    dom = man.intersect(
        man.union(f.zeros.z, f.ones.z), man.union(g.zeros.z, g.ones.z)
    )
    z = man.union(
        man.intersect(f.zeros.z, g.zeros.z), man.intersect(f.ones.z, g.ones.z)
    )
    o = man.intersect(man.symmetric_diff(f.ones.z, g.ones.z), dom)
    ring = f.ring
    return PartialFn(PointSet(ring, z), PointSet(ring, o))


def interpolate_simple(b: PartialFn) -> BoolPoly:
    """Some Boolean polynomial agreeing with b on its domain."""
    return BoolPoly(b.ring, _interp_simple(b.ring.manager, b.zeros.z, b.ones.z))


def _interp_simple(man: ZddManager, Z: int, O: int) -> int:
    if Z == ZERO:
        return ONE
    if O == ZERO:
        return ZERO
    cache = man.cache("isimple")
    key = (Z, O)
    r = cache.get(key)
    if r is not None:
        return r
    i = min(man.top_or_end(O), man.top_or_end(Z))
    z1, z0 = man.subset1(Z, i), man.subset0(Z, i)
    o1, o0 = man.subset1(O, i), man.subset0(O, i)
    he = _interp_simple(man, z0, o0)
    ht = man.symmetric_diff(_interp_simple(man, z1, o1), he)
    r = man.symmetric_diff(man.mk_node(i, ht, ZERO), he)
    cache[key] = r
    return r


def interpolate_smallest_lex(b: PartialFn) -> BoolPoly:
    """Lex-smallest Boolean polynomial agreeing with b on its domain.

    Minimality is under the lexicographic extension of the monomial order
    to polynomials (term by term, 0 smallest overall).
    """
    return BoolPoly(b.ring, _interp_lex(b.ring.manager, b.zeros.z, b.ones.z))


def _interp_lex(man: ZddManager, Z: int, O: int) -> int:
    # the O-check comes first so the fully unconstrained case yields 0,
    # which the minimality argument requires
    if O == ZERO:
        return ZERO
    if Z == ZERO:
        return ONE
    cache = man.cache("ilex")
    key = (Z, O)
    r = cache.get(key)
    if r is not None:
        return r
    i = min(man.top_or_end(O), man.top_or_end(Z))
    z1, z0 = man.subset1(Z, i), man.subset0(Z, i)
    o1, o0 = man.subset1(O, i), man.subset0(O, i)
    dom1 = man.union(z1, o1)
    dom0 = man.union(z0, o0)
    conflict = man.intersect(dom1, dom0)
    # the then-branch is constrained by b1 + b0 on the conflict points
    zt = man.union(man.intersect(z1, z0), man.intersect(o1, o0))
    ot = man.intersect(man.symmetric_diff(o1, o0), conflict)
    ht = _interp_lex(man, zt, ot)
    free1 = man.diff(dom1, conflict)
    flips = man.diff(free1, _zeros(man, ht, free1))
    ze = man.union(man.symmetric_diff(man.diff(z1, conflict), flips), z0)
    oe = man.union(man.symmetric_diff(man.diff(o1, conflict), flips), o0)
    he = _interp_lex(man, ze, oe)
    r = man.symmetric_diff(man.mk_node(i, ht, ZERO), he)
    cache[key] = r
    return r


def nf_by_interpolate(f: BoolPoly, P: PointSet) -> BoolPoly:
    """Reduced lex normal form of f modulo the vanishing ideal of P."""
    Z = zeros(f, P)
    return interpolate_smallest_lex(PartialFn(Z, P.diff(Z)))


def standard_monomials(P: PointSet) -> int:
    """Lex standard monomials of I(P), as a ZDD, by the lex game.

    With x_i the top variable of P and P1, P0 its then/else cofactors,
    SM(P) = x_i * SM(P1 ∩ P0) ∪ SM(P1 ∪ P0) (Felszeghy, Ráth and Rónyai,
    "The lex game and some applications", J. Symb. Comput. 41, 2006).
    """
    return _standard_monomials(P.ring.manager, P.z)


def _standard_monomials(man: ZddManager, P: int) -> int:
    if P <= ONE:
        return P
    cache = man.cache("stdmon")
    r = cache.get(P)
    if r is not None:
        return r
    p1 = man.then_branch(P)
    p0 = man.else_branch(P)
    r = man.mk_node(
        man.top(P),
        _standard_monomials(man, man.intersect(p1, p0)),
        _standard_monomials(man, man.union(p1, p0)),
    )
    cache[P] = r
    return r


def minimal_elements(man: ZddManager, S: int) -> int:
    """Members of S with no proper divisor in S (divisibility antichain)."""
    if S <= ONE:
        return S
    cache = man.cache("minelts")
    r = cache.get(S)
    if r is not None:
        return r
    m1 = minimal_elements(man, man.then_branch(S))
    m0 = minimal_elements(man, man.else_branch(S))
    r = man.mk_node(
        man.top(S), _non_superset(man, m1, man.else_branch(S)), m0
    )
    cache[S] = r
    return r


def _non_superset(man: ZddManager, A: int, B: int) -> int:
    """{a in A : no b in B with b ⊆ a}."""
    if A == ZERO or B == ZERO:
        return A
    if B == ONE:
        return ZERO
    cache = man.cache("nonsup")
    key = (A, B)
    r = cache.get(key)
    if r is not None:
        return r
    va = man.top_or_end(A)
    vb = man.top_or_end(B)
    if vb < va:
        r = _non_superset(man, A, man.else_branch(B))
    elif va < vb:
        r = man.mk_node(
            va,
            _non_superset(man, man.then_branch(A), B),
            _non_superset(man, man.else_branch(A), B),
        )
    else:
        r = man.mk_node(
            va,
            _non_superset(
                man,
                man.then_branch(A),
                man.union(man.then_branch(B), man.else_branch(B)),
            ),
            _non_superset(man, man.else_branch(A), man.else_branch(B)),
        )
    cache[key] = r
    return r


def leading_monomials_variety(P: PointSet) -> int:
    """Minimal generators of the lex leading ideal of I(P) (Boolean part)."""
    man = P.ring.manager
    all_terms = man.full_family(P.ring.n)
    rest = man.diff(all_terms, standard_monomials(P))
    return minimal_elements(man, rest)


def points_gb(P: PointSet) -> list[BoolPoly]:
    """Reduced lex Boolean Groebner basis of the vanishing ideal of P."""
    ring = P.ring
    man = ring.manager
    leads = leading_monomials_variety(P)
    out = []
    for t in man.iter_paths(leads):
        tp = BoolPoly(ring, man.singleton(t))
        out.append(tp + nf_by_interpolate(tp, P))
    return out
