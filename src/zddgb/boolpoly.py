"""Boolean polynomials over Z/2 modulo the field relations x*x = x.

A polynomial is stored as the ZDD of its term set; canonicity of the
diagram makes polynomial equality an identifier comparison, and equal
polynomials define equal Boolean functions (and conversely).  Monomial
orderings: lex, degree-lex, degree-reverse-lex with reversed variables
(dp_asc), and block compositions of the degree orderings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .zdd import ONE, ZERO, ZddError, ZddManager

LEX = "lp"
DLEX = "dlex"
DP_ASC = "dp_asc"
_DEGREE_KINDS = (DLEX, DP_ASC)


class RingMismatchError(Exception):
    """Operands belong to different rings."""


class OrderingError(Exception):
    """Ordering is malformed or unsupported for the requested operation."""


@dataclass(frozen=True)
class Ordering:
    """Monomial ordering descriptor.

    kind is one of "lp", "dlex", "dp_asc" or "block"; a block ordering
    carries (kind, end) segments partitioning [0, n) with degree kinds only.
    """

    kind: str
    blocks: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.kind == "block":
            if not self.blocks:
                raise OrderingError("block ordering needs at least one block")
            for k, _ in self.blocks:
                if k not in _DEGREE_KINDS:
                    raise OrderingError(f"only degree kinds allowed in blocks, got {k}")
            ends = [e for _, e in self.blocks]
            if any(e <= 0 for e in ends) or any(
                a >= b for a, b in zip(ends, ends[1:])
            ):
                raise OrderingError("block ends must be strictly increasing")
        elif self.kind not in (LEX, DLEX, DP_ASC):
            raise OrderingError(f"unknown ordering kind {self.kind!r}")

    @property
    def is_symmetric(self) -> bool:
        """Order-preserving variable shifts keep comparisons intact."""
        return self.kind != "block"

    def validate(self, n: int) -> None:
        if self.kind == "block" and self.blocks[-1][1] != n:
            raise OrderingError("blocks must partition the variable range")

    def sort_key(self, mon: tuple[int, ...]):
        """Key with key(m1) < key(m2) iff m1 < m2 in this ordering."""
        if self.kind == LEX:
            return _lex_key(mon)
        if self.kind == DLEX:
            return (len(mon), _lex_key(mon))
        if self.kind == DP_ASC:
            return (len(mon), mon)
        key = []
        start = 0
        for kind, end in self.blocks:
            part = tuple(v for v in mon if start <= v < end)
            if kind == DLEX:
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


def parse_ordering(text: str) -> Ordering:
    text = text.strip()
    m = re.fullmatch(r"block\((.*)\)", text)
    if m:
        blocks = []
        for seg in m.group(1).split(","):
            kind, _, end = seg.strip().partition(":")
            if not end:
                raise OrderingError(f"block segment {seg!r} needs kind:end")
            try:
                blocks.append((kind.strip(), int(end)))
            except ValueError:
                raise OrderingError(
                    f"block end {end.strip()!r} is not an integer"
                ) from None
        return Ordering("block", tuple(blocks))
    return Ordering(text)


class BoolRing:
    """Z/2[x_1..x_n] modulo the field polynomials, with a fixed ordering.

    Variable index 0 is the largest variable of every ordering.
    """

    def __init__(self, names, ordering: Ordering | str = LEX):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if isinstance(ordering, str):
            ordering = parse_ordering(ordering)
        ordering.validate(len(names))
        self.names = names
        self.n = len(names)
        self.ordering = ordering
        self.manager = ZddManager(self.n)
        self._index = {nm: i for i, nm in enumerate(names)}

    @classmethod
    def indexed(cls, n: int, ordering: Ordering | str = LEX, prefix: str = "x"):
        return cls([f"{prefix}{i}" for i in range(n)], ordering)

    def poly(self, z: int) -> "BoolPoly":
        return BoolPoly(self, z)

    @property
    def zero(self) -> "BoolPoly":
        return BoolPoly(self, ZERO)

    @property
    def one(self) -> "BoolPoly":
        return BoolPoly(self, ONE)

    def index(self, name: str) -> int:
        return self._index[name]

    def var(self, v) -> "BoolPoly":
        if isinstance(v, str):
            v = self._index[v]
        return BoolPoly(self, self.manager.mk_node(v, ONE, ZERO))

    def monomial(self, vs) -> "BoolMonomial":
        return BoolMonomial(self, self.manager.singleton(vs))

    def from_terms(self, terms) -> "BoolPoly":
        """Polynomial from an iterable of terms, each a set of indices."""
        z = ZERO
        man = self.manager
        for t in terms:
            z = man.symmetric_diff(z, man.singleton(t))
        return BoolPoly(self, z)

    def parse(self, text: str) -> "BoolPoly":
        """Parse "a*b + c^2 + 1"; exponents reduce modulo the field relation."""
        text = text.replace("-", "+").strip()
        text = text.lstrip("+").strip()
        if not text:
            raise ValueError("empty polynomial text")
        z = ZERO
        man = self.manager
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"dangling '+' in {text!r}")
            if chunk == "0":
                continue
            if chunk == "1":
                z = man.symmetric_diff(z, ONE)
                continue
            vs = set()
            for factor in chunk.split("*"):
                factor = factor.strip()
                name, _, exp = factor.partition("^")
                name = name.strip()
                if name == "1":
                    continue
                if name not in self._index:
                    raise ValueError(f"unknown variable {name!r}")
                if exp and int(exp) == 0:
                    continue
                vs.add(self._index[name])
            z = man.symmetric_diff(z, man.singleton(vs))
        return BoolPoly(self, z)

    def mon_str(self, mon: tuple[int, ...]) -> str:
        if not mon:
            return "1"
        return "*".join(self.names[v] for v in mon)


def _same_ring(a: "BoolPoly", b: "BoolPoly") -> None:
    if a.ring is not b.ring:
        raise RingMismatchError("operands come from different rings")


class BoolPoly:
    """A Boolean polynomial: the ZDD of its term set bound to a ring."""

    __slots__ = ("ring", "z")

    def __init__(self, ring: BoolRing, z: int):
        self.ring = ring
        self.z = z

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.z == other and other in (ZERO, ONE)
        return (
            isinstance(other, BoolPoly)
            and self.ring is other.ring
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.z))

    def __bool__(self) -> bool:
        return self.z != ZERO

    def is_zero(self) -> bool:
        return self.z == ZERO

    def is_one(self) -> bool:
        return self.z == ONE

    def __add__(self, other: "BoolPoly") -> "BoolPoly":
        _same_ring(self, other)
        return BoolPoly(self.ring, self.ring.manager.symmetric_diff(self.z, other.z))

    def __mul__(self, other: "BoolPoly") -> "BoolPoly":
        return mul_boolean(self, other)

    def __len__(self) -> int:
        return self.ring.manager.count_paths(self.z)

    def terms(self):
        """Terms in natural (descending lex) order, as index tuples."""
        return self.ring.manager.iter_paths(self.z)

    def term_set(self) -> frozenset:
        return frozenset(self.terms())

    def vars_of(self) -> tuple[int, ...]:
        return self.ring.manager.support(self.z)

    def __str__(self) -> str:
        if self.z == ZERO:
            return "0"
        parts = [self.ring.mon_str(m) for m in terms_iter(self)]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BoolPoly({self})"


class BoolMonomial:
    """Single-path diagram plus its cached degree; equality is id equality."""

    __slots__ = ("ring", "z", "vars")

    def __init__(self, ring: BoolRing, z: int):
        man = ring.manager
        vars_ = []
        node = z
        while node > ONE:
            vars_.append(man.top(node))
            t = man.then_branch(node)
            if man.else_branch(node) != ZERO:
                raise ZddError("monomial diagram must have a single path")
            node = t
        if node != ONE:
            raise ZddError("monomial diagram must reach the 1-terminal")
        self.ring = ring
        self.z = z
        self.vars = tuple(vars_)

    @property
    def degree(self) -> int:
        return len(self.vars)

    def poly(self) -> BoolPoly:
        return BoolPoly(self.ring, self.z)

    def divides(self, other: "BoolMonomial") -> bool:
        return set(self.vars) <= set(other.vars)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoolMonomial)
            and self.ring is other.ring
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.z))

    def __str__(self) -> str:
        return self.ring.mon_str(self.vars)

    def __repr__(self) -> str:
        return f"BoolMonomial({self})"


# -- arithmetic ---------------------------------------------------------------


def mul_boolean(f: BoolPoly, g: BoolPoly) -> BoolPoly:
    """Canonical representative of f*g modulo the field polynomials."""
    _same_ring(f, g)
    return BoolPoly(f.ring, _mul(f.ring.manager, f.z, g.z))


def _mul(man: ZddManager, f: int, g: int) -> int:
    if f == ONE:
        return g
    if f == ZERO or g == ZERO:
        return ZERO
    if g == ONE or f == g:
        return f
    if f > g:
        f, g = g, f
    cache = man._bmul
    key = (f, g)
    r = cache.get(key)
    if r is not None:
        return r
    var = man._var
    vf = var[f]
    vg = var[g]
    if vf != vg:
        # the top variable occurs in one operand only: distribute the other
        if vf > vg:
            f, g = g, f
            vf = vg
        r = man.mk_node(vf, _mul(man, man._then[f], g), _mul(man, man._else[f], g))
    else:
        # f = x*p1 + p0 and g = x*q1 + q0 with x*x = x give
        # f*g = x*((p1 + p0)*q1 + p1*q0) + p0*q0: three products, not four.
        # The halves added are f's, the lower node id, which is the older
        # diagram; in a running product that is the small new factor, not
        # the growing accumulator (adding its halves measured slower)
        p1, p0 = man._then[f], man._else[f]
        q1, q0 = man._then[g], man._else[g]
        tpart = man.symmetric_diff(
            _mul(man, man.symmetric_diff(p1, p0), q1), _mul(man, p1, q0)
        )
        r = man.mk_node(vf, tpart, _mul(man, p0, q0))
    cache[key] = r
    return r


def mul_monomial(f: BoolPoly, m: BoolMonomial) -> BoolPoly:
    """Boolean multiplication specialized to a monomial factor."""
    _same_ring(f, m.poly())
    return BoolPoly(f.ring, _mul(f.ring.manager, f.z, m.z))


def quotient_by_monomial(f: BoolPoly, m: BoolMonomial) -> BoolPoly:
    """Sum of t/m over the terms t of f divisible by m."""
    z = f.z
    man = f.ring.manager
    for v in m.vars:
        z = man.subset1(z, v)
        if z == ZERO:
            break
    return BoolPoly(f.ring, z)


def nf_monomial_set(f: BoolPoly, G: int) -> BoolPoly:
    """Drop every term of f divisible by a member of the monomial set G."""
    return BoolPoly(f.ring, _nf_mon(f.ring.manager, f.z, G))


def _contains_empty(man: ZddManager, z: int) -> bool:
    """Whether the empty set is a member: the else-chain ends in 1."""
    els = man._else
    while z > ONE:
        z = els[z]
    return z == ONE


def _nf_mon(man: ZddManager, f: int, G: int) -> int:
    """Terms of f divisible by no member of G.

    The empty monomial divides every term, so it is tested once, here.
    Below, `_nf_mon_rec` keeps the invariant that G never contains the
    empty set: else-branches of G keep it, and the one descent into a
    then-branch checks it first.
    """
    if _contains_empty(man, G):
        return ZERO
    return _nf_mon_rec(man, f, G)


def _nf_mon_rec(man: ZddManager, f: int, G: int) -> int:
    # invariant: the empty set is not a member of G
    if f <= ONE:
        return f
    var = man._var
    els = man._else
    vf = var[f]
    # members with a variable above f's top divide no term of f
    while var[G] < vf:
        G = els[G]
    if G == ZERO:
        return f
    cache = man._nfmon
    key = (f, G)
    r = cache.get(key)
    if r is not None:
        return r
    then = man._then
    if var[G] == vf:
        # terms with vf must dodge divisors both with and without vf;
        # if then(G) holds the empty set, x_vf itself is a divisor
        G0 = els[G]
        G1 = then[G]
        if _contains_empty(man, G1):
            t = ZERO
        else:
            t = _nf_mon_rec(man, _nf_mon_rec(man, then[f], G0), G1)
        r = man.mk_node(vf, t, _nf_mon_rec(man, els[f], G0))
    else:
        r = man.mk_node(
            vf, _nf_mon_rec(man, then[f], G), _nf_mon_rec(man, els[f], G)
        )
    cache[key] = r
    return r


# -- degrees ------------------------------------------------------------------


def deg(f: BoolPoly) -> int:
    """Maximal term degree; deg(0) = 0 by convention."""
    man = f.ring.manager
    return _deg(man, f.z, man.num_vars)


def _deg(man: ZddManager, z: int, end: int) -> int:
    """Maximal number of term variables with index < end."""
    if z <= ONE or man._var[z] >= end:
        return 0
    cache = man._deg
    key = (z, end)
    r = cache.get(key)
    if r is not None:
        return r
    r = max(
        _deg(man, man._then[z], end) + 1,
        _deg(man, man._else[z], end),
    )
    cache[key] = r
    return r


# -- leading terms --------------------------------------------------------------


def lead_vars(f: BoolPoly) -> tuple[int, ...]:
    """Index tuple of the largest term of f under the ring's ordering."""
    if f.z == ZERO:
        raise ValueError("the zero polynomial has no leading term")
    return _lead_vars(f.ring.manager, f.z, f.ring.ordering)


def _lead_vars(man: ZddManager, z: int, ordering: Ordering) -> tuple[int, ...]:
    if ordering.kind == LEX:
        return man.path_vars(man.first_path(z))
    # a degree ordering is a block ordering with a single block; variables
    # grow along a path, so the walk meets the blocks in order
    blocks = ordering.blocks or ((ordering.kind, man.num_vars),)
    var, then, els = man._var, man._then, man._else
    out = []
    for kind, end in blocks:
        while z > ONE and var[z] < end:
            t, e = then[z], els[z]
            d1 = _deg(man, t, end) + 1
            d0 = _deg(man, e, end)
            # on a degree tie dlex keeps the top variable, dp_asc drops it
            if d0 < d1 or (kind == DLEX and d0 == d1):
                out.append(var[z])
                z = t
            else:
                z = e
    return tuple(out)


def lead(f: BoolPoly) -> BoolMonomial:
    """Largest term of f under the ring's ordering."""
    return f.ring.monomial(lead_vars(f))


def terms_iter(f: BoolPoly):
    """Terms of f in strictly decreasing order; first yield equals lead(f)."""
    ordering = f.ring.ordering
    paths = f.ring.manager.iter_paths(f.z)
    if ordering.kind == LEX:
        # the natural path order is descending lex
        yield from paths
    else:
        yield from sorted(paths, key=ordering.sort_key, reverse=True)


# -- evaluation -----------------------------------------------------------------


def eval_poly(f: BoolPoly, point) -> int:
    """Value of f's Boolean function at a 0/1 point."""
    point = tuple(point)
    if len(point) != f.ring.n:
        raise ValueError("point length must match the variable count")
    man = f.ring.manager
    memo: dict[int, int] = {}

    def go(z: int) -> int:
        if z <= ONE:
            return z
        r = memo.get(z)
        if r is None:
            v = man.top(z)
            r = go(man.else_branch(z))
            if point[v]:
                r ^= go(man.then_branch(z))
            memo[z] = r
        return r

    return go(f.z)


def spoly(f: BoolPoly, g: BoolPoly) -> BoolPoly:
    """S-polynomial with Boolean multiplication; the lcm terms cancel."""
    if f.z == ZERO or g.z == ZERO:
        raise ValueError("s-polynomial needs nonzero inputs")
    _same_ring(f, g)
    lf = lead(f).vars
    lg = lead(g).vars
    lcm = set(lf) | set(lg)
    mf = f.ring.monomial(lcm - set(lf))
    mg = f.ring.monomial(lcm - set(lg))
    return mul_monomial(f, mf) + mul_monomial(g, mg)
