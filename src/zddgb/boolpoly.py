"""Boolean polynomials over Z/2 modulo the field relations x*x = x.

A polynomial is stored as the ZDD of its term set; canonicity of the
diagram makes polynomial equality an identifier comparison, and equal
polynomials define equal Boolean functions (and conversely).  Monomial
orderings: lex ("lp"), degree-lex ("dlex"), degree-reverse-lex with
reversed variables ("dp_asc"), and blocks of the two degree orderings
("block(dlex:3,dp_asc:6)").  The ring takes the ordering as a string and
reads it once, into `ring.blocks` and `ring.sort_key`; a bad ordering
raises ValueError.

Both rings read polynomial text in one grammar (`_parse_terms`): whitespace
is dropped, then one optional sign and terms joined by + or -, each term
*-separated factors, a variable or a number, either one maybe ^k (k >= 0).
Here a sign is a plus, x^k is x for k >= 1, and the only number is 1 (a
lone 0 is zero).  Names follow one rule (`check_names`), so every name a
ring takes reads back: not empty, not all digits, no whitespace and none
of + - * ^.
"""

from __future__ import annotations

import copy
import re

from .zdd import ONE, ZERO, ZddError, ZddManager


class RingMismatchError(Exception):
    """Operands belong to different rings."""


def _lex_key(mon: tuple[int, ...]) -> tuple[int, ...]:
    # negating indices makes tuple comparison agree with lex on monomials
    return tuple(-v for v in mon)


# sort keys of the degree orderings, the kinds a block may take; every key
# reads a monomial as its ascending index tuple
_DEGREE_KEYS = {"dlex": lambda mon: (len(mon), _lex_key(mon)),
                "dp_asc": lambda mon: (len(mon), mon)}


def _parse_blocks(text: str, n: int) -> tuple[tuple[str, int], ...] | None:
    """The (kind, end) segments of an ordering of n variables: None under
    lp, one segment ending at n for dlex or dp_asc, and the segments of
    "block(kind:end,...)", which partition [0, n) into degree blocks."""
    text = text.strip()
    m = re.fullmatch(r"block\((.*)\)", text)
    if m is None:
        if text == "lp":
            return None
        if text in _DEGREE_KEYS:
            return ((text, n),)
        raise ValueError(f"unknown ordering kind {text!r}")
    blocks = []
    for seg in m.group(1).split(","):
        kind, _, end = seg.strip().partition(":")
        if not end:
            raise ValueError(f"block segment {seg!r} needs kind:end")
        try:
            blocks.append((kind.strip(), int(end)))
        except ValueError:
            raise ValueError(
                f"block end {end.strip()!r} is not an integer") from None
    for kind, _ in blocks:
        if kind not in _DEGREE_KEYS:
            raise ValueError(f"only degree kinds allowed in blocks, got {kind}")
    ends = [e for _, e in blocks]
    if ends[0] <= 0 or any(a >= b for a, b in zip(ends, ends[1:])):
        raise ValueError("block ends must be strictly increasing")
    if ends[-1] != n:
        raise ValueError("blocks must partition the variable range")
    return tuple(blocks)


def _block_key(blocks):
    """Sort key of a block ordering: the blocks' degree keys in turn."""
    spans = []
    start = 0
    for kind, end in blocks:
        spans.append((start, end, _DEGREE_KEYS[kind]))
        start = end

    def key(mon: tuple[int, ...]):
        return tuple(k(tuple(v for v in mon if lo <= v < hi))
                     for lo, hi, k in spans)

    return key


class BoolRing:
    """Z/2[x_1..x_n] modulo the field polynomials, with a fixed ordering:
    "lp" (lex), "dlex", "dp_asc" or "block(kind:end,...)".

    The ring reads the ordering once, into `blocks` (None under lp, else
    its (kind, end) segments; dlex and dp_asc are one block) and
    `sort_key`, with key(m1) < key(m2) iff m1 < m2 for ascending index
    tuples.  Variable index 0 is the largest variable of every ordering.
    """

    def __init__(self, names, ordering: str = "lp"):
        names = list(names)
        check_names(names)
        self.names = names
        self.n = len(names)
        self.blocks = blocks = _parse_blocks(ordering, self.n)
        if blocks is None:
            self.sort_key = _lex_key
        elif len(blocks) == 1:
            self.sort_key = _DEGREE_KEYS[blocks[0][0]]
        else:
            self.sort_key = _block_key(blocks)
        self.manager = ZddManager(self.n)
        self._index = {nm: i for i, nm in enumerate(names)}

    @classmethod
    def indexed(cls, n: int, ordering: str = "lp"):
        return cls([f"x{i}" for i in range(n)], ordering)

    def _lex_view(self) -> "BoolRing":
        """This ring under lp, with the same names and manager: a diagram
        reads the same in both, since the variable order is the index
        order under every ordering.  An lp ring is its own view."""
        if self.blocks is None:
            return self
        view = copy.copy(self)
        view.blocks, view.sort_key = None, _lex_key
        return view

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

    def monomial(self, vs) -> "BoolPoly":
        """The one-term polynomial of the variable indices vs."""
        return BoolPoly(self, self.manager.singleton(vs))

    def from_terms(self, terms) -> "BoolPoly":
        """Polynomial from an iterable of terms, each a set of indices.

        The terms are summed in one pass: those that occur an odd number
        of times (as index sets, so x*x is x) go to one `from_sets` call.
        A term that cancels is still checked against the variable range.
        """
        odd = set()
        cancelled = []
        for t in terms:
            t = frozenset(t)
            if t in odd:
                odd.remove(t)
                cancelled.append(t)
            else:
                odd.add(t)
        for t in cancelled:
            for v in t:
                if not 0 <= v < self.n:
                    raise ZddError(f"variable index {v} out of range")
        return BoolPoly(self, self.manager.from_sets(odd))

    def parse(self, text: str) -> "BoolPoly":
        """Parse "a*b + c^2 + 1": a sign is a plus, x^k for k >= 1 is x,
        and the only number a term takes is 1."""
        return self.from_terms(exps for _, exps in _parse_terms(text, self))

    def _number(self, digits: str, k: int, text: str) -> int:
        """The coefficient of a number factor digits^k in text: 1 only."""
        if digits != "1":
            raise ValueError(
                f"coefficient {digits!r} in {text!r}: a Boolean term takes "
                "no coefficient but 1 (use --mod for Z/m)")
        return 1

    def mon_str(self, mon: tuple[int, ...]) -> str:
        if not mon:
            return "1"
        return "*".join(self.names[v] for v in mon)


def _same_ring(a, b) -> None:
    """Raise RingMismatchError unless a and b (Boolean or Z/m polynomials,
    or point sets) share one ring object."""
    if a.ring is not b.ring:
        raise RingMismatchError("operands come from different rings")


# what a name may not hold: whitespace and the grammar's operators
_NOT_IN_NAMES = re.compile(r"[\s+\-*^]")


def check_names(names: list, what: str = "variable") -> None:
    """Raise ValueError for the first name that polynomial text cannot
    write, or that repeats.  The name rule: a name is not empty, is not all
    digits, and holds no whitespace and none of + - * ^."""
    seen = set()
    for name in names:
        if not name or name.isdecimal() or _NOT_IN_NAMES.search(name):
            raise ValueError(
                f"{what} {name!r} cannot be named in a polynomial: a name is "
                "not empty, not all digits, and holds no whitespace and none "
                "of + - * ^")
        if name in seen:
            raise ValueError(f"{what} {name!r} is listed twice")
        seen.add(name)


def _parse_terms(text: str, ring) -> list:
    """The (coefficient, {variable index: exponent}) terms of text in the
    grammar of both rings (module docstring).  A number factor n^k has the
    coefficient ring._number(n, k, text); a lone 0 is no term."""
    index = ring._index
    src = "".join(text.split())
    if not src:
        raise ValueError("empty polynomial text")
    parts = src.replace("-", "+-").split("+")  # a '-' opens its part
    if not parts[0]:  # the text opens with a sign
        del parts[0]
    terms = []
    for part in parts:
        neg = part.startswith("-")
        term = part[1:] if neg else part
        if not term:  # the sign that opens the part dangles
            raise ValueError(f"dangling {'-' if neg else '+'!r} in {text!r}")
        if term == "0":  # the zero term, which no Boolean coefficient gives
            continue
        coef, factors, exps = -1 if neg else 1, term.split("*"), {}
        if "^" not in term:  # the common term: distinct names, no powers
            for name in factors:
                exps[index.get(name)] = 1
            if None not in exps and len(exps) == len(factors):
                terms.append((coef, exps))
                continue
            exps = {}
        for factor in factors:
            name, caret, k = factor.partition("^")
            if caret and not k.isdecimal():
                raise ValueError(f"'^' needs an exponent >= 0 in {text!r}")
            k = int(k) if caret else 1
            if name in index:
                if k:
                    exps[index[name]] = exps.get(index[name], 0) + k
            elif name.isdecimal():
                coef *= ring._number(name, k, text)
            elif not name and "*" in term:
                raise ValueError(f"dangling '*' in {text!r}")
            else:
                raise ValueError(f"unknown variable {name!r}")
        terms.append((coef, exps))
    return terms


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
    key = f << 32 | g
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


# the product's name where the second factor is one term
mul_monomial = mul_boolean


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
    key = f << 32 | G
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
    key = z << 32 | end
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
    return _lead_vars(f.ring.manager, f.z, f.ring.blocks)


def _lead_vars(man: ZddManager, z: int, blocks) -> tuple[int, ...]:
    if blocks is None:
        return man.path_vars(man.first_path(z))
    # variables grow along a path, so the walk meets the blocks in order
    var, then, els = man._var, man._then, man._else
    out = []
    for kind, end in blocks:
        while z > ONE and var[z] < end:
            t, e = then[z], els[z]
            d1 = _deg(man, t, end) + 1
            d0 = _deg(man, e, end)
            # on a degree tie dlex keeps the top variable, dp_asc drops it
            if d0 < d1 or (kind == "dlex" and d0 == d1):
                out.append(var[z])
                z = t
            else:
                z = e
    return tuple(out)


def lead(f: BoolPoly) -> BoolPoly:
    """Largest term of f under the ring's ordering, as a one-term
    polynomial."""
    return f.ring.monomial(lead_vars(f))


def terms_iter(f: BoolPoly):
    """Terms of f in strictly decreasing order; the first is lead_vars(f)."""
    ring = f.ring
    paths = ring.manager.iter_paths(f.z)
    if ring.blocks is None:
        # the natural path order is descending lex
        yield from paths
    else:
        yield from sorted(paths, key=ring.sort_key, reverse=True)


# -- evaluation -----------------------------------------------------------------


def _check_point(ring: BoolRing, point) -> tuple:
    """point as a tuple, when it is a 0/1 vector (bools count) with one
    coordinate per variable of ring; ValueError naming it otherwise."""
    point = tuple(point)
    if len(point) != ring.n:
        raise ValueError(f"point {point!r}: length must match the variable "
                         f"count {ring.n}")
    # two scans in C, not a Python step per coordinate
    if point.count(0) + point.count(1) != len(point):
        raise ValueError(f"point {point!r}: coordinates must be 0 or 1")
    return point


def eval_poly(f: BoolPoly, point) -> int:
    """Value of f's Boolean function at a 0/1 point (bools count)."""
    point = _check_point(f.ring, point)
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
    lf = set(lead_vars(f))
    lg = set(lead_vars(g))
    mf = f.ring.monomial(lg - lf)
    mg = f.ring.monomial(lf - lg)
    return mul_monomial(f, mf) + mul_monomial(g, mg)
