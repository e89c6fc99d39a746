"""Standard bases for polynomial ideals over Z/m.

Z/m is weak factorial, and in Z/m the ideal (a) equals (gcd(a, m)): the
coefficient arithmetic (divisibility, lcm, annihilators, exact division)
is integer gcd arithmetic, with no factorization of m.  Buchberger's
loop gains extended s-polynomials (annihilator multiples) and a zero-divisor
criterion on top of the classical product and chain criteria.  Orderings
are global (lex or degree-lex), with variable index 0 the largest.

Polynomials are sorted term lists whose monomials are packed ints (as in
Bachmann and Schoenemann, "Monomial representations for Groebner bases
computations", ISSAC 1998): a 16-bit field per variable, 15 value bits
under a guard bit, variable 0 in the highest field, and under dlex a
total-degree field above them all.  Both orderings then compare with `<`,
a product is `+`, a quotient is `-`, a divides b is
`((b | G) - a) & G == G` for the mask G of guard bits, and only a pair's
lcm takes a per-field max.  A reduction step f - x*t*g is one merge, with
no intermediate polynomial.  The engine reads only the packed form; the
constructors, `ZmPoly.terms`, `lt`, `lm`, `str` and `eval` speak exponent
tuples.  A guard bit that gets set is an overflow: an exponent, or under
dlex a degree, past EXPONENT_LIMIT = 32767 raises ExponentOverflowError.

`ZmRing.parse` reads the grammar of `boolpoly._parse_terms` with a sign as
a sign and a number n^k as the coefficient n^k mod m; its names follow
`boolpoly.check_names`.
"""

from __future__ import annotations

import bisect
import heapq
import math
import struct
from dataclasses import dataclass

from .boolpoly import _parse_terms, _same_ring, check_names


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division.  Only `Modulus.primes` calls
    it, for `nu`, `core` and `unit_normalize`; the solver never does."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    out = []
    d, rest = 2, m
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


@dataclass(frozen=True)
class Modulus:
    """The coefficient ring Z/m, m >= 2.

    In Z/m the ideal (a) equals (gcd(a, m)), so divisibility, lcm, gcd,
    annihilators and exact division all come from one integer gcd; only
    the methods indexed by the primes of m factorize it.
    """

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")

    @property
    def primes(self) -> tuple[tuple[int, int], ...]:
        return factorize(self.m)

    def nu(self, a: int) -> tuple[int, ...]:
        """Capped valuation vector: min(v_p(a), e_p) per prime of m."""
        g = math.gcd(a, self.m)
        out = []
        for p, _ in self.primes:
            v = 0
            while g % p == 0:
                g //= p
                v += 1
            out.append(v)
        return tuple(out)

    def core(self, nu: tuple[int, ...]) -> int:
        """Product of p^nu_p, reduced mod m."""
        return math.prod(p**v for (p, _), v in zip(self.primes, nu)) % self.m

    def is_unit(self, a: int) -> bool:
        return math.gcd(a, self.m) == 1

    def unit_normalize(self, a: int) -> tuple[int, int]:
        """(u, core) with u a unit, core = gcd(a, m) and u * core = a mod m."""
        m = self.m
        core = math.gcd(a, m)
        n = a % m // core
        # n is prime to m/core; adding m/core times the primes of m that do
        # not divide n makes it prime to m
        bump = math.prod(p for p, _ in self.primes if n % p)
        return (n + m // core * bump) % m, core % m

    def divides(self, a: int, b: int) -> bool:
        """a | b in Z/m, that is gcd(a, m) | b."""
        return b % math.gcd(a, self.m) == 0

    def gcd(self, *vals: int) -> int:
        return math.gcd(*vals, self.m) % self.m

    def lcm(self, *vals: int) -> int:
        """Generator of the intersection of the ideals (v): the lcm of the
        gcd(v, m), which equals gcd(lcm(vals), m)."""
        return math.gcd(math.lcm(*vals), self.m) % self.m

    def ann_generator(self, a: int) -> int:
        """Generator of {x : a*x = 0}, namely m / gcd(a, m)."""
        return self.m // math.gcd(a, self.m) % self.m

    def div_exact(self, a: int, b: int) -> int:
        """The x in [0, m/gcd(b, m)) with b*x = a mod m; requires b | a.

        With g = gcd(b, m) and k = m/g, b*x = a mod m says
        (b/g)*x = a/g mod k, and b/g is a unit mod k.  When b divides a as
        an integer, a // b is that x (it is below m/b <= k), found without
        the modular inverse: about two calls in three on random ideals over
        Z/4 and Z/8.
        """
        m = self.m
        a, b = a % m, b % m
        if b and a % b == 0:
            return a // b
        g = math.gcd(b, m)
        if a % g:
            raise ValueError(f"{b} does not divide {a} mod {m}")
        k = m // g
        return a // g * pow(b // g, -1, k) % k


def solve_lead(mod: Modulus, c: int, coeffs) -> list[int] | None:
    """Coefficients x_i with sum x_i * coeffs[i] = c mod m, or None.

    The first single divisor wins: one nonzero x_i.  Otherwise one
    extended-gcd pass over coeffs stops at the shortest prefix whose gcd
    divides c, and the x_i past it are 0.  Solvable iff gcd(coeffs, m)
    divides c.
    """
    coeffs = list(coeffs)
    for i, a in enumerate(coeffs):
        if mod.divides(a, c):
            out = [0] * len(coeffs)
            out[i] = mod.div_exact(c, a)
            return out
    m = mod.m
    g = m
    us: list[int] = []
    for a in coeffs:
        g, u, v = _ext_gcd(g, a)
        us = [x * u % m for x in us] + [v % m]
        if c % g == 0:
            scale = c // g % m
            return [x * scale % m for x in us] + [0] * (len(coeffs) - len(us))
    return None


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


# -- packed monomials and polynomials -------------------------------------------


# the largest exponent, and under dlex the largest degree: 15 value bits per
# 16-bit field, under a guard bit
EXPONENT_LIMIT = 0x7FFF


class ExponentOverflowError(OverflowError):
    """A monomial's exponent, or its degree under dlex, passed
    EXPONENT_LIMIT: its packed field would set the guard bit."""

    def __init__(self,
                 message: str = f"an exponent or degree passed {EXPONENT_LIMIT}"):
        super().__init__(message)


# the global orderings of ZmRing, variable 0 the largest
_ORDERINGS = ("lp", "dlex")


class ZmRing:
    """Z/m[x_1..x_n] with a global ordering, "lp" (lex) or "dlex".

    `sort_key` packs an exponent tuple into the int that ZmPoly stores (the
    layout is in the module docstring).  Packed monomials compare as the
    monomials do, so the packing is also the tuple-level sort key for
    callers.
    """

    def __init__(self, m: int, names, ordering: str = "lp"):
        if ordering not in _ORDERINGS:
            raise ValueError(f"unsupported ring ordering {ordering!r}")
        self.mod = Modulus(m)
        self.names = list(names)
        check_names(self.names)
        self.n = len(self.names)
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self._dlex = ordering == "dlex"
        fields = self.n + self._dlex
        self._width = 2 * fields
        self._guard = int.from_bytes(b"\x80\x00" * fields, "big")
        self._pack = struct.Struct(f">{fields}H").pack
        self._unpack_fields = struct.Struct(
            f">{'2x' if self._dlex else ''}{self.n}H").unpack
        self._var_mask = (1 << 16 * self.n) - 1

    @property
    def m(self) -> int:
        return self.mod.m

    def sort_key(self, exps) -> int:
        """The packed monomial of an exponent tuple."""
        try:
            fields = (self._pack(sum(exps), *exps) if self._dlex
                      else self._pack(*exps))
        except (struct.error, TypeError):
            if len(exps) == self.n and all(
                    isinstance(e, int) and e >= 0 for e in exps):
                raise ExponentOverflowError() from None
            raise ValueError(f"{exps!r} is no exponent vector of "
                             f"{self.n} variables") from None
        x = int.from_bytes(fields, "big")
        if x & self._guard:
            raise ExponentOverflowError()
        return x

    def _unpack(self, x: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        return self._unpack_fields(x.to_bytes(self._width, "big"))

    def _lcm(self, a: int, b: int) -> int:
        """Lcm of two packed monomials: the max of each variable's field.

        Under dlex its degree may pass the limit (it is below 2^16 - 1):
        such a pair can still be queued and dropped by a criterion, and its
        s-polynomial raises ExponentOverflowError."""
        guard = self._guard
        wins = ((a | guard) - b) & guard  # the guard bits of fields where a >= b
        keep = wins - (wins >> 15)  # the value bits of those fields
        x = a & keep | b & ~keep
        if self._dlex:
            # the degree field is the sum of the others, < 2^16 - 1 since
            # deg(a) + deg(b) is, and 2^16 = 1 mod 2^16 - 1
            x &= self._var_mask
            x |= x % 0xFFFF << 16 * self.n
        return x

    def poly(self, terms) -> "ZmPoly":
        return ZmPoly(self, terms)

    @property
    def zero(self) -> "ZmPoly":
        return ZmPoly(self, ())

    def const(self, c: int) -> "ZmPoly":
        return ZmPoly(self, (((0,) * self.n, c),))

    def var(self, v) -> "ZmPoly":
        if isinstance(v, str):
            v = self._index[v]
        e = [0] * self.n
        e[v] = 1
        return ZmPoly(self, ((tuple(e), 1),))

    def parse(self, text: str) -> "ZmPoly":
        """Parse e.g. "2*x^2*y - 3 + x"; coefficients reduce mod m."""
        return ZmPoly(self, [
            (tuple(exps.get(v, 0) for v in range(self.n)), coef)
            for coef, exps in _parse_terms(text, self)])

    def _number(self, digits: str, k: int, text: str) -> int:
        """The coefficient of a number factor digits^k: its value mod m."""
        return pow(int(digits), k, self.m)

    def mon_str(self, exps: tuple[int, ...], coef: int) -> str:
        parts = []
        if coef != 1 or not any(exps):
            parts.append(str(coef))
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(self.names[i])
            elif e > 1:
                parts.append(f"{self.names[i]}^{e}")
        return "*".join(parts)


def _sorted_residues(acc: dict, m: int) -> tuple:
    """The terms of {packed monomial: coefficient}, reduced mod m, zeros
    dropped, leading term first."""
    return tuple((x, c) for x in sorted(acc, reverse=True) if (c := acc[x] % m))


class ZmPoly:
    """Term list sorted strictly descending; no zero coefficients.

    `ZmPoly(ring, terms)` canonicalizes arbitrary (exponent tuple,
    coefficient) pairs, and `terms` gives them back in that form.  Inside,
    `_t` holds (packed monomial, coefficient) pairs, which the arithmetic
    below keeps sorted without re-sorting: both orderings are monomial
    orderings, so multiplying by a term or a scalar preserves the order,
    and sums are merges of two sorted lists.
    """

    __slots__ = ("ring", "_t", "_ecart")

    def __init__(self, ring: ZmRing, terms):
        pack = ring.sort_key
        acc: dict[int, int] = {}
        for exps, c in terms:
            x = pack(exps)
            acc[x] = acc.get(x, 0) + c
        self.ring = ring
        self._t = _sorted_residues(acc, ring.m)
        self._ecart = None

    @classmethod
    def _canonical(cls, ring: ZmRing, terms: tuple) -> "ZmPoly":
        """Wrap packed terms that are already sorted, reduced and nonzero."""
        p = object.__new__(cls)
        p.ring = ring
        p._t = terms
        p._ecart = None
        return p

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(exponent tuple, coefficient) pairs, leading term first."""
        unpack = self.ring._unpack
        return tuple((unpack(x), c) for x, c in self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZmPoly)
            and self.ring is other.ring
            and self._t == other._t
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self._t))

    def lt(self) -> tuple[tuple[int, ...], int]:
        if not self._t:
            raise ValueError("the zero polynomial has no leading term")
        x, c = self._t[0]
        return self.ring._unpack(x), c

    def lm(self) -> tuple[int, ...]:
        return self.lt()[0]

    def lc(self) -> int:
        return self.lt()[1]

    def tail(self) -> "ZmPoly":
        return ZmPoly._canonical(self.ring, self._t[1:])

    def deg(self) -> int:
        if not self._t:
            return 0
        return max(sum(e) for e, _ in self.terms)

    def ecart(self) -> int:
        """deg(f) - deg(lm(f)); guides reducer choice in the normal form.
        Under dlex the lead has the largest degree, so it is 0."""
        if self._ecart is None:
            self._ecart = (self.deg() - sum(self.lm())
                           if self._t and not self.ring._dlex else 0)
        return self._ecart

    def __add__(self, other: "ZmPoly") -> "ZmPoly":
        _same_ring(self, other)
        return self._add_mul(0, 1, other)

    def __sub__(self, other: "ZmPoly") -> "ZmPoly":
        _same_ring(self, other)
        return self._add_mul(0, -1, other)

    def _add_mul(self, t: int, x: int, g: "ZmPoly") -> "ZmPoly":
        """self + x * X^t * g, for a packed monomial t, in one merge of the
        two sorted term lists: no intermediate polynomial."""
        ring = self.ring
        m, guard = ring.m, ring._guard
        s = self._t
        n = len(s)
        out = []
        i = 0
        for e, d in g._t:
            e += t
            if e & guard:
                raise ExponentOverflowError()
            d = d * x % m
            while i < n and s[i][0] > e:
                out.append(s[i])
                i += 1
            if i < n and s[i][0] == e:
                c = (s[i][1] + d) % m
                if c:
                    out.append((e, c))
                i += 1
            elif d:
                out.append((e, d))
        out += s[i:]
        return ZmPoly._canonical(ring, tuple(out))

    def _shift(self, t: int, coef: int) -> "ZmPoly":
        """coef * X^t * self for a packed monomial t."""
        ring = self.ring
        m, guard = ring.m, ring._guard
        out = []
        for e, c in self._t:
            e += t
            if e & guard:
                raise ExponentOverflowError()
            c = c * coef % m
            if c:
                out.append((e, c))
        return ZmPoly._canonical(ring, tuple(out))

    def mul_term(self, exps: tuple[int, ...], coef: int) -> "ZmPoly":
        return self._shift(self.ring.sort_key(exps), coef)

    def __mul__(self, other: "ZmPoly") -> "ZmPoly":
        _same_ring(self, other)
        guard = self.ring._guard
        acc: dict[int, int] = {}
        for e, c in self._t:
            for f, d in other._t:
                f += e
                if f & guard:
                    raise ExponentOverflowError()
                acc[f] = acc.get(f, 0) + c * d
        return ZmPoly._canonical(self.ring, _sorted_residues(acc, self.ring.m))

    def scale(self, c: int) -> "ZmPoly":
        return self._shift(0, c)

    def eval(self, point) -> int:
        m = self.ring.m
        total = 0
        for e, c in self.terms:
            v = c
            for x, k in zip(point, e):
                v = v * pow(x, k, m) % m
            total = (total + v) % m
        return total

    def __str__(self) -> str:
        if not self._t:
            return "0"
        return " + ".join(self.ring.mon_str(e, c) for e, c in self.terms)

    def __repr__(self) -> str:
        return f"ZmPoly({self})"


# -- s-polynomials ----------------------------------------------------------------


def spoly_ring(f: ZmPoly, g: ZmPoly) -> ZmPoly:
    """S-polynomial over the lcm of the leading *terms* (coefficient lcm
    included); the leading terms cancel exactly."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s-polynomial needs nonzero inputs")
    _same_ring(f, g)
    mod = f.ring.mod
    (mf, cf), (mg, cg) = f._t[0], g._t[0]
    cl = mod.lcm(cf, cg)
    ml = f.ring._lcm(mf, mg)
    return f._shift(ml - mf, mod.div_exact(cl, cf))._add_mul(
        ml - mg, -mod.div_exact(cl, cg), g)


def spoly_extended(f: ZmPoly) -> ZmPoly:
    """Annihilator multiple of f: ann(lc f) * f."""
    if f.is_zero():
        raise ValueError("s-polynomial needs a nonzero input")
    return f.scale(f.ring.mod.ann_generator(f._t[0][1]))


# -- normal form ------------------------------------------------------------------


def nf_ring(f: ZmPoly, G) -> ZmPoly:
    """Polynomial weak normal form: the result is 0 or has its leading term
    outside the leading ideal of the reducer set.

    The reducers are ordered once per call by ecart, ties by position in
    G, in the table that `_nf` reduces against.  The orderings are global,
    so the lead falls strictly at every step; Mora's device of appending
    the remainder to the reducers is not needed, since no later lead could
    be its multiple.
    """
    return _nf(f, _table(f, G))


def _table(f: ZmPoly, G) -> list:
    """The table of G for `_nf`: (lead monomial, lead coefficient, reducer)
    of G's nonzero elements, by ecart, ties by position in G.  Every
    element of G must share f's ring."""
    G = list(G)
    for g in G:
        _same_ring(f, g)
    return [(*g._t[0], g) for g in sorted((g for g in G if g._t), key=ZmPoly.ecart)]


def _nf(f: ZmPoly, T) -> ZmPoly:
    """Weak normal form of f against a table built as by `_table`.

    Each step scans T for the reducers whose lead divides lm(f).  The
    first whose lead coefficient divides lc(f) is subtracted alone;
    when none does, the lead coefficients of all of them, in table order,
    go to one `solve_lead` call, which solves over the shortest ecart
    prefix it can.  Each reducer used is subtracted in one merge,
    f - x*t*g.
    """
    ring = f.ring
    mod = ring.mod
    m, guard = mod.m, ring._guard
    gcd, div_exact = math.gcd, mod.div_exact
    while f._t:
        mf, cf = f._t[0]
        # g's lead divides mf when no field of mf - lm(g) borrows its guard bit
        top = mf | guard
        cands = []
        for t in T:
            mg, cg, g = t
            if (top - mg) & guard == guard:
                if cf % gcd(cg, m) == 0:
                    f = f._add_mul(mf - mg, -div_exact(cf, cg), g)
                    break
                cands.append(t)
        else:
            if not cands:
                return f
            sol = solve_lead(mod, cf, [c for _, c, _ in cands])
            if sol is None:
                return f
            for (mg, _, g), x in zip(cands, sol):
                if x:
                    f = f._add_mul(mf - mg, -x, g)
    return f


def rednf_ring(f: ZmPoly, G) -> ZmPoly:
    """Tail-reduced normal form: weak NF applied to every remaining term."""
    T = _table(f, G)
    kept = []
    while True:
        f = _nf(f, T)
        if not f._t:
            return ZmPoly._canonical(f.ring, tuple(kept))
        kept.append(f._t[0])
        f = f.tail()


# -- criteria -----------------------------------------------------------------------


def product_criterion_ring(f: ZmPoly, g: ZmPoly) -> bool:
    """Coprime lead monomials and both lead coefficients units."""
    mod = f.ring.mod
    (mf, cf), (mg, cg) = f._t[0], g._t[0]
    if not (mod.is_unit(cf) and mod.is_unit(cg)):
        return False
    return f.ring._lcm(mf, mg) == mf + mg


def zero_criterion(mod: Modulus, ci: int, cl: int) -> bool:
    """The pair's multiplier of f_i lies in the annihilator syzygy of c_i.

    The multiplier's coefficient is q = lcm(c_i, c_l)/c_i, the one in
    [0, m/gcd(c_i, m)); the pair is superfluous when ann(c_i), generated by
    m/gcd(c_i, m), divides q, that is when q = 0, that is when
    lcm(c_i, c_l) = 0.  The test is symmetric in c_i and c_l, and the other
    component is then an annihilator multiple of c_l as well.
    """
    return mod.lcm(ci, cl) == 0


# -- the standard basis loop -----------------------------------------------------------


@dataclass
class RingStrategy:
    product_criterion: bool = True
    chain_criterion: bool = True
    zero_criterion: bool = True


def std_basis(gens, strategy: RingStrategy | None = None) -> list[ZmPoly]:
    """Standard basis of the ideal of gens over Z/m.

    Every s-polynomial, including the extended annihilator multiples,
    reduces to zero against the result.  Deterministic.  The loop stops as
    soon as a remainder is a unit constant u: the ideal is then the whole
    ring, u divides every lead, every later remainder would reduce to 0,
    and the reduced basis is [u].

    The reducer order is set once per basis: every reduction runs `_nf`
    against one table of G's leads, ordered by ecart, ties by position in
    G, into which each new element is inserted once.
    """
    gens = list(gens)
    for g in gens:
        _same_ring(gens[0], g)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    strategy = strategy or RingStrategy()
    mod = ring.mod

    G: list[ZmPoly] = []
    # G's table for `_nf`: each new element goes after those of equal
    # ecart, so T stays sorted(G, key=ecart) as a stable sort leaves it
    T: list = []
    queue: list = []
    done: set[tuple[int, int]] = set()
    queued_lcm: dict[tuple[int, int], tuple[int, int]] = {}
    counter = 0

    def add(h: ZmPoly) -> bool:
        """Append h to G and queue its pairs; True, with nothing queued,
        when h is a unit constant."""
        # queue entries (lcm monomial, lcm coefficient, counter, a, b): the
        # pair (a, b) with a < b, or the annihilator s-polynomial of G[a]
        # when b is None
        nonlocal counter
        idx = len(G)
        G.append(h)
        mon, coef = h._t[0]
        bisect.insort_right(T, (mon, coef, h), key=lambda t: t[2].ecart())
        if not mon and mod.is_unit(coef):
            return True
        for j in range(idx):
            mj, cj = G[j]._t[0]
            ml, cl = queued_lcm[(j, idx)] = ring._lcm(mj, mon), mod.lcm(cj, coef)
            counter += 1
            heapq.heappush(queue, (ml, cl, counter, j, idx))
        counter += 1
        heapq.heappush(queue, (mon, 0, counter, idx, None))
        return False

    for f in gens:
        h = _nf(f, T)
        if h._t and add(h):
            return _reduce_basis(G)

    while queue:
        *_, a, b = heapq.heappop(queue)
        if b is None:
            s = spoly_extended(G[a])
        else:
            lcm_term = queued_lcm.pop((a, b))
            f, g = G[a], G[b]
            if strategy.product_criterion and product_criterion_ring(f, g):
                done.add((a, b))
                continue
            if strategy.zero_criterion and zero_criterion(
                mod, f._t[0][1], g._t[0][1]
            ):
                continue
            if strategy.chain_criterion and _chain_drop(
                G, a, b, lcm_term, done, queued_lcm
            ):
                continue
            s = spoly_ring(f, g)
            done.add((a, b))
        if not s._t:
            continue
        h = _nf(s, T)
        if h._t and add(h):
            return _reduce_basis(G)

    return _reduce_basis(G)


def _chain_drop(G, i, l, lcm_term, done, queued_lcm) -> bool:
    """Some lt(G[j]) divides lcm_term, the packed lcm term of (i, l), and
    each of the pairs (i, j) and (j, l) is done or queued with a properly
    smaller lcm term."""
    ring = G[i].ring
    m = ring.m
    gcd = math.gcd
    # the variables' guard bits decide divisibility: a queued lcm's degree
    # field may hold a degree past the limit (see ZmRing._lcm)
    guard = ring._guard & ring._var_mask
    ml, cl = lcm_term
    top = ml | guard
    for j, g in enumerate(G):
        mj, cj = g._t[0]
        if (top - mj) & guard != guard or cl % gcd(cj, m) or j == i or j == l:
            continue
        for side in ((i, j) if i < j else (j, i), (l, j) if l < j else (j, l)):
            if side in done:
                continue
            q = queued_lcm.get(side)
            if (q is None or q == lcm_term or (top - q[0]) & guard != guard
                    or cl % gcd(q[1], m)):
                break
        else:
            return True
    return False


def _reduce_basis(G) -> list[ZmPoly]:
    """Drop term-divisible leads, tail-reduce, sort lead-descending."""
    if not G:
        return []
    ring = G[0].ring
    mod = ring.mod
    guard = ring._guard
    # scanning by (monomial, gcd(lc, m)) puts divisor terms first: a proper
    # divisor's gcd is a proper divisor of the other's, associates tie
    ordered = sorted(
        G, key=lambda g: (g._t[0][0], math.gcd(g._t[0][1], mod.m), g._t[0][1])
    )
    kept: list[ZmPoly] = []
    for g in ordered:
        mg, cg = g._t[0]
        top = mg | guard
        if not any((top - h._t[0][0]) & guard == guard
                   and mod.divides(h._t[0][1], cg) for h in kept):
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        reduced = ZmPoly._canonical(ring, g._t[:1]) + rednf_ring(g.tail(), others)
        out.append(reduced)
    return sorted(out, key=lambda g: g._t[0], reverse=True)
