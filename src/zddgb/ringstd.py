"""Standard bases for polynomial ideals over Z/m.

Z/m is weak factorial, and in Z/m the ideal (a) equals (gcd(a, m)): the
coefficient arithmetic (divisibility, lcm, annihilators, exact division)
is integer gcd arithmetic, with no factorization of m.  Buchberger's
loop gains extended s-polynomials (annihilator multiples) and a zero-divisor
criterion on top of the classical product and chain criteria.  Polynomials
are sorted term lists with integer exponent vectors; orderings are global
(lex or degree-lex), with variable index 0 the largest.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
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


# -- orderings and polynomials ------------------------------------------------


# exponent-vector sort keys of the global orderings, variable 0 the largest
_SORT_KEYS = {"lp": tuple, "dlex": lambda exps: (sum(exps), exps)}


class ZmRing:
    """Z/m[x_1..x_n] with a global ordering, "lp" (lex) or "dlex"."""

    def __init__(self, m: int, names, ordering: str = "lp"):
        try:
            self.sort_key = _SORT_KEYS[ordering]
        except KeyError:
            raise ValueError(f"unsupported ring ordering {ordering!r}") from None
        self.mod = Modulus(m)
        self.names = list(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        self.n = len(self.names)
        self._index = {nm: i for i, nm in enumerate(self.names)}

    @property
    def m(self) -> int:
        return self.mod.m

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
        src = "".join(text.split())
        if not src:
            raise ValueError("empty polynomial text")
        terms = []
        for sign, chunk in re.findall(r"([+-]|^)([^+-]*)", src):
            if not chunk:
                raise ValueError(f"dangling {sign!r} in {text!r}")
            coef = -1 if sign == "-" else 1
            exps = [0] * self.n
            for factor in chunk.split("*"):
                name, caret, exp = factor.partition("^")
                if caret and not re.fullmatch(r"\d+", exp):
                    raise ValueError(f"'^' needs an exponent >= 0 in {text!r}")
                e = int(exp) if caret else 1
                if re.fullmatch(r"\d+", name):
                    coef *= pow(int(name), e, self.m)
                elif name in self._index:
                    exps[self._index[name]] += e
                elif not name and "*" in chunk:
                    raise ValueError(f"dangling '*' in {text!r}")
                else:
                    raise ValueError(f"unknown variable {name!r}")
            terms.append((tuple(exps), coef))
        return ZmPoly(self, terms)

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


def _mon_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(operator.le, a, b))


def _mon_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def _mon_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.sub, a, b))


class ZmPoly:
    """Term list sorted strictly descending; no zero coefficients.

    `ZmPoly(ring, terms)` canonicalizes arbitrary input.  The arithmetic
    below keeps term lists sorted without re-sorting: both orderings are
    monomial orderings, so multiplying by a term or a scalar preserves the
    order, and sums are merges of two sorted lists.
    """

    __slots__ = ("ring", "terms", "_ecart")

    def __init__(self, ring: ZmRing, terms):
        m = ring.m
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in terms:
            c = (acc.get(exps, 0) + c) % m
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
        key = ring.sort_key
        self.ring = ring
        self.terms = tuple(
            (e, acc[e]) for e in sorted(acc, key=key, reverse=True)
        )
        self._ecart = None

    @classmethod
    def _canonical(cls, ring: ZmRing, terms: tuple) -> "ZmPoly":
        """Wrap terms that are already sorted, reduced and nonzero."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._ecart = None
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZmPoly)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.terms))

    def lt(self) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0]

    def lm(self) -> tuple[int, ...]:
        return self.lt()[0]

    def lc(self) -> int:
        return self.lt()[1]

    def tail(self) -> "ZmPoly":
        return ZmPoly._canonical(self.ring, self.terms[1:])

    def deg(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e, _ in self.terms)

    def ecart(self) -> int:
        """deg(f) - deg(lm(f)); guides reducer choice in the normal form."""
        if self._ecart is None:
            self._ecart = self.deg() - sum(self.lm()) if self.terms else 0
        return self._ecart

    def __add__(self, other: "ZmPoly") -> "ZmPoly":
        return self._merge(other, 1)

    def __sub__(self, other: "ZmPoly") -> "ZmPoly":
        return self._merge(other, -1)

    def _merge(self, other: "ZmPoly", sign: int) -> "ZmPoly":
        """self + sign * other by merging the two sorted term lists.  Under
        lp the sort key is the exponent tuple itself, compared directly."""
        ring = self.ring
        m = ring.m
        key = ring.sort_key
        lex = key is tuple
        s, t = self.terms, other.terms
        out = []
        i = j = 0
        while i < len(s) and j < len(t):
            (e, c), (f, d) = s[i], t[j]
            if e == f:
                c = (c + sign * d) % m
                if c:
                    out.append((e, c))
                i += 1
                j += 1
            elif e > f if lex else key(e) > key(f):
                out.append(s[i])
                i += 1
            else:
                out.append((f, sign * d % m))
                j += 1
        out += s[i:]
        out += [(f, sign * d % m) for f, d in t[j:]]
        return ZmPoly._canonical(ring, tuple(out))

    def mul_term(self, exps: tuple[int, ...], coef: int) -> "ZmPoly":
        m = self.ring.m
        add = operator.add
        out = []
        for e, c in self.terms:
            c = c * coef % m
            if c:
                out.append((tuple(map(add, e, exps)), c))
        return ZmPoly._canonical(self.ring, tuple(out))

    def __mul__(self, other: "ZmPoly") -> "ZmPoly":
        add = operator.add
        out = []
        for e, c in self.terms:
            for e2, c2 in other.terms:
                out.append((tuple(map(add, e, e2)), c * c2))
        return ZmPoly(self.ring, out)

    def scale(self, c: int) -> "ZmPoly":
        return self.mul_term((0,) * self.ring.n, c)

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
        if not self.terms:
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
    mod = f.ring.mod
    (mf, cf), (mg, cg) = f.lt(), g.lt()
    cl = mod.lcm(cf, cg)
    ml = _mon_lcm(mf, mg)
    qf = mod.div_exact(cl, cf)
    qg = mod.div_exact(cl, cg)
    return f.mul_term(_mon_div(ml, mf), qf) - g.mul_term(_mon_div(ml, mg), qg)


def spoly_extended(f: ZmPoly) -> ZmPoly:
    """Annihilator multiple of f: ann(lc f) * f."""
    if f.is_zero():
        raise ValueError("s-polynomial needs a nonzero input")
    return f.scale(f.ring.mod.ann_generator(f.lc()))


# -- normal form ------------------------------------------------------------------


def nf_ring(f: ZmPoly, G) -> ZmPoly:
    """Polynomial weak normal form: the result is 0 or has its leading term
    outside the leading ideal of the reducer set.

    The reducers are ordered once by ecart, ties by position in G, and
    each one's lead monomial and coefficient are read once per call.  Each
    step hands the lead coefficients of the reducers whose lead divides
    lm(f), in that order, to one `solve_lead` call: a single divisor of
    least ecart when there is one, else a combination over the shortest
    ecart prefix that solves.  The orderings are global, so the lead falls
    strictly at every step; Mora's device of appending the remainder to
    the reducers is not needed, since no later lead could be its multiple.
    """
    mod = f.ring.mod
    le, sub = operator.le, operator.sub
    # (lead monomial, lead coefficient, reducer), nonzero reducers by ecart
    T = [(*g.terms[0], g)
         for g in sorted((g for g in G if g.terms), key=ZmPoly.ecart)]
    while f.terms:
        mf, cf = f.terms[0]
        cands = [t for t in T if all(map(le, t[0], mf))]
        if not cands:
            return f
        sol = solve_lead(mod, cf, [c for _, c, _ in cands])
        if sol is None:
            return f
        for (mg, _, g), x in zip(cands, sol):
            if x:
                f = f - g.mul_term(tuple(map(sub, mf, mg)), x)
    return f


def rednf_ring(f: ZmPoly, G) -> ZmPoly:
    """Tail-reduced normal form: weak NF applied to every remaining term."""
    kept = []
    while True:
        f = nf_ring(f, G)
        if f.is_zero():
            return ZmPoly._canonical(f.ring, tuple(kept))
        kept.append(f.lt())
        f = f.tail()


# -- criteria -----------------------------------------------------------------------


def product_criterion_ring(f: ZmPoly, g: ZmPoly) -> bool:
    """Coprime lead monomials and both lead coefficients units."""
    mod = f.ring.mod
    (mf, cf), (mg, cg) = f.terms[0], g.terms[0]
    if not (mod.is_unit(cf) and mod.is_unit(cg)):
        return False
    return all(a == 0 or b == 0 for a, b in zip(mf, mg))


def _term_divides(mod: Modulus, t1: tuple, t2: tuple) -> bool:
    """Term divisibility: monomial divides and coefficient divides."""
    (m1, c1), (m2, c2) = t1, t2
    return _mon_divides(m1, m2) and mod.divides(c1, c2)


def _lcm_term(mod: Modulus, t1: tuple, t2: tuple) -> tuple:
    """Lcm of two terms: lcm of the monomials with lcm of the coefficients."""
    (m1, c1), (m2, c2) = t1, t2
    return (_mon_lcm(m1, m2), mod.lcm(c1, c2))


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
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    sort_key = ring.sort_key
    strategy = strategy or RingStrategy()
    mod = ring.mod

    G: list[ZmPoly] = []
    queue: list = []
    done: set[tuple[int, int]] = set()
    queued_lcm: dict[tuple[int, int], tuple] = {}
    counter = 0

    def add(h: ZmPoly) -> bool:
        """Append h to G and queue its pairs; True, with nothing queued,
        when h is a unit constant."""
        # queue entries (key, a, b): the pair (a, b) with a < b, or the
        # annihilator s-polynomial of G[a] when b is None
        nonlocal counter
        idx = len(G)
        G.append(h)
        lt = h.terms[0]
        if not any(lt[0]) and mod.is_unit(lt[1]):
            return True
        for j in range(idx):
            mon, coef = queued_lcm[(j, idx)] = _lcm_term(mod, G[j].terms[0], lt)
            counter += 1
            heapq.heappush(queue, ((sort_key(mon), coef, counter), j, idx))
        counter += 1
        heapq.heappush(queue, ((sort_key(lt[0]), 0, counter), idx, None))
        return False

    for f in gens:
        h = nf_ring(f, G)
        if h.terms and add(h):
            return _reduce_basis(G)

    while queue:
        _, a, b = heapq.heappop(queue)
        if b is None:
            s = spoly_extended(G[a])
        else:
            queued_lcm.pop((a, b), None)
            f, g = G[a], G[b]
            if strategy.product_criterion and product_criterion_ring(f, g):
                done.add((a, b))
                continue
            if strategy.zero_criterion and zero_criterion(
                mod, f.terms[0][1], g.terms[0][1]
            ):
                continue
            if strategy.chain_criterion and _chain_drop(
                mod, G, a, b, done, queued_lcm
            ):
                continue
            s = spoly_ring(f, g)
            done.add((a, b))
        if s.is_zero():
            continue
        h = nf_ring(s, G)
        if h.terms and add(h):
            return _reduce_basis(G)

    return _reduce_basis(G)


def _chain_drop(mod, G, i, l, done, queued_lcm) -> bool:
    """Some lt(G[j]) divides the lcm term of (i, l), and each of the pairs
    (i, j) and (j, l) is done or queued with a properly smaller lcm term."""
    lcm_term = _lcm_term(mod, G[i].terms[0], G[l].terms[0])
    ml, cl = lcm_term
    le = operator.le
    for j, g in enumerate(G):
        mj, cj = g.terms[0]
        if (j == i or j == l or not all(map(le, mj, ml))
                or not mod.divides(cj, cl)):
            continue
        if all(
            side in done
            or (
                (q := queued_lcm.get(side)) is not None
                and q != lcm_term
                and _term_divides(mod, q, lcm_term)
            )
            for side in ((min(i, j), max(i, j)), (min(l, j), max(l, j)))
        ):
            return True
    return False


def _reduce_basis(G) -> list[ZmPoly]:
    """Drop term-divisible leads, tail-reduce, sort lead-descending."""
    if not G:
        return []
    ring = G[0].ring
    sort_key = ring.sort_key
    mod = ring.mod
    # scanning by (monomial, gcd(lc, m)) puts divisor terms first: a proper
    # divisor's gcd is a proper divisor of the other's, associates tie
    ordered = sorted(
        G, key=lambda g: (sort_key(g.lm()), math.gcd(g.lc(), mod.m), g.lc())
    )
    kept: list[ZmPoly] = []
    for g in ordered:
        if not any(_term_divides(mod, h.lt(), g.lt()) for h in kept):
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        reduced = ZmPoly(ring, (g.lt(),)) + rednf_ring(g.tail(), others)
        out.append(reduced)
    return sorted(out, key=lambda g: (sort_key(g.lm()), g.lc()), reverse=True)
