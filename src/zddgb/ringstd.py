"""Standard bases for polynomial ideals over Z/m.

Z/m is weak factorial: divisibility of residues is governed by the
componentwise order on valuation vectors over the primes of m.  Buchberger's
loop gains extended s-polynomials (annihilator multiples) and a zero-divisor
criterion on top of the classical product and chain criteria.  Polynomials
are sorted term lists with integer exponent vectors; orderings are global
(lex or degree-lex), with variable index 0 the largest.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division (moduli here are small)."""
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


# Coefficient arithmetic is memoized per modulus, keyed by (m, residues):
# a standard basis computation asks the same few questions of the same few
# lead coefficients many times.  The caches hold one entry per residue (or
# residue pair) actually seen.


@lru_cache(maxsize=None)
def _nu(m: int, a: int) -> tuple[int, ...]:
    out = []
    for p, e in factorize(m):
        if a == 0:
            out.append(e)
            continue
        v, x = 0, a
        while v < e and x % p == 0:
            x //= p
            v += 1
        out.append(v)
    return tuple(out)


def _full_core(m: int, nu) -> int:
    """Product of p^nu_p, not reduced mod m."""
    c = 1
    for (p, _), v in zip(factorize(m), nu):
        c *= p**v
    return c


@lru_cache(maxsize=None)
def _unit_normalize(m: int, a: int) -> tuple[int, int]:
    core = _full_core(m, _nu(m, a))
    n = a // core
    # u = n + (m / core) * prod of primes not dividing n
    bump = 1
    for p, _ in factorize(m):
        if n % p != 0:
            bump *= p
    u = (n + (m // core) * bump) % m
    if math.gcd(u, m) != 1 or (u * core - a) % m != 0:
        raise AssertionError("unit normalization failed; modulus bug")
    return u, core % m


@lru_cache(maxsize=None)
def _divides(m: int, a: int, b: int) -> bool:
    return all(map(operator.le, _nu(m, a), _nu(m, b)))


@lru_cache(maxsize=None)
def _lcm(m: int, *vals: int) -> int:
    nus = [_nu(m, a) for a in vals]
    return _full_core(m, tuple(map(max, zip(*nus)))) % m


@lru_cache(maxsize=None)
def _div_exact(m: int, a: int, b: int) -> int:
    if not _divides(m, b, a):
        raise ValueError(f"{b} does not divide {a} mod {m}")
    u, core = _unit_normalize(m, b)
    if core == 0:  # b = 0, so b | a forces a = 0
        return 0
    return pow(u, -1, m) * a % m // core


@dataclass(frozen=True)
class Modulus:
    """m >= 2 together with its prime factorization."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")

    @property
    def primes(self) -> tuple[tuple[int, int], ...]:
        return factorize(self.m)

    def nu(self, a: int) -> tuple[int, ...]:
        """Capped valuation vector: min(v_p(a), e_p) per prime of m."""
        return _nu(self.m, a % self.m)

    def core(self, nu: tuple[int, ...]) -> int:
        """Product of p^nu_p, reduced mod m."""
        return _full_core(self.m, nu) % self.m

    def is_unit(self, a: int) -> bool:
        return math.gcd(a % self.m, self.m) == 1

    def unit_normalize(self, a: int) -> tuple[int, int]:
        """(u, core) with u a unit and u * core = a mod m."""
        return _unit_normalize(self.m, a % self.m)

    def divides(self, a: int, b: int) -> bool:
        """a | b in Z/m, equivalently nu(a) <= nu(b) componentwise."""
        m = self.m
        return _divides(m, a % m, b % m)

    def gcd(self, *vals: int) -> int:
        nus = [self.nu(v) for v in vals]
        return self.core(tuple(min(col) for col in zip(*nus)))

    def lcm(self, *vals: int) -> int:
        m = self.m
        return _lcm(m, *[v % m for v in vals])

    def ann_generator(self, a: int) -> int:
        """Generator of {x : a*x = 0}, namely prod p^(e - nu_p(a))."""
        nu = self.nu(a)
        g = 1
        for (p, e), v in zip(self.primes, nu):
            g *= p ** (e - v)
        return g % self.m

    def div_exact(self, a: int, b: int) -> int:
        """Some x with b*x = a mod m; requires b | a."""
        m = self.m
        return _div_exact(m, a % m, b % m)


def solve_lead(mod: Modulus, c: int, coeffs) -> list[int] | None:
    """Coefficients x_i with sum x_i * coeffs[i] = c mod m, or None.

    Prefers a single divisor when one exists; otherwise an extended-gcd
    combination.  Solvable iff gcd(coeffs, m) divides c.
    """
    coeffs = list(coeffs)
    for i, a in enumerate(coeffs):
        if mod.divides(a, c):
            out = [0] * len(coeffs)
            out[i] = mod.div_exact(c, a)
            return out
    g = mod.m
    us: list[int] = []
    for a in coeffs:
        g2, u, v = _ext_gcd(g, a)
        us = [x * u % mod.m for x in us] + [v % mod.m]
        g = g2
    if c % g != 0:
        return None
    scale = (c // g) % mod.m
    return [x * scale % mod.m for x in us]


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


# -- orderings and polynomials ------------------------------------------------


RLEX = "lp"
RDLEX = "dlex"


@dataclass(frozen=True)
class RingOrdering:
    """Global monomial ordering on exponent vectors: lex or degree-lex."""

    kind: str = RLEX

    def __post_init__(self):
        if self.kind not in (RLEX, RDLEX):
            raise ValueError(f"unsupported ring ordering {self.kind!r}")

    def sort_key(self, exps: tuple[int, ...]):
        if self.kind == RLEX:
            return exps
        return (sum(exps), exps)


class ZmRing:
    """Z/m[x_1..x_n] with a global ordering."""

    def __init__(self, m: int, names, ordering: RingOrdering | str = RLEX):
        if isinstance(ordering, str):
            ordering = RingOrdering(ordering)
        self.mod = Modulus(m)
        self.names = list(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        self.n = len(self.names)
        self.ordering = ordering
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

    def var(self, v, exp: int = 1, coef: int = 1) -> "ZmPoly":
        if isinstance(v, str):
            v = self._index[v]
        e = [0] * self.n
        e[v] = exp
        return ZmPoly(self, ((tuple(e), coef),))

    def parse(self, text: str) -> "ZmPoly":
        """Parse e.g. "2*x^2*y - 3 + x"; coefficients reduce mod m."""
        text = text.replace("-", "+-").replace(" ", "")
        if not text:
            raise ValueError("empty polynomial text")
        terms = []
        for chunk in text.split("+"):
            if not chunk:
                continue
            coef = 1
            if chunk.startswith("-"):
                coef = -1
                chunk = chunk[1:]
            if not chunk:
                raise ValueError("dangling sign")
            exps = [0] * self.n
            for factor in chunk.split("*"):
                name, _, exp = factor.partition("^")
                if re.fullmatch(r"\d+", name):
                    coef *= int(name)
                    continue
                if name not in self._index:
                    raise ValueError(f"unknown variable {name!r}")
                exps[self._index[name]] += int(exp) if exp else 1
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


def _mon_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


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
        key = ring.ordering.sort_key
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
        """self + sign * other by merging the two sorted term lists."""
        ring = self.ring
        m = ring.m
        key = ring.ordering.sort_key
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
            elif key(e) > key(f):
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
        out = []
        for e, c in self.terms:
            c = c * coef % m
            if c:
                out.append((_mon_mul(e, exps), c))
        return ZmPoly._canonical(self.ring, tuple(out))

    def __mul__(self, other: "ZmPoly") -> "ZmPoly":
        out = []
        for e, c in self.terms:
            for e2, c2 in other.terms:
                out.append((_mon_mul(e, e2), c * c2))
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


def nf_ring(f: ZmPoly, G, ordering: RingOrdering | None = None) -> ZmPoly:
    """Polynomial weak normal form: the result is 0 or has its leading term
    outside the leading ideal of the (possibly extended) reducer set.

    Reducers solve the lead-coefficient equation with maximal ecart as small
    as possible; a reducer set with positive maximal ecart appends the
    current remainder to the working set, as the termination proof needs.
    """
    ring = f.ring
    mod = ring.mod
    if ordering is not None and ordering != ring.ordering:
        raise ValueError("polynomials are bound to their ring's ordering")
    T = [g for g in G if not g.is_zero()]
    while not f.is_zero():
        mf, cf = f.lt()
        cands = [
            (g.ecart(), pos, g)
            for pos, g in enumerate(T)
            if _mon_divides(g.terms[0][0], mf)  # T holds nonzero polys only
        ]
        if not cands:
            return f
        cands.sort(key=lambda t: t[:2])
        chosen: list[tuple[ZmPoly, int]] | None = None
        # single divisor first, by minimal ecart then age
        for _, _, g in cands:
            if mod.divides(g.lc(), cf):
                chosen = [(g, mod.div_exact(cf, g.lc()))]
                break
        if chosen is None:
            # smallest ecart-prefix whose coefficient gcd divides lc(f)
            for k in range(1, len(cands) + 1):
                sol = solve_lead(mod, cf, [g.lc() for _, _, g in cands[:k]])
                if sol is not None:
                    chosen = [
                        (g, x)
                        for (_, _, g), x in zip(cands, sol)
                        if x % mod.m
                    ]
                    break
            if chosen is None:
                return f
        if max(g.ecart() for g, _ in chosen) > 0:
            T.append(f)
        for g, x in chosen:
            f = f - g.mul_term(_mon_div(mf, g.lm()), x)
    return f


def rednf_ring(f: ZmPoly, G, ordering: RingOrdering | None = None) -> ZmPoly:
    """Tail-reduced normal form: weak NF applied to every remaining term."""
    out = f.ring.zero
    while not f.is_zero():
        f = nf_ring(f, G, ordering)
        if f.is_zero():
            break
        out = out + ZmPoly(f.ring, (f.lt(),))
        f = f.tail()
    return out


# -- criteria -----------------------------------------------------------------------


def product_criterion_ring(f: ZmPoly, g: ZmPoly) -> bool:
    """Coprime lead monomials and both lead coefficients units."""
    mod = f.ring.mod
    if not (mod.is_unit(f.lc()) and mod.is_unit(g.lc())):
        return False
    return all(a == 0 or b == 0 for a, b in zip(f.lm(), g.lm()))


def _term_divides(mod: Modulus, t1: tuple, t2: tuple) -> bool:
    """Term divisibility: monomial divides and coefficient divides via nu."""
    (m1, c1), (m2, c2) = t1, t2
    return _mon_divides(m1, m2) and mod.divides(c1, c2)


def _lcm_term(mod: Modulus, t1: tuple, t2: tuple) -> tuple:
    """Lcm of two terms: lcm of the monomials with lcm of the coefficients."""
    (m1, c1), (m2, c2) = t1, t2
    return (_mon_lcm(m1, m2), mod.lcm(c1, c2))


def zero_criterion(mod: Modulus, ci: int, cl: int) -> bool:
    """The pair's multiplier of f_i lies in the annihilator syzygy of c_i.

    The multiplier's coefficient is lcm(c_i, c_l)/c_i; the pair is
    superfluous when ann(c_i) divides it (then the other component is
    automatically an annihilator multiple of c_l as well).
    """
    q = mod.div_exact(mod.lcm(ci, cl), ci)
    return mod.divides(mod.ann_generator(ci), q)


# -- the standard basis loop -----------------------------------------------------------


@dataclass
class RingStrategy:
    product_criterion: bool = True
    chain_criterion: bool = True
    zero_criterion: bool = True


def std_basis(gens, ordering: RingOrdering | None = None,
              strategy: RingStrategy | None = None) -> list[ZmPoly]:
    """Standard basis of the ideal of gens over Z/m.

    Every s-polynomial, including the extended annihilator multiples,
    reduces to zero against the result.  Deterministic.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    ordering = ordering or ring.ordering
    strategy = strategy or RingStrategy()
    mod = ring.mod

    G: list[ZmPoly] = []
    queue: list = []
    done: set[tuple[int, int]] = set()
    queued_lcm: dict[tuple[int, int], tuple] = {}
    counter = 0

    def push(kind: str, a: int, b: int):
        nonlocal counter
        counter += 1
        if kind == "pair":
            mon, coef = _lcm_term(mod, G[a].lt(), G[b].lt())
            queued_lcm[(min(a, b), max(a, b))] = (mon, coef)
        else:
            mon, coef = G[a].lm(), 0
        heapq.heappush(
            queue, ((ordering.sort_key(mon), coef, counter), (kind, a, b))
        )

    def add(h: ZmPoly):
        idx = len(G)
        G.append(h)
        for j in range(idx):
            push("pair", j, idx)
        push("ext", idx, idx)

    for f in gens:
        h = nf_ring(f, G, ordering)
        if not h.is_zero():
            add(h)

    while queue:
        _, (kind, a, b) = heapq.heappop(queue)
        if kind == "pair":
            key = (min(a, b), max(a, b))
            queued_lcm.pop(key, None)
            f, g = G[a], G[b]
            if strategy.product_criterion and product_criterion_ring(f, g):
                done.add(key)
                continue
            if strategy.zero_criterion and (
                zero_criterion(mod, f.lc(), g.lc())
                or zero_criterion(mod, g.lc(), f.lc())
            ):
                continue
            if strategy.chain_criterion and _chain_drop(
                mod, G, a, b, done, queued_lcm
            ):
                continue
            s = spoly_ring(f, g)
            done.add(key)
        else:
            s = spoly_extended(G[a])
        if s.is_zero():
            continue
        h = nf_ring(s, G, ordering)
        if not h.is_zero():
            add(h)

    return _reduce_basis(G, ordering)


def _chain_drop(mod, G, i, l, done, queued_lcm) -> bool:
    """Some lt(G[j]) divides the lcm term of (i, l), and each of the pairs
    (i, j) and (j, l) is done or queued with a properly smaller lcm term."""
    lcm_term = _lcm_term(mod, G[i].lt(), G[l].lt())
    for j in range(len(G)):
        if j in (i, l) or not _term_divides(mod, G[j].lt(), lcm_term):
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


def _reduce_basis(G, ordering: RingOrdering) -> list[ZmPoly]:
    """Drop term-divisible leads, tail-reduce, sort lead-descending."""
    if not G:
        return []
    ring = G[0].ring
    mod = ring.mod
    # scanning by (monomial, valuation weight) puts divisor terms first
    ordered = sorted(
        G,
        key=lambda g: (ordering.sort_key(g.lm()), sum(mod.nu(g.lc())), g.lc()),
    )
    kept: list[ZmPoly] = []
    for g in ordered:
        if not any(_term_divides(mod, h.lt(), g.lt()) for h in kept):
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        reduced = ZmPoly(ring, (g.lt(),)) + rednf_ring(g.tail(), others, ordering)
        out.append(reduced)
    return sorted(
        out,
        key=lambda g: (ordering.sort_key(g.lm()), g.lc()),
        reverse=True,
    )


# -- verification helpers ----------------------------------------------------------------


def verify_standard_rep(f: ZmPoly, G, ordering: RingOrdering | None = None) -> bool:
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
