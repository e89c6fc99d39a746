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
        a %= self.m
        out = []
        for p, e in self.primes:
            if a == 0:
                out.append(e)
                continue
            v, x = 0, a
            while v < e and x % p == 0:
                x //= p
                v += 1
            out.append(v)
        return tuple(out)

    def core(self, nu: tuple[int, ...]) -> int:
        """Product of p^nu_p, reduced mod m."""
        c = 1
        for (p, _), v in zip(self.primes, nu):
            c *= p**v
        return c % self.m

    def is_unit(self, a: int) -> bool:
        return math.gcd(a % self.m, self.m) == 1

    def unit_normalize(self, a: int) -> tuple[int, int]:
        """(u, core) with u a unit and u * core = a mod m."""
        a %= self.m
        nu = self.nu(a)
        core_int = 1
        for (p, _), v in zip(self.primes, nu):
            core_int *= p**v
        n = a // core_int
        # u = n + (m / core) * prod of primes with e > 0 not dividing n
        bump = 1
        for p, e in self.primes:
            if e > 0 and n % p != 0:
                bump *= p
        u = (n + (self.m // core_int) * bump) % self.m
        if not self.is_unit(u) or (u * core_int - a) % self.m != 0:
            raise AssertionError("unit normalization failed; modulus bug")
        return u, core_int % self.m

    def inverse(self, u: int) -> int:
        return pow(u % self.m, -1, self.m)

    def divides(self, a: int, b: int) -> bool:
        """a | b in Z/m, equivalently nu(a) <= nu(b) componentwise."""
        na, nb = self.nu(a), self.nu(b)
        return all(x <= y for x, y in zip(na, nb))

    def gcd(self, *vals: int) -> int:
        nus = [self.nu(v) for v in vals]
        return self.core(tuple(min(col) for col in zip(*nus)))

    def lcm(self, *vals: int) -> int:
        nus = [self.nu(v) for v in vals]
        return self.core(tuple(max(col) for col in zip(*nus)))

    def ann_generator(self, a: int) -> int:
        """Generator of {x : a*x = 0}, namely prod p^(e - nu_p(a))."""
        nu = self.nu(a)
        g = 1
        for (p, e), v in zip(self.primes, nu):
            g *= p ** (e - v)
        return g % self.m

    def div_exact(self, a: int, b: int) -> int:
        """Some x with b*x = a mod m; requires b | a."""
        if not self.divides(b, a):
            raise ValueError(f"{b} does not divide {a} mod {self.m}")
        u, core = self.unit_normalize(b)
        if core == 0:
            return 0 if a % self.m == 0 else _raise_div(a, b)
        r = (self.inverse(u) * a) % self.m
        return (r // core) % self.m


def _raise_div(a, b):
    raise ValueError(f"{b} does not divide {a}")


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
    return tuple(x + y for x, y in zip(a, b))


def _mon_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mon_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mon_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


class ZmPoly:
    """Term list sorted strictly descending; no zero coefficients."""

    __slots__ = ("ring", "terms")

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
        return ZmPoly(self.ring, self.terms[1:])

    def deg(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e, _ in self.terms)

    def ecart(self) -> int:
        """deg(f) - deg(lm(f)); guides reducer choice in the normal form."""
        if not self.terms:
            return 0
        return self.deg() - sum(self.lm())

    def __add__(self, other: "ZmPoly") -> "ZmPoly":
        return ZmPoly(self.ring, self.terms + other.terms)

    def __sub__(self, other: "ZmPoly") -> "ZmPoly":
        neg = tuple((e, -c) for e, c in other.terms)
        return ZmPoly(self.ring, self.terms + neg)

    def mul_term(self, exps: tuple[int, ...], coef: int) -> "ZmPoly":
        return ZmPoly(
            self.ring,
            tuple((_mon_mul(e, exps), c * coef) for e, c in self.terms),
        )

    def __mul__(self, other: "ZmPoly") -> "ZmPoly":
        out = []
        for e, c in self.terms:
            for e2, c2 in other.terms:
                out.append((_mon_mul(e, e2), c * c2))
        return ZmPoly(self.ring, out)

    def scale(self, c: int) -> "ZmPoly":
        return ZmPoly(self.ring, tuple((e, c * x) for e, x in self.terms))

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
            if _mon_divides(g.lm(), mf)
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


def chain_criterion_ring(mod: Modulus, lt_i: tuple, lt_j: tuple,
                         lt_l: tuple) -> bool:
    """Middle lead term divides the lcm term of the outer pair."""
    (mi, ci), (ml, cl) = lt_i, lt_l
    lcm_term = (_mon_lcm(mi, ml), mod.lcm(ci, cl))
    return _term_divides(mod, lt_j, lcm_term)


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

    def lcm_term(i: int, j: int):
        (mi, ci), (mj, cj) = G[i].lt(), G[j].lt()
        return (_mon_lcm(mi, mj), mod.lcm(ci, cj))

    def push(kind: str, a: int, b: int):
        nonlocal counter
        counter += 1
        if kind == "pair":
            mon, coef = lcm_term(a, b)
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
    lt_i, lt_l = G[i].lt(), G[l].lt()
    lcm_mon = _mon_lcm(lt_i[0], lt_l[0])
    lcm_coef = mod.lcm(lt_i[1], lt_l[1])
    for j in range(len(G)):
        if j in (i, l):
            continue
        if not chain_criterion_ring(mod, lt_i, G[j].lt(), lt_l):
            continue
        ok = True
        for side in ((min(i, j), max(i, j)), (min(l, j), max(l, j))):
            if side in done:
                continue
            q = queued_lcm.get(side)
            if q is None:
                ok = False
                break
            mon, coef = q
            properly_smaller = (
                _mon_divides(mon, lcm_mon)
                and mod.divides(coef, lcm_coef)
                and (mon, coef) != (lcm_mon, lcm_coef)
            )
            if not properly_smaller:
                ok = False
                break
        if ok:
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
