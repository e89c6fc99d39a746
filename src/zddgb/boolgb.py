"""Buchberger-style Groebner bases in the Boolean ring.

The field relations x*x = x are never materialized: every product is a
Boolean product, and each generator g additionally spawns "field pairs"
(g, v) whose s-polynomial reduces (mod the field ideal) to x_v * g.  A
cache of single-polynomial bases exploits the symmetry of the orderings:
a polynomial is stripped of its linear-lead factors, shifted onto the
first variables and looked up; a hit skips whole families of critical
pairs and often injects low-degree elements early.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .boolpoly import (
    BoolPoly,
    BoolRing,
    OrderingError,
    _lead_vars,
    _mul,
    _nf_mon,
    deg,
    eval_poly,
    lead_vars,
    mul_monomial,
)
from .interp import PointSet, zeros
from .zdd import ONE, ZERO, ZddManager


@dataclass
class Strategy:
    """Criteria toggles and caching knobs for the Buchberger loop."""

    product_criterion: bool = True
    chain_criterion: bool = True
    linear_lead_criterion: bool = True
    sugar: bool = True
    symmetry_cache: bool = True


def weighted_length(f: BoolPoly) -> int:
    """Sum over terms of (1 + deg t); monotone in count and degree."""
    count, degrees = _wlen(f.ring.manager, f.z)
    return count + degrees


def _wlen(man: ZddManager, z: int) -> tuple[int, int]:
    """(number of terms, sum of term degrees) of z, cached per node."""
    if z <= ONE:
        return z, 0
    cache = man._wlen
    r = cache.get(z)
    if r is None:
        ct, dt = _wlen(man, man._then[z])
        ce, de = _wlen(man, man._else[z])
        # every term of the then-branch gains the node's variable
        r = cache[z] = (ct + ce, dt + ct + de)
    return r


# -- normal form ---------------------------------------------------------------


class _ReductionTable:
    """Leads of a reductor set plus pick-the-cheapest bookkeeping."""

    __slots__ = ("ring", "lead_set", "by_lead")

    def __init__(self, ring: BoolRing):
        self.ring = ring
        self.lead_set = ZERO
        # lead vars (ascending, as lead_vars returns them) -> (rank, poly zdd id)
        self.by_lead: dict[tuple[int, ...], tuple] = {}

    def add(self, g: BoolPoly, lead_vars: tuple[int, ...]) -> None:
        rank = (weighted_length(g), g.z)
        prev = self.by_lead.get(lead_vars)
        if prev is None:
            self.by_lead[lead_vars] = (rank, g.z)
            man = self.ring.manager
            self.lead_set = man.union(self.lead_set, man.singleton(lead_vars))
        elif prev[0] > rank:
            self.by_lead[lead_vars] = (rank, g.z)

    def replace(self, g: BoolPoly, lead_vars: tuple[int, ...]) -> None:
        """Make g the reductor of its lead, which is already in the table."""
        self.by_lead[lead_vars] = ((weighted_length(g), g.z), g.z)

    def reduce(self, fz: int, lead_set: int | None = None) -> int:
        """Reduced normal form of the polynomial with term set fz, against
        the reductors whose leads lie in lead_set (default: all)."""
        if lead_set is None:
            lead_set = self.lead_set
        if lead_set == ZERO:
            return fz
        man = self.ring.manager
        by_lead = self.by_lead
        ordering = self.ring.ordering
        # dropping the terms a lead divides commutes with +, so f is split
        # into irreducible and reducible terms once; after that only each
        # step's product is split, never the whole of the growing fz
        result = _nf_mon(man, fz, lead_set)
        fz = man.symmetric_diff(fz, result)
        while fz != ZERO:
            # invariant: every term of fz is divisible by some lead
            m = _lead_vars(man, fz, ordering)
            hits = man.divisors_within(lead_set, man.singleton(m))
            g_lead = min(man.iter_paths(hits), key=by_lead.__getitem__)
            gz = by_lead[g_lead][1]
            q = fz
            for v in g_lead:
                q = man.subset1(q, v)
            p = _mul(man, q, gz)
            irreducible = _nf_mon(man, p, lead_set)
            if irreducible != ZERO:
                result = man.symmetric_diff(result, irreducible)
                p = man.symmetric_diff(p, irreducible)
            fz = man.symmetric_diff(fz, p)
        return result


def greedy_nf(f: BoolPoly, G) -> BoolPoly:
    """Reduced normal form of f against the polynomials G.

    Each step cancels *every* term divisible by the chosen reductor's lead
    at once; irreducible terms move to the result in bulk.  The result
    contains no term divisible by any lead of G, and f minus the result
    lies in the ideal of G plus the field ideal.
    """
    ring = f.ring
    table = _ReductionTable(ring)
    for g in G:
        if not g.is_zero():
            table.add(g, lead_vars(g))
    return BoolPoly(ring, table.reduce(f.z))


# -- criteria -------------------------------------------------------------------


def linear_lead_criterion(f: BoolPoly, v: int) -> bool:
    """True when f = l * g with lead(l) = x_v, detected as a factor x_v or
    x_v + 1; the field pair (f, v) is then superfluous."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    man = f.ring.manager
    s1 = man.subset1(f.z, v)
    s0 = man.subset0(f.z, v)
    return (s0 == ZERO and s1 != ZERO) or (s1 != ZERO and s1 == s0)


# -- linear-lead factors and symmetry ---------------------------------------------


def factor_linear_leads(p: BoolPoly) -> tuple[list[BoolPoly], BoolPoly]:
    """Greedy extraction of factors x_v and x_v + 1, ascending by index.

    Returns (factors, core) with p equal to the Boolean product of both
    parts and the core admitting no further such factor.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    ring = p.ring
    man = ring.manager
    factors: list[BoolPoly] = []
    z = p.z
    changed = True
    while changed and z > ONE:
        changed = False
        for v in man.support(z):
            s1 = man.subset1(z, v)
            s0 = man.subset0(z, v)
            if s0 == ZERO:
                factors.append(ring.var(v))
                z = s1
                changed = True
                break
            if s1 == s0:
                factors.append(ring.var(v) + ring.one)
                z = s1
                changed = True
                break
    return factors, BoolPoly(ring, z)


def suitable_shift(p: BoolPoly):
    """Relabel p's variables order-preservingly onto x_0..x_{k-1}.

    Returns (shifted polynomial, mapping old index -> new index).  Only a
    symmetric ordering keeps monomial comparisons intact under the shift.
    """
    if not p.ring.ordering.is_symmetric:
        raise OrderingError("variable shifts need a symmetric ordering")
    mapping = {v: i for i, v in enumerate(p.vars_of())}
    man = p.ring.manager
    memo: dict[int, int] = {}

    def go(z: int) -> int:
        if z <= ONE:
            return z
        r = memo.get(z)
        if r is None:
            r = man.mk_node(
                mapping[man.top(z)], go(man.then_branch(z)), go(man.else_branch(z))
            )
            memo[z] = r
        return r

    return BoolPoly(p.ring, go(p.z)), mapping


class SymCache:
    """Cache of single-polynomial Boolean Groebner bases.

    Keys are the ordering and the term list of a shifted, factor-stripped
    core; values are term lists of the reduced basis in shifted variables.
    """

    def __init__(self):
        self.table: dict = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(core: BoolPoly):
        return (str(core.ring.ordering), tuple(sorted(core.terms())))


# cache misses above this core size are not worth a nested basis run
SYMCACHE_VAR_LIMIT = 10


def _single_worthwhile(h: BoolPoly, cache: SymCache) -> bool:
    factors, core = factor_linear_leads(h)
    if core.is_one() or len(core.vars_of()) <= SYMCACHE_VAR_LIMIT:
        return True
    shifted, _ = suitable_shift(core)
    return SymCache.key(shifted) in cache.table


def bgb_single(p: BoolPoly, cache: SymCache | None = None) -> list[BoolPoly]:
    """Reduced Boolean Groebner basis of the ideal of a single polynomial.

    Linear-lead factors are pulled out first, the core is shifted onto the
    first variables and looked up in the cache; the basis found there is
    shifted back and multiplied by the factors again.
    """
    ring = p.ring
    if not ring.ordering.is_symmetric:
        raise OrderingError("bgb_single needs a symmetric ordering")
    if p.is_zero():
        return []
    factors, core = factor_linear_leads(p)
    if core.is_one():
        basis = [ring.one]
    else:
        shifted, mapping = suitable_shift(core)
        key = SymCache.key(shifted)
        stored = cache.table.get(key) if cache is not None else None
        if stored is None:
            if cache is not None:
                cache.misses += 1
            sub = buchberger([shifted], Strategy(symmetry_cache=False))
            stored = [sorted(g.terms()) for g in sub]
            if cache is not None:
                cache.table[key] = stored
        elif cache is not None:
            cache.hits += 1
        back = {new: old for old, new in mapping.items()}
        basis = [
            ring.from_terms(tuple(back[v] for v in t) for t in term_list)
            for term_list in stored
        ]
    for l in factors:
        basis = [q * l for q in basis]
    basis = [q for q in basis if not q.is_zero()]
    return sorted(
        basis, key=lambda q: ring.ordering.sort_key(lead_vars(q)), reverse=True
    )


# -- state ------------------------------------------------------------------------


class GBState:
    """Mutable state of one Buchberger run, and its one pair manager.

    Every pair criterion is decided here, when a pair is made: generator
    pairs by Gebauer-Moeller selection and the product criterion, field
    pairs (g, x_v) by the product criterion (v in lead(g)) and the
    linear-lead criterion, and queued pairs are pruned by each new lead.
    The queue therefore holds only pairs that must be reduced.
    """

    def __init__(self, ring: BoolRing, strategy: Strategy):
        self.sort_key = ring.ordering.sort_key
        self.strategy = strategy
        self.gens: list[BoolPoly] = []
        self.lead_fsets: list[frozenset] = []
        self.table = _ReductionTable(ring)
        self.queue: list = []
        self.counter = 0

    def push(self, kind: str, a: int, b: int, lcm_vars, sugar: int):
        key_mon = tuple(sorted(lcm_vars))
        primary = sugar if self.strategy.sugar else 0
        self.counter += 1
        heapq.heappush(
            self.queue,
            ((primary, self.sort_key(key_mon), self.counter),
             (kind, a, b, frozenset(lcm_vars))),
        )

    def prune_old_pairs(self, lm_new: frozenset) -> None:
        """Gebauer-Moeller style: drop queued pairs whose lcm the new lead
        properly mediates."""
        fsets = self.lead_fsets
        keep = []
        for entry in self.queue:
            kind, a, b, lab = entry[1]
            if kind == "pair" and lm_new <= lab:
                if (fsets[a] | lm_new) != lab and (fsets[b] | lm_new) != lab:
                    continue
            keep.append(entry)
        if len(keep) != len(self.queue):
            self.queue = keep
            heapq.heapify(self.queue)

    def add_generator(self, h: BoolPoly, skip_field_pairs: bool) -> bool:
        """Insert an NF-reduced nonzero h and queue its surviving pairs;
        False once the basis hits {1}."""
        if h.is_one():
            self.gens = [h]
            self.queue.clear()
            return False
        strategy = self.strategy
        fsets = self.lead_fsets
        idx = len(self.gens)
        lm = lead_vars(h)
        self.gens.append(h)
        lm_set = frozenset(lm)
        fsets.append(lm_set)
        self.table.add(h, lm)
        sugar_h = deg(h)

        if strategy.chain_criterion:
            self.prune_old_pairs(lm_set)
        groups: dict[frozenset, list[int]] = {}
        for j in range(idx):
            groups.setdefault(lm_set | fsets[j], []).append(j)
        kept_lcms: list[frozenset] = []

        def coprime(j):
            return not (lm_set & fsets[j])

        # K < L implies len(K) < len(L); the heap key fixes the pop order
        for L in sorted(groups, key=len):
            members = groups[L]
            if strategy.chain_criterion:
                # Gebauer-Moeller: minimal lcms only, one pair per lcm,
                # whole group dropped when one member is coprime
                if any(K < L for K in kept_lcms):
                    continue
                kept_lcms.append(L)
                if strategy.product_criterion and any(map(coprime, members)):
                    continue
                chosen = members[:1]
            else:
                chosen = [
                    j for j in members
                    if not (strategy.product_criterion and coprime(j))
                ]
            for j in chosen:
                sugar = max(
                    sugar_h + len(L) - len(lm),
                    deg(self.gens[j]) + len(L) - len(fsets[j]),
                )
                self.push("pair", j, idx, L, sugar)
        if not skip_field_pairs:
            # product criterion: x_v coprime to lead(h) makes x_v * h redundant
            for v in lm if strategy.product_criterion else h.vars_of():
                if not (strategy.linear_lead_criterion
                        and linear_lead_criterion(h, v)):
                    self.push("field", idx, v, lm_set | {v}, sugar_h + 1)
        return True


# -- the main loop ------------------------------------------------------------------


def buchberger(gens, strategy: Strategy | None = None) -> list[BoolPoly]:
    """Reduced Boolean Groebner basis of the ideal of gens plus the field
    ideal (Boolean part only).

    Deterministic for a fixed strategy and input order.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = gens[0].ring
    strategy = strategy or Strategy()
    symcache = None
    if strategy.symmetry_cache and ring.ordering.is_symmetric:
        symcache = SymCache()

    state = GBState(ring, strategy)

    def insert(h: BoolPoly) -> bool:
        """Reduce h and feed it (or its single-poly basis) into the state."""
        h = BoolPoly(ring, state.table.reduce(h.z))
        if h.is_zero():
            return True
        if (symcache is not None and not h.is_one()
                and _single_worthwhile(h, symcache)):
            basis = bgb_single(h, symcache)
            if len(basis) == 1 and basis[0] == h:
                return state.add_generator(h, skip_field_pairs=True)
            for b in basis:
                br = BoolPoly(ring, state.table.reduce(b.z))
                if br.is_zero():
                    continue
                if not state.add_generator(br, skip_field_pairs=(br == b)):
                    return False
            return True
        return state.add_generator(h, skip_field_pairs=False)

    alive = True
    for f in gens:
        if not f.is_zero():
            alive = insert(f)
            if not alive:
                break

    # every queued pair passed its criteria when it was made
    while alive and state.queue:
        _, (kind, a, b, lcm) = heapq.heappop(state.queue)
        f = state.gens[a]
        if kind == "pair":
            g = state.gens[b]
            s = mul_monomial(
                f, ring.monomial(lcm - state.lead_fsets[a])
            ) + mul_monomial(g, ring.monomial(lcm - state.lead_fsets[b]))
        else:
            s = mul_monomial(f, ring.monomial((b,)))
        if not s.is_zero():
            alive = insert(s)

    return interreduce(state.gens)


def interreduce(basis):
    """Minimal, tail-reduced form of a Boolean basis, sorted lead-descending.

    One reduction pass suffices: no lead of a minimal basis divides
    another, so reducing a tail never changes a lead, and each element
    ends free of every other element's lead.
    """
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    if any(g.is_one() for g in basis):
        return [ring.one]
    key = ring.ordering.sort_key
    kept: list[tuple[frozenset, tuple[int, ...], BoolPoly]] = []
    for lm, g in sorted(((lead_vars(g), g) for g in basis), key=lambda t: key(t[0])):
        lg = frozenset(lm)
        if not any(lh <= lg for lh, _, _ in kept):
            kept.append((lg, lm, g))
    # one table for the pass: each element is reduced against all leads
    # but its own, and its reduced form then replaces it as a reductor
    man = ring.manager
    table = _ReductionTable(ring)
    for _, lm, g in kept:
        table.add(g, lm)
    all_leads = table.lead_set
    polys = []
    for _, lm, g in kept:
        others = man.diff(all_leads, man.singleton(lm))
        h = BoolPoly(ring, table.reduce(g.z, others))
        table.replace(h, lm)
        polys.append(h)
    return polys[::-1]  # the leads are distinct and tail reduction keeps them


# -- satisfiability -------------------------------------------------------------------


def conjunction_generator(gens) -> BoolPoly:
    """The unique Boolean polynomial generating the same ideal as gens
    (with the field relations): 1 + prod(1 + g).

    Short polynomials are multiplied first to keep intermediates small.
    """
    gens = list(gens)
    ring = gens[0].ring
    queue = sorted((len(g + ring.one), i, g + ring.one) for i, g in enumerate(gens))
    factors = [g for _, _, g in queue]
    c = ring.one
    for g in factors:
        c = c * g
        if c.is_zero():
            break
    return ring.one + c


def sat_check(gens, strategy: Strategy | None = None,
              preprocess: str | None = None):
    """Decide solvability of {g = 0 : g in gens} over {0,1}^n.

    Returns ("UNSAT", None) when the basis collapses to {1}; otherwise
    ("SAT", model) with the lex-smallest point of the basis's variety,
    computed by `zeros` over the full cube and verified.  With
    preprocess="conjunction" the system is first collapsed to its unique
    ideal generator by Boolean multiplication, as the benchmark runs do.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("sat_check needs at least one polynomial")
    ring = gens[0].ring
    if preprocess == "conjunction":
        work = [conjunction_generator(gens)]
    elif preprocess is None:
        work = gens
    else:
        raise ValueError(f"unknown preprocess mode {preprocess!r}")
    basis = buchberger(work, strategy)
    if basis and basis[0].is_one():
        return "UNSAT", None
    variety = PointSet.full_cube(ring)
    for g in basis:
        variety = zeros(g, variety)
    model = _lex_min_point(variety)
    for g in gens:
        if eval_poly(g, model) != 0:
            raise AssertionError("witness fails a generator; engine bug")
    return "SAT", model


def _lex_min_point(S: PointSet) -> tuple[int, ...]:
    """The lex-smallest point of the nonempty point set S: the walk takes
    x_i = 0 whenever some point below allows it."""
    ring = S.ring
    man = ring.manager
    assign = [0] * ring.n
    z = S.z
    while z > ONE:
        e = man.else_branch(z)
        if e != ZERO:
            z = e
        else:
            assign[man.top(z)] = 1
            z = man.then_branch(z)
    return tuple(assign)
