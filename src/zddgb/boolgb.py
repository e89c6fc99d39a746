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
    Ordering,
    OrderingError,
    _lead_vars,
    _mul,
    _nf_mon,
    deg,
    eval_poly,
    lead,
    lead_vars,
    mul_monomial,
)
from .interp import PointSet, zeros
from .zdd import ONE, ZERO


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
    return sum(1 + len(t) for t in f.terms())


# -- normal form ---------------------------------------------------------------


class _ReductionTable:
    """Leads of a reductor set plus pick-the-cheapest bookkeeping."""

    __slots__ = ("ring", "lead_set", "by_lead")

    def __init__(self, ring: BoolRing):
        self.ring = ring
        self.lead_set = ZERO
        # lead zdd id -> (rank, poly zdd id, lead vars)
        self.by_lead: dict[int, tuple] = {}

    def add(self, g: BoolPoly, lead_vars: tuple[int, ...]) -> None:
        man = self.ring.manager
        lz = man.singleton(lead_vars)
        rank = (weighted_length(g), g.z)
        prev = self.by_lead.get(lz)
        if prev is None:
            self.by_lead[lz] = (rank, g.z, lead_vars)
            self.lead_set = man.union(self.lead_set, lz)
        elif prev[0] > rank:
            self.by_lead[lz] = (rank, g.z, lead_vars)

    def reduce(self, fz: int, ordering: Ordering) -> int:
        """Reduced normal form of the polynomial with term set fz."""
        man = self.ring.manager
        if not self.by_lead:
            return fz
        result = ZERO
        lead_set = self.lead_set
        while fz != ZERO:
            irreducible = _nf_mon(man, fz, lead_set)
            if irreducible != ZERO:
                result = man.symmetric_diff(result, irreducible)
                fz = man.symmetric_diff(fz, irreducible)
                if fz == ZERO:
                    break
            # every term of fz is now divisible by some lead
            m = _lead_vars(man, fz, ordering)
            hits = man.divisors_within(lead_set, man.singleton(m))
            best = min(
                self.by_lead[man.singleton(t)] for t in man.iter_paths(hits)
            )
            _, gz, g_lead = best
            q = fz
            for v in g_lead:
                q = man.subset1(q, v)
            fz = man.symmetric_diff(fz, _mul(man, q, gz))
        return result


def greedy_nf(f: BoolPoly, G, ordering: Ordering | None = None) -> BoolPoly:
    """Reduced normal form of f against the polynomials G.

    Each step cancels *every* term divisible by the chosen reductor's lead
    at once; irreducible terms move to the result in bulk.  The result
    contains no term divisible by any lead of G, and f minus the result
    lies in the ideal of G plus the field ideal.
    """
    ring = f.ring
    ordering = ordering or ring.ordering
    table = _ReductionTable(ring)
    for g in G:
        if not g.is_zero():
            table.add(g, lead_vars(g, ordering))
    return BoolPoly(ring, table.reduce(f.z, ordering))


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


def suitable_shift(p: BoolPoly, ordering: Ordering | None = None):
    """Relabel p's variables order-preservingly onto x_0..x_{k-1}.

    Returns (shifted polynomial, mapping old index -> new index).  Only a
    symmetric ordering keeps monomial comparisons intact under the shift.
    """
    ordering = ordering or p.ring.ordering
    if not ordering.is_symmetric:
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
    def key(core: BoolPoly, ordering: Ordering):
        return (str(ordering), tuple(sorted(core.terms())))


# cache misses above this core size are not worth a nested basis run
SYMCACHE_VAR_LIMIT = 10


def _single_worthwhile(h: BoolPoly, cache: SymCache, ordering: Ordering) -> bool:
    factors, core = factor_linear_leads(h)
    if core.is_one() or len(core.vars_of()) <= SYMCACHE_VAR_LIMIT:
        return True
    shifted, _ = suitable_shift(core, ordering)
    return SymCache.key(shifted, ordering) in cache.table


def bgb_single(p: BoolPoly, ordering: Ordering | None = None,
               cache: SymCache | None = None) -> list[BoolPoly]:
    """Reduced Boolean Groebner basis of the ideal of a single polynomial.

    Linear-lead factors are pulled out first, the core is shifted onto the
    first variables and looked up in the cache; the basis found there is
    shifted back and multiplied by the factors again.
    """
    ring = p.ring
    ordering = ordering or ring.ordering
    if not ordering.is_symmetric:
        raise OrderingError("bgb_single needs a symmetric ordering")
    if p.is_zero():
        return []
    factors, core = factor_linear_leads(p)
    if core.is_one():
        basis = [ring.one]
    else:
        shifted, mapping = suitable_shift(core, ordering)
        key = SymCache.key(shifted, ordering)
        stored = cache.table.get(key) if cache is not None else None
        if stored is None:
            if cache is not None:
                cache.misses += 1
            sub = buchberger(
                [shifted], ordering, Strategy(symmetry_cache=False)
            )
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
        basis,
        key=lambda q: ordering.sort_key(lead(q, ordering).vars),
        reverse=True,
    )


# -- state ------------------------------------------------------------------------


class GBState:
    """Mutable state of one Buchberger run.

    Pairs are pruned when they are queued (Gebauer-Moeller), so the queue
    and the lead sets are the only pair bookkeeping.
    """

    def __init__(self, ring: BoolRing, ordering: Ordering, strategy: Strategy):
        self.ordering = ordering
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
            ((primary, self.ordering.sort_key(key_mon), self.counter),
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


# -- the main loop ------------------------------------------------------------------


def buchberger(gens, ordering: Ordering | None = None,
               strategy: Strategy | None = None,
               symcache: SymCache | None = None) -> list[BoolPoly]:
    """Reduced Boolean Groebner basis of the ideal of gens plus the field
    ideal (Boolean part only).

    Deterministic for a fixed strategy and input order.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = gens[0].ring
    ordering = ordering or ring.ordering
    strategy = strategy or Strategy()
    if strategy.symmetry_cache and ordering.is_symmetric:
        if symcache is None:
            symcache = SymCache()
    else:
        symcache = None

    state = GBState(ring, ordering, strategy)

    def add_generator(h: BoolPoly, skip_field_pairs: bool) -> bool:
        """Insert an NF-reduced nonzero h; False once the basis hits {1}."""
        if h.is_one():
            state.gens = [ring.one]
            state.queue.clear()
            return False
        idx = len(state.gens)
        lm = lead_vars(h, ordering)
        state.gens.append(h)
        lm_set = frozenset(lm)
        state.lead_fsets.append(lm_set)
        state.table.add(h, lm)
        sugar_h = deg(h)

        if strategy.chain_criterion:
            state.prune_old_pairs(lm_set)
        groups: dict[frozenset, list[int]] = {}
        for j in range(idx):
            groups.setdefault(lm_set | state.lead_fsets[j], []).append(j)
        lcms = sorted(groups, key=lambda L: (len(L), tuple(sorted(L))))
        kept_lcms: list[frozenset] = []

        def coprime(j):
            return not (lm_set & state.lead_fsets[j])

        for L in lcms:
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
                    deg(state.gens[j]) + len(L) - len(state.lead_fsets[j]),
                )
                state.push("pair", j, idx, L, sugar)
        if not skip_field_pairs:
            for v in h.vars_of():
                state.push("field", idx, v, lm_set | {v}, sugar_h + 1)
        return True

    def insert(h: BoolPoly) -> bool:
        """Reduce h and feed it (or its single-poly basis) into the state."""
        h = BoolPoly(ring, state.table.reduce(h.z, ordering))
        if h.is_zero():
            return True
        if (symcache is not None and not h.is_one()
                and _single_worthwhile(h, symcache, ordering)):
            basis = bgb_single(h, ordering, symcache)
            if len(basis) == 1 and basis[0] == h:
                return add_generator(h, skip_field_pairs=True)
            for b in basis:
                br = BoolPoly(ring, state.table.reduce(b.z, ordering))
                if br.is_zero():
                    continue
                if not add_generator(br, skip_field_pairs=(br == b)):
                    return False
            return True
        return add_generator(h, skip_field_pairs=False)

    alive = True
    for f in gens:
        if not f.is_zero():
            alive = insert(f)
            if not alive:
                break

    while alive and state.queue:
        _, (kind, a, b, lcm) = heapq.heappop(state.queue)
        if kind == "pair":
            # coprime pairs were never queued (product criterion)
            f, g = state.gens[a], state.gens[b]
            s = mul_monomial(
                f, ring.monomial(lcm - state.lead_fsets[a])
            ) + mul_monomial(g, ring.monomial(lcm - state.lead_fsets[b]))
        else:
            g, v = state.gens[a], b
            if strategy.product_criterion and v not in state.lead_fsets[a]:
                continue
            if strategy.linear_lead_criterion and linear_lead_criterion(g, v):
                continue
            s = mul_monomial(g, ring.monomial((v,)))
        if not s.is_zero():
            alive = insert(s)

    return interreduce(state.gens, ordering)


def interreduce(basis, ordering: Ordering):
    """Minimal, tail-reduced form of a Boolean basis, sorted lead-descending."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    if any(g.is_one() for g in basis):
        return [ring.one]
    basis = sorted(
        basis, key=lambda g: ordering.sort_key(lead(g, ordering).vars)
    )
    kept: list[BoolPoly] = []
    for g in basis:
        lg = set(lead(g, ordering).vars)
        if not any(set(lead(h, ordering).vars) <= lg for h in kept):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(kept):
            r = greedy_nf(g, kept[:i] + kept[i + 1:], ordering)
            if r != g:
                kept[i] = r
                changed = True
        kept = [g for g in kept if not g.is_zero()]
    return sorted(
        kept,
        key=lambda g: ordering.sort_key(lead(g, ordering).vars),
        reverse=True,
    )


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


def sat_check(gens, ordering: Ordering | None = None,
              strategy: Strategy | None = None,
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
    ordering = ordering or ring.ordering
    if preprocess == "conjunction":
        work = [conjunction_generator(gens)]
    elif preprocess is None:
        work = gens
    else:
        raise ValueError(f"unknown preprocess mode {preprocess!r}")
    basis = buchberger(work, ordering, strategy)
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
