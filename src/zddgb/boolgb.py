"""Buchberger-style Groebner bases in the Boolean ring.

The field relations x*x = x are never materialized: every product is a
Boolean product, and each generator g additionally spawns "field pairs"
(g, v) whose s-polynomial reduces (mod the field ideal) to x_v * g.

The reduced lex basis depends only on the zero set V of the generators,
so `buchberger` sends a dense clause system under lp past the pair loop:
`zeros` filters V out of the cube one clause at a time and `points_gb`
reads the basis off it.  A clause is a product of factors x_v and
x_v + 1 (CNF as `cnf_to_polys` encodes it), and dense means at least
CLAUSE_DENSITY distinct clauses per variable they mention.  On dense CNF
the pair loop builds many times the nodes of the variety route (hole5:
84 s against 0.01 s).  Sparse CNF has a large zero set whose diagram is
wide: 40 random 3-clauses over 300 variables ran out of 2 GB on the
variety route and took 0.04 s on the pair loop.  Multipliers, whose
definitions are not clauses, and the other orderings (`points_gb` is lex
only) keep the pair loop.  `conjunction_generator` reads its one generator
off the same zero set, under every ordering.

`bgb_single`, the basis of one polynomial from its linear-lead factors
and its core shifted onto the first variables (reusable for every shift
through a `SymCache`), is a library function.  The engine does not use
it: on no measured family did the cache's hits pay for its lookups.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass

from .boolpoly import (
    BoolPoly,
    BoolRing,
    _lead_vars,
    _mul,
    _nf_mon,
    _same_ring,
    deg,
    eval_poly,
    lead_vars,
    mul_monomial,
)
from .interp import PointSet, _interp_lex, points_gb, zeros
from .zdd import ONE, ZERO


@dataclass
class Strategy:
    """Pair-criterion toggles for the Buchberger loop; pairs are always
    taken lowest sugar first."""

    product_criterion: bool = True
    chain_criterion: bool = True
    linear_lead_criterion: bool = True


# -- normal form ---------------------------------------------------------------


class _ReductionTable:
    """Leads of a reductor set, indexed for pick-the-cheapest reduction.

    A reductor g of t terms with lead of degree d ranks by (t << d, lead):
    a lead of degree d divides about a 2^-d share of the terms, and a step
    costs about one reductor length per quotient term, so the key
    estimates the work per removed term.  Ties go to the smaller lead
    tuple, so the choice depends on the table alone, never on node ids
    (which reflect the manager's history).

    The entries (t << d, lead vars, poly zdd id, lead bitmask) form one
    sorted list, and the pick is the first entry whose lead bitmask lies
    in the monomial's.  `lead_set`, the leads as a diagram, serves the
    bulk split of each reduction into irreducible and reducible terms.

    A table is built one of two ways.  In one pass from a reductor list of
    (g, lead vars) pairs whose leads may repeat, as `greedy_nf` builds it:
    per lead it keeps the first reductor of the least rank, sorts the
    entries once and builds `lead_set` with one `from_sets` call.  Or from
    empty by `add`, one reductor with a new lead at a time: the pair loop
    adds each reduced generator, and `interreduce` adds each element of a
    minimal basis, reduced against the smaller ones, in ascending lead
    order.

    Either table reduces by `reduce`.  When every kept lead is one variable, x_v
    with g_v = x_v + tail_v, the normal form is unique even if the
    reductors are no Groebner basis: each tail term is smaller than x_v,
    so under every ordering its variables are smaller than x_v, the
    substitution x_v := tail_v is triangular, and the quotient by the
    reductors and the field ideal is the ring of the non-lead variables.
    A table built in one pass with such leads (`linear`; `add` clears it)
    reduces by that substitution, as PolyBoRi's ll_red_nf does: with
    f = x_v*f1 + f0, NF(f) = s_v*NF(f1) + NF(f0), where s_v is NF(tail_v)
    for a lead x_v and x_v otherwise.  The values s_v are computed once,
    the smallest lead under the ordering first, so each one finds the
    values of its tail's leads made; a node -> NF memo on the table serves
    every query against it.  A table grown by `add` starts empty and is
    never linear, so the pair loop and `interreduce` take the greedy steps
    (rebuilding the substitution after each pair-loop insert made the
    gb_bool benchmark's solve 15 % slower).
    """

    __slots__ = ("ring", "lead_set", "by_lead", "entries", "linear",
                 "_subst", "_nf_memo")

    def __init__(self, ring: BoolRing, reductors=()):
        self.ring = ring
        # lead vars (ascending, as lead_vars returns them) -> entry; leads
        # are distinct, so comparing entries never reaches the zdd id
        by_lead: dict[tuple[int, ...], tuple] = {}
        for g, lead in reductors:
            entry = self._entry(g, lead)
            prev = by_lead.get(lead)
            if prev is None or entry[0] < prev[0]:
                by_lead[lead] = entry
        self.by_lead = by_lead
        self.entries: list[tuple] = sorted(by_lead.values())
        self.lead_set = ring.manager.from_sets(by_lead)
        self.linear = bool(by_lead) and all(len(l) == 1 for l in by_lead)
        self._subst: dict[int, int] | None = None  # v -> s_v, at first use
        self._nf_memo: dict[int, int] = {}  # node -> NF by substitution

    def _entry(self, g: BoolPoly, lead_vars: tuple[int, ...]) -> tuple:
        # t is read from the diagram: len(g) is capped at 2^63 - 1
        return (self.ring.manager.count_paths(g.z) << len(lead_vars),
                lead_vars, g.z, sum(1 << v for v in lead_vars))

    def add(self, g: BoolPoly, lead_vars: tuple[int, ...]) -> None:
        """Insert g as the reductor of its lead, which the table does not
        hold yet."""
        self.linear = False
        man = self.ring.manager
        self.lead_set = man.union(self.lead_set, man.singleton(lead_vars))
        entry = self._entry(g, lead_vars)
        self.by_lead[lead_vars] = entry
        insort(self.entries, entry)

    def pick(self, m: tuple[int, ...]) -> tuple | None:
        """The smallest entry whose lead divides the monomial m (ascending
        variable tuple); None if there is none."""
        mask = 0
        for v in m:
            mask |= 1 << v
        for e in self.entries:
            if e[3] & mask == e[3]:
                return e
        return None

    def reduce(self, fz: int) -> int:
        """Reduced normal form of the polynomial with term set fz against
        the reductors."""
        if self.linear:
            return self._substitute(fz)
        lead_set = self.lead_set
        if lead_set == ZERO:
            return fz
        man = self.ring.manager
        blocks = self.ring.blocks
        pick = self.pick
        # dropping the terms a lead divides commutes with +, so f is split
        # into irreducible and reducible terms once; after that only each
        # step's product is split, never the whole of the growing fz
        result = _nf_mon(man, fz, lead_set)
        fz = man.symmetric_diff(fz, result)
        while fz != ZERO:
            # invariant: every term of fz is divisible by some lead
            _, g_lead, gz, _ = pick(_lead_vars(man, fz, blocks))
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

    def _substitute(self, fz: int) -> int:
        """Normal form of fz by the substitution x_v := s_v (see the class
        docstring); every kept lead is one variable."""
        man = self.ring.manager
        var, then, els = man._var, man._then, man._else
        memo = self._nf_memo
        subst = self._subst

        def nf(z: int) -> int:
            if z <= ONE:
                return z
            r = memo.get(z)
            if r is not None:
                return r
            v = var[z]
            hi = nf(then[z])
            lo = nf(els[z])
            s = subst.get(v)
            if s is None and var[hi] > v and var[lo] > v:
                r = man.mk_node(v, hi, lo)
            else:
                if s is None:
                    s = man.mk_node(v, ONE, ZERO)
                r = man.symmetric_diff(_mul(man, s, hi), lo)
            memo[z] = r
            return r

        if subst is None:
            self._subst = subst = {}
            key = self.ring.sort_key
            for lead in sorted(self.by_lead, key=key):
                v = lead[0]
                tail = man.symmetric_diff(self.by_lead[lead][2],
                                          man.mk_node(v, ONE, ZERO))
                subst[v] = nf(tail)
        return nf(fz)


def greedy_nf(f: BoolPoly, G) -> BoolPoly:
    """Reduced normal form of f against the polynomials G.

    Each step cancels *every* term divisible by the chosen reductor's lead
    at once; irreducible terms move to the result in bulk.  The result
    contains no term divisible by any lead of G, and f minus the result
    lies in the ideal of G plus the field ideal.  When G is a Groebner
    basis, or when every lead of G is one variable, the result is unique;
    otherwise it depends on which reductor each step picks (see
    `_ReductionTable`).  When every lead is one variable, as in the
    bases of gate-level circuit models, where each gate output has its
    own variable, the result is computed by substitution, not by steps.

    The manager keeps the table of the last call's reductors in
    `_nf_table`, as ((ring, ids of the nonzero reductors in order), table),
    so a run of queries against one basis builds it, and fills its
    substitution memo, once; its reductors never change.  The key holds
    the ring because a ring and its lp view (`BoolRing._lex_view`) share
    the manager but not the ordering that the table's leads follow.  One
    slot, not a dict of tables: it keeps no table of every basis the
    manager has seen, and the manager's memo dicts and the table's memo
    keep only ints, which the garbage collector does not track.  The slot,
    and with it the table's memo, is emptied with the memos when the
    thread activates another manager.
    """
    man = f.ring.manager
    man.activate()
    reductors = []
    for g in G:
        _same_ring(f, g)
        if not g.is_zero():
            reductors.append(g)
    key = (f.ring, tuple(g.z for g in reductors))
    if man._nf_table is None or man._nf_table[0] != key:
        man._nf_table = (key, _ReductionTable(
            f.ring, [(g, lead_vars(g)) for g in reductors]))
    return BoolPoly(f.ring, man._nf_table[1].reduce(f.z))


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
    symmetric ordering, one of at most one block, keeps monomial
    comparisons intact under the shift.
    """
    if len(p.ring.blocks or ()) > 1:
        raise ValueError("variable shifts need a symmetric ordering")
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

    Keys are the ordering kind and the term list of a shifted,
    factor-stripped core; values are term lists of the reduced basis in
    shifted variables.
    """

    def __init__(self):
        self.table: dict = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(core: BoolPoly):
        blocks = core.ring.blocks
        return (blocks[0][0] if blocks else "lp", tuple(sorted(core.terms())))


# No caller is left for SYMCACHE_VAR_LIMIT and _single_worthwhile, but
# perfbench/tracer.py wraps _single_worthwhile by name; both go with its
# symcache layer.  Cache misses above this core size were not worth a run.
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
    if len(ring.blocks or ()) > 1:
        raise ValueError("bgb_single needs a symmetric ordering")
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
            sub = buchberger([shifted])
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
        basis, key=lambda q: ring.sort_key(lead_vars(q)), reverse=True)


# -- state ------------------------------------------------------------------------


def _mask_vars(mask: int) -> tuple[int, ...]:
    """Ascending variable indices of a monomial bitmask (bit v for x_v)."""
    vs = []
    while mask:
        low = mask & -mask
        vs.append(low.bit_length() - 1)
        mask ^= low
    return tuple(vs)


class GBState:
    """Mutable state of one Buchberger run, and its one pair manager.

    Every pair criterion is decided here, when a pair is made: generator
    pairs by Gebauer-Moeller selection and the product criterion, field
    pairs (g, x_v) by the product criterion (v in lead(g)) and the
    linear-lead criterion, and queued pairs are pruned by each new lead.
    The queue therefore holds only pairs that must be reduced.

    Leads and lcms are int bitmasks with bit v set when x_v occurs, so an
    lcm is a | b and "a divides b" is a & b == a.

    New generator pairs are made only with the `active` generators, those
    whose lead no later lead divides (the Gebauer-Moeller update, on with
    the chain criterion): a generator retires once a new lead divides its
    own, after pairing with that new generator.  Its queued pairs stay,
    and the reduction table keeps it.
    """

    def __init__(self, ring: BoolRing, strategy: Strategy):
        self.sort_key = ring.sort_key
        self.strategy = strategy
        self.gens: list[BoolPoly] = []
        self.leads: list[int] = []
        self.sugars: list[int] = []  # deg(g), stored when g is inserted
        self.active: list[int] = []  # generators no later lead divides
        self.table = _ReductionTable(ring)
        self.queue: list = []
        self.counter = 0

    def push(self, kind: str, a: int, b: int, lcm: int, sugar: int):
        self.counter += 1
        heapq.heappush(
            self.queue,
            ((sugar, self.sort_key(_mask_vars(lcm)), self.counter),
             kind, a, b, lcm),
        )

    def prune_old_pairs(self, lm_new: int) -> None:
        """Gebauer-Moeller style: drop queued pairs whose lcm the new lead
        properly mediates."""
        leads = self.leads
        # entries are (key, kind, a, b, lcm); the first test rejects most
        keep = [
            e for e in self.queue
            if lm_new & e[4] != lm_new
            or e[1] != "pair"
            or leads[e[2]] | lm_new == e[4]
            or leads[e[3]] | lm_new == e[4]
        ]
        if len(keep) != len(self.queue):
            self.queue = keep
            heapq.heapify(self.queue)

    def add_generator(self, h: BoolPoly) -> bool:
        """Insert an NF-reduced nonzero h and queue its surviving pairs;
        False once the basis hits {1}."""
        if h.is_one():
            self.gens = [h]
            self.active = [0]
            self.queue.clear()
            return False
        strategy = self.strategy
        leads = self.leads
        idx = len(self.gens)
        lm = lead_vars(h)
        lm_mask = sum(1 << v for v in lm)
        sugar_h = deg(h)
        self.gens.append(h)
        leads.append(lm_mask)
        self.sugars.append(sugar_h)
        self.table.add(h, lm)

        chain = strategy.chain_criterion
        if chain:
            self.prune_old_pairs(lm_mask)
        groups: dict[int, list[int]] = {}
        for j in self.active:
            groups.setdefault(lm_mask | leads[j], []).append(j)
        if chain:
            self.active = [j for j in self.active
                           if leads[j] & lm_mask != lm_mask]
        self.active.append(idx)
        product = strategy.product_criterion
        kept_lcms: list[int] = []
        # the lcms of one insert are distinct, so K < L is K | L == L, and
        # it implies a smaller bit count; the heap key fixes the pop order
        for L in sorted(groups, key=int.bit_count):
            members = groups[L]
            if chain:
                # Gebauer-Moeller: minimal lcms only, one pair per lcm,
                # whole group dropped when one member is coprime
                for K in kept_lcms:
                    if K | L == L:
                        break
                else:
                    kept_lcms.append(L)
                    for j in members:
                        if product and not lm_mask & leads[j]:
                            break
                    else:
                        self._push_pair(members[0], idx, L)
            else:
                for j in members:
                    if not product or lm_mask & leads[j]:
                        self._push_pair(j, idx, L)
        # product criterion: x_v coprime to lead(h) makes x_v * h redundant
        for v in lm if product else h.vars_of():
            if not (strategy.linear_lead_criterion
                    and linear_lead_criterion(h, v)):
                self.push("field", idx, v, lm_mask | 1 << v, sugar_h + 1)
        return True

    def _push_pair(self, j: int, idx: int, L: int) -> None:
        """Queue the pair (j, idx) with lcm L at its sugar."""
        d = L.bit_count()
        sugar = max(self.sugars[idx] + d - self.leads[idx].bit_count(),
                    self.sugars[j] + d - self.leads[j].bit_count())
        self.push("pair", j, idx, L, sugar)


# -- the main loop ------------------------------------------------------------------


def buchberger(gens, strategy: Strategy | None = None) -> list[BoolPoly]:
    """Reduced Boolean Groebner basis of the ideal of gens plus the field
    ideal (Boolean part only), sorted lead-descending.

    Deterministic for a fixed strategy and input order.  The basis depends
    only on the zero set V of gens, so a dense clause system under lp,
    with no `strategy` given, takes the variety route (`_variety_basis`):
    V is filtered out of the cube and the lex basis read off it by
    `points_gb`.  Dense means every nonzero generator is a clause and
    there are at least CLAUSE_DENSITY times as many distinct clauses as
    variables they mention; sparser CNF has a large zero set with a wide
    diagram, and the pair loop wins.  A `strategy` configures the pair
    loop, so passing one always runs it.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = gens[0].ring
    ring.manager.activate()
    for f in gens:
        _same_ring(gens[0], f)
    if strategy is None and ring.blocks is None:
        clauses = _dense_clauses(gens)
        if clauses is not None:
            return _variety_basis(ring, clauses)
    strategy = strategy or Strategy()
    state = GBState(ring, strategy)

    def insert(h: BoolPoly) -> bool:
        """Reduce h and feed it into the state; False once the basis is {1}."""
        h = BoolPoly(ring, state.table.reduce(h.z))
        return h.is_zero() or state.add_generator(h)

    alive = True
    for f in gens:
        if not f.is_zero():
            alive = insert(f)
            if not alive:
                break

    # every queued pair passed its criteria when it was made
    while alive and state.queue:
        _, kind, a, b, lcm = heapq.heappop(state.queue)
        f = state.gens[a]
        if kind == "pair":
            g = state.gens[b]
            leads = state.leads
            s = mul_monomial(
                f, ring.monomial(_mask_vars(lcm & ~leads[a]))
            ) + mul_monomial(g, ring.monomial(_mask_vars(lcm & ~leads[b])))
        else:
            s = mul_monomial(f, ring.monomial((b,)))
        if not s.is_zero():
            alive = insert(s)

    return interreduce(state.gens[j] for j in state.active)


# the least ratio of distinct clauses to the variables they mention at which
# `buchberger` takes the variety route (see `_dense_clauses`).  On random 2-,
# 3- and 4-CNF and pigeonhole the route never lost at 2 or more (where it
# ran out of 2 GB, the pair loop ran past 60 s too); below 2 the pair loop
# won (3-CNF, 30 variables and clauses: 5.9 s against 23 s and 1.1 GB) or
# alone finished (2-CNF, 80 clauses over 80 variables)
CLAUSE_DENSITY = 2


def _clause_vars(man, z: int) -> list[int] | None:
    """The variables of the nonzero diagram z when it is a clause, a
    product of factors x_v and x_v + 1 (the constant 1 is the empty
    clause); None otherwise.  A clause is one then-chain in which every
    else-child is 0 (factor x_v) or equals the then-child (factor x_v + 1);
    the walk creates no node."""
    var, then, els = man._var, man._then, man._else
    vs = []
    while z > ONE:
        t = then[z]
        if els[z] not in (ZERO, t):
            return None
        vs.append(var[z])
        z = t
    return vs


def _dense_clauses(gens) -> list[BoolPoly] | None:
    """The distinct nonzero generators, in input order, when each is a
    clause and they number at least CLAUSE_DENSITY times the variables
    they mention; None otherwise."""
    man = gens[0].ring.manager
    clauses: dict[int, BoolPoly] = {}
    mentioned: set[int] = set()
    for g in gens:
        if g.z == ZERO or g.z in clauses:
            continue
        vs = _clause_vars(man, g.z)
        if vs is None:
            return None
        clauses[g.z] = g
        mentioned.update(vs)
    if len(clauses) < CLAUSE_DENSITY * len(mentioned):
        return None
    return list(clauses.values())


def _variety_basis(ring: BoolRing, clauses) -> list[BoolPoly]:
    """Reduced lex basis of the clauses' ideal plus the field ideal, read
    off their zero set by `points_gb` (lead-descending, as `interreduce`
    lists it); [1] when the set is empty."""
    return points_gb(_zero_set(ring, clauses))


def _zero_set(ring: BoolRing, polys) -> PointSet:
    """The common zeros of the nonzero polys, filtered from the full cube
    by `zeros` in ascending-lead order.  It serves the variety route and
    the conjunction generator.

    Under lex a lead whose first variable is x_k bounds every term of its
    polynomial to x_k..x_{n-1}, so the smallest leads constrain the bottom
    levels of the point-set diagram first and its upper levels stay the
    cube's chain for longer.  The set is the same in any order, but its
    intermediate diagrams are not: fewest terms first, which ignores the
    levels, built 5.8 M nodes in 40 s on random 2-CNF with 160 clauses over
    80 variables, against 21 k in 0.12 s.
    """
    key = ring.sort_key
    variety = PointSet.full_cube(ring)
    for g in sorted(polys, key=lambda g: key(lead_vars(g))):
        variety = zeros(g, variety)
    return variety


def interreduce(basis):
    """Minimal, tail-reduced form of a Boolean basis, sorted lead-descending.

    One pass in ascending lead order suffices: a lead divides only terms
    at least as large as itself, so each element's tail reduces against
    the smaller elements alone, which the table already holds in reduced
    form, and no kept lead divides another, so reduction keeps each lead.
    The constant 1, whose empty lead sorts first and divides every lead,
    leaves [1].
    """
    basis = list(basis)
    for g in basis:
        _same_ring(basis[0], g)
    basis = [g for g in basis if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    ring.manager.activate()
    key = ring.sort_key
    kept: list[tuple[int, tuple[int, ...], BoolPoly]] = []
    for lm, g in sorted(((lead_vars(g), g) for g in basis), key=lambda t: key(t[0])):
        lg = sum(1 << v for v in lm)
        if not any(lh & lg == lh for lh, _, _ in kept):
            kept.append((lg, lm, g))
    table = _ReductionTable(ring)
    polys = []
    for _, lm, g in kept:
        h = BoolPoly(ring, table.reduce(g.z))
        table.add(h, lm)
        polys.append(h)
    return polys[::-1]


# -- satisfiability -------------------------------------------------------------------


def conjunction_generator(gens) -> BoolPoly:
    """The unique Boolean polynomial generating the same ideal as gens
    (with the field relations): 1 + prod(1 + g).

    The product is the indicator of the common zero set V of the nonzero
    gens (`_zero_set`), so the result is 1 plus the interpolant of V over
    the full cube, its ANF.  Multiplying the factors one by one swells the
    intermediates (hole6: 5.4 s against 0.02 s).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("conjunction_generator needs at least one polynomial")
    ring = gens[0].ring
    ring.manager.activate()
    for g in gens:
        _same_ring(gens[0], g)
    variety = _zero_set(ring, [g for g in gens if not g.is_zero()])
    man = ring.manager
    return ring.one + BoolPoly(ring, _interp_lex(man, man.full_family(), variety.z))


def sat_check(gens, preprocess: str | None = None):
    """Decide solvability of {g = 0 : g in gens} over {0,1}^n.

    Returns ("UNSAT", None) when the basis collapses to {1}; otherwise
    ("SAT", model), verified on every generator.  The model is the least
    point of the zero set V compared from x_{n-1} first, that is
    min(V, key=lambda p: p[::-1]).  Neither answer depends on the ordering,
    so both are decided under the ring's lp view (`BoolRing._lex_view`, the
    ring itself under lp): `buchberger` computes the basis, and
    `_elimination_point` reads the model off it without building V
    (tampered mult8: 0.69 s and 119 MB, against 7.4 s and 478 MB by a walk
    over V).  With preprocess="conjunction" the system is first collapsed
    to its unique ideal generator (`conjunction_generator`), as the
    benchmark runs do.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("sat_check needs at least one polynomial")
    ring = gens[0].ring
    ring.manager.activate()
    for g in gens:
        _same_ring(gens[0], g)
    lex = ring._lex_view()
    work = [BoolPoly(lex, g.z) for g in gens]
    if preprocess == "conjunction":
        work = [conjunction_generator(work)]
    elif preprocess is not None:
        raise ValueError(f"unknown preprocess mode {preprocess!r}")
    basis = buchberger(work)
    if basis and basis[0].is_one():
        return "UNSAT", None
    model = _elimination_point(lex, basis)
    for g in gens:
        if eval_poly(g, model) != 0:
            raise AssertionError("witness fails a generator; engine bug")
    return "SAT", model


def _elimination_point(ring: BoolRing, basis) -> tuple[int, ...]:
    """The x_{n-1}-first least zero of the lex basis of a proper ideal
    that holds the field ideal.

    An element whose top variable is x_k lies in F_2[x_k..x_{n-1}], and the
    elements of top variable k or more are a basis of the projection of V
    onto x_k..x_{n-1} (elimination theorem).  V is finite, so each point of
    one projection extends to the next (extension theorem): from x_{n-1}
    down to x_0, x_k = 1 exactly when an element of top variable k does not
    vanish at x_k = 0.  No diagram node is made."""
    var = ring.manager._var
    levels: list[list[BoolPoly]] = [[] for _ in range(ring.n)]
    for g in basis:
        levels[var[g.z]].append(g)
    point = [0] * ring.n
    for k in range(ring.n - 1, -1, -1):
        if any(eval_poly(g, point) for g in levels[k]):
            point[k] = 1
    return tuple(point)
