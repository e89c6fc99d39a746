"""Answer checks that do not trust the code under test: a small DPLL for
CNF verdicts, clause evaluation of models, and digests of canonical
results (reduced Boolean bases and Z/m lead sets) compared against
`reference.json`."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def dpll(nvars: int, clauses) -> tuple[int, ...] | None:
    """A satisfying 0/1 assignment of the clauses, or None."""

    def solve(clauses, assign):
        while True:
            unit = None
            kept = []
            for c in clauses:
                if any(assign.get(abs(l)) == (l > 0) for l in c):
                    continue
                free = [l for l in c if abs(l) not in assign]
                if not free:
                    return None
                if len(free) == 1:
                    unit = free[0]
                kept.append(free)
            if unit is None:
                break
            assign = {**assign, abs(unit): unit > 0}
            clauses = kept
        if not kept:
            return assign
        lit = kept[0][0]
        for value in (lit > 0, lit < 0):
            found = solve(kept, {**assign, abs(lit): value})
            if found is not None:
                return found
        return None

    found = solve([list(c) for c in clauses], {})
    if found is None:
        return None
    return tuple(int(found.get(v, False)) for v in range(1, nvars + 1))


def satisfies(clauses, model) -> bool:
    """Every clause has a true literal (truth value 1 means x = 1)."""
    return all(
        any((model[abs(l) - 1] == 1) == (l > 0) for l in c) for c in clauses
    )


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def bool_basis_digest(basis) -> str:
    """Digest of a Boolean basis as a sorted list of sorted term lists."""
    return _digest(sorted(tuple(sorted(g.terms())) for g in basis))


def zm_lead_digest(basis) -> str:
    """Digest of the lead set {(monomial, core of lc)} of a Z/m basis."""
    if not basis:
        return _digest([])
    mod = basis[0].ring.mod
    return _digest(sorted({(g.lm(), mod.core(mod.nu(g.lc()))) for g in basis}))


def diagram_nodes(polys) -> int:
    """Distinct decision nodes reachable from the polynomials' diagrams."""
    seen = set()
    for p in polys:
        man = p.ring.manager
        stack = [p.z]
        while stack:
            z = stack.pop()
            if z <= 1 or (id(man), z) in seen:
                continue
            seen.add((id(man), z))
            stack.append(man.then_branch(z))
            stack.append(man.else_branch(z))
    return len(seen)
