"""Zero-suppressed binary decision diagram kernel.

Nodes live in a manager-owned arena and are identified by small integers;
0 and 1 are the terminal nodes.  Each decision node is a triple
(var, then-child, else-child) interned in a unique table, so two diagrams
represent the same set of subsets exactly when their identifiers are equal.
Variable indices increase strictly along every root-to-terminal path;
index 0 is the *largest* variable of the order ("top" convention).

A diagram encodes a subset of the power set of the variables: each
root-to-1 path is one member set, consisting of the variables whose node
is exited through the then-edge.
"""

from __future__ import annotations

from typing import Iterator


class ZddError(Exception):
    """Structural misuse of the ZDD kernel (order violation, mixed managers)."""


ZERO = 0
ONE = 1


class ZddManager:
    """Arena of hash-consed ZDD nodes over a fixed number of variables.

    All nodes and operation caches live until `reset()`.  A manager and
    every identifier derived from it are confined to a single logical
    thread; independent computations should use independent managers.

    Each cached operation, here and in the polynomial and variety layers,
    has its own memo dict bound as an attribute (`_union`, `_bmul`,
    `_zeros`, ...), so a recursion step fetches it with one attribute
    read.  The interpolation memo `_ilex` is keyed by (domain, ones).  The
    recursions read the arena lists `_var`, `_then` and `_else` directly;
    `top`, `then_branch` and `else_branch` are the checked accessors for
    everything else.  Terminals have `_var` equal to `num_vars`, below
    every decision variable.
    """

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise ValueError("number of variables must be >= 0")
        self.num_vars = num_vars
        self.reset()

    def __len__(self) -> int:
        """Number of decision nodes created so far."""
        return len(self._var) - 2

    def reset(self) -> None:
        """Drop every node and cache; outstanding identifiers become invalid."""
        # id -> (var, then, else); entries 0/1 are placeholders for terminals
        self._var = [self.num_vars, self.num_vars]
        self._then = [0, 0]
        self._else = [0, 0]
        self._unique: dict[tuple[int, int, int], int] = {}
        # kernel operations
        self._union: dict = {}
        self._intersect: dict = {}
        self._diff: dict = {}
        self._xor: dict = {}
        self._subset0: dict = {}
        self._subset1: dict = {}
        self._change: dict = {}
        self._count: dict = {}
        # boolpoly and boolgb
        self._bmul: dict = {}
        self._nfmon: dict = {}
        self._deg: dict = {}
        # interp
        self._zeros: dict = {}
        self._ilex: dict = {}
        self._stdmon: dict = {}

    # -- node structure ----------------------------------------------------

    def mk_node(self, v: int, t: int, e: int) -> int:
        """Interned node for (v, t, e); returns e when t = 0 (zero-suppression)."""
        if t == ZERO:
            return e
        key = (v, t, e)
        n = self._unique.get(key)
        if n is None:
            if not 0 <= v < self.num_vars:
                raise ZddError(f"variable index {v} out of range")
            if self._var[t] <= v or self._var[e] <= v:
                raise ZddError(f"variable order violated at index {v}")
            n = len(self._var)
            self._unique[key] = n
            self._var.append(v)
            self._then.append(t)
            self._else.append(e)
        return n

    def top(self, z: int) -> int:
        if z <= ONE:
            raise ZddError("terminal node has no decision variable")
        return self._var[z]

    def then_branch(self, z: int) -> int:
        if z <= ONE:
            raise ZddError("terminal node has no branches")
        return self._then[z]

    def else_branch(self, z: int) -> int:
        if z <= ONE:
            raise ZddError("terminal node has no branches")
        return self._else[z]

    # -- construction helpers ----------------------------------------------

    def singleton(self, vs) -> int:
        """Diagram of the one-element family {set(vs)}."""
        n = ONE
        for v in sorted(set(vs), reverse=True):
            n = self.mk_node(v, n, ZERO)
        return n

    def from_sets(self, sets) -> int:
        """Diagram of a family of index sets."""
        out = ZERO
        for s in sets:
            out = self.union(out, self.singleton(s))
        return out

    def full_family(self) -> int:
        """The family of all variable subsets, one node per variable."""
        return self._all_subsets(range(self.num_vars))

    def _all_subsets(self, vs) -> int:
        """The family of all subsets of the index set vs, one node per
        variable."""
        n = ONE
        for v in sorted(set(vs), reverse=True):
            n = self.mk_node(v, n, n)
        return n

    # -- set algebra ---------------------------------------------------------

    def union(self, f: int, g: int) -> int:
        if f == g or g == ZERO:
            return f
        if f == ZERO:
            return g
        if f > g:
            f, g = g, f
        cache = self._union
        key = (f, g)
        r = cache.get(key)
        if r is not None:
            return r
        vf = self._var[f]
        vg = self._var[g]
        if vf < vg:
            r = self.mk_node(vf, self._then[f], self.union(self._else[f], g))
        elif vg < vf:
            r = self.mk_node(vg, self._then[g], self.union(f, self._else[g]))
        else:
            r = self.mk_node(
                vf,
                self.union(self._then[f], self._then[g]),
                self.union(self._else[f], self._else[g]),
            )
        cache[key] = r
        return r

    def intersect(self, f: int, g: int) -> int:
        if f == g:
            return f
        if f == ZERO or g == ZERO:
            return ZERO
        if f > g:
            f, g = g, f
        cache = self._intersect
        key = (f, g)
        r = cache.get(key)
        if r is not None:
            return r
        vf = self._var[f]
        vg = self._var[g]
        if vf < vg:
            r = self.intersect(self._else[f], g)
        elif vg < vf:
            r = self.intersect(f, self._else[g])
        else:
            r = self.mk_node(
                vf,
                self.intersect(self._then[f], self._then[g]),
                self.intersect(self._else[f], self._else[g]),
            )
        cache[key] = r
        return r

    def diff(self, f: int, g: int) -> int:
        if f == ZERO or f == g:
            return ZERO
        if g == ZERO:
            return f
        cache = self._diff
        key = (f, g)
        r = cache.get(key)
        if r is not None:
            return r
        vf = self._var[f]
        vg = self._var[g]
        if vf < vg:
            r = self.mk_node(vf, self._then[f], self.diff(self._else[f], g))
        elif vg < vf:
            r = self.diff(f, self._else[g])
        else:
            r = self.mk_node(
                vf,
                self.diff(self._then[f], self._then[g]),
                self.diff(self._else[f], self._else[g]),
            )
        cache[key] = r
        return r

    def symmetric_diff(self, f: int, g: int) -> int:
        """(f ∪ g) \\ (f ∩ g), as one cached recursion (Boolean addition)."""
        if f == ZERO:
            return g
        if g == ZERO:
            return f
        if f == g:
            return ZERO
        if f > g:
            f, g = g, f
        cache = self._xor
        key = (f, g)
        r = cache.get(key)
        if r is not None:
            return r
        vf = self._var[f]
        vg = self._var[g]
        if vf < vg:
            r = self.mk_node(vf, self._then[f], self.symmetric_diff(self._else[f], g))
        elif vg < vf:
            r = self.mk_node(vg, self._then[g], self.symmetric_diff(f, self._else[g]))
        else:
            r = self.mk_node(
                vf,
                self.symmetric_diff(self._then[f], self._then[g]),
                self.symmetric_diff(self._else[f], self._else[g]),
            )
        cache[key] = r
        return r

    # -- cofactors -----------------------------------------------------------

    def subset1(self, z: int, v: int) -> int:
        """{s \\ {v} : v in s, s in z}."""
        vz = self._var[z]
        if vz > v:
            return ZERO
        if vz == v:
            return self._then[z]
        cache = self._subset1
        key = (z, v)
        r = cache.get(key)
        if r is not None:
            return r
        r = self.mk_node(
            vz, self.subset1(self._then[z], v), self.subset1(self._else[z], v)
        )
        cache[key] = r
        return r

    def subset0(self, z: int, v: int) -> int:
        """{s in z : v not in s}."""
        vz = self._var[z]
        if vz > v:
            return z
        if vz == v:
            return self._else[z]
        cache = self._subset0
        key = (z, v)
        r = cache.get(key)
        if r is not None:
            return r
        r = self.mk_node(
            vz, self.subset0(self._then[z], v), self.subset0(self._else[z], v)
        )
        cache[key] = r
        return r

    def change(self, z: int, v: int) -> int:
        """Toggle membership of v in every set of z."""
        vz = self._var[z]
        cache = self._change
        key = (z, v)
        r = cache.get(key)
        if r is not None:
            return r
        if vz > v:
            r = self.mk_node(v, z, ZERO)
        elif vz == v:
            r = self.mk_node(v, self._else[z], self._then[z])
        else:
            r = self.mk_node(
                vz, self.change(self._then[z], v), self.change(self._else[z], v)
            )
        cache[key] = r
        return r

    # -- divisibility --------------------------------------------------------

    def divisors_within(self, lead_set: int, m) -> int:
        """{s in lead_set : s ⊆ m}: lead_set intersected with the family
        of all subsets of m.

        `m` is a monomial given as a single-path diagram or an iterable of
        variable indices.
        """
        vs = self.support(m) if isinstance(m, int) else m
        return self.intersect(lead_set, self._all_subsets(vs))

    # -- path enumeration ------------------------------------------------------

    def count_paths(self, z: int) -> int:
        """Number of root-to-1 paths (= number of member sets)."""
        cache = self._count
        stack = [z]
        while stack:
            n = stack.pop()
            if n <= ONE or n in cache:
                continue
            t, e = self._then[n], self._else[n]
            ct = t if t <= ONE else cache.get(t)
            ce = e if e <= ONE else cache.get(e)
            if ct is None or ce is None:
                stack.append(n)
                if ct is None:
                    stack.append(t)
                if ce is None:
                    stack.append(e)
            else:
                cache[n] = ct + ce
        return z if z <= ONE else cache[z]

    def first_path(self, z: int) -> tuple[int, ...]:
        """All-then path of a nonzero diagram, as a stack of node ids."""
        if z == ZERO:
            raise ZddError("the zero diagram has no paths")
        path = []
        while z > ONE:
            path.append(z)
            z = self._then[z]
        return tuple(path)

    def succ_path(self, path: tuple[int, ...]) -> tuple[int, ...] | None:
        """Next path of the natural path sequence, or None at the end."""
        stack = list(path)
        while stack:
            n = stack.pop()
            e = self._else[n]
            if e != ZERO:
                while e > ONE:
                    stack.append(e)
                    e = self._then[e]
                return tuple(stack)
        return None

    def path_vars(self, path: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(self._var.__getitem__, path))

    def iter_paths(self, z: int) -> Iterator[tuple[int, ...]]:
        """Member sets as index tuples, in natural (descending lex) order."""
        if z == ZERO:
            return
        p = self.first_path(z)
        while p is not None:
            yield self.path_vars(p)
            p = self.succ_path(p)

    def support(self, z: int) -> tuple[int, ...]:
        """Sorted union of all member sets (variables actually occurring)."""
        visited = set()
        out = set()
        stack = [z]
        while stack:
            n = stack.pop()
            if n <= ONE or n in visited:
                continue
            visited.add(n)
            out.add(self._var[n])
            stack.append(self._then[n])
            stack.append(self._else[n])
        return tuple(sorted(out))

    def check_invariants(self) -> None:
        """Scan the arena for zero-suppression and order violations."""
        for (v, t, e), n in self._unique.items():
            if t == ZERO:
                raise AssertionError(f"node {n} has then-child 0")
            if self._var[t] <= v or self._var[e] <= v:
                raise AssertionError(f"node {n} violates the variable order")
