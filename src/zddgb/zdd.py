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

import threading
import weakref
from typing import Iterator


class ZddError(Exception):
    """Structural misuse of the ZDD kernel (order violation, mixed managers)."""


class NodeLimitError(MemoryError):
    """A manager would create a node id at or past NODE_ID_LIMIT, which its
    packed keys cannot hold."""


ZERO = 0
ONE = 1

# node ids fill a 32-bit field of the unique-table and memo keys
NODE_ID_LIMIT = 1 << 32

# the operation memos of a manager, here and in the polynomial and variety
# layers; `reset` and the drop in `activate` empty exactly these
MEMOS = (
    # kernel operations
    "_union", "_intersect", "_diff", "_xor", "_subset0", "_subset1",
    "_change", "_count",
    # boolpoly and boolgb
    "_bmul", "_nfmon", "_deg",
    # interp
    "_zeros", "_ilex", "_stdmon",
)

# per thread: a weak reference to the manager that last called `activate`
_active = threading.local()


class ZddManager:
    """Arena of hash-consed ZDD nodes over a fixed number of variables.

    Nodes live until `reset()`.  The operation memos are a disposable
    cache beside the unique table, like the computed table of Brace,
    Rudell and Bryant (DAC 1990), and they serve only the manager in use:
    each engine entry point (`greedy_nf`, `buchberger`, `points_gb`,
    `zeros`, ...) calls `activate()` first, which empties the memos of the
    manager that this thread activated last, if that is another one and
    still alive.  Nothing but time depends on the memos: node ids, and
    every polynomial, point set and printed basis, stay valid and
    unchanged.  They are not emptied when a call returns, since repeated
    queries against one basis reuse them.  A manager and every identifier
    derived from it are confined to a single logical thread; independent
    computations should use independent managers.

    The unique table `_unique` is a list of dicts, one per variable; the
    subtable of v maps `t << 32 | e` to the node (v, t, e).  Each cached
    operation, here and in the polynomial and variety layers, has its own
    memo dict bound as an attribute (`_union`, `_bmul`, `_zeros`, ...), so
    a recursion step fetches it with one attribute read.  Memo keys are
    one int as well: `f << 32 | g` for two diagrams (`_ilex` packs the
    domain and the ones this way), `z << 32 | v` for a diagram and an
    index.  An int key takes about half the bytes of a tuple, and the
    garbage collector does not track a dict that holds only ints.  The
    packing needs node ids below NODE_ID_LIMIT = 2^32: the node that would
    take id 2^32 raises NodeLimitError, a MemoryError.  The recursions
    read the arena lists `_var`, `_then` and `_else` directly; `top`,
    `then_branch` and `else_branch` are the checked accessors for
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
        # one subtable per variable: t << 32 | e -> node (v, t, e)
        self._unique: list[dict[int, int]] = [{} for _ in range(self.num_vars)]
        self._drop_memos()

    def _drop_memos(self) -> None:
        """Empty every memo (`MEMOS`) and greedy_nf's table slot."""
        for name in MEMOS:
            setattr(self, name, {})
        # greedy_nf's table of its last reductor list: (reductor ids, table)
        self._nf_table = None

    def activate(self) -> None:
        """Make this the manager in use by the calling thread.

        When the thread last activated another manager that is still
        alive, that manager's memos are emptied first.  Its nodes stay, so
        its diagrams stay valid; a later call on it fills its memos again.
        The previous manager is held by a weak reference, so activation
        keeps no manager alive.
        """
        ref = getattr(_active, "ref", None)
        last = None if ref is None else ref()
        if last is self:
            return
        if last is not None:
            last._drop_memos()
        _active.ref = weakref.ref(self)

    def stats(self) -> dict:
        """{"nodes": decision nodes, "memos": {memo name: entries}}, the
        names without their leading underscore."""
        return {"nodes": len(self),
                "memos": {name[1:]: len(getattr(self, name)) for name in MEMOS}}

    # -- node structure ----------------------------------------------------

    def mk_node(self, v: int, t: int, e: int) -> int:
        """Interned node for (v, t, e); returns e when t = 0 (zero-suppression)."""
        if t == ZERO:
            return e
        key = t << 32 | e
        try:
            n = self._unique[v].get(key)
        except IndexError:
            n = None
        # a negative v indexes some other variable's subtable from the end
        if n is None or v < 0:
            if not 0 <= v < self.num_vars:
                raise ZddError(f"variable index {v} out of range")
            if self._var[t] <= v or self._var[e] <= v:
                raise ZddError(f"variable order violated at index {v}")
            n = len(self._var)
            if n >= NODE_ID_LIMIT:
                raise NodeLimitError(
                    f"diagram node ids reached the limit of {NODE_ID_LIMIT}")
            self._unique[v][key] = n
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
        """Diagram of a family of index sets, built in one pass.

        The distinct members, as ascending index tuples, are sorted, so the
        rows that share a prefix form one block and, within a block, the
        rows with the same next index form one run.  A block's diagram is
        the else-chain over its runs, built by a loop from the last run to
        the first and ending in 1 when the empty suffix (which sorts first)
        is a row.  Each run is one then-child: the indices that all its
        rows share form a chain, built by a loop, above the block of what
        follows them (1 when the run is one row).  So every mk_node call
        makes a node of the result, no memo is touched, and the recursion
        goes one level deeper only where rows part ways, never along a
        shared stretch of indices.
        """
        rows = sorted({tuple(sorted(set(s))) for s in sets})
        return self._block(rows, 0, len(rows), 0) if rows else ZERO

    def _block(self, rows: list, lo: int, hi: int, d: int) -> int:
        """Diagram of {row[d:] : row in rows[lo:hi]}, rows sorted and
        sharing their first d indices."""
        mk = self.mk_node
        tail = ZERO
        if len(rows[lo]) == d:  # the empty suffix
            tail = ONE
            lo += 1
        runs = []
        while lo < hi:
            v = rows[lo][d]
            end = lo + 1
            while end < hi and rows[end][d] == v:
                end += 1
            runs.append((v, lo, end))
            lo = end
        for v, lo, end in reversed(runs):
            # the run's rows share indices d..p-1: a chain above the block
            # of their suffixes (1 for one row); sorted rows share what the
            # first and the last share
            first, last = rows[lo], rows[end - 1]
            if end - lo == 1:
                p, t = len(first), ONE
            else:
                p = d + 1
                while p < len(first) and first[p] == last[p]:
                    p += 1
                t = self._block(rows, lo, end, p)
            for k in range(p - 1, d, -1):
                t = mk(first[k], t, ZERO)
            tail = mk(v, t, tail)
        return tail

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
        key = f << 32 | g
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
        key = f << 32 | g
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
        key = f << 32 | g
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
        key = f << 32 | g
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
        key = z << 32 | v
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
        key = z << 32 | v
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
        key = z << 32 | v
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
        """Scan the unique table: every key decodes to its node's fields,
        and no node breaks zero-suppression or the variable order."""
        for v, sub in enumerate(self._unique):
            for key, n in sub.items():
                t, e = key >> 32, key & 0xFFFFFFFF
                if (self._var[n], self._then[n], self._else[n]) != (v, t, e):
                    raise AssertionError(f"node {n} does not match its key")
                if t == ZERO:
                    raise AssertionError(f"node {n} has then-child 0")
                if self._var[t] <= v or self._var[e] <= v:
                    raise AssertionError(f"node {n} violates the variable order")
