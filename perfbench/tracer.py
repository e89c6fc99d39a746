"""Outside-in tracer: spans around calls into the zddgb modules.

Nothing inside the package changes.  `Tracer.install` replaces each traced
function in every module that binds it (and each traced `ZddManager`,
`_ReductionTable` or `GBState` method on its class) with a wrapper that
times the call; `uninstall` puts the originals back.

A span is one outermost entry into a traced name.  While a name is active,
further entries into it (its own recursion, or one traced alias calling
another, such as `lead` -> `lead_vars`) pass straight through, so a whole
recursion is one span.  Spans are aggregated per (name, parent name) as
[calls, inclusive seconds, self seconds], where self time is inclusive
time minus the time of the spans nested directly inside, so memory stays
bounded however many calls a run makes.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter
from contextlib import contextmanager

from zddgb import boolgb, boolpoly, cli, encode, interp, ringstd, zdd

MODULES = ("zddgb", "zddgb.zdd", "zddgb.boolpoly", "zddgb.boolgb",
           "zddgb.interp", "zddgb.ringstd", "zddgb.encode", "zddgb.cli")


# -- observers: ratio counters read at the boundary -------------------------

def _reduce_nonzero(tracer, args, result, token):
    tracer.counts["boolgb.reduce.base"] += 1
    tracer.counts["boolgb.reduce.nonzero"] += result != 0


def _count_true(tracer, args, result, token):
    tracer.counts["ringstd.criteria.base"] += 1
    tracer.counts["ringstd.criteria.dropped"] += bool(result)


def _nf_ring_build(tracer, args, result, token):
    # only calls made by std_basis itself: the build phase's reductions
    if tracer.stack[-1][0] == "ringstd.std_basis":
        tracer.counts["ringstd.nf_ring.base"] += 1
        tracer.counts["ringstd.nf_ring.nonzero"] += not result.is_zero()


def _queue_len(args, kwargs):
    return len(args[0].queue)


def _count_dropped(tracer, args, result, before):
    tracer.counts["boolgb.chain.base"] += before
    tracer.counts["boolgb.chain.dropped"] += before - len(args[0].queue)


def _cache_of(args, kwargs):
    # bgb_single(p, ordering, cache); _single_worthwhile(h, cache, ordering)
    cache = kwargs.get("cache")
    if cache is None:
        cache = next((a for a in args if isinstance(a, boolgb.SymCache)), None)
    return cache, (cache.hits, cache.misses) if cache is not None else (0, 0)


def _count_hits(tracer, args, result, token):
    cache, (hits, misses) = token
    if cache is not None:
        tracer.counts["boolgb.symcache.hits"] += cache.hits - hits
        tracer.counts["boolgb.symcache.misses"] += cache.misses - misses


Z = zdd.ZddManager

# (span name, owner, attribute, before hook, after hook)
TARGETS = [
    ("zdd.xor", Z, "symmetric_diff", None, None),
    ("zdd.union", Z, "union", None, None),
    ("zdd.intersect", Z, "intersect", None, None),
    ("zdd.diff", Z, "diff", None, None),
    ("zdd.cofactor", Z, "subset0", None, None),
    ("zdd.cofactor", Z, "subset1", None, None),
    ("zdd.cofactor", Z, "change", None, None),
    ("zdd.divisors", Z, "divisors_within", None, None),
    ("zdd.paths", Z, "first_path", None, None),
    ("zdd.paths", Z, "succ_path", None, None),
    ("zdd.paths", Z, "path_vars", None, None),
    ("zdd.paths", Z, "count_paths", None, None),
    ("boolpoly.mul", boolpoly, "_mul", None, None),
    ("boolpoly.mul", boolpoly, "mul_boolean", None, None),
    ("boolpoly.mul", boolpoly, "mul_monomial", None, None),
    ("boolpoly.nf_mon", boolpoly, "_nf_mon", None, None),
    ("boolpoly.nf_mon", boolpoly, "nf_monomial_set", None, None),
    ("boolpoly.lead", boolpoly, "_lead_vars", None, None),
    ("boolpoly.lead", boolpoly, "lead_vars", None, None),
    ("boolpoly.lead", boolpoly, "lead", None, None),
    ("boolgb.buchberger", boolgb, "buchberger", None, None),
    ("boolgb.reduce", boolgb._ReductionTable, "reduce", None,
     _reduce_nonzero),
    ("boolgb.interreduce", boolgb, "interreduce", None, None),
    ("boolgb.sat_model", boolgb, "sat_check", None, None),
    ("boolgb.symcache", boolgb, "bgb_single", _cache_of, _count_hits),
    ("boolgb.symcache", boolgb, "_single_worthwhile", _cache_of, _count_hits),
    ("boolgb.chain", boolgb.GBState, "prune_old_pairs", _queue_len,
     _count_dropped),
    ("boolgb.conjunction", boolgb, "conjunction_generator", None, None),
    ("interp.zeros", interp, "zeros", None, None),
    ("interp.interp_lex", interp, "interpolate_smallest_lex", None, None),
    ("interp.nf_by_interpolate", interp, "nf_by_interpolate", None, None),
    ("interp.standard_monomials", interp, "standard_monomials", None, None),
    ("ringstd.std_basis", ringstd, "std_basis", None, None),
    ("ringstd.nf_ring", ringstd, "nf_ring", None, _nf_ring_build),
    ("ringstd.spoly", ringstd, "spoly_ring", None, None),
    ("ringstd.spoly", ringstd, "spoly_extended", None, None),
    ("ringstd.criteria", ringstd, "product_criterion_ring", None, _count_true),
    ("ringstd.criteria", ringstd, "zero_criterion", None, _count_true),
    ("ringstd.criteria", ringstd, "_chain_drop", None, _count_true),
    ("ringstd.reduce_basis", ringstd, "_reduce_basis", None, None),
    ("cli", cli, "main", None, None),
] + [
    ("encode", encode, attr, None, None)
    for attr in ("parse_circuit", "word_level_encode", "blast", "bit_add",
                 "bit_mul", "parse_dimacs", "cnf_to_polys", "pigeonhole_cnf",
                 "pigeonhole", "mult_verification")
]

# span names whose call count and self time are reported per workload
LAYER_SPANS = (
    "zdd.xor", "zdd.union", "zdd.intersect", "zdd.diff", "zdd.cofactor",
    "zdd.divisors", "zdd.paths", "boolpoly.mul", "boolpoly.nf_mon",
    "boolpoly.lead", "boolgb.buchberger", "boolgb.reduce",
    "boolgb.interreduce", "boolgb.sat_model", "boolgb.symcache",
    "boolgb.chain", "boolgb.conjunction", "interp.zeros", "interp.interp_lex",
    "interp.nf_by_interpolate", "interp.standard_monomials",
    "ringstd.std_basis", "ringstd.nf_ring", "ringstd.spoly",
    "ringstd.criteria", "ringstd.reduce_basis", "encode", "cli",
)


class Tracer:
    """Span aggregates, ratio counters, ZDD managers and GC pauses of the
    traced part of one run."""

    def __init__(self):
        self.stack = [["bench", 0.0]]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.managers: list = []
        self.gc_pause_s = 0.0
        self.gc_full_collections = 0
        self._gc_start = None
        self._active: dict[str, list] = {}
        self._undo: list = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, before, after in TARGETS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name, before, after)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapped)
            else:
                # every module that imported the function binds it too
                for modname in MODULES:
                    mod = sys.modules[modname]
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, key, wrapped)
        init = Z.__dict__["__init__"]
        self._rebind(Z, "__init__", self._track_manager(init))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _track_manager(self, init):
        managers = self.managers

        def __init__(man, *args, **kwargs):
            init(man, *args, **kwargs)
            managers.append(man)

        return __init__

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_full_collections += 1

    def _wrap(self, fn, name, before, after):
        tracer = self
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        active = self._active.setdefault(name, [False])

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            active[0] = True
            frame = [name, 0.0]
            parent = stack[-1][0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                active[0] = False
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(tracer, args, result, token)
            return result

        return traced

    # -- phases and results --------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A benchmark phase: the parent of the layer spans it contains."""
        frame = [name, 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            self.stack.pop()

    def nodes_created(self) -> int:
        """Decision nodes of the managers built while installed; forgets
        them."""
        total = sum(len(m) for m in self.managers)
        self.managers.clear()
        return total

    def layer_metrics(self, nodes: int) -> dict:
        """Per-layer metric name -> (value, unit)."""
        calls = Counter()
        self_s = Counter()
        for (name, _parent), (n, _incl, own) in self.spans.items():
            calls[name] += n
            self_s[name] += own
        c = self.counts

        def ratio(num, base):
            return c[num] / c[base] if c[base] else 0.0

        out = {"zdd.nodes_created": (nodes, "count")}
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        hits = c["boolgb.symcache.hits"]
        looked = hits + c["boolgb.symcache.misses"]
        out.update({
            "boolgb.reduce.nonzero_ratio": (
                ratio("boolgb.reduce.nonzero", "boolgb.reduce.base"),
                "ratio"),
            "boolgb.symcache.hit_ratio": (hits / looked if looked else 0.0,
                                          "ratio"),
            "boolgb.chain.drop_ratio": (
                ratio("boolgb.chain.dropped", "boolgb.chain.base"), "ratio"),
            "ringstd.nf_ring.nonzero_ratio": (
                ratio("ringstd.nf_ring.nonzero", "ringstd.nf_ring.base"),
                "ratio"),
            "ringstd.criteria.drop_ratio": (
                ratio("ringstd.criteria.dropped", "ringstd.criteria.base"),
                "ratio"),
            "runtime.gc_pause_s": (self.gc_pause_s, "s"),
            "runtime.gc_full_collections": (self.gc_full_collections, "count"),
        })
        return out

    def span_table(self) -> list[str]:
        """One line per (name, parent), heaviest self time first."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        return [
            f"span {name:<28} parent {parent:<28} calls {n:>9} "
            f"incl {incl:9.4f} s self {own:9.4f} s"
            for (name, parent), (n, incl, own) in rows
        ]
