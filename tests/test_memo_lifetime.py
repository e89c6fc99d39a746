"""Memos serve the manager in use: an engine entry point activates its
ring's manager, which empties the memos of the manager that the thread
activated before.  Nodes stay, so every diagram of the emptied manager
stays valid and every answer stays the same."""

import gc
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zddgb import boolgb, interp
from zddgb.boolgb import (
    buchberger,
    conjunction_generator,
    greedy_nf,
    interreduce,
    sat_check,
)
from zddgb.boolpoly import BoolRing
from zddgb.interp import (
    PartialFn,
    PointSet,
    interpolate_smallest_lex,
    nf_by_interpolate,
    points_gb,
    standard_monomials,
    zeros,
)
from zddgb.zdd import MEMOS, ZddManager


def memo_sizes(man: ZddManager) -> dict:
    return man.stats()["memos"]


def filled(n: int, seed: int):
    """(ring, points, polynomials, basis) after one round of queries, so
    that the ring's manager holds memo entries and a greedy_nf table."""
    rnd = random.Random(seed)
    ring = BoolRing.indexed(n)
    P = PointSet.from_points(ring, {
        tuple(rnd.randrange(2) for _ in range(n)) for _ in range(3 * n)})
    polys = [ring.from_terms(
        frozenset(v for v in range(n) if rnd.random() < 0.4)
        for _ in range(5)) for _ in range(3)]
    basis = points_gb(P)
    for f in polys:
        greedy_nf(f, basis)
        nf_by_interpolate(f, P)
    return ring, P, polys, basis


def test_stats_counts_nodes_and_memo_entries():
    ring, P, polys, basis = filled(6, 1)
    man = ring.manager
    stats = man.stats()
    assert stats["nodes"] == len(man)
    assert stats["memos"] == {name[1:]: len(getattr(man, name))
                              for name in MEMOS}
    assert len(MEMOS) == 14 and all(stats["memos"][k] for k in
                                    ("union", "xor", "zeros", "ilex"))
    man.reset()
    assert man.stats() == {"nodes": 0,
                           "memos": dict.fromkeys(stats["memos"], 0)}


def test_operation_on_another_ring_empties_the_memos():
    A, PA, _, basis_a = filled(6, 2)
    assert any(memo_sizes(A.manager).values())
    assert A.manager._nf_table is not None
    B, PB, _, _ = filled(5, 3)
    assert not any(memo_sizes(A.manager).values())
    assert A.manager._nf_table is None
    assert any(memo_sizes(B.manager).values())


def test_activation_drops_the_table_and_its_substitution_memo():
    ring = BoolRing.indexed(4)
    basis = [ring.parse("x0 + x1*x2 + x3"), ring.parse("x1 + x3 + 1")]
    f = ring.parse("x0*x1 + x0*x3 + x2")
    form = greedy_nf(f, basis)
    table = ring.manager._nf_table[1]
    assert table.linear and table._nf_memo
    del table
    filled(5, 11)
    assert ring.manager._nf_table is None
    gc.collect()
    assert not [t for t in gc.get_objects()
                if isinstance(t, boolgb._ReductionTable) and t.ring is ring]
    assert greedy_nf(f, basis) == form


def test_emptied_manager_keeps_its_bases_and_nodes():
    A, PA, polys, basis = filled(7, 4)
    printed = [str(g) for g in basis]
    forms = [str(greedy_nf(f, basis)) for f in polys]
    nodes = len(A.manager)
    filled(6, 5)
    assert not any(memo_sizes(A.manager).values())
    assert [str(g) for g in basis] == printed
    assert [str(g) for g in points_gb(PA)] == printed
    assert [str(greedy_nf(f, basis)) for f in polys] == forms
    assert [str(nf_by_interpolate(f, PA)) for f in polys] == forms
    assert len(A.manager) == nodes
    A.manager.check_invariants()


def test_activation_keeps_no_manager_alive():
    ring, P, polys, basis = filled(5, 6)
    ref = weakref.ref(ring.manager)
    del ring, P, polys, basis
    gc.collect()
    assert ref() is None
    # the next activation finds the dead reference and empties nothing
    B, PB, _, basis_b = filled(5, 7)
    assert [str(g) for g in points_gb(PB)] == [str(g) for g in basis_b]


# each entry point on ring B, given B's points P, polynomials f, g and the
# partial function zeros | ones
ENTRY_POINTS = {
    "greedy_nf": (boolgb, lambda P, f, g, b: greedy_nf(f, [g])),
    "buchberger": (boolgb, lambda P, f, g, b: buchberger([f, g])),
    "interreduce": (boolgb, lambda P, f, g, b: interreduce([f, g])),
    "conjunction_generator": (
        boolgb, lambda P, f, g, b: conjunction_generator([f, g])),
    "sat_check": (boolgb, lambda P, f, g, b: sat_check([f, g])),
    "zeros": (interp, lambda P, f, g, b: zeros(f, P)),
    "interpolate_smallest_lex": (
        interp, lambda P, f, g, b: interpolate_smallest_lex(b)),
    "nf_by_interpolate": (interp, lambda P, f, g, b: nf_by_interpolate(f, P)),
    "standard_monomials": (interp, lambda P, f, g, b: standard_monomials(P)),
    "points_gb": (interp, lambda P, f, g, b: points_gb(P)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_activates_its_manager(name):
    module, call = ENTRY_POINTS[name]
    # the call is in the function's own body, not in a caller or wrapper
    assert "activate" in getattr(module, name).__code__.co_names
    B = BoolRing.indexed(4)
    P = PointSet.from_points(B, [(0, 0, 1, 1), (1, 0, 1, 0), (1, 1, 0, 0)])
    f, g = B.parse("x0*x1 + x2"), B.parse("x1 + x3 + 1")
    b = PartialFn(PointSet.from_points(B, [(0, 0, 1, 1)]),
                  PointSet.from_points(B, [(1, 1, 0, 0)]))
    A, *_ = filled(6, 8)
    assert any(memo_sizes(A.manager).values())
    call(P, f, g, b)
    assert not any(memo_sizes(A.manager).values())
    assert A.manager._nf_table is None


def run_ops(side, ops) -> list:
    """Results of ops, as printable values, on side = (P, polys, basis)."""
    P, polys, basis = side
    out = []
    for op, i in ops:
        f = polys[i]
        if op == "points_gb":
            out.append([str(h) for h in points_gb(P)])
        elif op == "greedy_nf":
            out.append(str(greedy_nf(f, basis)))
        elif op == "nf_by_interpolate":
            out.append(str(nf_by_interpolate(f, P)))
        else:
            out.append(sat_check([f, polys[(i + 1) % len(polys)]]))
    return out


def make_side(n: int, points, terms):
    ring = BoolRing.indexed(n)
    P = PointSet.from_points(ring, points)
    return P, [ring.from_terms(t) for t in terms], points_gb(P)


@settings(max_examples=60)
@given(st.data())
def test_interleaved_rings_match_separate_runs(data):
    n = data.draw(st.integers(2, 6))
    point = st.tuples(*[st.integers(0, 1)] * n)
    poly = st.lists(st.frozensets(st.integers(0, n - 1)), max_size=5)
    inputs = [(data.draw(st.lists(point, max_size=14)),
               data.draw(st.lists(poly, min_size=3, max_size=3)))
              for _ in range(2)]
    ops = data.draw(st.lists(st.tuples(
        st.integers(0, 1),
        st.sampled_from(["points_gb", "greedy_nf", "nf_by_interpolate",
                         "sat_check"]),
        st.integers(0, 2)), min_size=1, max_size=16))
    sides = [make_side(n, *inp) for inp in inputs]
    interleaved = [[], []]
    for k, op, i in ops:
        interleaved[k].extend(run_ops(sides[k], [(op, i)]))
    for k in (0, 1):
        alone = run_ops(make_side(n, *inputs[k]),
                        [(op, i) for kk, op, i in ops if kk == k])
        assert interleaved[k] == alone


def workload(seed: int) -> list:
    """Answers of rounds alternating two rings that one thread owns."""
    rnd = random.Random(seed)
    sides = []
    for n in (6, 7):
        pts = {tuple(rnd.randrange(2) for _ in range(n)) for _ in range(20)}
        terms = [[frozenset(v for v in range(n) if rnd.random() < 0.4)
                  for _ in range(5)] for _ in range(3)]
        sides.append(make_side(n, sorted(pts), terms))
    ops = [(op, i) for op in ("points_gb", "greedy_nf", "nf_by_interpolate",
                              "sat_check") for i in range(3)]
    return [run_ops(sides[r % 2], ops) for r in range(6)]


def test_threads_with_their_own_managers_match_sequential_runs():
    seeds = range(4)
    want = [workload(s) for s in seeds]
    got = [None] * len(seeds)
    errors = []

    def work(k: int):
        try:
            got[k] = workload(seeds[k])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == want


def test_another_threads_activation_leaves_the_memos():
    A, *_ = filled(6, 9)
    sizes = memo_sizes(A.manager)
    t = threading.Thread(target=filled, args=(5, 10))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    assert memo_sizes(A.manager) == sizes and any(sizes.values())
