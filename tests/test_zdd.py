import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zddgb import zdd
from zddgb.zdd import ONE, ZERO, NodeLimitError, ZddError, ZddManager


@pytest.fixture
def man():
    return ZddManager(6)


def test_mk_node_zero_suppression(man):
    g = man.singleton([2])
    assert man.mk_node(0, ZERO, g) == g


def test_mk_node_canonical(man):
    a = man.mk_node(1, ONE, ZERO)
    b = man.mk_node(1, ONE, ZERO)
    assert a == b


def test_mk_node_order_violation(man):
    inner = man.mk_node(1, ONE, ZERO)
    with pytest.raises(ZddError):
        man.mk_node(3, inner, ZERO)


def test_mk_node_index_out_of_range():
    man = ZddManager(4)
    for v in (-1, -4, -5, 4, 10**6):
        with pytest.raises(ZddError, match="out of range"):
            man.mk_node(v, ONE, ZERO)
    # a negative index reads a subtable from the end of the list; with
    # (ONE, ZERO) in every subtable it must still be refused
    nodes = [man.mk_node(v, ONE, ZERO) for v in range(4)]
    for v in (-1, -2, -4, -5, 4, 10**6):
        with pytest.raises(ZddError, match="out of range"):
            man.mk_node(v, ONE, ZERO)
    assert [man.mk_node(v, ONE, ZERO) for v in range(4)] == nodes
    assert len(man) == 4


def test_node_id_limit(monkeypatch):
    monkeypatch.setattr(zdd, "NODE_ID_LIMIT", 6)
    man = ZddManager(8)
    ids = [man.mk_node(v, ONE, ZERO) for v in range(4)]
    assert ids == [2, 3, 4, 5]
    with pytest.raises(NodeLimitError):
        man.mk_node(4, ONE, ZERO)
    # hits still answer, and nothing was half-created
    assert man.mk_node(0, ONE, ZERO) == 2 and len(man) == 4
    man.check_invariants()


def test_ac_plus_c_has_two_nodes_sharing_c():
    # a > b > c; the diagram of a*c + c shares its c-node
    man = ZddManager(3)
    f = man.union(man.singleton([0, 2]), man.singleton([2]))
    nodes = set()
    stack = [f]
    while stack:
        z = stack.pop()
        if z <= ONE or z in nodes:
            continue
        nodes.add(z)
        stack.append(man.then_branch(z))
        stack.append(man.else_branch(z))
    assert len(nodes) == 2
    assert man.top(f) == 0
    assert man.then_branch(f) == man.else_branch(f)


def test_branch_accessors():
    man = ZddManager(3)
    f = man.union(man.singleton([0, 2]), man.singleton([2]))
    assert man.top(f) == 0
    c = man.singleton([2])
    assert man.else_branch(f) == c
    assert man.then_branch(c) == ONE
    with pytest.raises(ZddError):
        man.top(ONE)


def test_set_algebra_identities(man):
    s = man.from_sets([[0, 1], [2], []])
    assert man.union(s, ZERO) == s
    assert man.intersect(s, s) == s
    both = man.from_sets([[], [0]])
    assert man.diff(both, man.singleton([0])) == ONE


def test_subset_cofactors():
    man = ZddManager(3)
    f = man.union(man.singleton([0, 2]), man.singleton([2]))
    c = man.singleton([2])
    assert man.subset1(f, 0) == c
    assert man.subset0(f, 0) == c
    assert man.subset1(f, 1) == ZERO


def test_divisors_within(man):
    # {x, x*y, z} with x=0, y=1, z=2
    s = man.from_sets([[0], [0, 1], [2]])
    hits = man.divisors_within(s, [0, 1])
    assert set(man.iter_paths(hits)) == {(0,), (0, 1)}
    assert man.divisors_within(s, []) == ZERO
    withone = man.union(s, ONE)
    assert man.divisors_within(withone, []) == ONE
    assert man.divisors_within(ZERO, [0, 1]) == ZERO


@settings(max_examples=200)
@given(st.integers(1, 7), st.data())
def test_divisors_within_is_subset_filter(n, data):
    """divisors_within(S, m) is the diagram of {s in S : s ⊆ m}, for S
    with and without the empty set and S = 0, m as an index tuple and as
    a one-path diagram, and m = ∅."""
    man = ZddManager(n)
    sets = st.frozensets(st.integers(0, n - 1))
    family = data.draw(st.sets(sets, max_size=10))
    m = data.draw(sets)
    for S in (family | {frozenset()}, family - {frozenset()}, set()):
        for mon in (m, frozenset()):
            want = man.from_sets(s for s in S if s <= mon)
            lead_set = man.from_sets(S)
            assert man.divisors_within(lead_set, tuple(sorted(mon))) == want
            assert man.divisors_within(lead_set, man.singleton(mon)) == want


def test_path_iteration():
    man = ZddManager(3)
    f = man.union(man.singleton([0, 2]), man.singleton([2]))
    p = man.first_path(f)
    assert man.path_vars(p) == (0, 2)
    p2 = man.succ_path(p)
    assert man.path_vars(p2) == (2,)
    assert man.succ_path(p2) is None
    with pytest.raises(ZddError):
        man.first_path(ZERO)


def test_count_paths(man):
    assert man.count_paths(ZERO) == 0
    assert man.count_paths(ONE) == 1
    f = man.from_sets([[0, 2], [1, 2], [2]])
    assert man.count_paths(f) == 3


def random_family(man, rnd, max_sets=8):
    return [
        [v for v in range(man.num_vars) if rnd.random() < 0.4]
        for _ in range(rnd.randrange(max_sets))
    ]


def test_canonicity_two_construction_orders():
    rnd = random.Random(0)
    for _ in range(50):
        man = ZddManager(6)
        fam = random_family(man, rnd)
        a = man.from_sets(fam)
        b = ZERO
        for s in reversed(fam):
            b = man.union(b, man.singleton(s))
        assert a == b
        man.check_invariants()


def _union_fold(man, sets):
    out = ZERO
    for s in sets:
        out = man.union(out, man.singleton(s))
    return out


@settings(max_examples=300)
@given(st.integers(0, 7), st.data())
def test_from_sets_matches_union_of_singletons(n, data):
    """The one-pass build gives the diagram of the union-of-singletons
    fold, for families with repeated members, the empty set, no members,
    unsorted and repeated indices; an index out of range raises ZddError
    on both sides."""
    if n == 0:
        sets = st.just([])
    elif data.draw(st.booleans()):
        sets = st.lists(st.integers(-1, n), max_size=6)
    else:
        sets = st.lists(st.integers(0, n - 1), max_size=6)
    fam = data.draw(st.lists(sets, max_size=10))
    fam += data.draw(st.lists(st.sampled_from(fam), max_size=3)) if fam else []
    man = ZddManager(n)
    try:
        want = _union_fold(man, fam)
    except ZddError:
        with pytest.raises(ZddError):
            ZddManager(n).from_sets(fam)
        return
    before = len(man)
    assert man.from_sets(fam) == want
    assert len(man) == before  # every node already existed
    fresh = ZddManager(n)
    z = fresh.from_sets(fam)
    assert sorted(fresh.iter_paths(z)) == sorted({tuple(sorted(set(s))) for s in fam})
    fresh.check_invariants()


def test_from_sets_edge_cases():
    man = ZddManager(3)
    assert man.from_sets([]) == ZERO
    assert man.from_sets([[]]) == ONE
    assert man.from_sets([[], [], [2, 2]]) == _union_fold(man, [[], [2]])
    assert man.from_sets(iter([[2, 0], [0, 2]])) == man.singleton([0, 2])
    for bad in ([[3]], [[0], [1, -1]], [[], [0, 3]]):
        with pytest.raises(ZddError):
            man.from_sets(bad)


def test_from_sets_builds_only_result_nodes():
    """One mk_node per node of the result: a fresh manager holds exactly
    the diagram's nodes, and a long member is built by a loop."""
    man = ZddManager(1500)
    z = man.from_sets([range(1500)])
    assert len(man) == 1500 and man.count_paths(z) == 1
    # two long members that part ways only at the end: the shared stretch
    # is a chain too, so no recursion follows it
    man = ZddManager(1500)
    z = man.from_sets([range(1500), range(1499)])
    assert man.count_paths(z) == 2 and len(man) == 1500
    man = ZddManager(6)
    man.from_sets([[0, 1, 2], [0, 1, 3], [0, 4], [5], []])
    # x0 at the root, x1, x2, x3 and x4 below it, x5 on its else-chain
    assert len(man) == 6


def test_inclusion_exclusion_counts():
    rnd = random.Random(1)
    man = ZddManager(7)
    for _ in range(60):
        f = man.from_sets(random_family(man, rnd))
        g = man.from_sets(random_family(man, rnd))
        assert man.count_paths(man.union(f, g)) + man.count_paths(
            man.intersect(f, g)
        ) == man.count_paths(f) + man.count_paths(g)


def test_paths_strictly_increase_and_lex_order():
    rnd = random.Random(2)
    man = ZddManager(7)
    for _ in range(40):
        f = man.from_sets(random_family(man, rnd, 12))
        seen = list(man.iter_paths(f))
        assert len(seen) == man.count_paths(f)
        assert len(set(seen)) == len(seen)
        for mon in seen:
            assert list(mon) == sorted(mon)
        # natural sequence is descending lexicographic
        def lex_key(m):
            return tuple(-v for v in m)

        assert seen == sorted(seen, key=lex_key, reverse=True)


def test_zero_suppression_scan():
    rnd = random.Random(3)
    man = ZddManager(6)
    for _ in range(30):
        man.from_sets(random_family(man, rnd, 10))
    man.check_invariants()


def corrupt_rekey(man, v, key, n):
    del man._unique[v][key]
    man._unique[v][key ^ 1] = n


def corrupt_repoint(man, v, key, n):
    man._unique[v][key] = n + 1 if n + 1 < len(man._var) else n - 1


def corrupt_move(man, v, key, n):
    del man._unique[v][key]
    man._unique[v + 1][key] = n


@pytest.mark.parametrize("corrupt", [corrupt_rekey, corrupt_repoint,
                                     corrupt_move])
def test_check_invariants_decodes_keys(corrupt):
    man = ZddManager(4)
    man.from_sets([[0, 2], [1], [1, 3], [2, 3]])
    man.check_invariants()
    v = 1
    key, n = next(iter(man._unique[v].items()))
    assert (man._var[n], man._then[n], man._else[n]) == (
        v, key >> 32, key & 0xFFFFFFFF)
    corrupt(man, v, key, n)
    with pytest.raises(AssertionError, match="does not match its key"):
        man.check_invariants()


def test_reset_clears_arena():
    man = ZddManager(4)
    man.from_sets([[0], [1, 2]])
    assert len(man) > 0
    man.reset()
    assert len(man) == 0
