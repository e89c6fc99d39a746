import hashlib
import itertools

import pytest

from zddgb import encode
from zddgb.boolgb import sat_check
from zddgb.boolpoly import BoolRing, eval_poly
from zddgb.encode import (
    BitSystem,
    EncodeError,
    bit_add,
    bit_mul,
    blast,
    cnf_to_polys,
    const_bits,
    mult_verification,
    parse_circuit,
    parse_dimacs,
    pigeonhole,
    pigeonhole_cnf,
    word_level_encode,
)

RUNNING_EXAMPLE = """
wordlen 4
signal a b c d e f
assign d = b add c
assign e = a mul d
assert b = 0
assert f = a mul c
disequal f e
"""


def test_word_level_running_example():
    ws = word_level_encode(parse_circuit(RUNNING_EXAMPLE))
    assert ws.ring.m == 16
    assert ws.ring.names == ["a", "b", "c", "d", "e", "f", "s"]
    got = [str(p) for p in ws.polys]
    R = ws.ring
    expected = [
        R.parse("b + c - d"),
        R.parse("a*d - e"),
        R.parse("-b"),
        R.parse("a*c - f"),
        R.parse("f*s - e*s - 8"),
    ]
    assert [str(p) for p in expected] == got
    assert len(ws.polys) == 5


def test_word_level_const_and_no_disequality():
    c = parse_circuit("wordlen 2\nsignal x\nassign x = 3\n")
    ws = word_level_encode(c)
    assert len(ws.polys) == 1
    assert ws.polys[0] == ws.ring.parse("3 - x")
    assert ws.ring.names == ["x"]     # no gadget variable


def test_circuit_errors():
    with pytest.raises(EncodeError):
        parse_circuit("signal a\n")          # missing wordlen
    with pytest.raises(EncodeError):
        parse_circuit("wordlen 2\nsignal a\nassign b = a add a\n")
    with pytest.raises(EncodeError):
        parse_circuit("wordlen 2\nsignal a b\nassign a = b xor b\n")


# -- bit arithmetic ----------------------------------------------------------------


def test_bit_add_width1():
    ring = BoolRing(["a0", "b0"], "lp")
    bits, aux = bit_add([ring.var("a0")], [ring.var("b0")])
    assert aux == []
    assert bits == [ring.parse("a0 + b0")]


def test_bit_mul_expanded_forms_n4():
    names = [f"a{i}" for i in range(3, -1, -1)] + [f"b{i}" for i in range(3, -1, -1)]
    ring = BoolRing(names, "lp")
    a = [ring.var(f"a{i}") for i in range(4)]
    b = [ring.var(f"b{i}") for i in range(4)]
    p, aux = bit_mul(a, b)
    assert aux == []
    assert p[0] == ring.parse("a0*b0")
    assert p[1] == ring.parse("a1*b0 + a0*b1")
    assert p[2] == ring.parse("a2*b0 + a1*b1 + a0*b2 + a1*a0*b1*b0")
    assert p[3] == ring.parse(
        "a3*b0 + a2*b1 + a1*b2 + a0*b3"
        " + a2*a1*a0*b1*b0 + a2*a1*b1*b0 + a2*a0*b2*b0"
        " + a1*a0*b2*b1*b0 + a1*a0*b2*b1 + a1*a0*b1*b0"
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bit_arith_matches_integers(n):
    names = [f"a{i}" for i in range(n - 1, -1, -1)] + [
        f"b{i}" for i in range(n - 1, -1, -1)
    ]
    ring = BoolRing(names, "lp")
    a = [ring.var(f"a{i}") for i in range(n)]
    b = [ring.var(f"b{i}") for i in range(n)]
    sums, _ = bit_add(a, b)
    prods, _ = bit_mul(a, b)
    for x in range(2**n):
        for y in range(2**n):
            point = {}
            for i in range(n):
                point[ring.index(f"a{i}")] = (x >> i) & 1
                point[ring.index(f"b{i}")] = (y >> i) & 1
            pt = tuple(point[i] for i in range(2 * n))
            s = sum(eval_poly(sums[i], pt) << i for i in range(n))
            p = sum(eval_poly(prods[i], pt) << i for i in range(n))
            assert s == (x + y) % 2**n
            assert p == (x * y) % 2**n


def test_bit_add_fresh_carries():
    names = ["t0", "t1", "a1", "a0", "b1", "b0"]
    ring = BoolRing(names, "lp")
    used = []

    def fresh(tag):
        v = ring.var(f"t{len(used)}")
        used.append(tag)
        return v

    bits, aux = bit_add(
        [ring.var("a0"), ring.var("a1")], [ring.var("b0"), ring.var("b1")], fresh
    )
    assert len(aux) == 1 and len(used) == 1
    # the carry variable appears in the high sum bit; its definition ties
    # it to a0*b0
    assert ring.index("t0") in bits[1].vars_of()
    assert aux[0] == ring.var("t0") + ring.parse("a0*b0")


def _bit_add_three_products(a_bits, b_bits, fresh=None):
    """bit_add with the carry written out as ab + ac + bc."""
    ring = a_bits[0].ring
    aux, carry, out = [], ring.zero, []
    for i, (a, b) in enumerate(zip(a_bits, b_bits)):
        out.append(a + b + carry)
        if i == len(a_bits) - 1:
            break
        new_carry = a * b + a * carry + b * carry
        if fresh is not None:
            cv = fresh(f"carry{i}")
            aux.append(cv + new_carry)
            new_carry = cv
        carry = new_carry
    return out, aux


@pytest.mark.parametrize("n", range(1, 7))
def test_carry_of_two_products_matches_three(n, monkeypatch):
    """ab + c(a+b) is ab + ac + bc over GF(2): the multiplier systems and
    a blasted add/mul circuit are the same, polynomial by polynomial."""
    circuit = (f"wordlen {n}\nsignal a b c d\nassign c = a add b\n"
               "assign d = c mul a\nassert d = 1\n")

    def systems():
        out = [blast(parse_circuit(circuit))]
        if n >= 2:
            out += [mult_verification(n), mult_verification(n, tamper=True)]
        return [(s.ring.names, [p.term_set() for p in s.polys]) for s in out]

    two = systems()
    monkeypatch.setattr(encode, "bit_add", _bit_add_three_products)
    assert systems() == two


# -- blast -------------------------------------------------------------------------------


def test_blast_equation_x_eq_zero():
    bs = blast(parse_circuit("wordlen 2\nsignal x\nassign x = 0\n"))
    assert {str(p) for p in bs.polys} == {"x0", "x1"}


def test_blast_disequality_width1():
    src = "wordlen 1\nsignal f e\ndisequal f e\n"
    bs = blast(parse_circuit(src))
    assert [str(p) for p in bs.polys] == ["f0 + e0 + 1"]


def test_blast_product_constraints_n4():
    src = "wordlen 4\nsignal p a b\nassign p = a mul b\n"
    bs = blast(parse_circuit(src))
    assert len(bs.polys) == 4
    ring = bs.ring
    a = [ring.var(f"a{i}") for i in range(4)]
    b = [ring.var(f"b{i}") for i in range(4)]
    prods, _ = bit_mul(a, b)
    for i in range(4):
        assert bs.polys[i] == prods[i] + ring.var(f"p{i}")


def test_blast_soundness_exhaustive():
    # word solutions correspond exactly to bit solutions under base-2
    src = "wordlen 2\nsignal x y z\nassign z = x mul y\nassert z = 2\n"
    bs = blast(parse_circuit(src))
    m = 4
    word_solutions = set()
    for x in range(m):
        for y in range(m):
            z = x * y % m
            if z == 2:
                word_solutions.add((x, y, z))
    bit_solutions = set()
    for pt in itertools.product((0, 1), repeat=bs.ring.n):
        if all(eval_poly(p, pt) == 0 for p in bs.polys):
            vals = {}
            for nm in ("x", "y", "z"):
                vals[nm] = sum(
                    pt[bs.bit_names[nm][i]] << i for i in range(2)
                )
            bit_solutions.add((vals["x"], vals["y"], vals["z"]))
    assert word_solutions == bit_solutions


def test_disequality_gadget_solvable_iff_different():
    for n in (1, 2, 3):
        m = 2**n
        half = 2 ** (n - 1)
        for f in range(m):
            for e in range(m):
                solvable = any(s * (f - e) % m == half for s in range(m))
                assert solvable == (f != e)


# -- CNF ----------------------------------------------------------------------------------


def test_parse_dimacs_and_errors():
    nvars, clauses = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
    assert nvars == 3 and clauses == [[1, -2], [3]]
    with pytest.raises(EncodeError):
        parse_dimacs("p dnf 3 2\n1 0\n")
    with pytest.raises(EncodeError):
        parse_dimacs("p cnf 2 1\n5 0\n")
    with pytest.raises(EncodeError):
        parse_dimacs("1 0\n")
    err = None
    try:
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    except EncodeError as exc:
        err = exc
    assert err is not None and err.line == 2


@pytest.mark.parametrize("text, line, message", [
    ("p cnf -1 0\n", 1, "negative count in header 'p cnf -1 0'"),
    ("c x\np cnf 2 -1\n", 2, "negative count in header 'p cnf 2 -1'"),
    ("p cnf 2 1\n1 0\np cnf 3 1\n", 3,
     "second 'p cnf' line (first on line 1)"),
    ("p cnf 2 1\np cnf 2 1\n1 0\n", 2,
     "second 'p cnf' line (first on line 1)"),
], ids=["negative-vars", "negative-clauses", "second-after-clause",
        "second-before-clause"])
def test_parse_dimacs_header_errors_name_the_line(text, line, message):
    # a negative count and a second header were once accepted; the second
    # header silently replaced the first
    with pytest.raises(EncodeError) as exc:
        parse_dimacs(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_cnf_to_polys_examples():
    system = cnf_to_polys(parse_dimacs("p cnf 2 1\n1 0\n"))
    assert [str(p) for p in system.polys] == ["v1 + 1"]
    system = cnf_to_polys(parse_dimacs("p cnf 2 1\n1 -2 0\n"))
    ring = system.ring
    # product of literal polynomials: (v1 + 1) * v2
    assert system.polys[0] == ring.parse("v1*v2 + v2")
    for pt in itertools.product((0, 1), repeat=2):
        sat = pt[0] == 1 or pt[1] == 0
        assert (eval_poly(system.polys[0], pt) == 0) == sat
    empty = cnf_to_polys((2, [[]]))
    assert empty.polys[0].is_one()


def test_cnf_equivalence_random():
    import random

    rnd = random.Random(50)
    for _ in range(25):
        nvars = rnd.randrange(2, 7)
        clauses = [
            [rnd.choice((1, -1)) * (rnd.randrange(nvars) + 1)
             for _ in range(rnd.randrange(1, 4))]
            for _ in range(rnd.randrange(1, 6))
        ]
        system = cnf_to_polys((nvars, clauses))
        for pt in itertools.product((0, 1), repeat=nvars):
            sat = all(
                any(
                    (lit > 0) == bool(pt[abs(lit) - 1]) for lit in clause
                )
                for clause in clauses
            )
            vanish = all(eval_poly(p, pt) == 0 for p in system.polys)
            assert sat == vanish


# -- benchmark families -------------------------------------------------------------------


def test_pigeonhole_counts_and_verdicts():
    nvars, clauses = pigeonhole_cnf(6)
    assert nvars == 42 and len(clauses) == 133
    system = pigeonhole(1)
    assert sat_check(system.polys)[0] == "UNSAT"
    assert sat_check(pigeonhole(2).polys)[0] == "UNSAT"


def simulate_netlist(system: BitSystem, n: int, x: int, y: int):
    """Forward-evaluate encoding B's definitions; returns the output word."""
    ring = system.ring
    assign = {}
    for i in range(n):
        assign[system.bit_names["a"][i]] = (x >> i) & 1
        assign[system.bit_names["b"][i]] = (y >> i) & 1
    for poly in system.polys[:-1]:
        unknown = [v for v in poly.vars_of() if v not in assign]
        assert len(unknown) == 1
        probe = [assign.get(i, 0) for i in range(ring.n)]
        probe[unknown[0]] = 0
        assign[unknown[0]] = eval_poly(poly, tuple(probe))
    return sum(assign[system.bit_names["o"][i]] << i for i in range(n))


@pytest.mark.parametrize("n", [2, 3])
def test_mult_verification_encodings_agree(n):
    system = mult_verification(n)
    for x in range(2**n):
        for y in range(2**n):
            assert simulate_netlist(system, n, x, y) == (x * y) % 2**n
    assert sat_check(system.polys)[0] == "UNSAT"


def test_mult_verification_7_node_budget():
    # regression guard on the Boolean products behind the expanded golden
    # side and the output comparison: 32,393 nodes with the comparison
    # built most significant bit first, 53,265 least significant bit first
    system = mult_verification(7)
    assert len(system.ring.manager) <= 35_000


def test_mult_verification_8_node_budget():
    # 187,507 nodes most significant bit first, 435,298 least first
    system = mult_verification(8)
    assert len(system.ring.manager) <= 200_000


# sha256 head over n = 2..7, tamper off and on, of the ring's names, every
# polynomial but the comparison as text, and the comparison's term count,
# as the encoder built them with the comparison least significant bit first
MULT_VERIFICATION_DIGEST = "e2387212607716cc"


def test_mult_verification_order_keeps_every_polynomial():
    h = hashlib.sha256()
    for n in range(2, 8):
        for tamper in (False, True):
            system = mult_verification(n, tamper)
            ring = system.ring
            golden, _ = bit_mul(
                [ring.var(f"a{i}") for i in range(n)],
                [ring.var(f"b{i}") for i in range(n)],
            )
            lsb_first = ring.one
            for i in range(n):
                lsb_first = lsb_first * (ring.one + ring.var(f"o{i}") + golden[i])
            assert lsb_first.z == system.polys[-1].z, (n, tamper)
            h.update(
                repr(
                    (
                        ring.names,
                        [str(p) for p in system.polys[:-1]],
                        len(system.polys[-1]),
                    )
                ).encode()
            )
    assert h.hexdigest()[:16] == MULT_VERIFICATION_DIGEST


def test_mult_verification_tampered_has_countermodel():
    system = mult_verification(2, tamper=True)
    verdict, model = sat_check(system.polys)
    assert verdict == "SAT"
    # the countermodel drives the netlist to an output that differs from
    # the true product
    x = sum(model[system.bit_names["a"][i]] << i for i in range(2))
    y = sum(model[system.bit_names["b"][i]] << i for i in range(2))
    o = sum(model[system.bit_names["o"][i]] << i for i in range(2))
    assert o != (x * y) % 4
