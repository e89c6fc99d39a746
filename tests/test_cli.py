import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from zddgb import ZmRing
from zddgb.boolgb import buchberger
from zddgb.boolpoly import BoolRing, eval_poly, lead_vars
from zddgb.cli import main, read_system
from zddgb.encode import (
    blast,
    mult_verification,
    parse_circuit,
    pigeonhole_cnf,
    word_level_encode,
)
from zddgb.ringstd import ExponentOverflowError, std_basis

from test_encode import RUNNING_EXAMPLE


# how a name that polynomial text cannot write is refused
UNNAMEABLE = ("cannot be named in a polynomial: a name is not empty, not all "
              "digits, and holds no whitespace and none of + - * ^")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_gb_boolean(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", "vars x y\nx + y\ny\n")
    code, out, _ = run(capsys, "gb", path)
    assert code == 0
    assert out.splitlines() == ["x", "y"]


def test_gb_ring_mode(tmp_path, capsys):
    path = write(tmp_path, "ring.txt", "vars x y\n2*x\n2*y\n")
    code, out, _ = run(capsys, "gb", path, "--mod", "4")
    assert code == 0
    assert out.splitlines() == ["2*x", "2*y"]


def test_gb_roundtrip_and_determinism(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", "vars a b c\na*b + c\nb*c + 1\na + b + c\n")
    code, out1, _ = run(capsys, "gb", path)
    assert code == 0
    code, out2, _ = run(capsys, "gb", path)
    assert out1 == out2
    back = write(tmp_path, "back.txt", "vars a b c\n" + out1)
    code, out3, _ = run(capsys, "gb", back)
    assert out3 == out1


def test_gb_json_schema(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", "vars x y\nx\nx + 1\n")
    code, out, _ = run(capsys, "gb", path, "--json")
    lines = out.splitlines()
    assert lines[0] == "1"
    payload = json.loads(lines[-1])
    assert set(payload) == {
        "command", "instance", "vars", "eqs", "basis_size", "verdict", "seconds"
    }
    assert payload["verdict"] == "trivial"


def test_nf(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", "vars x y\ny + 1\n")
    code, out, _ = run(capsys, "nf", path, "--poly", "x*y + x")
    assert code == 0
    assert out.strip() == "0"
    # a bad --poly names the flag, as a bad file line names the line
    for extra in ((), ("--mod", "4")):
        assert run(capsys, "nf", path, "--poly", "x +", *extra) == (
            2, "", "error: --poly: dangling '+' in 'x +'\n")


def test_nf_against_linear_lead_basis(tmp_path, capsys):
    # the reduced lex basis of a tampered multiplier has one variable as
    # every lead, so nf reduces by substitution; the output is pinned
    system = mult_verification(4, tamper=True)
    head = "vars " + " ".join(system.ring.names) + "\n"
    path = write(tmp_path, "mult4.txt",
                 head + "".join(f"{p}\n" for p in system.polys))
    code, basis, _ = run(capsys, "gb", path)
    assert code == 0 and len(basis.splitlines()) == 25
    path = write(tmp_path, "basis.txt", head + basis)
    code, out, _ = run(capsys, "nf", path, "--poly",
                       "o3*o2 + t15*t3 + o1*t1*t0 + t6*a2 + b1*o0 + t7 + 1")
    assert code == 0
    assert out == (
        "a3*a1*a0*b0 + a3*a1*b0 + a3*b0 + a1*a0*b3*b0 + a1*a0*b3 + a1*a0*b2"
        " + a1*a0*b0 + a1*b2*b0 + a1*b2 + a0*b3*b2 + a0*b3*b0 + a0*b2"
        " + a0*b0\n")


def test_nf_off_basis_agrees_on_variety(tmp_path, capsys):
    # systems that are not Groebner bases: the printed form depends on the
    # reductor choice, so check what any choice must give, not a string
    rnd = random.Random(41)
    names = ["a", "b", "c", "d", "e"]
    points = list(itertools.product((0, 1), repeat=len(names)))
    checked = 0
    while checked < 12:
        order = rnd.choice(["lp", "dlex", "dp_asc"])
        ring = BoolRing(names, order)
        gens = [ring.from_terms(
                    frozenset(v for v in range(5) if rnd.random() < 0.4)
                    for _ in range(rnd.randrange(1, 5)))
                for _ in range(rnd.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero() and not g.is_one()]
        leads = [frozenset(lead_vars(g)) for g in gens]
        # a basis's leads all lie in the lead ideal of the file
        if not gens or all(any(l <= frozenset(lead_vars(h)) for l in leads)
                           for h in buchberger(gens)):
            continue
        checked += 1
        path = write(tmp_path, "sys.txt", f"vars {' '.join(names)}\n"
                     f"order {order}\n" + "".join(f"{g}\n" for g in gens))
        f = ring.from_terms(frozenset(v for v in range(5) if rnd.random() < 0.5)
                            for _ in range(8))
        code, out, _ = run(capsys, "nf", path, "--poly", str(f))
        assert code == 0
        r = ring.parse(out.strip())
        assert not any(l <= frozenset(t) for t in r.terms() for l in leads)
        for p in points:
            if not any(eval_poly(g, p) for g in gens):
                assert eval_poly(r, p) == eval_poly(f, p)


def test_sat_exit_codes(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 2 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "sat", cnf)
    assert code == 20
    assert "UNSATISFIABLE" in out
    sat = write(tmp_path, "sat.txt", "vars x y\nx*y + 1\n")
    code, out, _ = run(capsys, "sat", sat)
    assert code == 10
    assert out.splitlines()[1] == "v 1 2 0"


def test_sat_p_cnf_in_comment(tmp_path, capsys):
    # only a line whose first two tokens are `p cnf` marks a DIMACS file
    path = write(tmp_path, "sys.txt", "vars x\n# was p cnf 1 1\nx + 1\n")
    code, out, _ = run(capsys, "sat", path)
    assert code == 10
    assert out.splitlines()[1] == "v 1 0"
    cnf = write(tmp_path, "f.cnf", "c header below\n  p   cnf 1 1\n1 0\n")
    code, out, _ = run(capsys, "sat", cnf)
    assert code == 10
    assert out.splitlines()[1] == "v 1 0"


def test_sat_empty_system(tmp_path, capsys):
    # no clauses or no polynomials: satisfiable, all-false model
    cnf = write(tmp_path, "empty.cnf", "p cnf 3 0\n")
    sys_file = write(tmp_path, "empty.txt", "vars a b c\n")
    for path in (cnf, sys_file):
        for extra in ((), ("--preprocess", "conjunction")):
            code, out, _ = run(capsys, "sat", path, *extra)
            assert code == 10
            assert out.splitlines() == ["s SATISFIABLE", "v -1 -2 -3 0"]
    # no variables either: the empty model, and one empty clause is UNSAT
    none = write(tmp_path, "none.cnf", "p cnf 0 0\n")
    falsum = write(tmp_path, "falsum.cnf", "p cnf 0 1\n0\n")
    for extra in ((), ("--preprocess", "conjunction")):
        code, out, _ = run(capsys, "sat", none, *extra)
        assert code == 10
        assert out.splitlines() == ["s SATISFIABLE", "v 0"]
        code, out, _ = run(capsys, "sat", falsum, *extra)
        assert code == 20
        assert out.splitlines() == ["s UNSATISFIABLE"]


@pytest.mark.parametrize("preprocess", ["none", "conjunction"])
def test_sat_clause_with_more_terms_than_len_holds(tmp_path, capsys, preprocess):
    # a 70-literal clause polynomial has 2^70 terms, past len()'s 2^63 - 1
    clause = " ".join(str(v) for v in range(1, 71))
    path = write(tmp_path, "wide.cnf", f"p cnf 70 2\n{clause} 0\n1 0\n")
    code, out, _ = run(capsys, "sat", path, "--preprocess", preprocess)
    assert code == 10
    model = " ".join(f"-{v}" for v in range(2, 71))
    assert out.splitlines() == ["s SATISFIABLE", f"v 1 {model} 0"]


def test_sat_order_applies_to_dimacs(tmp_path, capsys):
    # --order builds the CNF's ring as it does a system file's
    path = write(tmp_path, "f.cnf", "p cnf 3 2\n1 -2 0\n2 3 0\n")
    for order in ("bogus", "block(dlex:9)", "block(lp:3)"):
        code, out, err = run(capsys, "sat", path, "--order", order)
        assert code == 2 and out == "" and err.startswith("error:")
    for order in ("lp", "dlex", "dp_asc", "block(dp_asc:1,dlex:3)"):
        code, out, _ = run(capsys, "sat", path, "--order", order)
        assert code == 10
        assert out.splitlines() == ["s SATISFIABLE", "v 1 2 -3 0"]
    # sat decides under lp whatever the order: hole5 (30 variables) and a
    # satisfiable random 3-CNF print the same bytes under every order
    rnd = random.Random(36)
    sat_cnf = (20, [[v if rnd.random() < 0.5 else -v
                     for v in rnd.sample(range(1, 21), 3)] for _ in range(60)])
    for name, (nv, cls), code_lp in (("hole5", pigeonhole_cnf(5), 20),
                                     ("sat", sat_cnf, 10)):
        text = f"p cnf {nv} {len(cls)}\n" + "".join(
            " ".join(map(str, c)) + " 0\n" for c in cls)
        path = write(tmp_path, f"{name}.cnf", text)
        lp = run(capsys, "sat", path, "--order", "lp")
        assert lp[0] == code_lp and lp[2] == ""
        half = nv // 2
        for order in ("dlex", "dp_asc", f"block(dlex:{half},dp_asc:{nv})"):
            assert run(capsys, "sat", path, "--order", order) == lp, order


def test_sat_dimacs_header_errors_exit_2(tmp_path, capsys):
    # `p cnf -1 0` once printed `v 0` and exited 10; a second header once
    # replaced the first and printed `v 1 -2 -3 0`
    for text, err in (
            ("p cnf -1 0\n",
             "error: line 1: negative count in header 'p cnf -1 0'\n"),
            ("p cnf 2 1\n1 0\np cnf 3 1\n",
             "error: line 3: second 'p cnf' line (first on line 1)\n")):
        path = write(tmp_path, "bad.cnf", text)
        assert run(capsys, "sat", path) == (2, "", err)


def test_sat_conjunction_preprocess(tmp_path, capsys):
    from zddgb.encode import pigeonhole_cnf

    nv, cls = pigeonhole_cnf(2)
    text = f"p cnf {nv} {len(cls)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in cls
    )
    path = write(tmp_path, "hole2.cnf", text)
    code, out, _ = run(capsys, "sat", path, "--preprocess", "conjunction")
    assert code == 20


@pytest.mark.parametrize("k", [5, 6])
def test_sat_plain_pigeonhole_in_seconds(tmp_path, capsys, k):
    # a dense clause system goes by its zero set; through the pair loop
    # alone hole5 took 84 s
    from zddgb.encode import pigeonhole_cnf

    nv, cls = pigeonhole_cnf(k)
    text = f"p cnf {nv} {len(cls)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in cls
    )
    path = write(tmp_path, f"hole{k}.cnf", text)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "sat", path)
    assert time.perf_counter() - t0 < 10
    assert code == 20 and out == "s UNSATISFIABLE\n"


@pytest.mark.parametrize("poly", ["--a + b", "+-a + b", "++a + b"])
def test_at_most_one_leading_sign(tmp_path, capsys, poly):
    # both readers take one leading sign and reject a run of them
    bad = write(tmp_path, "signs.txt", f"vars a b\n{poly}\n")
    for extra in ((), ("--mod", "2")):
        code, out, err = run(capsys, "gb", bad, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: dangling")
    one = write(tmp_path, "sign.txt", "vars a b\n-a + b\n")
    for extra in ((), ("--mod", "2")):
        assert run(capsys, "gb", one, *extra) == (0, "a + b\n", "")


@pytest.mark.parametrize("poly, sign", [
    ("x -", "-"), ("x - -y", "-"), ("x - + y", "-"), ("- - x", "-"),
    ("x + -y", "+"), ("+-x + y", "+"), ("x +", "+"), ("x + - ", "+"),
])
def test_dangling_sign_named_as_written(tmp_path, capsys, poly, sign):
    # both readers name the sign the text has, not a '+' it was read as
    path = write(tmp_path, "sign.txt", f"vars x y\n{poly}\n")
    err = f"error: line 2: dangling {sign!r} in {poly.strip()!r}\n"
    for extra in ((), ("--mod", "4")):
        assert run(capsys, "gb", path, *extra) == (2, "", err)


def test_parse_error_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "vars x\nx + qq\n")
    code, _, err = run(capsys, "gb", bad)
    assert code == 2
    assert "line 2" in err
    badcnf = write(tmp_path, "bad.cnf", "p cnf 1 1\n7 0\n")
    code, _, err = run(capsys, "sat", badcnf)
    assert code == 2
    for directive in ("mod 0", "mod", "mod x", "mod 1", "order",
                      "order bogus", "order block(dlex:x)",
                      "order block(dlex:9)", "vars y"):
        bad = write(tmp_path, "baddir.txt", f"vars x\nx\n{directive}\n")
        for extra in ((), ("--mod", "4")):
            code, _, err = run(capsys, "gb", bad, *extra)
            assert code == 2
            assert "line 3" in err and "Traceback" not in err
            assert "invalid literal" not in err
    # the last file above is the one with a second vars line
    assert "line 3: second 'vars' line (first on line 1)" in err
    dup = write(tmp_path, "dup.txt", "vars x y x\nx*y\n")
    code, _, err = run(capsys, "gb", dup)
    assert code == 2
    assert "line 1: variable 'x' is listed twice" in err
    # a name no polynomial can write: a number, or one holding an operator
    for name in ("2", "a+b"):
        unreadable = write(tmp_path, "name.txt", f"vars x {name}\nx\n")
        for extra in ((), ("--mod", "4")):
            assert run(capsys, "gb", unreadable, *extra) == (
                2, "", f"error: line 1: variable {name!r} {UNNAMEABLE}\n")
    good = write(tmp_path, "good.txt", "vars x\nx\n")
    for value in ("0", "1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["gb", good, "--mod", value])
        assert exc.value.code == 2
        assert "--mod" in capsys.readouterr().err



def test_ordering_errors_pinned(tmp_path, capsys):
    # each ring reports a bad ordering itself, as a ValueError; the CLI
    # prints that message, prefixed by the line of a file's `order` line
    from zddgb import ZmRing

    for build, message in (
            (lambda: ZmRing(4, ["x"], "dp_asc"),
             "unsupported ring ordering 'dp_asc'"),
            (lambda: BoolRing(["x"], "bogus"), "unknown ordering kind 'bogus'")):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
    one = write(tmp_path, "one.txt", "vars x\nx\n")
    ring_file = write(tmp_path, "ring.txt", "mod 4\norder dp_asc\nvars x\nx\n")
    for argv, err in (
            (("sat", cnf, "--order", "bogus"),
             "error: unknown ordering kind 'bogus'\n"),
            (("gb", one, "--mod", "4", "--order", "dp_asc"),
             "error: unsupported ring ordering 'dp_asc'\n"),
            (("gb", ring_file),
             "error: line 2: unsupported ring ordering 'dp_asc'\n")):
        assert run(capsys, *argv) == (2, "", err)


def test_order_names_in_docs_match_the_rings(capsys):
    # README's system-file paragraph and the --order help name only
    # orderings the rings accept, and the help names every one they accept
    from zddgb import ZmRing
    from zddgb.boolpoly import _DEGREE_KEYS
    from zddgb.ringstd import _ORDERINGS

    def boolean_ring(name):
        ends = re.findall(r"\d+", name)
        return BoolRing.indexed(int(ends[-1]) if ends else 3, name)

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = re.search(r"optional `order` line\s*\((.*?)\), an optional `mod",
                     readme, re.S).group(1)
    documented = re.findall(r"`([^`]+)`", para)
    assert documented
    for name in documented:
        boolean_ring(name)
    for command, ring_mode in (("gb", True), ("nf", True), ("sat", False)):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        shown = " ".join(capsys.readouterr().out.split())
        text = re.search(r"--order ORDER (.*?) --(?:mod MOD|json|poly)",
                         shown).group(1)
        boolean, _, zm = text.partition("; ")
        *names, block = re.split(r", | or ", boolean)
        assert set(names) == {"lp", *_DEGREE_KEYS}
        assert set(names) <= set(documented)
        assert block == "block(kind:end,...)"
        for name in names:
            boolean_ring(name)
            if name != "lp":
                boolean_ring(f"block({name}:3)")
        if ring_mode:
            zm_names = re.split(r", | or ", zm.removesuffix(" with --mod"))
            assert set(zm_names) == set(_ORDERINGS)
            for name in zm_names:
                ZmRing(4, ["x"], name)
        else:
            assert zm == ""


def test_gb_json_trivial_over_zm(tmp_path, capsys):
    # the whole ring's standard basis is one unit constant, whichever unit
    # the loop met first; a non-unit constant is a basis like any other
    for text, mod, out, verdict in (
            ("x*y + 3\nx + 2\ny + 1\n", "8", "5", "trivial"),
            ("2*x\n2\n", "4", "2", "basis"),
            ("x\nx + 1\n", None, "1", "trivial")):
        path = write(tmp_path, "sys.txt", "vars x y\n" + text)
        extra = ("--mod", mod) if mod else ()
        code, got, _ = run(capsys, "gb", path, "--json", *extra)
        lines = got.splitlines()
        assert (code, lines[:-1]) == (0, [out])
        assert json.loads(lines[-1])["verdict"] == verdict


def test_whitespace_dropped_by_both_readers(tmp_path, capsys):
    # a tab is whitespace to the Z/m reader too, not part of a name
    from zddgb import ZmRing

    R = ZmRing(4, ["x", "y"])
    assert R.parse("x\t*\ty +\t3") == R.parse("x*y + 3")
    path = write(tmp_path, "tab.txt", "vars x y\nx -\t- y\n")
    err = "error: line 2: dangling '-' in 'x -\\t- y'\n"
    for extra in ((), ("--mod", "4")):
        assert run(capsys, "gb", path, *extra) == (2, "", err)
    # a space inside a name is dropped too: both readers look for 'xy'
    path = write(tmp_path, "space.txt", "vars x y\nx y\n")
    err = "error: line 2: unknown variable 'xy'\n"
    for extra in ((), ("--mod", "4")):
        assert run(capsys, "gb", path, *extra) == (2, "", err)


# strings of x, y, 0-3, + - * ^, a space and a tab; most break the
# grammar, so half of them are signed terms, which mostly read
READER_TEXTS = st.one_of(
    st.text(alphabet="xy0123+-*^ \t", max_size=14),
    st.lists(st.tuples(
        st.sampled_from(["+", "-", " + ", "\t- "]),
        st.lists(st.sampled_from(["x", "y", "0", "1", "x^2", "y^0", "1^3"]),
                 min_size=1, max_size=3).map("*".join)),
        min_size=1, max_size=4).map(lambda ts: "".join(s + t for s, t in ts)))


@settings(max_examples=500)
@given(READER_TEXTS)
def test_readers_agree(text):
    # both readers raise the same message, or read the same polynomial
    # once x^k is x; a number other than 1 only the Z/m reader takes
    B, Z = BoolRing(["x", "y"]), ZmRing(2, ["x", "y"])

    def read(ring):
        try:
            return ring.parse(text), None
        except ValueError as exc:
            return None, str(exc)
        except ExponentOverflowError:  # Z/m only: x^k past 32767
            reject()

    (b, b_err), (z, z_err) = read(B), read(Z)
    if b_err is not None and b_err.startswith("coefficient"):
        assert not b_err.startswith("coefficient '1'")
        return
    assert b_err == z_err
    if b_err is None:
        assert b == B.from_terms([v for v, e in enumerate(exps) if e]
                                 for exps, _ in z.terms)


@pytest.mark.parametrize("name", ["", "2", "007", "a+b", "a-b", "y*z", "x^2",
                                  "a b", "a\tb"])
def test_rings_refuse_names_that_text_cannot_write(name):
    for build in (BoolRing, lambda names: ZmRing(4, names)):
        with pytest.raises(ValueError) as exc:
            build(["x", name])
        assert str(exc.value) == f"variable {name!r} {UNNAMEABLE}"


@settings(max_examples=300)
@given(st.text(max_size=4))
def test_every_name_a_ring_takes_reads_back(name):
    try:
        B = BoolRing([name])
    except ValueError:
        with pytest.raises(ValueError):
            ZmRing(4, [name])
        return
    Z = ZmRing(4, [name])
    assert B.parse(f"{name}^2") == B.var(0)
    assert Z.parse(f"3*{name}^2") == Z.poly([((2,), 3)])


@pytest.mark.parametrize("poly", ["x*", "*x", "x**y", "x * * y", "1*", "x^2*"])
def test_dangling_star_named(tmp_path, capsys, poly):
    # a '*' with no factor on one side is named, as a dangling sign is
    path = write(tmp_path, "star.txt", f"vars x y\n{poly}\n")
    err = f"error: line 2: dangling '*' in {poly!r}\n"
    for extra in ((), ("--mod", "4")):
        assert run(capsys, "gb", path, *extra) == (2, "", err)


@pytest.mark.parametrize("poly", ["3*x + y", "x + y + 2", "0*x + y"])
def test_boolean_coefficient_points_to_mod(tmp_path, capsys, poly):
    # a number other than 0 or 1 standing alone is a coefficient, which
    # only the Z/m reader takes
    path = write(tmp_path, "coef.txt", f"vars x y\n{poly}\n")
    code, out, err = run(capsys, "gb", path)
    assert (code, out) == (2, "")
    coef = re.search(r"\d", poly).group()
    assert err == (f"error: line 2: coefficient {coef!r} in {poly!r}: a Boolean "
                   "term takes no coefficient but 1 (use --mod for Z/m)\n")
    assert run(capsys, "gb", path, "--mod", "4")[0] == 0


def test_json_only_on_gb_and_sat(tmp_path, capsys):
    # nf prints no report, so it takes no --json
    path = write(tmp_path, "sys.txt", "vars x y\nx + y\n")
    for command in ("gb", "sat"):
        code, out, _ = run(capsys, command, path, "--json")
        assert json.loads(out.splitlines()[-1])["command"] == command
    with pytest.raises(SystemExit) as exc:
        main(["nf", path, "--poly", "x", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err

@pytest.mark.parametrize("term", ["x^-1", "x^", "x +"])
def test_bad_term_exit_2_names_line(tmp_path, capsys, term):
    bad = write(tmp_path, "bad.txt", f"vars x y\nx*y + 1\n{term}\n")
    for extra in ((), ("--mod", "4")):
        code, out, err = run(capsys, "gb", bad, *extra)
        assert code == 2 and out == ""
        assert "line 3" in err and "Traceback" not in err


def test_resource_limits_exit_4(tmp_path, capsys, monkeypatch):
    names = [f"x{i}" for i in range(1500)]
    deep = write(tmp_path, "deep.txt",
                 f"vars {' '.join(names)}\n{' + '.join(names)}\n")
    code, out, err = run(capsys, "gb", deep)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err

    import zddgb.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_gb", exhausted)
    small = write(tmp_path, "small.txt", "vars x\nx\n")
    code, _, err = run(capsys, "gb", small)
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1


def test_system_error_exit_4(tmp_path, capsys, monkeypatch):
    # out of memory deep in a recursion, CPython can raise SystemError
    # rather than MemoryError; it exits 4 like any resource limit
    import zddgb.cli as cli

    def exhausted(*args, **kwargs):
        raise SystemError("error return without exception set")

    monkeypatch.setattr(cli, "sat_check", exhausted)
    cnf = write(tmp_path, "f.cnf", "p cnf 2 1\n1 2 0\n")
    code, out, err = run(capsys, "sat", cnf)
    assert code == 4 and out == ""
    assert err == ("error: resource limit reached "
                   "(error return without exception set)\n")


def test_node_id_limit_exit_4(tmp_path, capsys, monkeypatch):
    import zddgb.zdd as zdd

    path = write(tmp_path, "sys.txt", "vars a b c\na*b + c\nb*c + 1\na + b + c\n")
    monkeypatch.setattr(zdd, "NODE_ID_LIMIT", 8)
    code, out, err = run(capsys, "gb", path)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "limit of 8" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write(tmp_path, "sys.txt", "vars x y\nx + y\ny\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "zddgb", "gb", path],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x\ny\n", "")


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one parser per process; a failed command, in the parser or in the
    # file, leaves nothing behind for the next call, and every call prints
    # what a fresh `python -m zddgb` prints
    from zddgb.cli import build_parser

    assert build_parser() is build_parser()
    system = write(tmp_path, "sys.txt", "vars a b c\na*b + c\nb*c + 1\n")
    bad = write(tmp_path, "bad.txt", "vars a b\na +\n")
    calls = [("nf", system, "--poly", "a*b*c + a + b"),
             ("gb", bad),
             ("gb", system, "--mod", "x"),
             ("nf", system, "--poly", "a*b*c + a + b")]
    outs = []
    for argv in calls:
        try:
            code, out, _ = run(capsys, *argv)
        except SystemExit as exc:  # argparse refuses the option
            code, out = exc.code, capsys.readouterr().out
        assert code == (0 if argv[0] == "nf" else 2)
        outs.append(out)
    assert outs[0] == outs[3] and outs[0].strip()
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv, out in zip(calls, outs):
        proc = subprocess.run([sys.executable, "-m", "zddgb", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stdout) == (0 if argv[0] == "nf" else 2, out)


def test_exponent_limit_exit_4(tmp_path, capsys):
    # a Z/m monomial packs each exponent into 15 bits: 32767 is the largest
    at_limit = write(tmp_path, "limit.txt", "vars x\nx^32767\n")
    assert run(capsys, "gb", at_limit, "--mod", "4") == (0, "x^32767\n", "")
    past = write(tmp_path, "past.txt", "vars x\nx*x^0\nx^32768\n")
    assert run(capsys, "gb", past, "--mod", "4") == (
        4, "", "error: line 3: an exponent or degree passed 32767\n")
    assert run(capsys, "nf", at_limit, "--mod", "4", "--poly", "x^40000") == (
        4, "", "error: --poly: an exponent or degree passed 32767\n")
    # the inputs parse; the reduction's product y^13000 * y^20000 (lp) and
    # the pair's lcm x^20000*y^20000 (dlex, degree 40000) do not
    for order, system in (("lp", "x + y^20000\nx*y^13000\n"),
                          ("dlex", "2*x^20000 + y\n2*y^20000 + x\n")):
        path = write(tmp_path, f"{order}.txt", f"vars x y\n{system}")
        assert run(capsys, "gb", path, "--mod", "8", "--order", order) == (
            4, "", "error: an exponent or degree passed 32767\n")


def test_second_mod_or_order_line_exit_2(tmp_path, capsys):
    for directive, first, second in (("mod", "4", "8"), ("order", "lp", "dp")):
        path = write(tmp_path, "twice.txt",
                     f"vars x y\n{directive} {first}\n"
                     f"{directive} {second}\nx\n")
        for cmd in (("gb", path), ("nf", path, "--poly", "x"),
                    ("gb", path, "--mod", "4"), ("gb", path, "--order", "lp")):
            code, out, err = run(capsys, *cmd)
            assert code == 2 and out == ""
            assert (f"line 3: second '{directive}' line (first on line 2)"
                    in err)
    path = write(tmp_path, "sat.txt", "vars x\norder lp\nx\norder lp\n")
    code, _, err = run(capsys, "sat", path)
    assert code == 2
    assert "line 4: second 'order' line (first on line 2)" in err


def test_directive_matched_by_first_token(tmp_path, capsys):
    path = write(tmp_path, "sys.txt", "vars varsity order1 x\nvarsity + x\norder1\n")
    code, out, _ = run(capsys, "gb", path)
    assert code == 0
    assert out.splitlines() == ["varsity + x", "order1"]


def test_mod_line_selects_ring_mode(tmp_path, capsys):
    path = write(tmp_path, "ring.txt", "mod 4\nvars x y\n2*x\n2*y\n")
    code, out, _ = run(capsys, "gb", path)
    assert code == 0
    assert out.splitlines() == ["2*x", "2*y"]
    code, _, err = run(capsys, "sat", path)
    assert code == 2


def test_zeros(tmp_path, capsys):
    pts = write(tmp_path, "pts.txt", "00\n01\n10\n11\n")
    code, out, _ = run(capsys, "zeros", pts, "--poly", "x0 + 1")
    assert code == 0
    assert out.splitlines() == ["10", "11"]
    code, out, err = run(capsys, "zeros", pts, "--poly", "x", "--vars", "x,x")
    assert code == 2 and out == ""
    assert "--vars: variable 'x' is listed twice" in err
    for names, bad in (("x,2", "2"), ("x,", ""), ("x,y^2", "y^2")):
        assert run(capsys, "zeros", pts, "--poly", "x", "--vars", names) == (
            2, "", f"error: --vars: variable {bad!r} {UNNAMEABLE}\n")
    assert run(capsys, "zeros", pts, "--poly", "a", "--vars", "a,b,c") == (
        2, "", "error: --vars: variable list does not match point width\n")
    assert run(capsys, "zeros", pts, "--poly", "x0 +") == (
        2, "", "error: --poly: dangling '+' in 'x0 +'\n")


def test_interp_and_basis(tmp_path, capsys):
    pf = write(tmp_path, "pf.txt", "00 0\n11 0\n01 1\n10 1\n")
    code, out, _ = run(capsys, "interp", pf)
    assert code == 0
    assert out.strip() == "x0 + x1"
    pts = write(tmp_path, "pts.txt", "11\n")
    code, out, _ = run(capsys, "interp", pts, "--basis")
    assert out.splitlines() == ["x0 + 1", "x1 + 1"]


def test_interp_conflicting_values_exit_2(tmp_path, capsys):
    pf = write(tmp_path, "pf.txt", "01 0\n01 1\n")
    code, out, err = run(capsys, "interp", pf)
    assert code == 2 and out == ""
    assert "line 2: point 01 already has value 0 from line 1" in err
    assert "Traceback" not in err
    # a repeated point with the same value is consistent
    pf = write(tmp_path, "pf.txt", "01 1\n00 0\n01 1\n")
    code, out, _ = run(capsys, "interp", pf)
    assert code == 0


def test_interp_basis_deterministic(tmp_path, capsys):
    pts = write(tmp_path, "pts.txt", "000\n011\n101\n")
    code, out1, _ = run(capsys, "interp", pts, "--basis")
    code, out2, _ = run(capsys, "interp", pts, "--basis")
    assert code == 0
    assert out1 == out2 != ""


def test_encode_word_and_bit(tmp_path, capsys):
    circ = write(
        tmp_path,
        "c.txt",
        "wordlen 2\nsignal a b c\nassign c = a mul b\ndisequal c a\n",
    )
    code, out, _ = run(capsys, "encode", circ, "--mode", "word")
    assert code == 0
    assert out.splitlines()[0] == "mod 4"
    assert "vars a b c s" in out
    code, out, _ = run(capsys, "encode", circ)
    lines = out.splitlines()
    assert lines[0].startswith("vars c1 c0")
    assert len(lines) == 1 + 2 + 1   # vars, two bit equations, disequality


def test_encode_bad_circuit(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "wordlen 2\nsignal a\nassign a = b add b\n")
    code, _, err = run(capsys, "encode", bad)
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("wordlen 2\nsignal a a\n", "line 2: signal 'a' is listed twice"),
    ("wordlen 2\nsignal a\nsignal b a\n",
     "line 3: signal 'a' already declared on line 2"),
    ("wordlen 2\nsignal a\nassign a = a add q\n",
     "line 3: signal 'q' not declared"),
    ("wordlen 2\nsignal a b\n\ndisequal a q\n",
     "line 4: signal 'q' not declared"),
    ("wordlen 2\nsignal a\nwordlen 3\n",
     "line 3: second 'wordlen' line (first on line 1)"),
    ("wordlen 2\nsignal a b\ndisequal a b\ndisequal b a\n",
     "line 4: second 'disequal' line (first on line 3)"),
    ("wordlen 2\nsignal a b c\ndisequal a b c\n",
     "line 3: 'disequal' needs two signals"),
    ("signal a\nwordlen 0\n", "line 2: wordlen must be >= 1"),
    ("wordlen 11\nsignal a a1 z\nassign z = a add a1\n",
     "bit name 'a10' is bit 10 of signal 'a' and bit 0 of signal 'a1'"),
    ("wordlen 2\nsignal a 5\n", f"line 2: signal '5' {UNNAMEABLE}"),
    ("wordlen 2\n\nsignal y*z\n", f"line 3: signal 'y*z' {UNNAMEABLE}"),
], ids=["signal-twice", "signal-redeclared", "assign-undeclared",
        "disequal-undeclared", "second-wordlen", "second-disequal",
        "disequal-three", "wordlen-zero", "bit-names-collide",
        "signal-number", "signal-operator"])
def test_encode_circuit_errors_name_the_line(tmp_path, capsys, text, message):
    bad = write(tmp_path, "bad.txt", text)
    code, out, err = run(capsys, "encode", bad)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_encode_signal_declared_after_use(tmp_path, capsys):
    late = write(tmp_path, "late.txt",
                 "wordlen 2\nassign c = a mul b\nsignal c a b\n")
    code, out, _ = run(capsys, "encode", late, "--mode", "word")
    assert code == 0
    assert out.splitlines() == ["mod 4", "vars c a b", "3*c + a*b"]


# the circuits of this module and of test_encode.py, and one whose signal
# `s` takes the word-level gadget's name, so that the gadget is `s_`
ENCODED_CIRCUITS = [
    "wordlen 2\nsignal a b c\nassign c = a mul b\ndisequal c a\n",
    "wordlen 2\nassign c = a mul b\nsignal c a b\n",
    RUNNING_EXAMPLE,
    "wordlen 2\nsignal x\nassign x = 3\n",
    "wordlen 2\nsignal x\nassign x = 0\n",
    "wordlen 1\nsignal f e\ndisequal f e\n",
    "wordlen 4\nsignal p a b\nassign p = a mul b\n",
    "wordlen 2\nsignal x y z\nassign z = x mul y\nassert z = 2\n",
    "wordlen 3\nsignal s t u\nassign u = s add t\ndisequal u s\n",
]


@pytest.mark.parametrize("mode", ["word", "bit"])
@pytest.mark.parametrize("circuit", ENCODED_CIRCUITS, ids=[
    "mul-disequal", "declared-late", "running-example", "const-3", "const-0",
    "disequal-1bit", "mul-4bit", "assert", "gadget-s_"])
def test_encoded_system_and_its_basis_read_back(tmp_path, capsys, mode, circuit):
    # what `encode` prints reads back as the system it encoded, and each
    # element of the basis that `gb` prints reads back as itself
    c = parse_circuit(circuit)
    system = word_level_encode(c) if mode == "word" else blast(c)
    code, out, _ = run(capsys, "encode", write(tmp_path, "c.txt", circuit),
                       "--mode", mode)
    assert code == 0
    ring, polys = read_system(out, None)
    assert ring.names == system.ring.names
    if mode == "word":
        assert out.startswith(f"mod {system.ring.m}\n")
        assert ring.m == system.ring.m
        assert [p.terms for p in polys] == [p.terms for p in system.polys]
        basis = std_basis(polys)
    else:
        assert [p.term_set() for p in polys] == [
            p.term_set() for p in system.polys]
        basis = buchberger(polys)
    assert basis and all(ring.parse(str(g)) == g for g in basis)
    if "signal s " in circuit and mode == "word":
        assert ring.names[-1] == "s_"


def readme_quick_start():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(
        r"## Library quick start\n+```python\n(.*?)```", readme, re.S
    ).group(1)


def test_readme_quick_start_prints_its_comments(capsys):
    # README's "Library quick start" block runs, and each print shows what
    # the comment beside it says
    block = readme_quick_start()
    prints = [ln for ln in block.splitlines() if ln.startswith("print(")]
    assert prints and all("  # " in ln for ln in prints)
    expected = [ln.split("  # ", 1)[1] for ln in prints]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_library_quick_start():
    # every name README's quick start imports is public, and every name in
    # zddgb.__all__ resolves
    import zddgb

    imported = {name.strip()
                for line in re.findall(r"^from zddgb import (.*)$",
                                       readme_quick_start(), re.M)
                for name in line.split(",")}
    assert imported and imported <= set(zddgb.__all__)
    assert all(hasattr(zddgb, name) for name in zddgb.__all__)


# `encode` output for README's circuit in each mode; a change of variable
# order or of any printed polynomial shows here
README_CIRCUIT_WORD = (
    "mod 16\n"
    "vars a b c d e f s\n"
    "b + c + 15*d\n"
    "a*d + 15*e\n"
    "15*b\n"
    "a*c + 15*f\n"
    "15*e*s + f*s + 8\n"
)
README_CIRCUIT_BIT = (
    "vars d3 d2 d1 d0 e3 e2 e1 e0 b3 b2 b1 b0 f3 f2 f1 f0 a3 a2 a1 a0 c3 "
    "c2 c1 c0\n"
    "d0 + b0 + c0\n"
    "d1 + b1 + b0*c0 + c1\n"
    "d2 + b2 + b1*b0*c0 + b1*c1 + b0*c1*c0 + c2\n"
    "d3 + b3 + b2*b1*b0*c0 + b2*b1*c1 + b2*b0*c1*c0 + b2*c2 + "
    "b1*b0*c2*c0 + b1*c2*c1 + b0*c2*c1*c0 + c3\n"
    "d0*a0 + e0\n"
    "d1*a0 + d0*a1 + e1\n"
    "d2*a0 + d1*d0*a1*a0 + d1*a1 + d0*a2 + e2\n"
    "d3*a0 + d2*d1*d0*a1*a0 + d2*d1*a1*a0 + d2*d0*a2*a0 + d2*a1 + "
    "d1*d0*a2*a1*a0 + d1*d0*a2*a1 + d1*d0*a1*a0 + d1*a2 + d0*a3 + e3\n"
    "b0\n"
    "b1\n"
    "b2\n"
    "b3\n"
    "f0 + a0*c0\n"
    "f1 + a1*c0 + a0*c1\n"
    "f2 + a2*c0 + a1*a0*c1*c0 + a1*c1 + a0*c2\n"
    "f3 + a3*c0 + a2*a1*a0*c1*c0 + a2*a1*c1*c0 + a2*a0*c2*c0 + a2*c1 + "
    "a1*a0*c2*c1*c0 + a1*a0*c2*c1 + a1*a0*c1*c0 + a1*c2 + a0*c3\n"
    "e3*e2*e1*e0 + e3*e2*e1*f0 + e3*e2*e1 + e3*e2*e0*f1 + e3*e2*e0 + "
    "e3*e2*f1*f0 + e3*e2*f1 + e3*e2*f0 + e3*e2 + e3*e1*e0*f2 + "
    "e3*e1*e0 + e3*e1*f2*f0 + e3*e1*f2 + e3*e1*f0 + e3*e1 + "
    "e3*e0*f2*f1 + e3*e0*f2 + e3*e0*f1 + e3*e0 + e3*f2*f1*f0 + "
    "e3*f2*f1 + e3*f2*f0 + e3*f2 + e3*f1*f0 + e3*f1 + e3*f0 + e3 + "
    "e2*e1*e0*f3 + e2*e1*e0 + e2*e1*f3*f0 + e2*e1*f3 + e2*e1*f0 + "
    "e2*e1 + e2*e0*f3*f1 + e2*e0*f3 + e2*e0*f1 + e2*e0 + e2*f3*f1*f0 + "
    "e2*f3*f1 + e2*f3*f0 + e2*f3 + e2*f1*f0 + e2*f1 + e2*f0 + e2 + "
    "e1*e0*f3*f2 + e1*e0*f3 + e1*e0*f2 + e1*e0 + e1*f3*f2*f0 + "
    "e1*f3*f2 + e1*f3*f0 + e1*f3 + e1*f2*f0 + e1*f2 + e1*f0 + e1 + "
    "e0*f3*f2*f1 + e0*f3*f2 + e0*f3*f1 + e0*f3 + e0*f2*f1 + e0*f2 + "
    "e0*f1 + e0 + f3*f2*f1*f0 + f3*f2*f1 + f3*f2*f0 + f3*f2 + f3*f1*f0 + "
    "f3*f1 + f3*f0 + f3 + f2*f1*f0 + f2*f1 + f2*f0 + f2 + f1*f0 + f1 + "
    "f0 + 1\n"
)


def test_readme_cli_lines_run(tmp_path, capsys, monkeypatch):
    # every example in README's CLI block runs on small fixtures and exits
    # as documented, and `encode` prints the recorded systems for README's
    # circuit
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI.*?```sh\n(.*?)```", readme, re.S).group(1)
    circuit = re.search(r"Circuit files:\n+```\n(.*?)```", readme,
                        re.S).group(1)
    for name, text in [("system.txt", "vars x y z\nx*y + z\ny*z + x\n"),
                       ("formula.cnf", "p cnf 3 2\n1 -2 0\n2 3 0\n"),
                       ("points.txt", "000\n011\n101\n"),
                       ("values.txt", "000 0\n011 1\n101 1\n"),
                       ("circuit.txt", circuit)]:
        write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    lines = [ln for ln in block.splitlines() if ln.startswith("zddgb ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code, out, err = run(capsys, *argv)
        assert code in ((10, 20) if argv[0] == "sat" else (0,)), (line, err)
        assert out and err == "", line
    for mode, expected in (("word", README_CIRCUIT_WORD),
                           ("bit", README_CIRCUIT_BIT)):
        assert run(capsys, "encode", "circuit.txt", "--mode", mode) == (
            0, expected, "")

