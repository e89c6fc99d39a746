import json
import re
import shlex
from pathlib import Path

import pytest

from zddgb.cli import build_parser, main


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


def test_sat_conjunction_preprocess(tmp_path, capsys):
    from zddgb.encode import pigeonhole_cnf

    nv, cls = pigeonhole_cnf(2)
    text = f"p cnf {nv} {len(cls)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in cls
    )
    path = write(tmp_path, "hole2.cnf", text)
    code, out, _ = run(capsys, "sat", path, "--preprocess", "conjunction")
    assert code == 20


def test_parse_error_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "vars x\nx + qq\n")
    code, _, err = run(capsys, "gb", bad)
    assert code == 2
    assert "line 2" in err
    badcnf = write(tmp_path, "bad.cnf", "p cnf 1 1\n7 0\n")
    code, _, err = run(capsys, "sat", badcnf)
    assert code == 2
    for directive in ("mod 0", "mod", "mod x", "mod 1", "order"):
        bad = write(tmp_path, "baddir.txt", f"vars x\nx\n{directive}\n")
        for extra in ((), ("--mod", "4")):
            code, _, err = run(capsys, "gb", bad, *extra)
            assert code == 2
            assert "line 3" in err and "Traceback" not in err
    good = write(tmp_path, "good.txt", "vars x\nx\n")
    for value in ("0", "1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["gb", good, "--mod", value])
        assert exc.value.code == 2
        assert "--mod" in capsys.readouterr().err


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


def test_interp_and_basis(tmp_path, capsys):
    pf = write(tmp_path, "pf.txt", "00 0\n11 0\n01 1\n10 1\n")
    code, out, _ = run(capsys, "interp", pf)
    assert code == 0
    assert out.strip() == "x0 + x1"
    pts = write(tmp_path, "pts.txt", "11\n")
    code, out, _ = run(capsys, "interp", pts, "--basis")
    assert out.splitlines() == ["x0 + 1", "x1 + 1"]


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


def test_bench_json(tmp_path, capsys):
    code, out, _ = run(capsys, "bench", "--family", "mult", "--sizes", "2", "--json")
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["instance"] == "mult2x2"
    assert payload["verdict"] == "UNSAT"
    assert set(payload) == {
        "command", "instance", "vars", "eqs", "basis_size", "verdict", "seconds"
    }


def test_bench_hole_text(tmp_path, capsys):
    code, out, _ = run(capsys, "bench", "--family", "hole", "--sizes", "2")
    assert code == 0
    assert "hole2" in out and "UNSAT" in out


def test_readme_cli_lines_parse():
    # every example in README's CLI block must still be accepted by the
    # argument parser (parsed only, not run)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("zddgb ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
