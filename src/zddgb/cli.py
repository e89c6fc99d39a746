"""Command-line front end.

Subcommands: gb, nf, sat, zeros, interp, encode, bench.  Exit codes: 0 on
success, 2 on parse errors, 3 on internal invariant violations; `sat`
follows the SAT-solver convention of 10 (satisfiable, model printed) and
20 (unsatisfiable).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import encode as enc
from .boolgb import buchberger, greedy_nf, sat_check
from .boolpoly import BoolRing, OrderingError, parse_ordering
from .interp import PartialFn, PointSet, points_gb, zeros
from .ringstd import RingStrategy, ZmRing, rednf_ring, std_basis
from .zdd import ZddError


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# -- system files ------------------------------------------------------------------


def read_system(text: str, order: str | None, modulus: int | None = None):
    """Directive lines (vars/order/mod) and one polynomial per line.

    A directive is recognised by its first token, so a polynomial may start
    with a variable such as `varsity`.  The ring is a ZmRing when a modulus
    is given (`modulus`, else a `mod` line) and a BoolRing otherwise;
    `order` and `modulus` take precedence over the file's lines.
    """
    names = None
    file_order = None
    file_mod = None
    polys_src: list[tuple[int, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        arg = rest[0] if rest else ""
        if head == "vars":
            names = arg.split()
        elif head == "order":
            if not arg:
                raise CliError(f"line {ln}: 'order' needs a value")
            file_order = arg
        elif head == "mod":
            try:
                file_mod = _modulus(arg)
            except argparse.ArgumentTypeError as exc:
                raise CliError(f"line {ln}: {exc}") from None
        else:
            polys_src.append((ln, line))
    if names is None:
        raise CliError("missing 'vars' line in system file")
    if modulus is None:
        modulus = file_mod
    order = order or file_order or "lp"
    if modulus is None:
        try:
            ring = BoolRing(names, parse_ordering(order))
        except OrderingError as exc:
            raise CliError(str(exc)) from None
    else:
        ring = ZmRing(modulus, names, order)
    polys = []
    for ln, src in polys_src:
        try:
            polys.append(ring.parse(src))
        except ValueError as exc:
            raise CliError(f"line {ln}: {exc}") from None
    return ring, polys


def _modulus(text: str) -> int:
    """The coefficient modulus m >= 2 written in text."""
    try:
        m = int(text)
    except ValueError:
        m = 0
    if m < 2:
        raise argparse.ArgumentTypeError(
            f"modulus must be an integer >= 2, got {text!r}"
        )
    return m


def read_points(text: str, values: bool):
    pts, vals = [], []
    width = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        bits = parts[0]
        if not set(bits) <= {"0", "1"}:
            raise CliError(f"line {ln}: point must be a 0/1 string")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise CliError(f"line {ln}: point width differs")
        pts.append(tuple(int(b) for b in bits))
        if values:
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise CliError(f"line {ln}: expected '<bits> <0|1>'")
            vals.append(int(parts[1]))
        elif len(parts) != 1:
            raise CliError(f"line {ln}: expected a bare point")
    if width is None:
        raise CliError("empty point file")
    return width, pts, vals


def _report(args, payload: dict) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload) + "\n")


# -- subcommands ----------------------------------------------------------------------


def cmd_gb(args) -> int:
    text = _read(args.file)
    t0 = time.perf_counter()
    ring, polys = read_system(text, args.order, args.mod)
    if isinstance(ring, ZmRing):
        basis = std_basis(polys, strategy=RingStrategy())
    else:
        basis = buchberger(polys)
    lines = [str(g) for g in basis]
    seconds = time.perf_counter() - t0
    for line in lines:
        print(line)
    _report(args, {
        "command": "gb", "instance": args.file, "vars": ring.n,
        "eqs": len(polys), "basis_size": len(basis),
        "verdict": "trivial" if lines == ["1"] else "basis",
        "seconds": round(seconds, 6),
    })
    return 0


def cmd_nf(args) -> int:
    text = _read(args.file)
    ring, polys = read_system(text, args.order, args.mod)
    f = ring.parse(args.poly)
    nf = rednf_ring if isinstance(ring, ZmRing) else greedy_nf
    print(nf(f, polys))
    return 0


def cmd_sat(args) -> int:
    text = _read(args.file)
    if any(line.split()[:2] == ["p", "cnf"] for line in text.splitlines()):
        system = enc.cnf_to_polys(text)
        ring, polys = system.ring, system.polys
    else:
        ring, polys = read_system(text, args.order)
        if isinstance(ring, ZmRing):
            raise CliError("sat needs a Boolean system; the file sets a modulus")
    t0 = time.perf_counter()
    preprocess = None if args.preprocess == "none" else args.preprocess
    if polys:
        verdict, model = sat_check(polys, preprocess=preprocess)
    else:
        # no constraints: every point is a model, the lex-smallest is 0...0
        verdict, model = "SAT", (0,) * ring.n
    seconds = time.perf_counter() - t0
    if verdict == "UNSAT":
        print("s UNSATISFIABLE")
        code = 20
    else:
        print("s SATISFIABLE")
        lits = [
            (i + 1) if model[i] else -(i + 1) for i in range(ring.n)
        ]
        print("v " + " ".join(map(str, lits)) + " 0")
        code = 10
    _report(args, {
        "command": "sat", "instance": args.file, "vars": ring.n,
        "eqs": len(polys), "basis_size": None, "verdict": verdict,
        "seconds": round(seconds, 6),
    })
    return code


def cmd_zeros(args) -> int:
    width, pts, _ = read_points(_read(args.file), values=False)
    names = args.vars.split(",") if args.vars else [f"x{i}" for i in range(width)]
    if len(names) != width:
        raise CliError("variable list does not match point width")
    ring = BoolRing(names, "lp")
    f = ring.parse(args.poly)
    P = PointSet.from_points(ring, pts)
    for p in sorted(zeros(f, P).points()):
        print("".join(map(str, p)))
    return 0


def cmd_interp(args) -> int:
    text = _read(args.file)
    if args.basis:
        width, pts, _ = read_points(text, values=False)
        ring = BoolRing([f"x{i}" for i in range(width)], "lp")
        P = PointSet.from_points(ring, pts)
        for g in points_gb(P):
            print(g)
        return 0
    width, pts, vals = read_points(text, values=True)
    ring = BoolRing([f"x{i}" for i in range(width)], "lp")
    zs = PointSet.from_points(ring, [p for p, v in zip(pts, vals) if v == 0])
    os_ = PointSet.from_points(ring, [p for p, v in zip(pts, vals) if v == 1])
    from .interp import interpolate_smallest_lex

    print(interpolate_smallest_lex(PartialFn(zs, os_)))
    return 0


def cmd_encode(args) -> int:
    circuit = enc.parse_circuit(_read(args.file))
    ws = enc.word_level_encode(circuit)
    if args.mode == "word":
        print(f"mod {2 ** circuit.wordlen}")
        print("vars " + " ".join(ws.ring.names))
        for p in ws.polys:
            print(p)
    else:
        bs = enc.blast(ws)
        print("vars " + " ".join(bs.ring.names))
        for p in bs.polys:
            print(p)
    return 0


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else None
    rows = []
    for family in args.family.split(","):
        family = family.strip()
        if family == "hole":
            ks = sizes or [4, 5, 6]
            for k in ks:
                system = enc.pigeonhole(k)
                rows.append((f"hole{k}", system, "conjunction"))
        elif family == "mult":
            ns = sizes or [2, 3, 4]
            for n in ns:
                system = enc.mult_verification(n)
                rows.append((f"mult{n}x{n}", system, None))
        else:
            raise CliError(f"unknown family {family!r}")
    for name, system, preprocess in rows:
        t0 = time.perf_counter()
        verdict, _ = sat_check(system.polys, preprocess=preprocess)
        seconds = time.perf_counter() - t0
        basis_size = 1 if verdict == "UNSAT" else None
        payload = {
            "command": "bench", "instance": name, "vars": system.num_vars,
            "eqs": system.num_eqs, "basis_size": basis_size,
            "verdict": verdict, "seconds": round(seconds, 3),
        }
        if args.json:
            print(json.dumps(payload))
        else:
            print(f"{name}: vars={system.num_vars} eqs={system.num_eqs} "
                  f"{verdict} in {seconds:.2f}s")
    return 0


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zddgb",
        description="Groebner bases for Boolean polynomials and Z/m, with "
                    "circuit and SAT front ends",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, mod=True):
        p.add_argument("file")
        p.add_argument("--order", help="lp, dlex, dp_asc or block(kind:end,...)")
        if mod:
            p.add_argument("--mod", type=_modulus,
                           help="coefficient modulus m >= 2 (ring mode)")
        p.add_argument("--json", action="store_true",
                       help="emit a json-lines report")

    p = sub.add_parser("gb", help="reduced Groebner/standard basis")
    common(p)
    p.set_defaults(fn=cmd_gb)

    p = sub.add_parser("nf", help="normal form of --poly against the file")
    common(p)
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("sat", help="satisfiability of a DIMACS or polynomial file")
    common(p, mod=False)
    p.add_argument("--preprocess", choices=["none", "conjunction"],
                   default="none")
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("zeros", help="zeros of --poly within a point file")
    p.add_argument("file")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", help="comma-separated variable names")
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("interp", help="lex-smallest interpolant of a point/value file")
    p.add_argument("file")
    p.add_argument("--basis", action="store_true",
                   help="treat the file as a plain point list and print the "
                        "reduced lex basis of its vanishing ideal")
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("encode", help="polynomial system of a circuit file")
    p.add_argument("file")
    p.add_argument("--mode", choices=["word", "bit"], default="bit")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("bench", help="benchmark instance families with timings")
    p.add_argument("--family", default="hole,mult")
    p.add_argument("--sizes", help="comma-separated sizes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except enc.EncodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ZddError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
