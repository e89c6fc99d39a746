"""Command-line front end.

Subcommands: gb, nf, sat, zeros, interp, encode.  Exit codes: 0 on
success, 2 on parse errors, 3 on internal invariant violations, 4 when an
input exceeds a resource limit (recursion depth, memory, 2^32 diagram
nodes, or an exponent or degree past 32767 over Z/m; memory includes the
SystemError that CPython raises when it runs out deep in a recursion);
`sat` follows the SAT-solver convention of 10 (satisfiable, model
printed) and 20 (unsatisfiable).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import encode as enc
from .boolgb import buchberger, greedy_nf, sat_check
from .boolpoly import BoolRing, check_names
from .interp import (PartialFn, PointSet, interpolate_smallest_lex, points_gb,
                     zeros)
from .ringstd import ExponentOverflowError, ZmRing, rednf_ring, std_basis
from .zdd import ZddError


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
    first: dict[str, int] = {}  # directive -> line of its first occurrence
    polys_src: list[tuple[int, str]] = []
    for ln, line in enc._content_lines(text):
        head, *rest = line.split(None, 1)
        arg = rest[0] if rest else ""
        if head not in ("vars", "order", "mod"):
            polys_src.append((ln, line))
            continue
        if head in first:
            raise ValueError(f"line {ln}: second {head!r} line "
                             f"(first on line {first[head]})")
        first[head] = ln
        if head == "vars":
            names = arg.split()
            _naming(f"line {ln}: ", check_names, names)
        elif head == "order":
            if not arg:
                raise ValueError(f"line {ln}: 'order' needs a value")
            file_order = arg
        else:
            try:
                file_mod = _modulus(arg)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"line {ln}: {exc}") from None
    if names is None:
        raise ValueError("missing 'vars' line in system file")
    if modulus is None:
        modulus = file_mod
    where = ""
    if order is None and file_order is not None:
        # the ring kind is known only now; errors still name the line
        order, where = file_order, f"line {first['order']}: "
    # names and modulus are checked above, so only the ordering fails
    if modulus is None:
        ring = _naming(where, BoolRing, names, order or "lp")
    else:
        ring = _naming(where, ZmRing, modulus, names, order or "lp")
    return ring, [_naming(f"line {ln}: ", ring.parse, src)
                  for ln, src in polys_src]


def _naming(where: str, fn, *args):
    """fn(*args), with where, the line or flag at fault, prefixed to a
    ValueError or ExponentOverflowError it raises; the type, and with it
    the exit code (2 or 4), stays."""
    try:
        return fn(*args)
    except ExponentOverflowError as exc:
        raise ExponentOverflowError(f"{where}{exc}") from None
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


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
    seen: dict[str, tuple[int, int]] = {}  # bits -> (value, line)
    width = None
    for ln, line in enc._content_lines(text):
        parts = line.split()
        bits = parts[0]
        if not set(bits) <= {"0", "1"}:
            raise ValueError(f"line {ln}: point must be a 0/1 string")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValueError(f"line {ln}: point width differs")
        pts.append(tuple(int(b) for b in bits))
        if values:
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ValueError(f"line {ln}: expected '<bits> <0|1>'")
            value = int(parts[1])
            prev = seen.setdefault(bits, (value, ln))
            if prev[0] != value:
                raise ValueError(f"line {ln}: point {bits} already has value "
                                 f"{prev[0]} from line {prev[1]}")
            vals.append(value)
        elif len(parts) != 1:
            raise ValueError(f"line {ln}: expected a bare point")
    if width is None:
        raise ValueError("empty point file")
    return width, pts, vals


def _report(args, payload: dict) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload) + "\n")


# -- subcommands ----------------------------------------------------------------------


def cmd_gb(args) -> int:
    text = _read(args.file)
    t0 = time.perf_counter()
    ring, polys = read_system(text, args.order, args.mod)
    if isinstance(ring, ZmRing):
        basis = std_basis(polys)
        # the whole ring: std_basis returns [u] for the first unit constant u
        trivial = (len(basis) == 1 and not any(basis[0].lm())
                   and ring.mod.is_unit(basis[0].lc()))
    else:
        basis = buchberger(polys)
        trivial = basis == [ring.one]
    lines = [str(g) for g in basis]
    seconds = time.perf_counter() - t0
    for line in lines:
        print(line)
    _report(args, {
        "command": "gb", "instance": args.file, "vars": ring.n,
        "eqs": len(polys), "basis_size": len(basis),
        "verdict": "trivial" if trivial else "basis",
        "seconds": round(seconds, 6),
    })
    return 0


def cmd_nf(args) -> int:
    text = _read(args.file)
    ring, polys = read_system(text, args.order, args.mod)
    f = _naming("--poly: ", ring.parse, args.poly)
    nf = rednf_ring if isinstance(ring, ZmRing) else greedy_nf
    print(nf(f, polys))
    return 0


def cmd_sat(args) -> int:
    text = _read(args.file)
    if any(line.split()[:2] == ["p", "cnf"] for line in text.splitlines()):
        system = enc.cnf_to_polys(enc.parse_dimacs(text), args.order or "lp")
        ring, polys = system.ring, system.polys
    else:
        ring, polys = read_system(text, args.order)
        if isinstance(ring, ZmRing):
            raise ValueError("sat needs a Boolean system; the file sets a modulus")
    t0 = time.perf_counter()
    preprocess = None if args.preprocess == "none" else args.preprocess
    if polys:
        verdict, model = sat_check(polys, preprocess=preprocess)
    else:
        # no constraints: every point is a model, and sat_check's least
        # point (compared from the last variable first) is 0...0
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
        print("v " + " ".join(map(str, lits + [0])))
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
        raise ValueError("--vars: variable list does not match point width")
    ring = _naming("--vars: ", BoolRing, names)
    f = _naming("--poly: ", ring.parse, args.poly)
    P = PointSet.from_points(ring, pts)
    for p in sorted(zeros(f, P).points()):
        print("".join(map(str, p)))
    return 0


def cmd_interp(args) -> int:
    width, pts, vals = read_points(_read(args.file), values=not args.basis)
    ring = BoolRing.indexed(width)
    if args.basis:
        for g in points_gb(PointSet.from_points(ring, pts)):
            print(g)
        return 0
    zs = PointSet.from_points(ring, [p for p, v in zip(pts, vals) if v == 0])
    os_ = PointSet.from_points(ring, [p for p, v in zip(pts, vals) if v == 1])
    print(interpolate_smallest_lex(PartialFn(zs, os_)))
    return 0


def cmd_encode(args) -> int:
    circuit = enc.parse_circuit(_read(args.file))
    if args.mode == "word":
        system = enc.word_level_encode(circuit)
        print(f"mod {system.ring.m}")
    else:
        system = enc.blast(circuit)
    print("vars " + " ".join(system.ring.names))
    for p in system.polys:
        print(p)
    return 0


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; subcommand c runs
    `cmd_c`, looked up when `main` runs."""
    ap = argparse.ArgumentParser(
        prog="zddgb",
        description="Groebner bases for Boolean polynomials and Z/m, with "
                    "circuit and SAT front ends",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, mod=True, report=True):
        p.add_argument("file")
        order = "lp, dlex, dp_asc or block(kind:end,...)"
        p.add_argument("--order",
                       help=f"{order}; lp or dlex with --mod" if mod else order)
        if mod:
            p.add_argument("--mod", type=_modulus,
                           help="coefficient modulus m >= 2 (ring mode)")
        if report:
            p.add_argument("--json", action="store_true",
                           help="emit a json-lines report")

    p = sub.add_parser("gb", help="reduced Groebner/standard basis")
    common(p)

    p = sub.add_parser("nf", help="normal form of --poly against the file")
    common(p, report=False)
    p.add_argument("--poly", required=True)

    p = sub.add_parser("sat", help="satisfiability of a DIMACS or polynomial file")
    common(p, mod=False)
    p.add_argument("--preprocess", choices=["none", "conjunction"],
                   default="none")

    p = sub.add_parser("zeros", help="zeros of --poly within a point file")
    p.add_argument("file")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", help="comma-separated variable names")

    p = sub.add_parser("interp", help="lex-smallest interpolant of a point/value file")
    p.add_argument("file")
    p.add_argument("--basis", action="store_true",
                   help="treat the file as a plain point list and print the "
                        "reduced lex basis of its vanishing ideal")

    p = sub.add_parser("encode", help="polynomial system of a circuit file")
    p.add_argument("file")
    p.add_argument("--mode", choices=["word", "bit"], default="bit")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (enc.EncodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ZddError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ExponentOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RecursionError, MemoryError, SystemError) as exc:
        # the diagram recursions take one frame per variable level
        print(f"error: resource limit reached ({str(exc) or type(exc).__name__})",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
