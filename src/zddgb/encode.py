"""Translate verification problems into polynomial systems.

Word-level: circuits over Z/2^n become ideals with the disequality gadget
s*(f-e) = 2^(n-1).  Bit-level: each circuit statement blasts into n Boolean
polynomials, with the gadget replaced by prod(1 + f_i + e_i);
arithmetic is ripple-carry addition and schoolbook multiplication with
fully expanded carries (`bit_add` takes fresh carry variables on
request).  A DIMACS reader maps CNF clauses to products of literal
polynomials, and the pigeonhole / multiplier families generate the
benchmark instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boolpoly import BoolPoly, BoolRing, check_names
from .ringstd import ZmPoly, ZmRing


class EncodeError(Exception):
    """Malformed circuit or CNF input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# -- circuits -------------------------------------------------------------------


@dataclass
class Circuit:
    """Combinational word-level circuit with optional property and
    disequality pair."""

    wordlen: int
    signals: list[str] = field(default_factory=list)
    assigns: list[tuple] = field(default_factory=list)   # (dest, op, x, y)
    asserts: list[tuple] = field(default_factory=list)
    disequality: tuple[str, str] | None = None


def _content_lines(text: str):
    """(number from 1, line) for each line of text, cut at `#` and
    stripped, that is not blank; circuit, system and point files share
    this rule."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def parse_circuit(text: str) -> Circuit:
    """Line-oriented format: wordlen, signal, assign, assert, disequal.

    A signal may be declared after its first use; errors name the line.
    """
    c = Circuit(wordlen=0)
    declared: dict[str, int] = {}      # signal -> line of its declaration
    uses: list[tuple[str, int]] = []   # (signal, line) in reading order
    first: dict[str, int] = {}         # wordlen/disequal -> its line
    for ln, line in _content_lines(text):
        parts = line.split()
        kw = parts[0]
        if kw in ("wordlen", "disequal"):
            if kw in first:
                raise EncodeError(f"second {kw!r} line (first on line "
                                  f"{first[kw]})", ln)
            first[kw] = ln
        try:
            if kw == "wordlen":
                c.wordlen = int(parts[1])
                if c.wordlen <= 0:
                    raise EncodeError("wordlen must be >= 1", ln)
            elif kw == "signal":
                try:
                    check_names(parts[1:], "signal")
                except ValueError as exc:
                    raise EncodeError(str(exc), ln) from None
                for s in parts[1:]:
                    if s in declared:
                        raise EncodeError(f"signal {s!r} already declared "
                                          f"on line {declared[s]}", ln)
                    declared[s] = ln
                    c.signals.append(s)
            elif kw in ("assign", "assert"):
                # assign z = x op y   |   assign z = x   |   assign z = 3
                if parts[2] != "=":
                    raise EncodeError("expected '='", ln)
                dest = parts[1]
                rhs = parts[3:]
                if len(rhs) == 1:
                    val = rhs[0]
                    stmt = (
                        (dest, "const", int(val), 0)
                        if val.lstrip("-").isdigit()
                        else (dest, "copy", val, 0)
                    )
                elif len(rhs) == 3 and rhs[1] in ("add", "mul", "+", "*"):
                    op = "add" if rhs[1] in ("add", "+") else "mul"
                    stmt = (dest, op, rhs[0], rhs[2])
                else:
                    raise EncodeError(f"cannot parse rhs {' '.join(rhs)!r}", ln)
                (c.assigns if kw == "assign" else c.asserts).append(stmt)
                uses.extend((s, ln) for s in (dest, *stmt[2:])
                            if isinstance(s, str))
            elif kw == "disequal":
                if len(parts) != 3:
                    raise EncodeError("'disequal' needs two signals", ln)
                c.disequality = (parts[1], parts[2])
                uses.extend((s, ln) for s in c.disequality)
            else:
                raise EncodeError(f"unknown keyword {kw!r}", ln)
        except (IndexError, ValueError) as exc:
            raise EncodeError(f"cannot parse {line!r} ({exc})", ln) from None
    if "wordlen" not in first:
        raise EncodeError("missing 'wordlen' line")
    for s, ln in uses:
        if s not in declared:
            raise EncodeError(f"signal {s!r} not declared", ln)
    return c


# -- word level -------------------------------------------------------------------


@dataclass
class WordSystem:
    """Polynomial model over Z/2^n: the ring has the circuit's signals, then
    the gadget variable when there is a disequality pair."""

    ring: ZmRing
    polys: list[ZmPoly]


def word_level_encode(c: Circuit) -> WordSystem:
    """One generator per assignment/property; a disequality pair (f, e)
    contributes s*(f-e) - 2^(n-1) with a fresh variable s."""
    names = list(c.signals)
    s_name = None
    if c.disequality is not None:
        s_name = "s"
        while s_name in names:
            s_name += "_"
        names.append(s_name)
    ring = ZmRing(2**c.wordlen, names)

    def rhs_poly(op, x, y):
        if op == "const":
            return ring.const(x)
        if op == "copy":
            return ring.var(x)
        xv, yv = ring.var(x), ring.var(y)
        return xv + yv if op == "add" else xv * yv

    polys = [rhs_poly(op, x, y) - ring.var(dest)
             for dest, op, x, y in c.assigns + c.asserts]
    if c.disequality is not None:
        f, e = c.disequality
        gadget = ring.var(s_name) * (ring.var(f) - ring.var(e)) - ring.const(
            2 ** (c.wordlen - 1)
        )
        polys.append(gadget)
    return WordSystem(ring, polys)


# -- bit level --------------------------------------------------------------------


@dataclass
class BitSystem:
    """Boolean polynomial system plus its variable naming map."""

    ring: BoolRing
    polys: list[BoolPoly]
    bit_names: dict[str, list[int]] = field(default_factory=dict)


def bit_add(a_bits, b_bits, fresh=None):
    """Bitwise sum mod 2^n by ripple carry: s = a+b+c, c' = ab+ac+bc,
    computed as ab + c(a+b) with two products.

    With `fresh` (a callable tag -> variable polynomial) each carry becomes
    a fresh variable and its defining polynomial goes to the aux list;
    otherwise carries are expanded in place and aux stays empty.
    """
    if len(a_bits) != len(b_bits):
        raise ValueError("bit vectors must have equal length")
    n = len(a_bits)
    ring = a_bits[0].ring
    aux = []
    carry = ring.zero
    out = []
    for i in range(n):
        a, b = a_bits[i], b_bits[i]
        out.append(a + b + carry)
        if i == n - 1:
            break
        new_carry = a * b + carry * (a + b)
        if fresh is not None:
            cv = fresh(f"carry{i}")
            aux.append(cv + new_carry)
            carry = cv
        else:
            carry = new_carry
    return out, aux


def bit_mul(a_bits, b_bits):
    """Schoolbook product mod 2^n: partial-product rows accumulated with
    ripple additions.  Returns (bits, aux) as `bit_add` does; every carry
    is expanded, so aux is empty."""
    if len(a_bits) != len(b_bits):
        raise ValueError("bit vectors must have equal length")
    n = len(a_bits)
    ring = a_bits[0].ring
    acc = [a_bits[i] * b_bits[0] for i in range(n)]
    for j in range(1, n):
        row = [ring.zero] * j + [a_bits[i] * b_bits[j] for i in range(n - j)]
        acc, _ = bit_add(acc, row)
    return acc, []


def const_bits(ring: BoolRing, n: int, value: int):
    return [ring.one if (value >> i) & 1 else ring.zero for i in range(n)]


def blast(c: Circuit) -> BitSystem:
    """Bit-level model of a circuit: n Boolean polynomials per statement
    (assigns, then asserts), and for the disequality pair (f, e) the
    product prod(1 + f_i + e_i) in place of the word-level s-gadget.

    Statement targets take the largest variables, in order of first
    appearance, then the other signals; each signal's bits run from the
    most significant down.
    """
    n = c.wordlen
    statements = c.assigns + c.asserts
    ordered = dict.fromkeys([st[0] for st in statements] + c.signals)
    owner: dict[str, tuple[str, int]] = {}   # bit name -> (signal, bit)
    bit_names: dict[str, list[int]] = {}
    for nm in ordered:
        idxs = []
        for i in range(n - 1, -1, -1):
            bit = f"{nm}{i}"
            if bit in owner:
                other, j = owner[bit]
                raise EncodeError(f"bit name {bit!r} is bit {j} of signal "
                                  f"{other!r} and bit {i} of signal {nm!r}")
            idxs.append(len(owner))
            owner[bit] = (nm, i)
        bit_names[nm] = idxs[::-1]      # position i = bit of weight 2^i
    ring = BoolRing(list(owner))

    def signal_bits(nm: str):
        return [ring.var(v) for v in bit_names[nm]]

    def rhs_bits(op, x, y):
        if op == "const":
            return const_bits(ring, n, x % (2**n))
        if op == "copy":
            return signal_bits(x)
        xb, yb = signal_bits(x), signal_bits(y)
        return (bit_add if op == "add" else bit_mul)(xb, yb)[0]

    polys = []
    for dest, op, x, y in statements:
        db = signal_bits(dest)
        rb = rhs_bits(op, x, y)
        polys.extend(rb[i] + db[i] for i in range(n))
    if c.disequality is not None:
        f, e = c.disequality
        fb, eb = signal_bits(f), signal_bits(e)
        prod = ring.one
        for i in range(n):
            prod = prod * (ring.one + fb[i] + eb[i])
        polys.append(prod)
    return BitSystem(ring, polys, bit_names)


# -- CNF ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """DIMACS CNF: one 'p cnf V C' header with V, C >= 0, clauses
    terminated by 0."""
    nvars = None
    nclauses = None
    header = 0  # line of the header
    clauses: list[list[int]] = []
    current: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if header:
                raise EncodeError(
                    f"second 'p cnf' line (first on line {header})", ln)
            header = ln
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise EncodeError(f"malformed header {line!r}", ln)
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise EncodeError(f"malformed header {line!r}", ln) from None
            if nvars < 0 or nclauses < 0:
                raise EncodeError(f"negative count in header {line!r}", ln)
            continue
        if nvars is None:
            raise EncodeError("clause before header", ln)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise EncodeError(f"bad literal {tok!r}", ln) from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > nvars:
                    raise EncodeError(f"literal {lit} out of range", ln)
                current.append(lit)
    if current:
        clauses.append(current)
    if nvars is None:
        raise EncodeError("missing 'p cnf' header")
    if nclauses != len(clauses):
        raise EncodeError(
            f"header announces {nclauses} clauses, found {len(clauses)}"
        )
    return nvars, clauses


def cnf_to_polys(source, ordering: str = "lp") -> BitSystem:
    """One polynomial per clause of source = (nvars, clauses), as
    `parse_dimacs` returns it, over the ring of v1..vn under ordering:
    positive literal v maps to (x_v + 1), negative to x_v; the product
    vanishes exactly on satisfying assignments (truth value 1 means x = 1)."""
    nvars, clauses = source
    ring = BoolRing([f"v{i}" for i in range(1, nvars + 1)], ordering)
    polys = []
    for clause in clauses:
        p = ring.one
        for lit in clause:
            x = ring.var(abs(lit) - 1)
            p = p * (x + ring.one) if lit > 0 else p * x
        polys.append(p)
    return BitSystem(ring, polys, {"v": list(range(nvars))})


# -- benchmark families ----------------------------------------------------------------


def pigeonhole_cnf(k: int) -> tuple[int, list[list[int]]]:
    """PHP with k+1 pigeons and k holes; x_{p,h} = (p-1)*k + h."""
    if k < 1:
        raise ValueError("need at least one hole")
    nvars = (k + 1) * k

    def var(p, h):
        return (p - 1) * k + h

    clauses = [[var(p, h) for h in range(1, k + 1)] for p in range(1, k + 2)]
    for h in range(1, k + 1):
        for p1 in range(1, k + 2):
            for p2 in range(p1 + 1, k + 2):
                clauses.append([-var(p1, h), -var(p2, h)])
    return nvars, clauses


def pigeonhole(k: int) -> BitSystem:
    return cnf_to_polys(pigeonhole_cnf(k))


def mult_verification(n: int, tamper: bool = False) -> BitSystem:
    """Equivalence of two n-bit multiplier encodings as an UNSAT instance.

    Encoding A is the fully expanded schoolbook product; encoding B is a
    gate-level array multiplier with explicit partial-product and carry
    variables.  The system asserts that some output bit differs, so it is
    unsatisfiable exactly when the encodings agree.  `tamper` drops one
    partial product from encoding B, which opens a countermodel.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    pp_cells = sum(n - j for j in range(n))
    carry_cells = (n - 1) * (n - 1)
    names = [f"o{i}" for i in range(n - 1, -1, -1)]
    names += [f"t{j}" for j in range(pp_cells + carry_cells)]
    names += [f"a{i}" for i in range(n - 1, -1, -1)]
    names += [f"b{i}" for i in range(n - 1, -1, -1)]
    ring = BoolRing(names)

    aux_used = 0

    def fresh(_tag: str) -> BoolPoly:
        nonlocal aux_used
        v = ring.var(f"t{aux_used}")
        aux_used += 1
        return v

    a_bits = [ring.var(f"a{i}") for i in range(n)]
    b_bits = [ring.var(f"b{i}") for i in range(n)]
    polys: list[BoolPoly] = []

    pp = {}
    for j in range(n):
        for i in range(n - j):
            t = fresh(f"pp{i}_{j}")
            pp[(i, j)] = t
            polys.append(t + a_bits[i] * b_bits[j])
    if tamper:
        pp[(n - 2, 1)] = ring.zero

    acc = [pp[(i, 0)] for i in range(n)]
    for j in range(1, n):
        row = [ring.zero] * j + [pp[(i, j)] for i in range(n - j)]
        acc, aux = bit_add(acc, row, fresh)
        polys.extend(aux)
    out_bits = [ring.var(f"o{i}") for i in range(n)]
    polys.extend(out_bits[i] + acc[i] for i in range(n))

    golden, _ = bit_mul(a_bits, b_bits)
    # Most significant bit first: golden[i] grows with i (1, 2, 4, ...,
    # 1,132 terms at n = 8), so the large factors meet a small partial
    # product.  The product is canonical, only its intermediates change:
    # 32,393 against 53,265 nodes at n = 7, 187,507 against 435,298 at
    # n = 8.  Not a general rule: clause products want the short factors
    # first (hole5: 0.19 s so, 0.99 s largest first; hole6: 3.9 s
    # against 64 s).
    diseq = ring.one
    for i in reversed(range(n)):
        diseq = diseq * (ring.one + out_bits[i] + golden[i])
    polys.append(diseq)

    bit_names = {
        "o": [ring.index(f"o{i}") for i in range(n)],
        "a": [ring.index(f"a{i}") for i in range(n)],
        "b": [ring.index(f"b{i}") for i in range(n)],
    }
    return BitSystem(ring, polys, bit_names)
