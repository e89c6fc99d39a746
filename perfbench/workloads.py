"""The four workloads: seeded inputs, timed phases and answer checks.

A run repeats rounds of identical work.  A round builds its inputs from
the seed (`setup`, timed as setup_s), then (`run`) makes the solver calls
and, right after each, the normal-form queries against its result, timing
every call on its own, and then checks every answer outside the timed
regions (`check`).  Each call's time goes to the round's solve or query
`Phase`, which also collects the host-speed samples taken during it (see
speed.py).

Random instances come from fixed pools (instance i of a pool is generated
from its own string seed), so the canonical result of every instance has
a digest in `reference.json`.  Where the solve time of single instances
is heavy-tailed (Z/m ideals, point sets), every round runs the whole pool
and the seed draws only the queries (zm_std) or nothing (interp_basis),
so no seed's draw of the tail decides solve_s.

The solver calls go through module attributes (`boolgb.sat_check`, not a
name imported from it) so that the tracer sees them.  Every call uses the
package defaults: no `Strategy`/`RingStrategy` knob and no `seed` for
`points_gb`.
"""

from __future__ import annotations

import gc
import io
import random
from contextlib import redirect_stdout
from pathlib import Path

from zddgb import boolgb, boolpoly, cli, encode, interp, ringstd

import checks
from speed import METER, Phase

WORK_DIR = Path(__file__).resolve().parent / "_work"

# -- pools of seeded instances -----------------------------------------------

CNF_VARS = 14            # n = 20 at ratio 4.26 ranged 0.4-16 s per instance
CNF_RATIOS = (4.26, 5.5)
CNF_POOL = 64
CNF_PER_RATIO = 4

ZM_MODULI = (4, 8)
ZM_POOL = 256            # per modulus; per-ideal time ranges 0.1 ms-0.6 s
ZM_QUERIES = 8

POINT_SIZES = ((11, 350), (12, 500))
POINT_POOL = 2           # per size
INTERP_QUERIES = 2       # per set; each greedy_nf call costs ~0.3 s


def cnf_instance(ratio: float, i: int) -> tuple[int, list[list[int]]]:
    """Uniform random 3-CNF over CNF_VARS variables at the clause ratio."""
    rng = random.Random(f"cnf:{ratio}:{i}")
    clauses = [
        [v if rng.random() < 0.5 else -v
         for v in rng.sample(range(1, CNF_VARS + 1), 3)]
        for _ in range(round(ratio * CNF_VARS))
    ]
    return CNF_VARS, clauses


def zm_instance(m: int, i: int):
    """(names, ordering, generator term lists): n <= 5, up to 5
    generators of up to 4 terms of degree <= 3."""
    rng = random.Random(f"zm:{m}:{i}")
    n = rng.randint(2, 5)
    order = rng.choice(("lp", "dlex"))
    gens = []
    for _ in range(rng.randint(1, 5)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            exps = [0] * n
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(n)] += 1
            terms.append((tuple(exps), rng.randrange(1, m)))
        gens.append(terms)
    return [f"x{k}" for k in range(n)], order, gens


def point_instance(n: int, size: int, i: int) -> list[tuple[int, ...]]:
    """`size` random draws from {0,1}^n, duplicates removed."""
    rng = random.Random(f"points:{n}:{size}:{i}")
    return sorted({tuple(rng.randrange(2) for _ in range(n))
                   for _ in range(size)})


def random_terms(rng: random.Random, n: int, count: int, p: float):
    return [frozenset(v for v in range(n) if rng.random() < p)
            for _ in range(count)]


def _timed(phase: Phase, fn, *args):
    """fn(*args), or the exception it raised (a failed item); the call's
    time is added to `phase`."""
    with METER.measure(phase):
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - any failure counts, run goes on
            result = exc
    return result


def _cli(phase: Phase, argv):
    """(exit code or exception, captured standard output) of cli.main,
    timed like `_timed`."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = _timed(phase, cli.main, argv)
    return code, out.getvalue()


class BasisCapture:
    """Keeps the basis returned by each outermost `boolgb.buchberger` call
    made inside `sat_check`, which returns only a verdict and a model."""

    def __init__(self):
        self.bases: list = []
        self._orig = None
        self._depth = 0

    def __enter__(self):
        self._orig = orig = boolgb.buchberger

        def buchberger(*args, **kwargs):
            self._depth += 1
            try:
                result = orig(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.bases.append(result)
            return result

        boolgb.buchberger = buchberger
        return self

    def __exit__(self, *exc):
        boolgb.buchberger = self._orig

    def take(self):
        return self.bases.pop() if self.bases else None


def lex_leads(basis) -> list[frozenset]:
    """Lex-largest term of each polynomial, picked in plain Python."""
    return [frozenset(max(g.terms(), key=lambda t: [-v for v in t]))
            for g in basis]


def reduced_against(r, leads) -> bool:
    """No term of r is divisible by any of the leads."""
    return not any(lead <= frozenset(t) for t in r.terms() for lead in leads)


class Round:
    """Inputs, answers and per-call times of one round.

    Each workload has `name`, `setup(seed) -> Round`, `run(rd)`,
    `check(rd, reference) -> (attempted, failures)` and `input_sizes(rd)`.
    """

    def __init__(self, **inputs):
        self.__dict__.update(inputs)
        self.solve = Phase()
        self.query = Phase()


# -- hole_conj --------------------------------------------------------------


class HoleConj:
    """Pigeonhole hole4 and hole5 through `zddgb sat --preprocess
    conjunction`, in process; queries are `zddgb nf` calls against their
    clause systems.  hole6 (17-33 s, ~1 M nodes) does not fit the run
    budget."""

    name = "hole_conj"
    sizes = (4, 5)
    queries_per_system = 24

    def setup(self, seed: int) -> Round:
        rng = random.Random(f"{self.name}:{seed}")
        WORK_DIR.mkdir(exist_ok=True)
        items = []
        for k in self.sizes:
            nvars, clauses = encode.pigeonhole_cnf(k)
            cnf = WORK_DIR / f"hole{k}.cnf"
            cnf.write_text(f"p cnf {nvars} {len(clauses)}\n" + "".join(
                " ".join(map(str, c)) + " 0\n" for c in clauses))
            encoded = encode.cnf_to_polys((nvars, clauses))
            system = WORK_DIR / f"hole{k}.sys"
            system.write_text(
                "vars " + " ".join(encoded.ring.names) + "\norder lp\n"
                + "".join(f"{p}\n" for p in encoded.polys))
            polys = [
                " + ".join("*".join(f"v{v + 1}" for v in sorted(t)) or "1"
                           for t in set(random_terms(rng, nvars, 12, 0.15)))
                for _ in range(self.queries_per_system)
            ]
            items.append((f"hole{k}", nvars, clauses, cnf, system, polys))
        return Round(items=items, answers=[], results=[])

    def run(self, rd: Round) -> None:
        for _, _, _, cnf, system, polys in rd.items:
            with BasisCapture() as cap:
                code, out = _cli(rd.solve, ["sat", str(cnf), "--preprocess",
                                              "conjunction"])
                rd.answers.append((code, out, cap.take()))
            for text in polys:
                rd.results.append(
                    _cli(rd.query, ["nf", str(system), "--poly", text]))

    def check(self, rd: Round, ref: dict) -> tuple[int, list[str]]:
        fails = []
        for (name, *_), (code, out, basis) in zip(rd.items, rd.answers):
            if code != 20 or "s UNSATISFIABLE" not in out:
                fails.append(f"{name}: exit {code!r}")
            elif (basis is None
                  or checks.bool_basis_digest(basis) != ref[name]["basis"]):
                fails.append(f"{name}: basis digest differs")
        queries = [(clauses, text) for _, _, clauses, _, _, polys in rd.items
                   for text in polys]
        for (clauses, text), (code, out) in zip(queries, rd.results):
            leads = [frozenset(abs(l) for l in c) for c in clauses]
            terms = _parse_terms(out.strip())
            if code != 0 or terms is None:
                fails.append(f"nf {text!r}: exit {code!r}")
            elif any(lead <= t for t in terms for lead in leads):
                fails.append(f"nf {text!r}: result not reduced")
        return len(rd.answers) + len(queries), fails

    def input_sizes(self, rd: Round) -> dict:
        return {name: bool_sizes(encode.cnf_to_polys((nvars, clauses)).polys)
                for name, nvars, clauses, _, _, _ in rd.items}


def _parse_terms(text: str):
    """Term sets (variable numbers) of printed output, or None."""
    if not text:
        return None
    if text == "0":
        return []
    out = []
    for chunk in text.split(" + "):
        if chunk == "1":
            out.append(frozenset())
            continue
        try:
            out.append(frozenset(int(f[1:]) for f in chunk.split("*")))
        except ValueError:
            return None
    return out


def bool_sizes(polys) -> dict:
    return {
        "vars": polys[0].ring.n if polys else 0,
        "eqs": len(polys),
        "nodes": checks.diagram_nodes(polys),
    }


# -- gb_bool ----------------------------------------------------------------


GB_FIXED = (
    ("mult5", lambda: encode.mult_verification(5)),
    ("mult6", lambda: encode.mult_verification(6)),
    ("mult7", lambda: encode.mult_verification(7)),
    ("mult4_tampered", lambda: encode.mult_verification(4, tamper=True)),
    ("mult5_tampered", lambda: encode.mult_verification(5, tamper=True)),
    ("hole4", lambda: encode.pigeonhole(4)),
)


class GbBool:
    """Plain `sat_check` (no preprocessing) on multiplier, tampered
    multiplier, hole4 and seeded random 3-CNF; queries are `greedy_nf`
    calls against the bases of the tampered multipliers (against the
    random instances' bases their cost varied by a factor of two with the
    seed; against {1} they are trivial).

    Each query batch follows an untimed `gc.collect()`: a full collection
    over the solves' heap takes 0.1-0.5 s, as long as a whole batch, and
    where it fell depended on the seed, which made query_s bimodal."""

    name = "gb_bool"
    queried = ("mult4_tampered", "mult5_tampered")
    queries_per_instance = 100

    def setup(self, seed: int) -> Round:
        rng = random.Random(f"{self.name}:{seed}")
        items = [(name, make(), None) for name, make in GB_FIXED]
        for ratio in CNF_RATIOS:
            for i in rng.sample(range(CNF_POOL), CNF_PER_RATIO):
                nvars, clauses = cnf_instance(ratio, i)
                items.append((f"cnf:{ratio}:{i}",
                              encode.cnf_to_polys((nvars, clauses)), clauses))
        queries = []
        for name, system, _ in items:
            ring = system.ring
            queries.append([
                ring.from_terms(random_terms(rng, ring.n, 20, 4 / ring.n))
                for _ in range(self.queries_per_instance)
            ] if name in self.queried else [])
        return Round(items=items, queries=queries, answers=[], results=[])

    def run(self, rd: Round) -> None:
        with BasisCapture() as cap:
            for (_, system, _), polys in zip(rd.items, rd.queries):
                got = _timed(rd.solve, boolgb.sat_check, system.polys)
                basis = cap.take()
                rd.answers.append((got, basis))
                if polys:
                    gc.collect()
                rd.results.append([
                    _timed(rd.query, boolgb.greedy_nf, f, basis or [])
                    for f in polys
                ])

    def check(self, rd: Round, ref: dict) -> tuple[int, list[str]]:
        fails = []
        attempted = 0
        for (name, system, clauses), (got, basis), polys, results in zip(
                rd.items, rd.answers, rd.queries, rd.results):
            attempted += 1 + len(polys)
            want = ref[name]
            if isinstance(got, Exception):
                fails.append(f"{name}: {got!r}")
                fails.extend([f"{name}: no basis to query"] * len(polys))
                continue
            verdict, model = got
            if verdict != want["verdict"]:
                fails.append(f"{name}: {verdict}, expected {want['verdict']}")
            elif clauses is not None and (
                    (checks.dpll(CNF_VARS, clauses) is None)
                    != (verdict == "UNSAT")):
                fails.append(f"{name}: {verdict} disagrees with DPLL")
            elif model is not None and (
                    any(boolpoly.eval_poly(g, model) for g in system.polys)
                    or (clauses is not None
                        and not checks.satisfies(clauses, model))):
                fails.append(f"{name}: model fails a generator")
            elif (basis is None
                  or checks.bool_basis_digest(basis) != want["basis"]):
                fails.append(f"{name}: basis digest differs")
            leads = lex_leads(basis or [])
            for f, r in zip(polys, results):
                if isinstance(r, Exception):
                    fails.append(f"{name}: nf {r!r}")
                elif verdict == "UNSAT" and not r.is_zero():
                    fails.append(f"{name}: nf against {{1}} is not 0")
                elif model is not None and (boolpoly.eval_poly(f, model)
                                            != boolpoly.eval_poly(r, model)):
                    fails.append(f"{name}: nf changes the value on the model")
                elif not reduced_against(r, leads):
                    fails.append(f"{name}: nf result not reduced")
        return attempted, fails

    def input_sizes(self, rd: Round) -> dict:
        return {name: bool_sizes(system.polys)
                for name, system, _ in rd.items}


# -- interp_basis -----------------------------------------------------------


class InterpBasis:
    """`points_gb` on random point sets, the variety filter of hole6 and
    hole7 over the full cube, and normal forms computed two ways.

    Nothing here depends on the seed: with only a few queries of ~0.4 s
    each, the seed's draw of query polynomials moved query_s by 30 %."""

    name = "interp_basis"
    filter_sizes = (6, 7)

    def setup(self, seed: int) -> Round:
        rng = random.Random(self.name)
        sets = []
        for n, size in POINT_SIZES:
            for i in range(POINT_POOL):
                ring = boolpoly.BoolRing.indexed(n, "lp")
                P = interp.PointSet.from_points(ring,
                                                point_instance(n, size, i))
                polys = [ring.from_terms(random_terms(rng, n, 16, 0.3))
                         for _ in range(INTERP_QUERIES)]
                sets.append((f"points:{n}:{size}:{i}", P, polys))
        holes = [(f"hole{k}", encode.pigeonhole(k)) for k in self.filter_sizes]
        return Round(sets=sets, holes=holes, bases=[], results=[])

    def run(self, rd: Round) -> None:
        for _, P, polys in rd.sets:
            basis = _timed(rd.solve, interp.points_gb, P)
            rd.bases.append(basis)
            for f in polys:
                if isinstance(basis, Exception):
                    rd.results.append((basis, basis))
                    continue
                rd.results.append(
                    (_timed(rd.query, boolgb.greedy_nf, f, basis),
                     _timed(rd.query, interp.nf_by_interpolate, f, P)))
        rd.varieties = [_timed(rd.solve, _variety, system)
                        for _, system in rd.holes]

    def check(self, rd: Round, ref: dict) -> tuple[int, list[str]]:
        fails = []
        for (name, _, _), basis in zip(rd.sets, rd.bases):
            if isinstance(basis, Exception):
                fails.append(f"{name}: {basis!r}")
            elif checks.bool_basis_digest(basis) != ref[name]["basis"]:
                fails.append(f"{name}: basis digest differs")
        for (name, _), S in zip(rd.holes, rd.varieties):
            if isinstance(S, Exception) or S.z != 0:
                fails.append(f"{name}: variety filter not empty ({S!r})")
        for a, b in rd.results:
            if isinstance(a, Exception) or isinstance(b, Exception):
                fails.append(f"nf: {a!r} / {b!r}")
            elif a != b:
                fails.append("nf: greedy_nf and nf_by_interpolate differ")
        return len(rd.sets) + len(rd.holes) + len(rd.results), fails

    def input_sizes(self, rd: Round) -> dict:
        out = {}
        for name, P, _ in rd.sets:
            out[name] = {"vars": P.ring.n, "eqs": len(P),
                         "nodes": checks.diagram_nodes([P])}
        for name, system in rd.holes:
            out[name] = bool_sizes(system.polys)
        return out


def _variety(system):
    """Points of the full cube where every polynomial vanishes."""
    S = interp.PointSet.full_cube(system.ring)
    for p in system.polys:
        S = interp.zeros(p, S)
    return S


# -- zm_std -----------------------------------------------------------------


class ZmStd:
    """`std_basis` over Z/4 and Z/8 on random ideals, then `nf_ring`
    membership queries on random ideal combinations."""

    name = "zm_std"

    def setup(self, seed: int) -> Round:
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for m in ZM_MODULI:
            for i in range(ZM_POOL):
                names, order, gen_terms = zm_instance(m, i)
                ring = ringstd.ZmRing(m, names, order)
                gens = [ring.poly(t) for t in gen_terms]
                queries = []
                for _ in range(ZM_QUERIES):
                    f = ring.zero
                    for g in gens:
                        f = f + _random_zm(ring, rng) * g
                    queries.append(f)
                items.append((f"zm:{m}:{i}", gens, queries))
        return Round(items=items, bases=[], results=[])

    def run(self, rd: Round) -> None:
        for _, gens, queries in rd.items:
            basis = _timed(rd.solve, ringstd.std_basis, gens)
            rd.bases.append(basis)
            if isinstance(basis, Exception):
                rd.results.append([basis] * len(queries))
            else:
                rd.results.append([_timed(rd.query, ringstd.nf_ring, f,
                                          basis) for f in queries])

    def check(self, rd: Round, ref: dict) -> tuple[int, list[str]]:
        fails = []
        attempted = 0
        for (name, _, queries), basis, results in zip(rd.items, rd.bases,
                                                      rd.results):
            attempted += 1 + len(queries)
            if isinstance(basis, Exception):
                fails.append(f"{name}: {basis!r}")
            elif checks.zm_lead_digest(basis) != ref[name]["leads"]:
                fails.append(f"{name}: lead set digest differs")
            for r in results:
                if isinstance(r, Exception) or not r.is_zero():
                    fails.append(f"{name}: member reduces to {r!r}")
        return attempted, fails

    def input_sizes(self, rd: Round) -> dict:
        return {name: {"vars": gens[0].ring.n, "eqs": len(gens),
                       "terms": sum(len(g.terms) for g in gens)}
                for name, gens, _ in rd.items}


def _random_zm(ring, rng: random.Random):
    """Multiplier of up to 2 terms of degree <= 2."""
    terms = []
    for _ in range(rng.randint(0, 2)):
        exps = [0] * ring.n
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(ring.n)] += 1
        terms.append((tuple(exps), rng.randrange(ring.m)))
    return ring.poly(terms)


WORKLOADS = {w.name: w for w in (HoleConj(), GbBool(), InterpBasis(), ZmStd())}
