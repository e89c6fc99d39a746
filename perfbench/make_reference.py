"""Regenerate reference.json: the input size and the canonical answer of
every instance the workloads can draw.

For each instance it records the input size (variables, equations and
term-diagram nodes, or terms for Z/m) and, for Boolean systems, the
verdict and the digest of the reduced basis; for Z/m ideals the digest of
the lead set {(monomial, core of lc)}; for point sets the digest of the
reduced lex basis of the vanishing ideal.  Run it only when the answers
are known to be right, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

from zddgb import boolgb, boolpoly, encode, interp, ringstd

import checks
import workloads as w


def bool_entry(system, preprocess=None) -> dict:
    with w.BasisCapture() as cap:
        verdict, _ = boolgb.sat_check(system.polys, preprocess=preprocess)
    return {"sizes": w.bool_sizes(system.polys), "verdict": verdict,
            "basis": checks.bool_basis_digest(cap.take())}


def main() -> None:
    out = {}
    for name, make in w.GB_FIXED:
        out[name] = bool_entry(make())
    for k in w.HoleConj.sizes:
        entry = bool_entry(encode.pigeonhole(k), preprocess="conjunction")
        if out.get(f"hole{k}", entry) != entry:
            raise AssertionError(f"hole{k}: plain and conjunction bases "
                                 "differ")
        out[f"hole{k}"] = entry
    for k in w.InterpBasis.filter_sizes:
        out.setdefault(f"hole{k}", {
            "sizes": w.bool_sizes(encode.pigeonhole(k).polys)})
    for ratio in w.CNF_RATIOS:
        for i in range(w.CNF_POOL):
            out[f"cnf:{ratio}:{i}"] = bool_entry(
                encode.cnf_to_polys(w.cnf_instance(ratio, i)))
    for m in w.ZM_MODULI:
        for i in range(w.ZM_POOL):
            names, order, gen_terms = w.zm_instance(m, i)
            ring = ringstd.ZmRing(m, names, order)
            gens = [ring.poly(t) for t in gen_terms]
            out[f"zm:{m}:{i}"] = {
                "sizes": {"vars": ring.n, "eqs": len(gens),
                          "terms": sum(len(g.terms) for g in gens)},
                "leads": checks.zm_lead_digest(ringstd.std_basis(gens)),
            }
    for n, size in w.POINT_SIZES:
        for i in range(w.POINT_POOL):
            ring = boolpoly.BoolRing.indexed(n, "lp")
            P = interp.PointSet.from_points(ring, w.point_instance(n, size, i))
            out[f"points:{n}:{size}:{i}"] = {
                "sizes": {"vars": n, "eqs": len(P),
                          "nodes": checks.diagram_nodes([P])},
                "basis": checks.bool_basis_digest(interp.points_gb(P)),
            }
    with open(checks.REFERENCE, "w") as fh:
        json.dump({"instances": out}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
