"""The benchmark's tracer (perfbench/tracer.py, imported read-only) wraps
package functions by name; renaming or deleting one must fail here."""

from pathlib import Path

from zddgb import boolgb, boolpoly, cli
from zddgb.boolpoly import BoolRing

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import TARGETS, Tracer

    for name, owner, attr, _before, _after in TARGETS:
        assert attr in owner.__dict__, (name, attr)

    orig = boolgb.sat_check
    ring = BoolRing(["x", "y"], "lp")
    tracer = Tracer()
    with tracer.installed():
        assert boolgb.sat_check is not orig
        assert boolgb.sat_check([ring.parse("x*y + 1")]) == ("SAT", (1, 1))
    assert boolgb.sat_check is orig and cli.sat_check is orig
    calls = tracer.layer_metrics(tracer.nodes_created())
    assert calls["boolgb.sat_model.calls"][0] == 1
    assert calls["boolgb.buchberger.calls"][0] >= 1

    # mul_monomial is mul_boolean under a second name, so install wraps the
    # one function twice; uninstall must undo both, and a call is one span
    mul = boolpoly.mul_boolean
    tracer = Tracer()
    with tracer.installed():
        assert boolgb.mul_monomial is not mul
        boolgb.mul_monomial(ring.parse("x + 1"), ring.parse("y"))
    assert (boolpoly.mul_boolean is mul and boolpoly.mul_monomial is mul
            and boolgb.mul_monomial is mul)
    calls = tracer.layer_metrics(tracer.nodes_created())
    assert calls["boolpoly.mul.calls"][0] == 1
