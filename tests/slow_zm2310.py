"""A long standard-basis run over Z/2310, kept out of the default test run
(the file name does not match `test_*.py`; it takes about half a minute).
Run it by name:

    PYTHONPATH=src python -m pytest -q tests/slow_zm2310.py
"""

from zddgb import ringstd
from zddgb.ringstd import EXPONENT_LIMIT, ZmRing, nf_ring, std_basis


def test_z2310_swell_fits_the_exponent_limit(monkeypatch):
    """Before interreduction the basis swells to degree 417, far past an
    8-bit field and well inside the 15-bit one; the reduced basis has 18
    elements of degree <= 7, and each generator reduces to 0 against it."""
    ring = ZmRing(2310, ["x0", "x1", "x2"])
    gens = [ring.parse(t) for t in (
        "1704*x0^2*x1*x2^2",
        "1272*x0*x1^2 + 2045*x0*x2^2 + 1473*x2^2",
        "2123*x0^2*x1*x2 + 1352*x0^2*x2",
        "723*x0^2*x1^2*x2 + 1056*x0*x1 + 1133*x1^2",
    )]
    top = 0

    def recording(f, G):
        nonlocal top
        h = nf_ring(f, G)
        top = max(top, h.deg())
        return h

    monkeypatch.setattr(ringstd, "nf_ring", recording)
    basis = std_basis(gens)
    monkeypatch.undo()
    assert top == 417 < EXPONENT_LIMIT
    assert len(basis) == 18 and max(g.deg() for g in basis) <= 7
    assert all(nf_ring(g, basis).is_zero() for g in gens)
