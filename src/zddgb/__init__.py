"""Groebner bases for Boolean polynomials on ZDDs, standard bases over
Z/m, and polynomial encodings of circuit-verification and SAT problems."""

from .boolgb import (
    SymCache,
    Strategy,
    bgb_single,
    buchberger,
    factor_linear_leads,
    greedy_nf,
    sat_check,
)
from .boolpoly import BoolPoly, BoolRing
from .interp import (
    PartialFn,
    PointSet,
    interpolate_smallest_lex,
    nf_by_interpolate,
    points_gb,
    standard_monomials,
    zeros,
)
from .ringstd import Modulus, RingStrategy, ZmPoly, ZmRing, std_basis
from .zdd import ZddManager

__all__ = [
    "BoolPoly",
    "BoolRing",
    "Modulus",
    "PartialFn",
    "PointSet",
    "RingStrategy",
    "Strategy",
    "SymCache",
    "ZddManager",
    "ZmPoly",
    "ZmRing",
    "bgb_single",
    "buchberger",
    "factor_linear_leads",
    "greedy_nf",
    "interpolate_smallest_lex",
    "nf_by_interpolate",
    "points_gb",
    "sat_check",
    "standard_monomials",
    "std_basis",
    "zeros",
]

__version__ = "0.1.0"
