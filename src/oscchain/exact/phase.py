"""Phase-space polynomials and exact Poisson brackets.

A PhasePoly is a MultiPoly over interleaved coordinate and momentum names;
the canonical pairing for the three-body radial problem is
(rho12, p1), (rho13, p2), (rho23, p3).
"""
from __future__ import annotations

from typing import Tuple

from .poly import MultiPoly

RHO_VARS = ("rho12", "rho13", "rho23")
MOM_VARS = ("p1", "p2", "p3")
PHASE_VARS = RHO_VARS + MOM_VARS
CANONICAL_PAIRS: Tuple[Tuple[str, str], ...] = tuple(zip(RHO_VARS, MOM_VARS))


def phase_var(name: str) -> MultiPoly:
    return MultiPoly.var(PHASE_VARS, name)


def poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i, exact."""
    if f.variables != g.variables:
        raise ValueError("f and g must share a phase space")
    out = MultiPoly.zero(f.variables)
    for q, p in CANONICAL_PAIRS:
        out = out + f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q)
    return out
