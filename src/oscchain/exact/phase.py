"""Phase-space polynomials and exact Poisson brackets.

A PhasePoly is a MultiPoly over interleaved coordinate and momentum names;
the canonical pairing for the three-body radial problem is
(rho12, p1), (rho13, p2), (rho23, p3).

The bracket is a one-pass integer kernel: for each canonical pair (q, p),
each pair of terms c1 x^e1 of f and c2 x^e2 of g adds
c1 c2 (e1[q] e2[p] - e1[p] e2[q]) to the monomial x^(e1 + e2 - 1_q - 1_p),
with exponents packed into ints (`poly.packing`), over the one
denominator f.den * g.den, which the result is normalised against once.
"""
from __future__ import annotations

from typing import Tuple

from .poly import MultiPoly, VariableMismatch, pack, packing, unpacked

RHO_VARS = ("rho12", "rho13", "rho23")
MOM_VARS = ("p1", "p2", "p3")
PHASE_VARS = RHO_VARS + MOM_VARS
CANONICAL_PAIRS: Tuple[Tuple[str, str], ...] = tuple(zip(RHO_VARS, MOM_VARS))


def phase_var(name: str) -> MultiPoly:
    return MultiPoly.var(PHASE_VARS, name)


def poisson_bracket(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i, exact."""
    if f.variables != g.variables:
        raise VariableMismatch(f"{f.variables} vs {g.variables}")
    variables = f.variables
    fields = packing([x + y for x, y in zip(f.tops(), g.tops())])
    shifts = fields[0]
    fp = [(pack(e, shifts), c, e) for e, c in f.num.items()]
    gp = [(pack(e, shifts), c, e) for e, c in g.num.items()]
    acc: dict = {}
    for q, p in CANONICAL_PAIRS:
        i, j = variables.index(q), variables.index(p)
        unit = (1 << shifts[i]) + (1 << shifts[j])
        # only the terms with a q or p exponent contribute to this pair
        F = [(k, c, e[i], e[j]) for k, c, e in fp if e[i] or e[j]]
        G = [(k, c, e[i], e[j]) for k, c, e in gp if e[i] or e[j]]
        for e1, c1, q1, p1 in F:
            for e2, c2, q2, p2 in G:
                w = q1 * p2 - p1 * q2
                if w:   # then e1 + e2 has q and p exponents >= 1
                    k = e1 + e2 - unit
                    acc[k] = acc.get(k, 0) + c1 * c2 * w
    return MultiPoly._make(variables, unpacked(acc, fields), f.den * g.den)
