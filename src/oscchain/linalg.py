"""Exact linear algebra over Q, and certified real roots.

Matrices enter and leave as lists of rows of Fraction.  Rank, nullspaces,
linear solves and characteristic polynomials are sympy's: each matrix goes
to a sparse `DomainMatrix` over QQ (the spectral blocks are mostly zeros),
where one reduced row echelon form does all elimination and `charpoly` is
division-free Berkowitz on the matrix's own block structure.  sympy is
imported inside the functions, so commands that do no linear algebra never
load it.

Real roots: sympy factors the characteristic polynomial over Q, built
straight from its coefficient list, and isolates the real roots of each
factor.  A factor of degree >= 2 is irreducible, so its roots are
irrational; each isolating interval is refined here by sign-change
bisection in integers: both ends over one denominator q, and the sign of
f at p/q taken from q^d f(p/q) by integer Horner.  The decisions are
those of the same bisection over Fraction, so the intervals are identical
to it, without a gcd per step.  An interval whose ends do not have
strictly opposite signs raises `RootCertificateError`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]


def _domain_matrix(A: Matrix):
    """Sparse DomainMatrix over QQ of a Fraction matrix.

    Zero rows are left out of the row dict: sympy's sparse elimination
    fails on a row stored with no entries.
    """
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = {}
    for i, row in enumerate(A):
        entries = {j: QQ(x) for j, x in enumerate(row) if x}
        if entries:
            rows[i] = entries
    return DomainMatrix(rows, (len(A), len(A[0]) if A else 0), QQ)


def _fraction(q) -> Fraction:
    return Fraction(q.numerator, q.denominator)


def mat_sub_scaled_identity(A: Matrix, lam: Fraction) -> Matrix:
    out = [row[:] for row in A]
    for i in range(len(A)):
        out[i][i] -= lam
    return out


def rank(A: Matrix) -> int:
    return _domain_matrix(A).rank()


def nullspace(A: Matrix) -> List[List[Fraction]]:
    """Basis of the right nullspace (list of vectors)."""
    if not A:
        return []
    null = _domain_matrix(A).nullspace().to_dod()
    m = len(A[0])
    return [[_fraction(v.get(j, 0)) for j in range(m)]
            for _, v in sorted(null.items())]


def solve(A: Matrix, b: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of A x = b, or None if the system is inconsistent."""
    if not A:
        return []
    m = len(A[0])
    reduced, pivots = _domain_matrix(
        [list(row) + [Fraction(bi)] for row, bi in zip(A, b)]).rref()
    if m in pivots:
        return None
    rows = reduced.to_dod()
    x = [Fraction(0)] * m
    for i, pc in enumerate(pivots):
        x[pc] = _fraction(rows[i].get(m, 0))
    return x


def char_poly(A: Matrix) -> List[Fraction]:
    """Characteristic polynomial coefficients [c0, ..., cn] of det(lam*I - A);
    cn = 1."""
    return [_fraction(c) for c in reversed(_domain_matrix(A).charpoly())]


# -- certified real roots ----------------------------------------------------

class RootCertificateError(RuntimeError):
    """An isolating interval whose ends do not have strictly opposite signs."""


def poly_trim(coeffs: Sequence[Fraction]) -> List[Fraction]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out or [Fraction(0)]


def _scaled_value(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^d f(p/q) = sum c_i p^i q^(d-i) for integer coefficients (highest
    degree first) by integer Horner; it has the sign of f(p/q) when q > 0."""
    acc = coeffs[0]
    qk = q
    for c in coeffs[1:]:
        acc = acc * p + c * qk
        qk *= q
    return acc


def _refine_sign_change(coeffs: Sequence[int], lo: Fraction, hi: Fraction,
                        width: Fraction) -> Tuple[Fraction, Fraction]:
    """Shrink [lo, hi] below `width` by exact bisection, keeping the sign
    change of the integer polynomial `coeffs` (highest degree first) inside.

    The ends are a/q and b/q over one denominator q.  Each step doubles a,
    b and q, so that the midpoint is a + b.  `coeffs` is irreducible of
    degree >= 2, so it has no rational root and no sign met here is zero.
    Raises RootCertificateError unless the signs at lo and hi are strictly
    opposite.
    """
    q = lo.denominator * hi.denominator
    a = lo.numerator * hi.denominator
    b = hi.numerator * lo.denominator
    fa = _scaled_value(coeffs, a, q)
    if fa * _scaled_value(coeffs, b, q) >= 0:
        raise RootCertificateError(
            f"no sign change over isolating interval [{lo}, {hi}]")
    positive = fa > 0
    while (b - a) * width.denominator > width.numerator * q:
        m = a + b
        a, b, q = 2 * a, 2 * b, 2 * q
        if (_scaled_value(coeffs, m, q) > 0) == positive:
            a = m
        else:
            b = m
    return Fraction(a, q), Fraction(b, q)


def _integer_coeffs(coeffs) -> List[int]:
    """A rational coefficient list times the lcm of its denominators."""
    den = math.lcm(*(int(c.denominator) for c in coeffs))
    return [int(c.numerator) * (den // int(c.denominator)) for c in coeffs]


def real_roots_exact(coeffs, width: Fraction = Fraction(1, 2 ** 64)):
    """All real roots of a Fraction-coefficient polynomial.

    Returns (rational, irrational): rational as [(Fraction, multiplicity)],
    irrational as [((lo, hi), multiplicity)] with certified isolating
    intervals of width <= `width`.  sympy factors the polynomial over Q and
    isolates the roots of each factor; every factor of degree >= 2 is
    irreducible, so its roots are irrational, and each interval is refined
    here by sign-change bisection in integers.
    """
    from sympy import Poly, Symbol
    from sympy.polys.domains import QQ

    coeffs = poly_trim(coeffs)
    if len(coeffs) <= 1:
        return [], []
    poly = Poly.from_list([QQ(c.numerator, c.denominator)
                           for c in reversed(coeffs)], Symbol("lam"),
                          domain=QQ)
    rational: List[Tuple[Fraction, int]] = []
    irrational = []
    for fac, mult in poly.factor_list()[1]:
        fcoeffs = _integer_coeffs(fac.rep.to_list())
        if len(fcoeffs) == 2:
            # c1 lam + c0
            rational.append((Fraction(-fcoeffs[1], fcoeffs[0]), mult))
            continue
        for (lo, hi), _m in fac.intervals():
            irrational.append((_refine_sign_change(
                fcoeffs, Fraction(int(lo.p), int(lo.q)),
                Fraction(int(hi.p), int(hi.q)), width), mult))
    rational.sort(key=lambda t: t[0])
    irrational.sort(key=lambda t: t[0][0])
    return rational, irrational
