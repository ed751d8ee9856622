"""Exact linear algebra over Q, and certified real roots.

Matrices enter and leave as lists of rows of Fraction.  Rank, nullspaces,
linear solves and characteristic polynomials are sympy's: each matrix goes
to a sparse `DomainMatrix` over QQ (the spectral blocks are mostly zeros),
where one reduced row echelon form does all elimination and `charpoly` is
division-free Berkowitz on the matrix's own block structure.  sympy is
imported inside the functions, so commands that do no linear algebra never
load it.  Real roots are factored by sympy and their isolating intervals
refined here by exact sign-change bisection over Fraction.
"""
from __future__ import annotations

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


# -- univariate polynomial utilities over Fraction ---------------------------

def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_trim(coeffs: Sequence[Fraction]) -> List[Fraction]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out or [Fraction(0)]


def _refine_sign_change(coeffs, lo: Fraction, hi: Fraction,
                        width: Fraction) -> Tuple[Fraction, Fraction]:
    """Shrink [lo, hi] (with a sign change of coeffs) below `width` by
    exact bisection, keeping the sign change inside."""
    flo = poly_eval(coeffs, lo)
    fhi = poly_eval(coeffs, hi)
    if flo == 0:
        return (lo, lo)
    if fhi == 0:
        return (hi, hi)
    assert (flo > 0) != (fhi > 0), "no sign change over isolating interval"
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = poly_eval(coeffs, mid)
        if fm == 0:
            return (mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return (lo, hi)


def real_roots_exact(coeffs, width: Fraction = Fraction(1, 2 ** 64)):
    """All real roots of a Fraction-coefficient polynomial.

    Returns (rational, irrational): rational as [(Fraction, multiplicity)],
    irrational as [((lo, hi), multiplicity)] with certified isolating
    intervals of width <= `width` refined by exact sign-change bisection.
    Factorization over Q is delegated to sympy; the interval refinement and
    the final sign-change certificates are done in-house over Fraction.
    """
    import sympy

    coeffs = poly_trim(coeffs)
    if len(coeffs) <= 1:
        return [], []
    lam = sympy.Symbol("lam")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * lam ** k
               for k, c in enumerate(coeffs))
    poly = sympy.Poly(expr, lam, domain="QQ")
    _, factors = poly.factor_list()
    rational: List[Tuple[Fraction, int]] = []
    irrational = []
    for fac, mult in factors:
        fcoeffs = [Fraction(str(c)) for c in reversed(fac.all_coeffs())]
        if fac.degree() == 1:
            # c0 + c1 lam
            rational.append((-fcoeffs[0] / fcoeffs[1], mult))
            continue
        for (lo, hi), _m in fac.intervals():
            lo = Fraction(str(lo))
            hi = Fraction(str(hi))
            if lo == hi:
                rational.append((lo, mult))
                continue
            irrational.append((_refine_sign_change(fcoeffs, lo, hi, width),
                               mult))
    rational.sort(key=lambda t: t[0])
    irrational.sort(key=lambda t: t[0][0])
    return rational, irrational
