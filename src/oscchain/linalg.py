"""Characteristic polynomials, determinants and certified real roots over Q.

The spectral engine holds each operator matrix as Fraction columns and
builds a sparse sympy `DomainMatrix` view over QQ from them only when it
needs ranks, nullspaces and solves (the per-block path and the
back-substituted eigenvectors).  `char_poly` is the one matrix stage
here: sympy's division-free Berkowitz `charpoly` of such a view,
returned as Fraction coefficients.  sympy is imported inside the
functions, so commands that do no linear algebra never load it.  Only
the per-block path of `spectra` (the QES operators, hand-built matrices)
calls `char_poly` and `factor_over_q`: the harmonic path reads the roots
of the degree-1 block in closed form and its eigenfunctions from the xi
recursion on Fractions, and loads sympy only for a level whose xi is
irrational.  `det` is the one determinant, by cofactors, of the small
matrices of `spectra` (Fractions) and `model.cometric` (`MultiPoly`s).

Real roots: sympy factors the characteristic polynomial over Q, built
straight from its coefficient list (`factor_over_q`).  A factor of
degree >= 2 is irreducible, so its roots are irrational, and each is
reported as the cell [n, n + 1] / 2^64 of the dyadic grid that holds it,
n = floor(r 2^64) (`isolate_irreducible`).  A quadratic's cells are in
closed form, from one integer square root; a factor of higher degree is
isolated by sympy, and the cell in each interval [lo, hi] is found by
integer bisection over the grid indices n in [floor(lo 2^64),
ceil(hi 2^64)], the sign of f at n / 2^64 taken from 2^(64 d) f(n / 2^64)
by integer Horner.  A cell whose ends do not have strictly opposite signs
raises `RootCertificateError`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple


def char_poly(A) -> List[Fraction]:
    """Coefficients [c0, ..., cn] of det(lam*I - A) for a square
    `DomainMatrix` A over QQ; cn = 1."""
    return [Fraction(c.numerator, c.denominator)
            for c in reversed(A.charpoly())]


def det(B):
    """det(B) by expansion along the first row, for a small square matrix
    B given as rows of Fractions or `MultiPoly`s; 1 when B is empty."""
    return sum((-1) ** j * x * det([row[:j] + row[j + 1:] for row in B[1:]])
               for j, x in enumerate(B[0])) if B else 1


# -- certified real roots ----------------------------------------------------

class RootCertificateError(RuntimeError):
    """A grid cell whose ends do not have strictly opposite signs."""


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


GRID = 2 ** 64   # an irrational root is reported as a cell [n, n + 1] / GRID


def _grid_cell(coeffs: Sequence[int], n: int) -> Tuple[Fraction, Fraction]:
    """The cell [n, n + 1] / GRID, certified by the strictly opposite signs
    of the integer polynomial `coeffs` (highest degree first) at its ends;
    otherwise RootCertificateError."""
    if _scaled_value(coeffs, n, GRID) \
            * _scaled_value(coeffs, n + 1, GRID) >= 0:
        raise RootCertificateError(
            f"no sign change over the grid cell [{n}, {n + 1}] / 2^64")
    return _dyadic(n), _dyadic(n + 1)


def _grid_search(coeffs: Sequence[int], lo: Fraction, hi: Fraction
                 ) -> Tuple[Fraction, Fraction]:
    """The grid cell (`_grid_cell`) of a root at which the integer
    polynomial `coeffs` (highest degree first, irreducible of degree >= 2,
    so no grid point is a root) changes sign over [lo, hi]: bisection over
    the grid indices a < b from floor(lo GRID) and ceil(hi GRID), where a
    keeps its sign and b moves only to the other one, so the cell found is
    refused only when b never moved."""
    a, b = math.floor(lo * GRID), math.ceil(hi * GRID)
    positive = _scaled_value(coeffs, a, GRID) > 0
    while b - a > 1:
        m = (a + b) // 2
        if (_scaled_value(coeffs, m, GRID) > 0) == positive:
            a = m
        else:
            b = m
    return _grid_cell(coeffs, a)


# one int per power-of-two denominator, shared by every end that has it
_POWERS_OF_TWO: Dict[int, int] = {}


def _dyadic(n: int) -> Fraction:
    """Fraction(n, GRID), whose denominator, a power of two, is the one int
    of that value kept in `_POWERS_OF_TWO`.

    A spectrum keeps two ends per irrational level, and sharing their
    denominators takes about a fifth off what its intervals hold.
    `Fraction` keeps its denominator in `_denominator`; an int of the same
    value there leaves the Fraction unchanged.
    """
    x = Fraction(n, GRID)
    x._denominator = _POWERS_OF_TWO.setdefault(x.denominator, x.denominator)
    return x


def _integer_coeffs(coeffs) -> List[int]:
    """A rational coefficient list times the lcm of its denominators."""
    den = math.lcm(*(int(c.denominator) for c in coeffs))
    return [int(c.numerator) * (den // int(c.denominator)) for c in coeffs]


def factor_over_q(coeffs) -> List[Tuple[List[int], int]]:
    """The irreducible factors over Q of a nonconstant polynomial with
    rational coefficients [c0, ..., cn], each as primitive integer
    coefficients (highest degree first) with its multiplicity."""
    from sympy import Poly, Symbol
    from sympy.polys.domains import QQ

    poly = Poly.from_list([QQ(c.numerator, c.denominator)
                           for c in reversed(coeffs)], Symbol("lam"),
                          domain=QQ)
    return [(_integer_coeffs(fac.rep.to_list()), mult)
            for fac, mult in poly.factor_list()[1]]


def isolate_irreducible(coeffs) -> List[Tuple[Fraction, Fraction]]:
    """The grid cells (`_grid_cell`) of the real roots of a polynomial
    irreducible over Q of degree >= 2, given by rational coefficients,
    highest degree first and the first positive, in increasing order.

    A quadratic a x^2 + b x + e (a > 0, D = b^2 - 4ae not a square) has
    the roots (-b +/- sqrt(D)) / 2a.  With R = isqrt(D GRID^2), GRID
    sqrt(D) is irrational and lies strictly between R and R + 1, so
    floor(r GRID) is floor((-b GRID + R) / 2a) for the larger root and
    floor((-b GRID - R - 1) / 2a) for the smaller.  The sign change at the
    ends of each cell then proves it holds exactly one of the two roots.
    Higher degrees: sympy isolates, and `_grid_search` finds a cell in
    each interval.  Every cell then has a sign change, the cells are
    distinct and there are as many as real roots, so each holds exactly
    one.
    """
    icoeffs = _integer_coeffs(coeffs)
    if len(icoeffs) == 3:
        a, b, e = icoeffs
        disc = b * b - 4 * a * e
        if disc < 0:
            return []
        root = math.isqrt(disc * GRID * GRID)
        return [_grid_cell(icoeffs, (-b * GRID - root - 1) // (2 * a)),
                _grid_cell(icoeffs, (-b * GRID + root) // (2 * a))]
    from sympy import Poly, Symbol
    from sympy.polys.domains import ZZ

    poly = Poly.from_list(icoeffs, Symbol("lam"), domain=ZZ)
    cells = [_grid_search(icoeffs, Fraction(int(lo.p), int(lo.q)),
                          Fraction(int(hi.p), int(hi.q)))
             for (lo, hi), _m in poly.intervals()]
    if len(set(cells)) < len(cells):
        raise RootCertificateError("two real roots in one grid cell")
    return cells


def real_roots_exact(coeffs):
    """All real roots of a Fraction-coefficient polynomial.

    Returns (rational, irrational): rational as [(Fraction, multiplicity)],
    irrational as [((lo, hi), multiplicity)] with the certified grid cells
    of width 1/GRID that hold them, from the factors over Q
    (`factor_over_q`) and the roots of each factor of degree >= 2
    (`isolate_irreducible`).
    """
    coeffs = poly_trim(coeffs)
    if len(coeffs) <= 1:
        return [], []
    rational: List[Tuple[Fraction, int]] = []
    irrational = []
    for fcoeffs, mult in factor_over_q(coeffs):
        if len(fcoeffs) == 2:
            # c1 lam + c0
            rational.append((Fraction(-fcoeffs[1], fcoeffs[0]), mult))
            continue
        irrational.extend((iv, mult)
                          for iv in isolate_irreducible(fcoeffs))
    rational.sort(key=lambda t: t[0])
    irrational.sort(key=lambda t: t[0][0])
    return rational, irrational
