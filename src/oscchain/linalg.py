"""Characteristic polynomials and certified real roots over Q.

The spectral engine holds each operator matrix as one sparse sympy
`DomainMatrix` over QQ and does its own ranks, nullspaces and solves on
it.  `char_poly` is the one matrix stage here: sympy's division-free
Berkowitz `charpoly`, returned as Fraction coefficients.  sympy is
imported inside the functions, so commands that do no linear algebra
never load it.

Real roots: sympy factors the characteristic polynomial over Q, built
straight from its coefficient list (`factor_over_q`), and isolates the
real roots of each factor (`isolate_irreducible`).  A factor of degree
>= 2 is irreducible, so its roots are irrational; each isolating interval
is refined here by sign-change bisection in integers: both ends over one
denominator q, and the sign of f at p/q taken from q^d f(p/q) by integer
Horner.  The decisions are those of the same bisection over Fraction, so
the intervals are identical to it, without a gcd per step.  An interval
whose ends do not have strictly opposite signs raises
`RootCertificateError`.
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
    return _dyadic(a, q), _dyadic(b, q)


# one int per power-of-two denominator, shared by every end that has it
_POWERS_OF_TWO: Dict[int, int] = {}


def _dyadic(n: int, q: int) -> Fraction:
    """Fraction(n, q), whose denominator, when it is a power of two, is the
    one int of that value kept in `_POWERS_OF_TWO`.

    Bisection doubles q, so the refined ends of an interval with integer
    ends are dyadic.  A spectrum keeps two ends per irrational level, and
    sharing their denominators takes about a fifth off what its intervals
    hold.  `Fraction` keeps its denominator in `_denominator`; an int of
    the same value there leaves the Fraction unchanged.
    """
    x = Fraction(n, q)
    d = x.denominator
    if d & (d - 1) == 0:
        x._denominator = _POWERS_OF_TWO.setdefault(d, d)
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


def isolate_irreducible(coeffs, width: Fraction = Fraction(1, 2 ** 64)
                        ) -> List[Tuple[Fraction, Fraction]]:
    """Certified isolating intervals of width <= `width` of the real roots
    of a polynomial irreducible over Q of degree >= 2, given by rational
    coefficients, highest degree first.  sympy isolates; the intervals
    are refined by `_refine_sign_change`."""
    from sympy import Poly, Symbol
    from sympy.polys.domains import ZZ

    icoeffs = _integer_coeffs(coeffs)
    poly = Poly.from_list(icoeffs, Symbol("lam"), domain=ZZ)
    return [_refine_sign_change(icoeffs, Fraction(int(lo.p), int(lo.q)),
                                Fraction(int(hi.p), int(hi.q)), width)
            for (lo, hi), _m in poly.intervals()]


def real_roots_exact(coeffs, width: Fraction = Fraction(1, 2 ** 64)):
    """All real roots of a Fraction-coefficient polynomial.

    Returns (rational, irrational): rational as [(Fraction, multiplicity)],
    irrational as [((lo, hi), multiplicity)] with certified isolating
    intervals of width <= `width`, from the factors over Q
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
                          for iv in isolate_irreducible(fcoeffs, width))
    rational.sort(key=lambda t: t[0])
    irrational.sort(key=lambda t: t[0][0])
    return rational, irrational
