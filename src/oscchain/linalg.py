"""Determinants, continuants and certified real roots over Q.

The spectral engine reads every level off its matrix's structure
(`spectra` docstring); no general char poly is computed here.  `det` is
the one determinant, by cofactors, of the small matrices of `spectra`
(Fractions) and `model.cometric` (`MultiPoly`s).  `tridiagonal_levels`
builds a tridiagonal matrix's char poly, the continuant, from its
three-term recurrence on integers, and finds the levels by integer Sturm
counts when every product of opposite off-diagonal entries is positive
(no sympy), else by `real_roots_exact`.  The continuant is also the
annihilator that `spectra` hands to its one eigenvector routine.  Every
polynomial here, and in `spectra`, is a list of its coefficients, highest
degree first.

Real roots: sympy factors a polynomial over Q, built straight from its
coefficient list (`factor_over_q`).  A factor of degree >= 2 is
irreducible, so its roots are irrational, and each is reported as the
cell [n, n + 1] / 2^64 of the dyadic grid that holds it, n = floor(r 2^64),
held as its one integer n (`isolate_irreducible`).  A quadratic's cells
are in closed form, from one integer square root; a factor of higher
degree is isolated by sympy, and the cell in each interval [lo, hi] is
found by integer bisection over the grid indices n in
[floor(lo 2^64), ceil(hi 2^64)], the sign of f at n / 2^64 taken from
2^(64 d) f(n / 2^64) by integer Horner.  A cell whose ends do not have
strictly opposite signs raises `RootCertificateError`.
`tridiagonal_levels` finds its cells on the same grid by Sturm counts,
and certifies each cell the same way.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import VerificationError


def det(B):
    """det(B) by expansion along the first row, for a small square matrix
    B given as rows of Fractions or `MultiPoly`s; 1 when B is empty."""
    return sum((-1) ** j * x * det([row[:j] + row[j + 1:] for row in B[1:]])
               for j, x in enumerate(B[0])) if B else 1


# -- certified real roots ----------------------------------------------------

class RootCertificateError(VerificationError):
    """A grid cell whose ends do not have strictly opposite signs."""


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


def _grid_cell(coeffs: Sequence[int], n: int) -> int:
    """n, the cell [n, n + 1] / GRID held as its one integer, certified by
    the strictly opposite signs of the integer polynomial `coeffs` (highest
    degree first) at its ends; otherwise RootCertificateError."""
    if _scaled_value(coeffs, n, GRID) \
            * _scaled_value(coeffs, n + 1, GRID) >= 0:
        raise RootCertificateError(
            f"no sign change over the grid cell [{n}, {n + 1}] / 2^64")
    return n


def _grid_search(coeffs: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """The grid cell (`_grid_cell`) of a root at which the integer
    polynomial `coeffs` (highest degree first, irreducible of degree >= 2,
    so no grid point is a root) changes sign over [lo, hi]: bisection over
    the grid indices a < b from floor(lo GRID) and ceil(hi GRID), where a
    keeps its sign and b moves only to the other one, so the cell found is
    refused only when b never moved."""
    a, b = math.floor(lo * GRID), math.ceil(hi * GRID)
    positive = _scaled_value(coeffs, a, GRID) > 0
    return _grid_cell(coeffs, _bisect(
        lambda m: (_scaled_value(coeffs, m, GRID) > 0) == positive, a, b))


def _bisect(keeps, a: int, b: int) -> int:
    """The a, with b = a + 1, found by bisection from a < b: a moves to a
    midpoint m where keeps(m) holds, b to one where it does not."""
    while b - a > 1:
        m = (a + b) // 2
        if keeps(m):
            a = m
        else:
            b = m
    return a


def _integer_coeffs(coeffs) -> List[int]:
    """A rational coefficient list times the lcm of its denominators."""
    den = math.lcm(*(int(c.denominator) for c in coeffs))
    return [int(c.numerator) * (den // int(c.denominator)) for c in coeffs]


def factor_over_q(coeffs) -> List[Tuple[List[int], int]]:
    """The irreducible factors over Q of a polynomial with rational
    coefficients, each as primitive integer coefficients with its
    multiplicity."""
    from sympy import Poly, Symbol
    from sympy.polys.domains import QQ

    poly = Poly.from_list([QQ(c.numerator, c.denominator) for c in coeffs],
                          Symbol("lam"), domain=QQ)
    return [(_integer_coeffs(fac.rep.to_list()), mult)
            for fac, mult in poly.factor_list()[1]]


def isolate_irreducible(coeffs) -> List[int]:
    """The grid cells (`_grid_cell`) of the real roots of a polynomial
    irreducible over Q of degree >= 2, given by rational coefficients,
    highest degree first and the first positive, in increasing order, each
    held as its integer n.

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


def _sturm(d: Sequence[int], P: Sequence[int], y: int) -> Tuple[int, int]:
    """(levels above y, q_n(y)) at the integer y for the integer Jacobi
    data d (the diagonal) and P (the products, led by a 0): the sign
    changes of q_0(y), ..., q_n(y), zeros skipped, and the last of them."""
    prev, cur, sign, above = 0, 1, 1, 0
    for dk, pk in zip(d, P):
        prev, cur = cur, (y - dk) * cur - pk * prev
        if cur and (cur > 0) != (sign > 0):
            above += 1
            sign = cur
    return above, cur


def tridiagonal_levels(diag: Sequence[Fraction], products: Sequence[Fraction]
                       ) -> Tuple[list, List[int]]:
    """(levels, char poly) of a tridiagonal matrix T with the diagonal
    `diag` and the nonzero products b_k c_k of its opposite off-diagonal
    entries: each level (value, None, multiplicity) when rational, else
    (None, n, multiplicity) with its grid cell [n, n + 1] / GRID held as
    the integer n (`_grid_cell`), and
    q_n(L lam) = L^n det(lam - T), integers, highest degree first.

    With L the lcm of the denominators, LT has the integer diagonal
    d = L diag and products P = L^2 products, and its monic integer char
    poly q_n comes from the continuant recurrence
    q_{k+1}(y) = (y - d_k) q_k(y) - P_{k-1} q_{k-1}(y), whatever their
    signs.  Unless every product is > 0, the levels are the real roots of
    q_n from `real_roots_exact`, rational before irrational.  When every
    product is > 0 the levels are real and simple, and the sign changes
    of q_0(y), ..., q_n(y) count those above y (`spectra` docstring).
    Bisection on that count finds level j's cell [a, a + 1] / GRID, in
    ascending order, then the one integer candidate y, the least integer
    at or above it: the level is y / L when q_n(y) = 0 and exactly
    n - 1 - j levels lie above y (else y is the next level, and level j
    lies below it).  Otherwise the cell is certified, each by an `if`: the
    count falls by exactly one across it, and q_n has strictly opposite
    signs at its ends."""
    L = math.lcm(*(int(x.denominator) for x in (*diag, *products)))
    d = [int(x * L) for x in diag]
    P = [0] + [int(x * L * L) for x in products]
    n = len(d)
    prev, cur = [0], [1]             # q_{k-1}, q_k
    for dk, pk in zip(d, P):
        prev, cur = cur, [s - dk * c - pk * p for s, c, p
                          in zip([*cur, 0], [0, *cur], [0, 0, *prev])]
    # q_n(L lam) in lam, whose coefficient of lam^(n - i) is L^(n - i) cur_i
    lam_coeffs = [c * L ** (n - i) for i, c in enumerate(cur)]
    if not all(x > 0 for x in products):
        rational, irrational = real_roots_exact(lam_coeffs)
        return [(x, None, m) for x, m in rational] \
            + [(None, cell, m) for cell, m in irrational], lam_coeffs
    # Gershgorin on the symmetric form: |y - d_k| <= sqrt P_{k-1} + sqrt P_k
    R = max(map(abs, d)) + 2 * (math.isqrt(max(P)) + 1)
    bound = R * GRID // L + 1
    # the grid point lam = m / GRID is the integer L m of GRID L T
    dg, Pg = [GRID * x for x in d], [GRID * GRID * x for x in P]
    out = []
    for j in range(n):
        rank = n - 1 - j            # levels above the j-th
        # level j lies in (a, a + 1] / GRID, and that of LT in (y - 1, y]
        a = _bisect(lambda m: _sturm(dg, Pg, L * m)[0] > rank,
                    -bound, bound)
        y = 1 + _bisect(lambda k: _sturm(d, P, k)[0] > rank,
                        L * a // GRID, -(-L * (a + 1) // GRID))
        if _sturm(d, P, y) == (rank, 0):    # y is a level, and the j-th
            out.append((Fraction(y, L), None, 1))
            continue
        if _sturm(dg, Pg, L * a)[0] - _sturm(dg, Pg, L * (a + 1))[0] != 1:
            raise RootCertificateError(
                f"not one level in the grid cell [{a}, {a + 1}] / 2^64")
        out.append((None, _grid_cell(lam_coeffs, a), 1))
    return out, lam_coeffs


def real_roots_exact(coeffs):
    """All real roots of a polynomial with rational coefficients.

    Returns (rational, irrational): rational as [(Fraction, multiplicity)],
    irrational as [(n, multiplicity)], each root held as the integer n of
    its certified grid cell [n, n + 1] / GRID, from the factors over Q
    (`factor_over_q`) and the roots of each factor of degree >= 2
    (`isolate_irreducible`).
    """
    rational: List[Tuple[Fraction, int]] = []
    irrational = []
    for fcoeffs, mult in factor_over_q(coeffs):
        if len(fcoeffs) == 2:
            # c1 lam + c0
            rational.append((Fraction(-fcoeffs[1], fcoeffs[0]), mult))
            continue
        irrational.extend((n, mult) for n in isolate_irreducible(fcoeffs))
    rational.sort(key=lambda t: t[0])
    irrational.sort(key=lambda t: t[0])
    return rational, irrational
