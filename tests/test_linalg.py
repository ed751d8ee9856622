"""Exact linear algebra: characteristic polynomials, nullspaces, and
certified real-root extraction, cross-checked against numpy."""
import random
from fractions import Fraction

import numpy as np
import pytest

from oscchain import linalg


def rand_matrix(rng, n, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(n)]


def test_char_poly_matches_numpy(rng):
    for n in (2, 3, 4):
        for _ in range(5):
            A = rand_matrix(rng, n)
            coeffs = linalg.char_poly(A)
            got = np.array([float(c) for c in coeffs])
            want = np.poly(np.array(A, dtype=float))[::-1]
            assert np.allclose(got, want, atol=1e-8)


def test_char_poly_trace_and_det(rng):
    A = rand_matrix(rng, 4)
    coeffs = linalg.char_poly(A)          # ascending, monic
    assert coeffs[-1] == 1
    assert coeffs[-2] == -sum(A[i][i] for i in range(4))
    det = Fraction(round(np.linalg.det(np.array(A, dtype=float))))
    assert coeffs[0] == det


def test_nullspace_and_rank(rng):
    A = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)],
         [Fraction(0), Fraction(1), Fraction(1)]]
    assert linalg.rank(A) == 2
    null = linalg.nullspace(A)
    assert len(null) == 1
    v = null[0]
    for row in A:
        assert sum(r * x for r, x in zip(row, v)) == 0


def test_solve_consistent_and_inconsistent():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = linalg.solve(A, [Fraction(5), Fraction(10)])
    assert [sum(r * xi for r, xi in zip(row, x)) for row in A] \
        == [Fraction(5), Fraction(10)]
    B = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linalg.solve(B, [Fraction(1), Fraction(3)]) is None


def test_real_roots_rational():
    # (x-2)^2 (x+1/3) = x^3 - 11/3 x^2 + 8/3 x + 4/3
    coeffs = [Fraction(4, 3), Fraction(8, 3), Fraction(-11, 3), Fraction(1)]
    rational, irrational = linalg.real_roots_exact(coeffs)
    assert not irrational
    roots = sorted(rational)
    assert roots == [(Fraction(-1, 3), 1), (Fraction(2), 2)]


def test_real_roots_irrational_intervals():
    # x^2 - 2: roots +/- sqrt(2), certified to width 2^-64
    coeffs = [Fraction(-2), Fraction(0), Fraction(1)]
    rational, irrational = linalg.real_roots_exact(coeffs)
    assert not rational
    assert len(irrational) == 2
    import math
    for (lo, hi), mult in irrational:
        assert mult == 1
        assert hi - lo <= Fraction(1, 2 ** 64)
    approx = sorted((float(lo) + float(hi)) / 2 for (lo, hi), _ in irrational)
    assert abs(approx[0] + math.sqrt(2)) < 1e-12
    assert abs(approx[1] - math.sqrt(2)) < 1e-12


def test_real_roots_mixed():
    # (x - 3)(x^2 - 5)
    coeffs = [Fraction(15), Fraction(-5), Fraction(-3), Fraction(1)]
    rational, irrational = linalg.real_roots_exact(coeffs)
    assert rational == [(Fraction(3), 1)]
    assert len(irrational) == 2


def test_eigenvalues_of_exact_matrix_match_numpy(rng):
    for _ in range(3):
        A = rand_matrix(rng, 4, -3, 3)
        coeffs = linalg.char_poly(A)
        rational, irrational = linalg.real_roots_exact(coeffs)
        mids = [float(v) for v, m in rational for _ in range(m)]
        mids += [(float(lo) + float(hi)) / 2
                 for (lo, hi), m in irrational for _ in range(m)]
        want = sorted(v.real for v in np.linalg.eigvals(
            np.array(A, dtype=float)) if abs(v.imag) < 1e-9)
        got = sorted(mids)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6


def test_wrappers_on_zero_rows():
    Z = Fraction(0)
    A = [[Z, Z, Z],
         [Fraction(1), Fraction(2), Z],
         [Z, Z, Z]]
    assert linalg.rank(A) == 1
    null = linalg.nullspace(A)
    assert len(null) == 2
    for v in null:
        assert [sum(r * x for r, x in zip(row, v)) for row in A] == [Z] * 3
    assert linalg.solve(A, [Z, Fraction(3), Z]) == [Fraction(3), Z, Z]
    assert linalg.solve(A, [Fraction(1), Fraction(3), Z]) is None
    assert linalg.char_poly([[Z, Z], [Fraction(5), Fraction(2)]]) \
        == [Z, Fraction(-2), Fraction(1)]


def test_wrappers_on_the_zero_block():
    # the degree-0 block of every gauged operator
    Z = [[Fraction(0)]]
    assert linalg.rank(Z) == 0
    assert linalg.nullspace(Z) == [[Fraction(1)]]
    assert linalg.char_poly(Z) == [Fraction(0), Fraction(1)]
    assert linalg.solve(Z, [Fraction(0)]) == [Fraction(0)]
    assert linalg.solve(Z, [Fraction(1)]) is None
