"""Characteristic polynomials of DomainMatrix blocks and certified
real-root extraction, cross-checked against numpy and against the Fraction
bisection that the integer one replaced."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscchain import linalg


def rand_matrix(rng, n, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(n)]


def domain_matrix(A):
    """The sparse DomainMatrix over QQ that the spectral engine holds."""
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[QQ(x) for x in row] for row in A],
                        (len(A), len(A)), QQ).to_sparse()


def test_char_poly_matches_numpy(rng):
    for n in (2, 3, 4):
        for _ in range(5):
            A = rand_matrix(rng, n)
            coeffs = linalg.char_poly(domain_matrix(A))
            got = np.array([float(c) for c in coeffs])
            want = np.poly(np.array(A, dtype=float))[::-1]
            assert np.allclose(got, want, atol=1e-8)


def test_char_poly_trace_and_det(rng):
    A = rand_matrix(rng, 4)
    coeffs = linalg.char_poly(domain_matrix(A))   # ascending, monic
    assert coeffs[-1] == 1
    assert coeffs[-2] == -sum(A[i][i] for i in range(4))
    det = Fraction(round(np.linalg.det(np.array(A, dtype=float))))
    assert coeffs[0] == det


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
        coeffs = linalg.char_poly(domain_matrix(A))
        rational, irrational = linalg.real_roots_exact(coeffs)
        mids = [float(v) for v, m in rational for _ in range(m)]
        mids += [(float(lo) + float(hi)) / 2
                 for (lo, hi), m in irrational for _ in range(m)]
        want = sorted(v.real for v in np.linalg.eigvals(
            np.array(A, dtype=float)) if abs(v.imag) < 1e-9)
        got = sorted(mids)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6


def test_refine_rejects_an_interval_without_a_sign_change():
    # 3 lam^2 - 2 is positive at both ends of [1, 2]
    with pytest.raises(linalg.RootCertificateError):
        linalg._refine_sign_change([3, 0, -2], Fraction(1), Fraction(2),
                                   Fraction(1, 2 ** 64))


def test_refine_matches_width_exactly():
    # lam^2 - 2 on [1, 2]: 64 halvings reach width 2^-64
    lo, hi = linalg._refine_sign_change([1, 0, -2], Fraction(1), Fraction(2),
                                        Fraction(1, 2 ** 64))
    assert hi - lo == Fraction(1, 2 ** 64)
    assert lo * lo < 2 < hi * hi


# -- real_roots_exact against the Fraction bisection it replaced -------------

def _fraction_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _reference_roots(coeffs, width=Fraction(1, 2 ** 64)):
    """sympy factors and intervals, refined by Fraction bisection."""
    import sympy
    lam = sympy.Symbol("lam")
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                          * lam ** k for k, c in enumerate(coeffs)),
                      lam, domain="QQ")
    rational, irrational = [], []
    for fac, mult in poly.factor_list()[1]:
        fc = [Fraction(str(c)) for c in reversed(fac.all_coeffs())]
        if fac.degree() == 1:
            rational.append((-fc[0] / fc[1], mult))
            continue
        for (lo, hi), _ in fac.intervals():
            lo, hi = Fraction(str(lo)), Fraction(str(hi))
            flo = _fraction_eval(fc, lo)
            while hi - lo > width:
                mid = (lo + hi) / 2
                if (_fraction_eval(fc, mid) > 0) == (flo > 0):
                    lo = mid
                else:
                    hi = mid
            irrational.append(((lo, hi), mult, fc))
    return (sorted(rational),
            sorted(irrational, key=lambda t: t[0][0]))


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def factored_polys(draw):
    """Ascending coefficients of a product of rational linear factors and
    quadratics/cubics with small coefficients, multiplicities 1-3."""
    coeffs = [Fraction(1)]
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        factor = [draw(small_rationals) for _ in range(degree)] + [Fraction(1)]
        for _ in range(draw(st.integers(1, 3))):
            out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            coeffs = out
    scale = draw(st.fractions(min_value=1, max_value=5, max_denominator=3))
    return [scale * c for c in coeffs]


@settings(max_examples=60, deadline=None)
@given(factored_polys())
def test_real_roots_match_fraction_bisection(coeffs):
    rational, irrational = linalg.real_roots_exact(coeffs)
    want_rational, want_irrational = _reference_roots(coeffs)
    assert rational == want_rational
    assert irrational == [(iv, m) for iv, m, _ in want_irrational]
    for (lo, hi), _, fc in want_irrational:
        assert 0 < hi - lo <= Fraction(1, 2 ** 64)
        assert _fraction_eval(fc, lo) * _fraction_eval(fc, hi) < 0
    import sympy
    lam = sympy.Symbol("lam")
    poly = sympy.Poly(list(reversed(coeffs)), lam, domain="QQ")
    assert sum(m for _, m in rational) + sum(m for _, m in irrational) \
        == len(sympy.real_roots(poly))


def test_isolate_irreducible_ignores_the_scale_of_the_factor():
    """The monic rational form and the primitive integer form of one
    irreducible quadratic give the same certified intervals, as the
    factors from `factor_over_q` and those built from the degree-1 block
    must."""
    monic = [1, Fraction(-1, 3), Fraction(-5, 6)]      # (6t^2 - 2t - 5) / 6
    intervals = linalg.isolate_irreducible(monic)
    assert intervals == linalg.isolate_irreducible([6, -2, -5])
    assert linalg.factor_over_q(list(reversed(monic))) == [([6, -2, -5], 1)]
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert 0 < hi - lo <= Fraction(1, 2 ** 64)
        assert (6 * lo * lo - 2 * lo - 5) * (6 * hi * hi - 2 * hi - 5) < 0


def test_refined_ends_share_their_power_of_two_denominators():
    """Ends with equal power-of-two denominators hold one int object."""
    ends = [x for coeffs in ([1, 0, -2], [1, 0, -3], [2, -1, -7])
            for iv in linalg.isolate_irreducible(coeffs) for x in iv]
    by_value = {}
    for x in ends:
        d = x.denominator
        assert d & (d - 1) == 0
        assert by_value.setdefault(d, d) is d
    assert len(by_value) < len(ends)
