"""Continuants, tridiagonal levels and certified real-root extraction,
cross-checked against numpy, against sympy's char polys, against a
Fraction bisection snapped to the same 2^-64 grid and against sympy's
CRootOf."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscchain import linalg

from conftest import char_poly


def rand_matrix(rng, n, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(n)]


def rand_tridiagonal(rng, n):
    """(T, diag, products): a tridiagonal matrix with rational entries,
    its off-diagonal entries nonzero and of either sign."""
    def entry():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                        rng.randint(1, 3))
    diag = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(n)]
    upper, lower = ([entry() for _ in range(n - 1)] for _ in range(2))
    T = [[diag[i] if i == j else upper[i] if j == i + 1
          else lower[j] if i == j + 1 else Fraction(0)
          for j in range(n)] for i in range(n)]
    return T, diag, [b * c for b, c in zip(upper, lower)]


def test_char_poly_matches_numpy(rng):
    """The char poly that `tridiagonal_levels` returns for a tridiagonal
    matrix T with products of either sign, its continuant, is
    L^n det(lam - T), with L the lcm of the denominators of the diagonal
    and the products."""
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            T, diag, products = rand_tridiagonal(rng, n)
            _, coeffs = linalg.tridiagonal_levels(diag, products)
            L = math.lcm(*(x.denominator for x in diag + products))
            assert all(isinstance(c, int) for c in coeffs)
            got = np.array([c / L ** n for c in coeffs])
            want = np.poly(np.array(T, dtype=float))
            assert np.allclose(got, want, atol=1e-8)


def test_char_poly_trace_and_det(rng):
    T, diag, products = rand_tridiagonal(rng, 4)
    _, coeffs = linalg.tridiagonal_levels(diag, products)   # highest first
    monic = [Fraction(c, coeffs[0]) for c in coeffs]
    assert monic == char_poly(T)
    assert monic[1] == -sum(diag)
    assert monic[-1] == linalg.det(T)


def test_real_roots_rational():
    # (x-2)^2 (x+1/3) = x^3 - 11/3 x^2 + 8/3 x + 4/3
    coeffs = [Fraction(1), Fraction(-11, 3), Fraction(8, 3), Fraction(4, 3)]
    rational, irrational = linalg.real_roots_exact(coeffs)
    assert not irrational
    roots = sorted(rational)
    assert roots == [(Fraction(-1, 3), 1), (Fraction(2), 2)]


def test_real_roots_irrational_intervals():
    # x^2 - 2: roots +/- sqrt(2), each held as its certified grid cell n
    coeffs = [Fraction(1), Fraction(0), Fraction(-2)]
    rational, irrational = linalg.real_roots_exact(coeffs)
    assert not rational
    assert len(irrational) == 2
    for n, mult in irrational:
        assert mult == 1
        assert _is_certified_cell([1, 0, -2], n)
    approx = sorted(float(_midpoint(n)) for n, _ in irrational)
    assert abs(approx[0] + math.sqrt(2)) < 1e-12
    assert abs(approx[1] - math.sqrt(2)) < 1e-12


def test_real_roots_mixed():
    # (x - 3)(x^2 - 5)
    coeffs = [Fraction(1), Fraction(-3), Fraction(-5), Fraction(15)]
    rational, irrational = linalg.real_roots_exact(coeffs)
    assert rational == [(Fraction(3), 1)]
    assert len(irrational) == 2


def test_eigenvalues_of_exact_matrix_match_numpy(rng):
    for _ in range(3):
        A = rand_matrix(rng, 4, -3, 3)
        rational, irrational = linalg.real_roots_exact(char_poly(A))
        mids = [float(v) for v, m in rational for _ in range(m)]
        mids += [float(_midpoint(n)) for n, m in irrational
                 for _ in range(m)]
        want = sorted(v.real for v in np.linalg.eigvals(
            np.array(A, dtype=float)) if abs(v.imag) < 1e-9)
        got = sorted(mids)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6


def test_refine_rejects_an_interval_without_a_sign_change():
    # 3 lam^2 - 2 is positive at both ends of [1, 2]
    with pytest.raises(linalg.RootCertificateError):
        linalg._grid_search([3, 0, -2], Fraction(1), Fraction(2))


def test_refine_matches_width_exactly():
    # lam^2 - 2 on [1, 2]: 64 halvings reach the one cell of width 2^-64
    n = linalg._grid_search([1, 0, -2], Fraction(1), Fraction(2))
    lo, hi = _ends(n)
    assert type(n) is int and hi - lo == Fraction(1, 2 ** 64)
    assert lo * lo < 2 < hi * hi


# -- real_roots_exact against the Fraction bisection it replaced -------------

def _fraction_eval(coeffs, x):
    out = Fraction(0)
    for c in coeffs:
        out = out * x + c
    return out


CELL = Fraction(1, 2 ** 64)


def _ends(n):
    """The ends of the grid cell held as the integer n."""
    return n * CELL, (n + 1) * CELL


def _midpoint(n):
    return (n + Fraction(1, 2)) * CELL


def _is_certified_cell(icoeffs, n):
    """n is an int, and the polynomial has strictly opposite signs at the
    ends n / 2^64 and (n + 1) / 2^64 of its cell, 2^-64 apart."""
    lo, hi = _ends(n)
    return (type(n) is int and hi - lo == CELL
            and _fraction_eval(icoeffs, lo) * _fraction_eval(icoeffs, hi) < 0)


def _reference_roots(coeffs):
    """sympy factors and intervals, refined by Fraction bisection to width
    2^-64 and snapped to the cell [n, n + 1] / 2^64 that holds the root:
    the cell of lo, unless its ends have the same sign; each root as n."""
    import sympy
    lam = sympy.Symbol("lam")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in coeffs], lam, domain="QQ")
    rational, irrational = [], []
    for fac, mult in poly.factor_list()[1]:
        fc = [Fraction(str(c)) for c in fac.all_coeffs()]
        if fac.degree() == 1:
            rational.append((-fc[1] / fc[0], mult))
            continue
        for (lo, hi), _ in fac.intervals():
            lo, hi = Fraction(str(lo)), Fraction(str(hi))
            flo = _fraction_eval(fc, lo)
            while hi - lo > CELL:
                mid = (lo + hi) / 2
                if (_fraction_eval(fc, mid) > 0) == (flo > 0):
                    lo = mid
                else:
                    hi = mid
            n = math.floor(lo / CELL)
            if _fraction_eval(fc, n * CELL) \
                    * _fraction_eval(fc, (n + 1) * CELL) > 0:
                n += 1
            irrational.append((n, mult, fc))
    return (sorted(rational),
            sorted(irrational, key=lambda t: t[0]))


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def factored_polys(draw):
    """The coefficients of a product of rational linear factors and
    quadratics/cubics with small coefficients, multiplicities 1-3."""
    coeffs = [Fraction(1)]
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        factor = [Fraction(1)] + [draw(small_rationals) for _ in range(degree)]
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
    assert irrational == [(n, m) for n, m, _ in want_irrational]
    for n, _, fc in want_irrational:
        assert _is_certified_cell(fc, n)
    import sympy
    lam = sympy.Symbol("lam")
    poly = sympy.Poly(coeffs, lam, domain="QQ")
    assert sum(m for _, m in rational) + sum(m for _, m in irrational) \
        == len(sympy.real_roots(poly))


def test_isolate_irreducible_ignores_the_scale_of_the_factor():
    """The monic rational form and the primitive integer form of one
    irreducible quadratic give the same certified intervals, as the
    factors from `factor_over_q` and those built from the degree-1 block
    must."""
    monic = [1, Fraction(-1, 3), Fraction(-5, 6)]      # (6t^2 - 2t - 5) / 6
    cells = linalg.isolate_irreducible(monic)
    assert cells == linalg.isolate_irreducible([6, -2, -5])
    assert linalg.factor_over_q(monic) == [([6, -2, -5], 1)]
    assert len(cells) == 2
    for n in cells:
        assert _is_certified_cell([6, -2, -5], n)


# -- the grid cells in closed form -------------------------------------------

def _crootof_cells(icoeffs):
    """The cells [n, n + 1] / 2^64, as n = floor(r 2^64), of the real
    roots r of an integer polynomial (highest degree first), from sympy's
    exact CRootOf: a route that shares nothing with the code under test."""
    import sympy
    poly = sympy.Poly(icoeffs, sympy.Symbol("x"))
    return [int(sympy.floor(sympy.CRootOf(poly, k) * 2 ** 64))
            for k in range(poly.count_roots())]


def test_close_roots_get_their_grid_cells():
    """(x - 3806/3)^2 - 199/10000: sympy's isolating intervals
    [2537/2, 3806/3] and [3806/3, 1269] are not grid cells, and both the
    closed form and the snapped bisection of them give the cells of
    floor(r 2^64)."""
    import sympy
    c = Fraction(3806, 3)
    coeffs = [1, -2 * c, c * c - Fraction(199, 10000)]
    icoeffs = linalg._integer_coeffs(coeffs)
    want = _crootof_cells(icoeffs)
    assert len(want) == 2
    assert linalg.isolate_irreducible(coeffs) == want
    rational, irrational = linalg.real_roots_exact(coeffs)
    assert not rational and irrational == [(n, 1) for n in want]
    poly = sympy.Poly(icoeffs, sympy.Symbol("x"))
    sympy_ivs = [(Fraction(str(lo)), Fraction(str(hi)))
                 for (lo, hi), _ in poly.intervals()]
    assert sympy_ivs == [(Fraction(2537, 2), c), (c, Fraction(1269))]
    assert [linalg._grid_search(icoeffs, lo, hi)
            for lo, hi in sympy_ivs] == want
    for n in want:
        assert _is_certified_cell(icoeffs, n)


def test_quadratic_without_real_roots_has_no_cells():
    assert linalg.isolate_irreducible([1, 0, 1]) == []
    assert linalg.real_roots_exact([Fraction(1), Fraction(0),
                                    Fraction(1)]) == ([], [])


def test_a_cell_without_a_sign_change_is_refused():
    with pytest.raises(linalg.RootCertificateError):
        linalg._grid_cell([1, 0, -2], 0)


def _spy_on_intervals(monkeypatch):
    """Count the calls of sympy's real-root isolation."""
    from sympy import Poly
    calls = []
    intervals = Poly.intervals

    def spy(self, *args, **kwargs):
        calls.append(self)
        return intervals(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "intervals", spy)
    return calls


def test_harmonic_spectrum_calls_no_sympy_isolation(monkeypatch):
    from oscchain import spectra
    from oscchain.model import Case, Params
    calls = _spy_on_intervals(monkeypatch)
    report = spectra.spectrum(
        Case.GENERAL3, Params(m1=2, m2=3, m3=Fraction(5, 2)), 5)
    cells = [ev.interval for ev in report.gauged if ev.interval is not None]
    assert cells and not calls
    for lo, hi in cells:
        assert hi - lo == CELL and (lo / CELL).denominator == 1


# the characteristic polynomial of the twobody_qes block at N = 4, A = 1
# (the other parameters at their defaults), irreducible of degree 5
QES_QUINTIC = [1, -40, -400, 17152, 18432, -589824]


def test_irreducible_cubic_goes_through_sympy_and_is_snapped(monkeypatch):
    calls = _spy_on_intervals(monkeypatch)
    for icoeffs in ([1, 0, -3, 1], [3, -1, 0, -7], [1, 0, 0, -2],
                    QES_QUINTIC):
        cells = linalg.isolate_irreducible(icoeffs)
        assert cells == _crootof_cells(icoeffs)
        for n in cells:
            assert _is_certified_cell(icoeffs, n)
    assert len(calls) == 4


def test_three_roots_in_one_cell_are_refused():
    """s + t y for the roots y of y^3 - 3y + 1, with s = 2^-65 and
    t = 2^-70: all three lie in the cell [0, 1] / 2^64, whose ends then
    have opposite signs, so only the distinctness of the cells refuses."""
    s, t = Fraction(1, 2 ** 65), Fraction(1, 2 ** 70)
    coeffs = [1, -3 * s, 3 * s * s - 3 * t * t,
              t ** 3 + 3 * t * t * s - s ** 3]
    with pytest.raises(linalg.RootCertificateError):
        linalg.isolate_irreducible(coeffs)


# -- tridiagonal levels from integer Sturm counts ----------------------------

def _levels_by_char_poly(diag, products):
    """The levels of the tridiagonal matrix with the super-diagonal 1 and
    the sub-diagonal `products`, as (value, cell, 1) from its char poly's
    factors (`real_roots_exact`), all simple."""
    n = len(diag)
    A = [[diag[i] if i == j else Fraction(1) if j == i + 1
          else products[j] if i == j + 1 else Fraction(0)
          for j in range(n)] for i in range(n)]
    rational, irrational = linalg.real_roots_exact(char_poly(A))
    assert all(m == 1 for _, m in rational + irrational)
    return sorted([(x, None, 1) for x, _ in rational]
                  + [(None, iv, 1) for iv, _ in irrational],
                  key=lambda t: t[0] if t[1] is None else t[1] * CELL)


JACOBI_ENTRIES = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(JACOBI_ENTRIES, min_size=1, max_size=7), st.data())
def test_tridiagonal_levels_match_the_char_poly(diag, data):
    products = data.draw(st.lists(
        st.fractions(min_value=Fraction(1, 6), max_value=50,
                     max_denominator=6),
        min_size=len(diag) - 1, max_size=len(diag) - 1))
    levels, continuant = linalg.tridiagonal_levels(diag, products)
    assert levels == _levels_by_char_poly(diag, products)
    # the char poly, returned as T's annihilator, is L^n det(lam - T)
    n = len(diag)
    T = [[diag[i] if i == j else Fraction(1) if j == i + 1
          else products[j] if i == j + 1 else Fraction(0)
          for j in range(n)] for i in range(n)]
    monic = char_poly(T)
    assert [Fraction(c, continuant[0]) for c in continuant] == monic
    assert continuant[0] > 0 and all(isinstance(c, int) for c in continuant)


def test_an_integer_level_just_above_an_irrational_one():
    """diag (-4, -2, -4), products (1, 1): the levels -3 - sqrt 3, -4 and
    -3 + sqrt 3.  The least integer at or above -3 - sqrt 3 is -4, itself
    a level, so it is the first level's candidate but not its value."""
    diag, products = [Fraction(-4), Fraction(-2), Fraction(-4)], [1, 1]
    products = [Fraction(x) for x in products]
    levels, _ = linalg.tridiagonal_levels(diag, products)
    assert levels == _levels_by_char_poly(diag, products)
    assert [v for v, _, _ in levels] == [None, -4, None]


def test_tridiagonal_levels_at_grid_points_are_values():
    F = Fraction
    assert linalg.tridiagonal_levels([F(0), F(0)], [F(1)])[0] \
        == [(F(-1), None, 1), (F(1), None, 1)]
    assert linalg.tridiagonal_levels([F(1, 3)], []) \
        == ([(F(1, 3), None, 1)], [3, -1])
    (lo, _, _), (hi, _, _) = linalg.tridiagonal_levels([F(0), F(0)],
                                                       [F(2)])[0]
    assert lo is hi is None


def test_two_levels_in_one_grid_cell_are_refused():
    """s +/- t sqrt(2), s = 2^-66 and t = 2^-70, both in the cell
    [0, 1] / 2^64: the count falls by two across it."""
    s, t = Fraction(1, 2 ** 66), Fraction(1, 2 ** 70)
    with pytest.raises(linalg.RootCertificateError, match="not one level"):
        linalg.tridiagonal_levels([s, s], [2 * t * t])


def test_levels_in_adjacent_grid_cells_are_each_certified():
    """diag (0, 2^-66), product 2^-200: the levels are about -2^-134 and
    2^-66, in the adjacent cells [-1, 0] and [0, 1] / 2^64.  The count
    falls by one across each cell, read at its two ends; read one cell
    further, it would span both levels and refuse them."""
    F = Fraction
    assert linalg.tridiagonal_levels([F(0), F(1, 2 ** 66)],
                                     [F(1, 2 ** 200)])[0] \
        == [(None, -1, 1), (None, 0, 1)]


def test_a_tridiagonal_cell_without_a_sign_change_is_refused(monkeypatch):
    monkeypatch.setattr(linalg, "_scaled_value", lambda coeffs, p, q: 1)
    with pytest.raises(linalg.RootCertificateError, match="no sign change"):
        linalg.tridiagonal_levels([Fraction(0), Fraction(0)], [Fraction(2)])


def test_tridiagonal_levels_factor_the_continuant_unless_all_positive():
    """diag (1, 2, 1), products (1, -1): the continuant (x - 1)^2 (x - 2)
    is factored over Q, and the levels carry their multiplicities."""
    F = Fraction
    assert linalg.tridiagonal_levels([F(1), F(2), F(1)], [F(1), F(-1)]) \
        == ([(1, None, 2), (2, None, 1)], [1, -4, 5, -2])
