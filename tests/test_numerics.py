"""Floating-point oracles: finite-difference radial eigensolver
(convergence order, closed-form cross-checks) and the Born-Oppenheimer
gap analysis."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscchain import numerics
from oscchain.model import Case, Params


def test_grid_validation():
    with pytest.raises(ValueError):
        numerics.Grid1D(10.0, 100)
    with pytest.raises(ValueError):
        numerics.Grid1D(-1.0, 500)
    g = numerics.Grid1D(8.0, 401)
    assert g.spacing == 0.02
    assert g.halved().npoints == 801
    assert g.halved().spacing * 2 == g.spacing


def test_grid_refuses_more_points_than_the_cap():
    """Constructing a grid allocates nothing, so the cap is tested here and
    no test builds a large grid."""
    cap = numerics.MAX_GRID_POINTS
    assert numerics.Grid1D(8.0, cap).npoints == cap
    with pytest.raises(ValueError):
        numerics.Grid1D(8.0, cap + 1)
    with pytest.raises(ValueError):    # the Richardson step's halved grid
        numerics.Grid1D(8.0, cap // 2 + 1).halved()


def test_nonconfining_potential_rejected():
    with pytest.raises(numerics.NonConfiningPotential):
        numerics.fd_radial_eigen([0.0, -1.0], 3, numerics.Grid1D(8.0, 401))


@pytest.mark.parametrize("d, k", [(3, 0), (3, 199), (2, 200), (4, 200)])
def test_oracle_refuses_a_level_count_the_grid_lacks(d, k):
    """200 points give 198 unknowns at d = 3 (nodes, a wall at each end)
    and 199 at every other d (cell centres)."""
    grid = numerics.Grid1D(8.0, 200)
    with pytest.raises(ValueError, match="select_range out of bounds"):
        numerics._grid_levels([0.0, 1.0], d, grid, k)


@pytest.mark.parametrize("potential", [[math.nan, 1.0], [0.0, math.inf],
                                       [0.0, 1e308]], ids=str)
def test_oracle_refuses_a_potential_that_is_not_finite_on_the_grid(potential):
    # 1e308 rho overflows at rho > 1.8
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        numerics.fd_radial_eigen(potential, 3, numerics.Grid1D(8.0, 200))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_qes_with_an_oracle_potential_that_overflows_exits_2(capsys, d):
    """At omega = 1e-300 the grid reaches r ~ 1e151, where the sextic and
    the flux weights r^(d-1) overflow.  At omega = 1.5e148 and 1e150 the
    stencil is finite at d <= 3, but a product that dstebz forms
    overflows: at 1.5e148 it would split every row and return the
    diagonal as the levels, at 1e150 it would fail with info 4.  Each is
    one input-error line, with no numpy warning and no LAPACK failure, at
    every d."""
    import warnings

    from oscchain.cli import main
    for omega in ("1e-300", "1.5e148", "1e150"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(f"qes --N 1 --A 1 --omega {omega} --d {d}".split())
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", omega
        assert captured.err.startswith("input error: ") \
            and captured.err.count("\n") == 1 \
            and captured.err.endswith("\n"), omega
        if omega == "1e-300":
            assert captured.err \
                == "input error: array must not contain infs or NaNs\n"


def test_dstebz_products_must_not_overflow():
    """tridiag(-e, 2e, -e) has the levels e (2 - sqrt 2), 2e and
    e (2 + sqrt 2).  At e = 6e153 the products D(j) D(j-1) = 4e^2 and
    E(j)^2 = e^2 that dstebz forms are finite, and it solves; at
    e = 8e153, 4e^2 overflows, and the stencil is refused."""
    import numpy as np
    e = 6e153
    got = numerics._tridiagonal_lowest(np.full(3, 2 * e), np.full(2, -e), 3)
    want = e * np.array([2 - math.sqrt(2), 2, 2 + math.sqrt(2)])
    assert np.allclose(got, want, rtol=1e-14, atol=0)
    e = 8e153
    with pytest.raises(ValueError, match="overflow"):
        numerics._tridiagonal_lowest(np.full(3, 2 * e), np.full(2, -e), 3)


def _eigh_tridiagonal(diag, off, k):
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, k - 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dstebz_call_is_scipys_bit_for_bit(data):
    import numpy as np
    n = data.draw(st.integers(2, 40))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    diag = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    off = np.array(data.draw(st.lists(entries, min_size=n - 1,
                                      max_size=n - 1)))
    k = data.draw(st.integers(1, n))
    assert numerics._tridiagonal_lowest(diag, off, k).tobytes() \
        == _eigh_tridiagonal(diag, off, k).tobytes()


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 5), k=st.integers(1, 5), A=st.integers(1, 6),
       omega=st.integers(1, 3), N=st.integers(1, 4))
def test_oracle_tridiagonals_solve_as_in_scipy_bit_for_bit(d, k, A, omega, N):
    """Both Richardson grids of the QES oracle, at every d."""
    from unittest import mock
    lowest = numerics._tridiagonal_lowest
    seen = []

    def spy(diag, off, k):
        seen.append((diag, off, k))
        return lowest(diag, off, k)

    p = Params(m1=1, m2=1, omega=omega, d=d, A=A, N=N)
    with mock.patch.object(numerics, "_tridiagonal_lowest", spy):
        numerics.fd_two_body_energies(p, Case.TWO_BODY_QES, k=k)
    assert len(seen) == 2
    for diag, off, levels in seen:
        assert lowest(diag, off, levels).tobytes() \
            == _eigh_tridiagonal(diag, off, levels).tobytes()


def test_scipy_linalg_imports_after_the_oracle_ran():
    """The oracle loads scipy's LAPACK module without scipy.linalg; the
    package still imports afterwards, and its solver agrees."""
    import os
    import subprocess
    import sys

    import oscchain
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from oscchain import numerics\n"
        "grid = numerics.Grid1D(8.0, 400)\n"
        "levels = numerics.fd_radial_eigen([0.0, 1.0], 3, grid, k=3)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "from scipy.linalg import eigh_tridiagonal\n"
        "diag, off = np.linspace(1, 2, 50), np.full(49, 0.5)\n"
        "ours = numerics._tridiagonal_lowest(diag, off, 3)\n"
        "print(ours.tobytes() == eigh_tridiagonal(\n"
        "    diag, off, eigvals_only=True, select='i',\n"
        "    select_range=(0, 2)).tobytes())\n")
    src = os.path.dirname(os.path.dirname(oscchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["False", "True"]


def test_harmonic_energies_match_closed_form():
    p = Params(m1=1, m2=1, omega=1, d=3)
    vals = numerics.fd_two_body_energies(p, Case.TWO_BODY_ES, k=4)
    for n, v in enumerate(vals):
        assert abs(v - (4 * n + 3)) < 1e-7


def test_harmonic_energies_other_dimension_and_frequency():
    for d in range(1, 6):
        p = Params(m1=1, m2=1, omega=Fraction(3, 2), d=d)
        vals = numerics.fd_two_body_energies(p, Case.TWO_BODY_ES, k=3)
        for n, v in enumerate(vals):
            want = 1.5 * (4 * n + d)
            assert abs(v - want) / want < 1e-7, (d, n)


@settings(max_examples=40, deadline=None)
@example(d=4, omega=Fraction(2), A=Fraction(10), N=5)
@given(d=st.integers(1, 5),
       omega=st.fractions(1, 5, max_denominator=8),
       A=st.fractions(0, 20, max_denominator=8).filter(lambda A: A > 0),
       N=st.integers(0, 6))
def test_oracle_matches_the_algebraic_levels_at_every_d(d, omega, A, N):
    """The grid oracle against the exact sextic levels within qes's rtol.
    omega stays >= 1: `default_rmax` sizes the grid from omega alone, so
    a small omega with a large A leaves too few points inside the well."""
    from oscchain.cli import _qes_levels
    p = Params(m1=1, m2=1, omega=omega, d=d, A=A, N=N)
    assert max(_qes_levels(p)[2]) <= 1e-6


def test_d1_oracle_reads_the_even_states():
    """At d = 1 the S-states are even in r: zero flux at r = 0 selects
    them, so the oracle gives the harmonic levels 4n + 1 and the QES
    levels, not the odd states 4n + 3 that a Dirichlet wall at r = 0
    selects."""
    from oscchain import spectra
    es = numerics.fd_two_body_energies(Params(m1=1, m2=1, omega=1, d=1),
                                       Case.TWO_BODY_ES, k=4)
    for n, v in enumerate(es):
        assert abs(v - (4 * n + 1)) < 1e-8
    for A, omega, N in ((1, 1, 2), (Fraction(1, 2), 2, 3),
                        (3, Fraction(3, 2), 1), (2, 1, 4)):
        p = Params(m1=1, m2=1, omega=omega, d=1, A=A, N=N)
        algebraic = sorted(ev.approx()
                           for ev in spectra.qes_2body_block(p).physical)
        fd = numerics.fd_two_body_energies(p, Case.TWO_BODY_QES,
                                           k=len(algebraic))
        for x, y in zip(algebraic, fd):
            assert abs(x - y) / max(1.0, abs(x)) < 1e-8


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("A, omega, N", [(1, 1, 2), (2, 1, 3), (1, 3, 4),
                                         (3, 2, 2), (Fraction(1, 2), 1, 1)])
def test_cell_centred_oracle_matches_the_algebraic_levels(d, A, omega, N):
    from oscchain import spectra
    p = Params(m1=1, m2=1, omega=omega, d=d, A=A, N=N)
    algebraic = sorted(ev.approx()
                       for ev in spectra.qes_2body_block(p).physical)
    fd = numerics.fd_two_body_energies(p, Case.TWO_BODY_QES,
                                       k=len(algebraic))
    for x, y in zip(algebraic, fd):
        assert abs(x - y) / max(1.0, abs(x)) < 1e-6


def test_second_order_convergence_ratio():
    p = Params(m1=1, m2=1, omega=1, d=3)
    coeffs = numerics.potential_coeffs(p, Case.TWO_BODY_ES)
    grid = numerics.Grid1D(numerics.default_rmax(p), 1000)
    e_h = numerics._grid_levels(coeffs, 3, grid, 1)[0]
    e_h2 = numerics._grid_levels(coeffs, 3, grid.halved(), 1)[0]
    ratio = (e_h - 3.0) / (e_h2 - 3.0)
    assert abs(ratio - 4.0) < 0.5


def test_richardson_improves_on_plain_grid():
    p = Params(m1=1, m2=1, omega=1, d=3)
    coeffs = numerics.potential_coeffs(p, Case.TWO_BODY_ES)
    grid = numerics.Grid1D(numerics.default_rmax(p), 1000)
    plain = numerics._grid_levels(coeffs, 3, grid, 1)[0]
    extr = numerics.fd_radial_eigen(coeffs, 3, grid)[0]
    assert abs(extr - 3.0) < abs(plain - 3.0) / 10


def test_qes_cross_validation():
    from oscchain import spectra
    for N in (0, 1, 2):
        p = Params(m1=1, m2=1, omega=1, d=3, A=1, N=N)
        algebraic = sorted(ev.approx()
                           for ev in spectra.qes_2body_block(p).physical)
        fd = numerics.fd_two_body_energies(p, Case.TWO_BODY_QES,
                                           k=len(algebraic))
        for x, y in zip(algebraic, fd):
            assert abs(float(x) - y) / max(1.0, abs(float(x))) < 1e-6


@pytest.mark.parametrize("m1, m2", [(2, 3), (Fraction(1, 2), 5)], ids=str)
def test_grid_oracle_at_unequal_masses(m1, m2):
    """In the paper's parametrisation the 2-body spectra do not depend on
    mu, and the radial solve is at mu = 1/2, so the oracle at unequal
    masses matches the exact QES levels and omega (d + 4n)."""
    from oscchain import spectra
    p = Params(m1=m1, m2=m2, omega=1, d=3, A=1, N=2)
    algebraic = sorted(ev.approx()
                       for ev in spectra.qes_2body_block(p).physical)
    fd = numerics.fd_two_body_energies(p, Case.TWO_BODY_QES, k=3)
    for x, y in zip(algebraic, fd):
        assert abs(x - y) / max(1.0, abs(x)) < 1e-6
    es = numerics.fd_two_body_energies(p, Case.TWO_BODY_ES, k=3)
    for n, v in enumerate(es):
        assert abs(v - (4 * n + 3)) < 1e-7


def test_bo_energies_closed_form():
    p = Params(m1=Fraction(1, 100), m2=1, m3=1, a=1, b=1, c=1, omega=1, d=3)
    rep = numerics.bo_energies(p)
    assert rep.exact_e0 == 9.0
    assert rep.gap > 0
    assert rep.c1_exact == 3.0 and rep.c2_exact == 1.5
    # closed form direct check
    from oscchain.model import nu_coefficients, reduced_masses
    m, mu = 0.01, float(reduced_masses(p)[2])
    nu23 = float(nu_coefficients(p)[2])
    want = 3.0 * 2 + 3.0 * math.sqrt((m / mu) * (1 + nu23 / m))
    assert abs(rep.nuclear_e0 - want) < 1e-12


def test_bo_gap_vanishes_as_light_mass_shrinks():
    base = Params(m1=Fraction(1, 10), m2=1, m3=1)
    gaps = []
    for m1 in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        from dataclasses import replace
        gaps.append(numerics.bo_energies(replace(base, m1=m1)).gap)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_bo_series_fit_recovers_exact_coefficients():
    # gap(m1; M) = gap(m1 / M; 1) for m2 = m3 = M, so the exact
    # coefficients are c1 / M and c2 / M^2
    for M in (1, 2, 3):
        p = Params(m1=Fraction(1, 100), m2=M, m3=M, a=1, b=2, c=3, omega=1,
                   d=3)
        c1, c2 = numerics.bo_series_fit(p)
        c1x, c2x = numerics.bo_series_coefficients(p)
        assert abs(c1 - float(c1x)) <= 1e-4 * max(1, abs(float(c1x))), M
        assert abs(c2 - float(c2x)) <= 1e-3 * max(1, abs(float(c2x))), M


def test_bo_series_fit_takes_the_gaps_at_the_exact_grid_values(monkeypatch):
    """Each gap is that of the grid value itself, which no float holds
    here, and not of a rational recovered from its float."""
    grid = [Fraction(i, 500) + Fraction(1, 3 * 10 ** 15) for i in range(1, 11)]
    seen = []
    bo_energies = numerics.bo_energies

    def spy(q):
        seen.append(q.m1)
        return bo_energies(q)

    monkeypatch.setattr(numerics, "bo_energies", spy)
    numerics.bo_series_fit(Params(m1=Fraction(1, 100), m2=1, m3=1), grid)
    assert seen == grid


def test_default_rmax_refuses_an_underflow():
    with pytest.raises(ValueError, match="^mu omega does not fit a float$"):
        numerics.default_rmax(Params(m1=1, m2=1, omega=Fraction(1, 10 ** 400)))


def test_bo_fit_grid_validation():
    p = Params(m1=Fraction(1, 100), m2=1, m3=1)
    with pytest.raises(ValueError):
        numerics.bo_series_fit(p, [0.01, 0.02])
    with pytest.raises(ValueError):
        numerics.bo_series_fit(p, [0.2] * 6)


def test_bo_mu_scan_monotone():
    p = Params(m1=Fraction(1, 100), m2=1, m3=1)
    rows = numerics.bo_mu_scan(p, [10 ** (k / 4) for k in range(13)])
    mus = [mu for mu, _ in rows]
    gaps = [g for _, g in rows]
    assert mus == sorted(mus)
    assert mus[-1] / mus[0] >= 1000
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_bo_requires_symmetric_heavy_pair():
    with pytest.raises(ValueError):
        numerics.bo_energies(Params(m1=1, m2=1, m3=2))


def test_potential_curve_exact_linear():
    for d in (2, 3, 4):
        p = Params(m1=1, m2=None, m3=None, a=1, b=1, c=0, omega=1, d=d,
                   rho23=Fraction(1))
        rows = numerics.potential_curve(
            p, [Fraction(k, 4) for k in range(9)])
        for r, e in rows:
            assert e == 2 * d + 2 * r
        second = [rows[i + 2][1] - 2 * rows[i + 1][1] + rows[i][1]
                  for i in range(len(rows) - 2)]
        assert all(s == 0 for s in second)


def test_curve_csv_format():
    p = Params(m1=1, m2=None, m3=None, c=0, d=3, rho23=Fraction(1))
    text = numerics.curve_csv(numerics.potential_curve(
        p, [Fraction(0), Fraction(1, 2)]))
    lines = text.strip().split("\n")
    assert lines[0] == "rho23,E0"
    assert lines[1] == "0,6"
    assert lines[2] == "0.5,7"
