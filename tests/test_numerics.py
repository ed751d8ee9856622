"""Floating-point oracles: finite-difference radial eigensolver
(convergence order, closed-form cross-checks) and the Born-Oppenheimer
gap analysis."""
import math
from fractions import Fraction

import pytest

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


def test_harmonic_energies_match_closed_form():
    p = Params(m1=1, m2=1, omega=1, d=3)
    vals = numerics.fd_two_body_energies(p, Case.TWO_BODY_ES, k=4)
    for n, v in enumerate(vals):
        assert abs(v - (4 * n + 3)) < 1e-7


def test_harmonic_energies_other_dimension_and_frequency():
    p = Params(m1=1, m2=1, omega=Fraction(3, 2), d=5)
    vals = numerics.fd_two_body_energies(p, Case.TWO_BODY_ES, k=3)
    for n, v in enumerate(vals):
        want = 1.5 * (4 * n + 5)
        assert abs(v - want) / want < 1e-7


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
    e_h = numerics.fd_radial_eigen(coeffs, 3, grid, richardson=False)[0]
    e_h2 = numerics.fd_radial_eigen(coeffs, 3, grid.halved(),
                                    richardson=False)[0]
    ratio = (e_h - 3.0) / (e_h2 - 3.0)
    assert abs(ratio - 4.0) < 0.5


def test_richardson_improves_on_plain_grid():
    p = Params(m1=1, m2=1, omega=1, d=3)
    coeffs = numerics.potential_coeffs(p, Case.TWO_BODY_ES)
    grid = numerics.Grid1D(numerics.default_rmax(p), 1000)
    plain = numerics.fd_radial_eigen(coeffs, 3, grid, richardson=False)[0]
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
