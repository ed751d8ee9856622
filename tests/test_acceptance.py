"""Acceptance gate: the nine headline guarantees, each as one test that
emits a single pass/fail line and enforces its runtime budget."""
import math
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oscchain import integrals as itg
from oscchain import linalg, numerics, sepvar, spectra
from oscchain.exact import DiffOp, MultiPoly
from oscchain.model import (Case, Params, build_h_algebraic, build_potential,
                            build_qes_primitive, build_radial_laplacian,
                            ground_state, nu_coefficients)

from conftest import (draw_fraction, draw_params, oracle_apply_gaussian,
                      rational_gauged)
from test_model import draw_case_params, GAUGEABLE


import conftest


def report(name: str, ok: bool, elapsed: float) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_1_exact_ground_states():
    """Every case's ground state satisfies H psi0 = E0 psi0 exactly,
    20 random rational parameter draws per case, under 10 s."""
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    cases = list(Case)
    for case in cases:
        for _ in range(20):
            p = draw_case_params(rng, case)
            if case is Case.PRIMITIVE3_QES:
                _, psi, residual = build_qes_primitive(p)
                ok &= (residual == 0)
                continue
            delta = build_radial_laplacian(case, p)
            V = build_potential(case, p)
            gs = ground_state(case, p)
            if case is Case.TWO_BODY_QES:
                # sextic: the Gaussian-type factor is exact only through the
                # algebraic block; check the gauged action instead
                h = build_h_algebraic(case, p)
                one = MultiPoly.const(h.variables, Fraction(1))
                rho = MultiPoly.var(h.variables, "rho")
                ok &= (h.apply(one) == -4 * p.A * p.N * rho)
                continue
            ok &= oracle_apply_gaussian(
                -delta + DiffOp.mul_by(V), MultiPoly.const(delta.variables, 1),
                gs.wavefunction.exponent) == gs.energy
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    report("criterion 1: exact ground states (20 draws/case)", ok, elapsed)
    assert ok


def test_criterion_2_gauge_identity():
    """Gauge conjugation of the radial Hamiltonian reproduces the
    transcribed algebraic operator, 10 draws per case."""
    t0 = time.monotonic()
    rng = random.Random(202)
    ok = True
    for case in GAUGEABLE:
        for _ in range(10):
            p = draw_case_params(rng, case)
            delta = build_radial_laplacian(case, p)
            V = build_potential(case, p)
            gs = ground_state(case, p)
            H = -delta + DiffOp.mul_by(V)
            ok &= (H.gauge_conjugate(gs.wavefunction, gs.energy)
                   == build_h_algebraic(case, p))
    elapsed = time.monotonic() - t0
    report("criterion 2: gauge identity (10 draws/case)", ok, elapsed)
    assert ok


def test_criterion_3_invariant_subspaces_and_spectra():
    """Degree-capped polynomial spaces are preserved up to N = 6; the
    isotropic and two-body spectra match their closed forms, under 60 s."""
    t0 = time.monotonic()
    ok = True
    p = Params(m1=2, m2=3, m3=Fraction(5, 2), a=1, b=2, c=Fraction(3, 2))
    h = build_h_algebraic(Case.GENERAL3, p)
    for N in range(7):
        M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, N))
        ok &= M.is_graded_triangular()
    # isotropic: gauged eigenvalue 6 a omega s, multiplicity = number of
    # degree-s monomials in three variables
    a, om = Fraction(1, 2), Fraction(3, 2)
    iso = spectra.spectrum(Case.ISOTROPIC3,
                           Params(a=a, b=a, c=a, omega=om), 5)
    want = sorted(v for s in range(6)
                  for v in [6 * a * om * s] * comb(s + 2, 2))
    ok &= (rational_gauged(iso) == want)
    # two-body: gauged eigenvalue 4 omega n through n = 10
    es = spectra.spectrum(Case.TWO_BODY_ES,
                          Params(m1=1, m2=1, omega=om), 10)
    ok &= (rational_gauged(es) == [4 * om * n for n in range(11)])
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    report("criterion 3: invariant subspaces and closed-form spectra",
           ok, elapsed)
    assert ok


def test_criterion_4_equal_mass_block_with_brute_force_oracle():
    """Equal masses, springs (1, 1, 2): degree-1 gauged eigenvalues are
    {6, 8, 10}, confirmed by a brute-force dense eigensolve."""
    t0 = time.monotonic()
    p = Params(a=1, b=1, c=2)
    rep = spectra.spectrum(Case.EQUAL_MASS3, p, 1)
    ok = rational_gauged(rep) == [0, 6, 8, 10]
    h = build_h_algebraic(Case.EQUAL_MASS3, p)
    basis = spectra.enumerate_basis(h.variables, 1)
    M = spectra.assemble_matrix(h, basis)
    _, start, stop = basis.degree_slices()[1]
    block = np.array(M.entries, dtype=float)[start:stop, start:stop]
    brute = sorted(np.linalg.eigvals(block).real)
    ok &= np.allclose(brute, [6.0, 8.0, 10.0], atol=1e-9)
    elapsed = time.monotonic() - t0
    report("criterion 4: equal-mass degree-1 eigenvalues vs dense oracle",
           ok, elapsed)
    assert ok


def test_criterion_5_integral_battery():
    """Ten random mass draws, each in dimensions 2..5: the full conservation
    battery (classical and quantum) matches the classification, under 120 s."""
    t0 = time.monotonic()
    rng = random.Random(505)
    ok = True
    for _ in range(10):
        masses = {f: draw_fraction(rng) for f in ("m1", "m2", "m3")}
        for d in (2, 3, 4, 5):
            rep = itg.battery(Params(d=d, **masses))
            ok &= (rep.verdict.kind == "maximal" and rep.consistent
                   and all(rep.classical_zero.values())
                   and all(rep.quantum_zero.values())
                   and all(rep.triplets_ok.values()))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    report("criterion 5: conservation battery (10 draws x d in 2..5)",
           ok, elapsed)
    assert ok


def test_criterion_6_separating_coordinates():
    """Push-forward to the separating coordinates verified at 50 exact
    points for 5 mass triples in d = 2, 3, 4; separated template
    coefficients and the transformed-potential dichotomy hold."""
    t0 = time.monotonic()
    rng = random.Random(606)
    ok = True
    for _ in range(5):
        p = draw_params(rng)
        for d in (2, 3, 4):
            ok &= sepvar.verify_pushforward(replace(p, d=d),
                                            seed=rng.randint(0, 999),
                                            n_points=50)
        form = sepvar.match_separated_template(sepvar.build_opham(p), p)
        m1, m2, m3 = p.masses
        ok &= (form.A == (m2 + m3) / (m2 * m3))
        ok &= (form.B == (m2 + m3) * (m1 + m2 + m3) / m1)
        # transformed potential independent of the third coordinate
        # exactly when m2 nu13 = m3 nu12
        sat = (m2, m3, draw_fraction(rng))          # satisfies the relation
        unsat = (m2, m3 + 1, draw_fraction(rng))    # breaks it (m3+1 != m3)
        ok &= sepvar.potential_in_w(p, sat).w3_independent
        ok &= not sepvar.potential_in_w(p, unsat).w3_independent
    elapsed = time.monotonic() - t0
    report("criterion 6: separating-coordinate identities", ok, elapsed)
    assert ok


def test_criterion_7_qes_grid_cross_validation():
    """Sextic algebraic energies at levels 0..2 agree with the grid oracle
    to 1e-6 relative, and the scheme converges at second order, under 30 s."""
    t0 = time.monotonic()
    ok = True
    for N in (0, 1, 2):
        p = Params(m1=1, m2=1, omega=1, d=3, A=1, N=N)
        algebraic = sorted(ev.approx()
                           for ev in spectra.qes_2body_block(p).physical)
        fd = numerics.fd_two_body_energies(p, Case.TWO_BODY_QES,
                                           k=len(algebraic))
        ok &= all(abs(float(x) - y) / max(1.0, abs(float(x))) <= 1e-6
                  for x, y in zip(algebraic, fd))
    pes = Params(m1=1, m2=1, omega=1, d=3)
    coeffs = numerics.potential_coeffs(pes, Case.TWO_BODY_ES)
    grid = numerics.Grid1D(numerics.default_rmax(pes), 1000)
    e_h = numerics.fd_radial_eigen(coeffs, 3, grid, richardson=False)[0]
    e_h2 = numerics.fd_radial_eigen(coeffs, 3, grid.halved(),
                                    richardson=False)[0]
    ratio = (e_h - 3.0) / (e_h2 - 3.0)
    ok &= abs(ratio - 4.0) <= 0.5
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    report("criterion 7: sextic levels vs grid oracle + convergence order",
           ok, elapsed)
    assert ok


def test_criterion_8_born_oppenheimer():
    """Fitted gap coefficients match omega d (a+b)/2 to 1e-4 and the
    quadratic term to 1e-3 on a light-mass grid in (0, 0.05]; the gap is
    strictly decreasing over a three-decade reduced-mass scan, under 5 s."""
    t0 = time.monotonic()
    p = Params(m1=Fraction(1, 100), m2=1, m3=1, a=1, b=1, c=1, omega=1, d=3)
    grid = numerics.DEFAULT_FIT_GRID
    ok = all(0 < float(m) <= 0.05 for m in grid) and len(grid) >= 6
    c1, c2 = numerics.bo_series_fit(p, grid)
    c1x, c2x = numerics.bo_series_coefficients(p)
    ok &= (float(c1x) == 0.5 * 1 * 3 * (1 + 1))   # omega d (a+b) / 2
    ok &= abs(c1 - float(c1x)) <= 1e-4 * max(1, abs(float(c1x)))
    ok &= abs(c2 - float(c2x)) <= 1e-3 * max(1, abs(float(c2x)))
    rows = numerics.bo_mu_scan(p, [10 ** (k / 4) for k in range(13)])
    ok &= rows[-1][0] / rows[0][0] >= 1000
    gaps = [g for _, g in rows]
    ok &= all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5
    report("criterion 8: Born-Oppenheimer gap series and mass scan",
           ok, elapsed)
    assert ok


def test_criterion_9_molecular_curve():
    """With unit light mass and unit springs, the frozen-separation curve
    is exactly E0 = 2d + 2 rho23 for d = 2, 3, 4."""
    t0 = time.monotonic()
    ok = True
    for d in (2, 3, 4):
        p = Params(m1=1, m2=None, m3=None, a=1, b=1, c=0, omega=1, d=d,
                   rho23=Fraction(1))
        rows = numerics.potential_curve(
            p, [Fraction(k, 4) for k in range(13)])
        ok &= all(e == 2 * d + 2 * r for r, e in rows)
    elapsed = time.monotonic() - t0
    report("criterion 9: molecular potential curve, exact and linear",
           ok, elapsed)
    assert ok
