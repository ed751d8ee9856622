"""Model builders: gauge identities, Lie-algebraic forms, ground states,
co-metric factorizations, and the anharmonic exactly-started problem."""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from oscchain.exact import DiffOp, GaussFn, MultiPoly
from oscchain.model import (Case, CaseError, Params, build_h_algebraic,
                            build_potential, build_qes_primitive,
                            build_radial_laplacian, case_variables, cometric,
                            degenerate, effective_potential,
                            gauge_factor_gamma, ground_state, lie_form,
                            mass_weighted_linear, area_square_expr,
                            nu_coefficients, params_from_json, reduced_masses,
                            two_body_mu, validate_case)

from conftest import draw_fraction, draw_params, oracle_apply_gaussian


def draw_case_params(rng, case):
    if case is Case.ATOMIC3:
        m = draw_fraction(rng)
        return draw_params(rng, m1=None, m2=m, m3=m)
    if case is Case.MOLECULAR3:
        return draw_params(rng, m2=None, m3=None, c=0,
                           rho23=draw_fraction(rng))
    if case is Case.EQUAL_MASS3:
        m = draw_fraction(rng)
        return draw_params(rng, m1=m, m2=m, m3=m)
    if case is Case.ISOTROPIC3:
        m, a = draw_fraction(rng), draw_fraction(rng)
        return draw_params(rng, m1=m, m2=m, m3=m, a=a, b=a, c=a)
    if case is Case.ONE_DIM3:
        return draw_params(rng, d=1)
    if case is Case.TWO_BODY_ES:
        # the transcribed 2-body forms use the unit-mass (mu = 1/2) gauge
        return draw_params(rng, m1=1, m2=1)
    if case is Case.TWO_BODY_QES:
        return draw_params(rng, m1=1, m2=1, A=draw_fraction(rng),
                           N=rng.randint(0, 3))
    if case is Case.PRIMITIVE3_QES:
        return draw_params(rng, A12=draw_fraction(rng),
                           A13=draw_fraction(rng), A23=draw_fraction(rng))
    return draw_params(rng)


GAUGEABLE = [c for c in Case if c is not Case.PRIMITIVE3_QES]


@pytest.mark.parametrize("case", GAUGEABLE, ids=lambda c: c.value)
def test_gauge_conjugation_equals_transcription(case, rng):
    for _ in range(3):
        p = draw_case_params(rng, case)
        delta = build_radial_laplacian(case, p)
        V = build_potential(case, p)
        gs = ground_state(case, p)
        H = -delta + DiffOp.mul_by(V)
        assert H.gauge_conjugate(gs.wavefunction, gs.energy) \
            == build_h_algebraic(case, p)


@pytest.mark.parametrize("case", GAUGEABLE, ids=lambda c: c.value)
def test_lie_form_equals_transcription(case, rng):
    for _ in range(2):
        p = draw_case_params(rng, case)
        assert lie_form(case, p) == build_h_algebraic(case, p)


@pytest.mark.parametrize(
    "case", [c for c in GAUGEABLE if c is not Case.TWO_BODY_QES],
    ids=lambda c: c.value)
def test_gauged_operator_annihilates_constants(case, rng):
    p = draw_case_params(rng, case)
    h = build_h_algebraic(case, p)
    one = MultiPoly.const(h.variables, Fraction(1))
    out = h.apply(one)
    assert out.is_zero()


def test_gauged_qes_operator_lowers_constants(rng):
    # the sextic gauge factor is not an eigenfunction, so h(1) = -4 A N rho
    p = draw_case_params(rng, Case.TWO_BODY_QES)
    h = build_h_algebraic(Case.TWO_BODY_QES, p)
    one = MultiPoly.const(h.variables, Fraction(1))
    rho = MultiPoly.var(h.variables, "rho")
    assert h.apply(one) == -4 * p.A * p.N * rho


def test_ground_state_killed_by_full_hamiltonian(rng):
    for case in (Case.GENERAL3, Case.TWO_BODY_ES, Case.ONE_DIM3):
        p = draw_case_params(rng, case)
        delta = build_radial_laplacian(case, p)
        V = build_potential(case, p)
        gs = ground_state(case, p)
        # H psi0 = E0 psi0 exactly, by the product rule
        assert oracle_apply_gaussian(-delta + DiffOp.mul_by(V),
                                     MultiPoly.const(delta.variables, 1),
                                     gs.wavefunction.exponent) == gs.energy


def test_nu_coefficients_worked_example():
    p = Params(m1=1, m2=1, m3=1, a=1, b=1, c=2)
    assert nu_coefficients(p) == (Fraction(3, 4), Fraction(3, 4),
                                  Fraction(11, 4))


def test_reduced_masses_with_infinite_partner():
    p = Params(m1=None, m2=3, m3=5)
    mu12, mu13, mu23 = reduced_masses(p)
    assert mu12 == 3 and mu13 == 5
    assert mu23 == Fraction(15, 8)


def test_two_body_mu():
    assert two_body_mu(Params(m1=1, m2=1)) == Fraction(1, 2)
    assert two_body_mu(Params(m1=None, m2=7)) == 7


@pytest.mark.parametrize("case", [Case.GENERAL3, Case.ATOMIC3,
                                  Case.MOLECULAR3], ids=lambda c: c.value)
def test_cometric_determinant_factorization(case, rng):
    for _ in range(3):
        p = draw_case_params(rng, case)
        g = cometric(case, p)
        assert g.determinant == g.factored_determinant


@pytest.mark.parametrize("case", [Case.GENERAL3, Case.EQUAL_MASS3,
                                  Case.ISOTROPIC3, Case.ATOMIC3,
                                  Case.MOLECULAR3], ids=lambda c: c.value)
def test_cometric_is_the_symbol_of_the_laplacian(case, rng):
    """`cometric` and `build_radial_laplacian` transcribe one kinetic
    symbol: entry (i, i) is the coefficient of d_i^2, entry (i, j) half
    the coefficient of d_i d_j, and every entry is halved again in the
    molecular case (read from (1/2) Delta_rad)."""
    for _ in range(6):
        p = draw_case_params(rng, case)
        g = cometric(case, p).matrix
        lap = build_radial_laplacian(case, p)
        scale = 2 if case is Case.MOLECULAR3 else 1
        second = {}
        for i in range(len(g)):
            for j in range(i, len(g)):
                derivs = tuple((k == i) + (k == j)
                               for k in range(len(lap.variables)))
                second[derivs] = g[i][j] * (scale if i == j else 2 * scale)
                assert g[j][i] == g[i][j]
        assert {d: c for d, c in lap.terms.items() if sum(d) == 2} \
            == {d: c for d, c in second.items() if not c.is_zero()}


def test_cometric_general_factored_shape(rng):
    p = draw_params(rng)
    g = cometric(Case.GENERAL3, p)
    m1, m2, m3 = p.masses
    M = m1 + m2 + m3
    expect = (2 * M / (m1 * m2 * m3) ** 2) \
        * mass_weighted_linear(p) * area_square_expr()
    assert g.factored_determinant == expect


def test_effective_potential_two_body():
    p = Params(m1=1, m2=1, d=5)
    v = effective_potential(Case.TWO_BODY_ES, p)
    rho = MultiPoly.var(("rho",), "rho")
    assert v.equals(type(v)(MultiPoly.const(("rho",), 2), rho))


def test_gauge_factor_exponents(rng):
    p = draw_params(rng, d=3)
    factors = gauge_factor_gamma(p)
    assert factors[0][1] == Fraction(2 - 3, 4)
    assert factors[1][1] == Fraction(-1, 4)
    assert factors[0][0] == area_square_expr()


def test_primitive_qes_residual_zero(rng):
    for _ in range(3):
        p = draw_case_params(rng, Case.PRIMITIVE3_QES)
        v_anh, psi, residual = build_qes_primitive(p)
        assert residual == 0
        # (H psi) / psi is the harmonic ground energy, by the product rule
        H = -build_radial_laplacian(Case.GENERAL3, p) \
            + DiffOp.mul_by(build_potential(Case.GENERAL3, p) + v_anh)
        assert oracle_apply_gaussian(H, MultiPoly.const(H.variables, 1),
                                     psi.exponent) \
            == ground_state(Case.GENERAL3, p).energy


def test_primitive_qes_reduces_to_harmonic():
    p = Params(m1=1, m2=2, m3=3, A12=0, A13=0, A23=0)
    v_anh, psi, residual = build_qes_primitive(p)
    assert v_anh.is_zero()
    assert residual == 0
    assert psi.exponent == ground_state(Case.GENERAL3, p).wavefunction.exponent


def test_degeneration_chain(rng):
    p = draw_params(rng)
    pe = degenerate(p, Case.EQUAL_MASS3)
    assert build_h_algebraic(Case.EQUAL_MASS3, pe) \
        == build_h_algebraic(Case.GENERAL3, pe)
    pi = degenerate(p, Case.ISOTROPIC3)
    assert build_h_algebraic(Case.ISOTROPIC3, pi) \
        == build_h_algebraic(Case.GENERAL3, pi)
    assert degenerate(p, Case.TWO_BODY_ES) == Params(m1=p.m1, m2=p.m1, omega=p.omega, d=p.d)


def test_validate_case_rejects_bad_params():
    with pytest.raises(CaseError):
        validate_case(Case.MOLECULAR3, Params(m1=1, m2=1, m3=1, c=0))
    with pytest.raises(CaseError):
        validate_case(Case.ISOTROPIC3, Params(a=1, b=2))
    with pytest.raises(CaseError):
        validate_case(Case.TWO_BODY_QES, Params(N=None))
    with pytest.raises(ValueError):
        Params(m1=-1)
    with pytest.raises(ValueError):
        Params(omega=0)


def test_params_from_json():
    case, p = params_from_json({"case": "general3", "m": [2, 3, "5/2"],
                                "springs": [1, "1/2", 2], "omega": "3/2",
                                "d": 4})
    assert case is Case.GENERAL3
    assert p.m3 == Fraction(5, 2) and p.b == Fraction(1, 2)
    assert p.omega == Fraction(3, 2) and p.d == 4
    case2, p2 = params_from_json({"case": "molecular3", "m": [1, "inf", "inf"],
                                  "springs": [1, 1, 0], "rho23": "7/3"})
    assert p2.m2 is None and p2.rho23 == Fraction(7, 3)


def test_molecular_ground_energy_is_linear_in_separation():
    p = Params(m1=2, m2=None, m3=None, a=1, b=3, c=0, omega=1, d=3,
               rho23=Fraction(1))
    gs = ground_state(Case.MOLECULAR3, p)
    # E0(rho23) = omega d (a+b) + 2 m omega^2 a b rho23
    assert gs.energy.eval({"rho12": 0, "rho13": 0, "rho23": Fraction(5)}) \
        == 12 + 2 * 2 * 3 * 5


@pytest.mark.parametrize("build", [build_h_algebraic, lie_form],
                         ids=lambda f: f.__name__)
def test_untranscribed_case_raises(build, rng):
    # only the ground state of the 3-body QES chain is transcribed
    p = draw_case_params(rng, Case.PRIMITIVE3_QES)
    with pytest.raises(CaseError, match="primitive3_qes"):
        build(Case.PRIMITIVE3_QES, p)
