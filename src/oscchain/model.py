"""Builders for the 2- and 3-body oscillator models.

Every operator, potential, ground state, co-metric and Lie-algebraic
decomposition is constructed exactly over Q, parameterized by masses,
spring constants, frequency and dimension.  Parameters are Fractions; the
polynomials built from them hold integer numerators over one denominator
(`exact.MultiPoly`) and give Fractions back at the interfaces.

Conventions:
  * 3-body cases live in squared-distance variables (rho12, rho13, rho23).
  * The molecular case keeps rho23 in the variable list as a symbolic
    parameter of the coefficient ring; no derivative ever acts on it.
  * The d=1 case lives in (x12, x13) with x23 = x13 - x12.
  * 2-body gauged operators use the m1 = m2 = 1 convention (mu = 1/2);
    ungauged 2-body objects keep general mu.
  * Infinite masses are flagged (None) and never substituted into the
    general-mass formulas; atomic and molecular builders are dedicated.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from . import linalg
from .exact import DiffOp, GaussFn, MultiPoly, RationalFn

RHO3 = ("rho12", "rho13", "rho23")
X1D = ("x12", "x13")
RHO1 = ("rho",)

INFINITE = None  # mass flag


class Case(Enum):
    GENERAL3 = "general3"
    EQUAL_MASS3 = "equalmass3"
    ISOTROPIC3 = "isotropic3"
    ATOMIC3 = "atomic3"
    MOLECULAR3 = "molecular3"
    ONE_DIM3 = "onedim3"
    TWO_BODY_ES = "twobody_es"
    TWO_BODY_QES = "twobody_qes"
    PRIMITIVE3_QES = "primitive3_qes"


THREE_BODY_CASES = {Case.GENERAL3, Case.EQUAL_MASS3, Case.ISOTROPIC3,
                    Case.ATOMIC3, Case.PRIMITIVE3_QES}


class CaseError(ValueError):
    pass


def _fr(x) -> Optional[Fraction]:
    if x is None:
        return None
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Params:
    """Model parameters; None for a mass means the infinite-mass limit."""
    m1: Optional[Fraction] = Fraction(1)
    m2: Optional[Fraction] = Fraction(1)
    m3: Optional[Fraction] = Fraction(1)
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)
    c: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)
    d: int = 3
    A12: Fraction = Fraction(0)
    A13: Fraction = Fraction(0)
    A23: Fraction = Fraction(0)
    A: Fraction = Fraction(0)       # 2-body sextic coupling
    N: Optional[int] = None         # QES level
    rho23: Optional[Fraction] = None  # molecular classical coordinate

    def __post_init__(self):
        for f in ("m1", "m2", "m3", "a", "b", "c", "omega",
                  "A12", "A13", "A23", "A", "rho23"):
            object.__setattr__(self, f, _fr(getattr(self, f)))
        for m in (self.m1, self.m2, self.m3):
            if m is not None and m <= 0:
                raise ValueError("masses must be positive")
        if self.omega is None or self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")

    @property
    def masses(self):
        return (self.m1, self.m2, self.m3)

    def finite_masses(self) -> bool:
        return all(m is not None for m in self.masses)


def validate_case(case: Case, p: Params) -> None:
    if case is Case.ATOMIC3:
        if p.m1 is not INFINITE:
            raise CaseError("atomic case requires m1 infinite")
        if p.m2 is INFINITE or p.m3 is INFINITE or p.m2 != p.m3:
            raise CaseError("atomic case requires finite m2 = m3")
    elif case is Case.MOLECULAR3:
        if p.m2 is not INFINITE or p.m3 is not INFINITE:
            raise CaseError("molecular case requires m2 = m3 infinite")
        if p.m1 is INFINITE:
            raise CaseError("molecular case requires finite m1")
        if p.c != 0:
            raise CaseError("molecular case requires c = 0")
    elif case in (Case.EQUAL_MASS3, Case.ISOTROPIC3):
        if not p.finite_masses() or not (p.m1 == p.m2 == p.m3):
            raise CaseError(f"{case.value} requires three equal finite masses")
        if case is Case.ISOTROPIC3 and not (p.a == p.b == p.c):
            raise CaseError("isotropic case requires a = b = c")
    elif case in (Case.GENERAL3, Case.ONE_DIM3, Case.PRIMITIVE3_QES):
        if not p.finite_masses():
            raise CaseError(f"{case.value} requires finite masses")
        if case is Case.ONE_DIM3 and p.d != 1:
            raise CaseError("one-dimensional case requires d = 1")
    elif case is Case.TWO_BODY_QES:
        if p.N is None:
            raise CaseError("2-body QES case requires the level N")


def case_variables(case: Case) -> Tuple[str, ...]:
    if case in THREE_BODY_CASES or case is Case.MOLECULAR3:
        return RHO3
    if case is Case.ONE_DIM3:
        return X1D
    return RHO1


# ---------------------------------------------------------------------------
# mass combinations

def _pair_mu(mi: Optional[Fraction], mj: Optional[Fraction]) -> Fraction:
    """Reduced mass of one pair; an infinite partner reduces to the finite
    mass."""
    if mi is INFINITE and mj is INFINITE:
        raise CaseError("both masses of a pair are infinite")
    if mi is INFINITE:
        return mj
    if mj is INFINITE:
        return mi
    return mi * mj / (mi + mj)


def reduced_masses(p: Params):
    """(mu12, mu13, mu23)."""
    return _pair_mu(p.m1, p.m2), _pair_mu(p.m1, p.m3), _pair_mu(p.m2, p.m3)


def _inv(m: Optional[Fraction]) -> Fraction:
    return Fraction(0) if m is INFINITE else 1 / m


def nu_coefficients(p: Params):
    """Mass-dependent oscillator coefficients (nu12, nu13, nu23).

    Supports the atomic limit (m1 infinite): the 1/m1 cross terms drop out.
    """
    if p.m2 is INFINITE or p.m3 is INFINITE:
        raise CaseError("nu coefficients need finite m2, m3")
    mu12, mu13, mu23 = reduced_masses(p)
    a, b, c = p.a, p.b, p.c
    i1, i2, i3 = _inv(p.m1), _inv(p.m2), _inv(p.m3)
    nu12 = a * a * mu12 + a * b * mu12 * mu13 * i1 + a * c * mu12 * mu23 * i2 \
        - b * c * mu13 * mu23 * i3
    nu13 = b * b * mu13 + a * b * mu12 * mu13 * i1 + b * c * mu13 * mu23 * i3 \
        - a * c * mu12 * mu23 * i2
    nu23 = c * c * mu23 + a * c * mu12 * mu23 * i2 + b * c * mu13 * mu23 * i3 \
        - a * b * mu12 * mu13 * i1
    return nu12, nu13, nu23


def two_body_mu(p: Params) -> Fraction:
    return _pair_mu(p.m1, p.m2)


# ---------------------------------------------------------------------------
# polynomial helpers in the rho ring

def _P(terms) -> MultiPoly:
    return MultiPoly(RHO3, terms)


def _v(name: str) -> MultiPoly:
    return MultiPoly.var(RHO3, name)


def area_square_expr(variables=RHO3) -> MultiPoly:
    """2 r12 r13 + 2 r12 r23 + 2 r13 r23 - r12^2 - r13^2 - r23^2.

    Sixteen times the squared area of the particle triangle; stored
    unnormalized throughout.
    """
    r12 = MultiPoly.var(variables, "rho12")
    r13 = MultiPoly.var(variables, "rho13")
    r23 = MultiPoly.var(variables, "rho23")
    return (2 * r12 * r13 + 2 * r12 * r23 + 2 * r13 * r23
            - r12 ** 2 - r13 ** 2 - r23 ** 2)


def mass_weighted_linear(p: Params) -> MultiPoly:
    """m1 m2 rho12 + m1 m3 rho13 + m2 m3 rho23."""
    r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
    return (p.m1 * p.m2 * r12 + p.m1 * p.m3 * r13 + p.m2 * p.m3 * r23)


# ---------------------------------------------------------------------------
# radial Laplacians

def build_radial_laplacian(case: Case, p: Params) -> DiffOp:
    """Delta_rad for the case; H_rad = -Delta_rad + V."""
    validate_case(case, p)
    d = p.d
    if case in THREE_BODY_CASES:
        mu12, mu13, mu23 = reduced_masses(p)
        i1, i2, i3 = _inv(p.m1), _inv(p.m2), _inv(p.m3)
        r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
        return DiffOp(RHO3, {
            (2, 0, 0): (2 / mu12) * r12,
            (0, 2, 0): (2 / mu13) * r13,
            (0, 0, 2): (2 / mu23) * r23,
            (1, 1, 0): 2 * i1 * (r13 + r12 - r23),
            (0, 1, 1): 2 * i3 * (r13 + r23 - r12),
            (1, 0, 1): 2 * i2 * (r23 + r12 - r13),
            (1, 0, 0): _P({(0, 0, 0): Fraction(d) / mu12}),
            (0, 1, 0): _P({(0, 0, 0): Fraction(d) / mu13}),
            (0, 0, 1): _P({(0, 0, 0): Fraction(d) / mu23}),
        })
    if case is Case.MOLECULAR3:
        m = p.m1
        r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
        return DiffOp(RHO3, {
            (2, 0, 0): (2 / m) * r12,
            (0, 2, 0): (2 / m) * r13,
            (1, 1, 0): (2 / m) * (r13 + r12 - r23),
            (1, 0, 0): _P({(0, 0, 0): Fraction(d, 1) / m}),
            (0, 1, 0): _P({(0, 0, 0): Fraction(d, 1) / m}),
        })
    if case is Case.ONE_DIM3:
        mu12, mu13, _ = reduced_masses(p)
        return DiffOp(X1D, {
            (2, 0): Fraction(1, 2) / mu12,
            (0, 2): Fraction(1, 2) / mu13,
            (1, 1): _inv(p.m1),
        })
    # 2-body
    mu = two_body_mu(p)
    rho = MultiPoly.var(RHO1, "rho")
    return DiffOp(RHO1, {(2,): (2 / mu) * rho,
                         (1,): MultiPoly.const(RHO1, Fraction(d) / mu)})


# ---------------------------------------------------------------------------
# potentials

def oscillator_potential(omega: Fraction, nus) -> MultiPoly:
    """2 omega^2 (nu12 rho12 + nu13 rho13 + nu23 rho23)."""
    w2 = 2 * omega ** 2
    nu12, nu13, nu23 = nus
    return _P({(1, 0, 0): w2 * nu12, (0, 1, 0): w2 * nu13,
               (0, 0, 1): w2 * nu23})


def build_potential(case: Case, p: Params) -> MultiPoly:
    validate_case(case, p)
    w2 = 2 * p.omega ** 2
    if case in (Case.GENERAL3, Case.EQUAL_MASS3, Case.ISOTROPIC3, Case.ATOMIC3):
        return oscillator_potential(p.omega, nu_coefficients(p))
    if case is Case.PRIMITIVE3_QES:
        harmonic = build_potential(Case.GENERAL3, p)
        anh, _, _ = build_qes_primitive(p)
        return harmonic + anh
    if case is Case.MOLECULAR3:
        m = p.m1
        coeff = 2 * m * p.omega ** 2 * (p.a + p.b)
        return _P({(1, 0, 0): coeff * p.a, (0, 1, 0): coeff * p.b})
    if case is Case.ONE_DIM3:
        nu12, nu13, nu23 = nu_coefficients(p)
        x12 = MultiPoly.var(X1D, "x12")
        x13 = MultiPoly.var(X1D, "x13")
        return w2 * ((nu12 + nu23) * x12 ** 2 + (nu13 + nu23) * x13 ** 2
                     - 2 * nu23 * x12 * x13)
    mu = two_body_mu(p)
    rho = MultiPoly.var(RHO1, "rho")
    if case is Case.TWO_BODY_ES:
        return 2 * mu * p.omega ** 2 * rho
    # sextic 2-body QES potential; requires the level N
    A, om, N, d = p.A, p.omega, p.N, p.d
    return 2 * mu * ((om ** 2 - A * (4 * N + d + 2)) * rho
                     + 4 * mu * A * om * rho ** 2
                     + 4 * mu ** 2 * A ** 2 * rho ** 3)


# ---------------------------------------------------------------------------
# ground states

@dataclass(frozen=True)
class GroundState:
    wavefunction: GaussFn
    energy: MultiPoly  # constant except in the molecular case

    @property
    def energy_value(self) -> Fraction:
        return self.energy.constant_value()


def ground_state(case: Case, p: Params) -> GroundState:
    validate_case(case, p)
    om, a, b, c, d = p.omega, p.a, p.b, p.c, p.d
    if case in THREE_BODY_CASES:
        energy = _P({(0, 0, 0): om * d * (a + b + c)})
        if case is Case.PRIMITIVE3_QES:
            _, psi, _ = build_qes_primitive(p)
            return GroundState(psi, energy)
        mu12, mu13, mu23 = reduced_masses(p)
        expo = _P({(1, 0, 0): -om * a * mu12, (0, 1, 0): -om * b * mu13,
                   (0, 0, 1): -om * c * mu23})
        return GroundState(GaussFn(expo), energy)
    if case is Case.MOLECULAR3:
        m = p.m1
        expo = _P({(1, 0, 0): -om * m * a, (0, 1, 0): -om * m * b})
        energy = _P({(0, 0, 0): om * d * (a + b),
                     (0, 0, 1): 2 * m * om ** 2 * a * b})
        return GroundState(GaussFn(expo), energy)
    if case is Case.ONE_DIM3:
        mu12, mu13, mu23 = reduced_masses(p)
        x12 = MultiPoly.var(X1D, "x12")
        x13 = MultiPoly.var(X1D, "x13")
        expo = -om * (a * mu12 * x12 ** 2 + b * mu13 * x13 ** 2
                      + c * mu23 * (x13 - x12) ** 2)
        energy = MultiPoly.const(X1D, om * (a + b + c))
        return GroundState(GaussFn(expo), energy)
    mu = two_body_mu(p)
    rho = MultiPoly.var(RHO1, "rho")
    if case is Case.TWO_BODY_ES:
        expo = -mu * om * rho
    else:
        expo = -mu * om * rho - mu ** 2 * p.A * rho ** 2
    energy = MultiPoly.const(RHO1, om * Fraction(d))
    return GroundState(GaussFn(expo), energy)


# ---------------------------------------------------------------------------
# gauged algebraic operators (direct transcriptions)

def build_h_algebraic(case: Case, p: Params) -> DiffOp:
    """Gauged operator h = Psi0^-1 (H_rad - E0) Psi0, transcribed per case."""
    validate_case(case, p)
    om, a, b, c, d = p.omega, p.a, p.b, p.c, Fraction(p.d)
    if case is Case.GENERAL3:
        m1, m2, m3 = p.masses
        mu12, mu13, mu23 = reduced_masses(p)
        r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
        c12 = (2 * mu12 * om * (2 * a * m1 * m2 * r12
                                + b * mu13 * m2 * (r12 + r13 - r23)
                                + c * mu23 * m1 * (r12 + r23 - r13))
               - d * m1 * m2) * (1 / (mu12 * m1 * m2))
        c13 = (2 * mu13 * om * (2 * b * m1 * m3 * r13
                                + a * mu12 * m3 * (r12 + r13 - r23)
                                + c * mu23 * m1 * (r13 + r23 - r12))
               - d * m1 * m3) * (1 / (mu13 * m1 * m3))
        c23 = (2 * mu23 * om * (2 * c * m2 * m3 * r23
                                + a * mu12 * m3 * (r12 + r23 - r13)
                                + b * mu13 * m2 * (r13 + r23 - r12))
               - d * m2 * m3) * (1 / (mu23 * m2 * m3))
        return DiffOp(RHO3, {
            (2, 0, 0): (-2 / mu12) * r12,
            (0, 2, 0): (-2 / mu13) * r13,
            (0, 0, 2): (-2 / mu23) * r23,
            (1, 1, 0): (-2 / m1) * (r13 + r12 - r23),
            (1, 0, 1): (-2 / m2) * (r23 + r12 - r13),
            (0, 1, 1): (-2 / m3) * (r13 + r23 - r12),
            (1, 0, 0): c12, (0, 1, 0): c13, (0, 0, 1): c23,
        })
    if case in (Case.EQUAL_MASS3, Case.ISOTROPIC3):
        m = p.m1
        r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
        return DiffOp(RHO3, {
            (2, 0, 0): (-4 / m) * r12,
            (0, 2, 0): (-4 / m) * r13,
            (0, 0, 2): (-4 / m) * r23,
            (1, 1, 0): (-2 / m) * (r13 + r12 - r23),
            (1, 0, 1): (-2 / m) * (r23 + r12 - r13),
            (0, 1, 1): (-2 / m) * (r13 + r23 - r12),
            (1, 0, 0): om * ((4 * a + b + c) * r12 + (b - c) * (r13 - r23))
            - _P({(0, 0, 0): 2 * d / m}),
            (0, 1, 0): om * ((4 * b + a + c) * r13 + (a - c) * (r12 - r23))
            - _P({(0, 0, 0): 2 * d / m}),
            (0, 0, 1): om * ((4 * c + a + b) * r23 + (a - b) * (r12 - r13))
            - _P({(0, 0, 0): 2 * d / m}),
        })
    if case is Case.ATOMIC3:
        m = p.m2
        r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
        return DiffOp(RHO3, {
            (2, 0, 0): (-2 / m) * r12,
            (0, 2, 0): (-2 / m) * r13,
            (0, 0, 2): (-4 / m) * r23,
            (1, 0, 1): (-2 / m) * (r23 + r12 - r13),
            (0, 1, 1): (-2 / m) * (r13 + r23 - r12),
            (1, 0, 0): om * ((4 * a + c) * r12 - c * (r13 - r23))
            - _P({(0, 0, 0): d / m}),
            (0, 1, 0): om * ((4 * b + c) * r13 - c * (r12 - r23))
            - _P({(0, 0, 0): d / m}),
            (0, 0, 1): om * (2 * (2 * c + a + b) * r23
                             + 2 * (a - b) * (r12 - r13))
            - _P({(0, 0, 0): 2 * d / m}),
        })
    if case is Case.MOLECULAR3:
        m = p.m1
        r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
        return DiffOp(RHO3, {
            (2, 0, 0): (-2 / m) * r12,
            (0, 2, 0): (-2 / m) * r13,
            (1, 1, 0): (-2 / m) * (r13 + r12 - r23),
            (1, 0, 0): 2 * om * ((2 * a + b) * r12 + b * (r13 - r23))
            - _P({(0, 0, 0): d / m}),
            (0, 1, 0): 2 * om * ((2 * b + a) * r13 + a * (r12 - r23))
            - _P({(0, 0, 0): d / m}),
        })
    if case is Case.ONE_DIM3:
        m1 = p.m1
        mu12, mu13, mu23 = reduced_masses(p)
        x12 = MultiPoly.var(X1D, "x12")
        x13 = MultiPoly.var(X1D, "x13")
        c12 = (2 * om / (mu12 * m1)) * (
            mu12 * (a * m1 * x12 + b * mu13 * x13)
            + c * mu23 * (x12 - x13) * (m1 - mu12))
        c13 = (2 * om / (mu13 * m1)) * (
            mu13 * (a * mu12 * x12 + b * m1 * x13)
            + c * mu23 * (x13 - x12) * (m1 - mu13))
        return DiffOp(X1D, {
            (2, 0): MultiPoly.const(X1D, -Fraction(1, 2) / mu12),
            (0, 2): MultiPoly.const(X1D, -Fraction(1, 2) / mu13),
            (1, 1): MultiPoly.const(X1D, -1 / m1),
            (1, 0): c12, (0, 1): c13,
        })
    # 2-body, gauged convention mu = 1/2
    rho = MultiPoly.var(RHO1, "rho")
    if case is Case.TWO_BODY_ES:
        return DiffOp(RHO1, {(2,): -4 * rho,
                             (1,): 2 * (2 * om * rho
                                        - MultiPoly.const(RHO1, d))})
    if case is Case.TWO_BODY_QES:
        A, N = p.A, Fraction(p.N)
        return DiffOp(RHO1, {
            (2,): -4 * rho,
            (1,): 2 * (2 * A * rho ** 2 + 2 * om * rho
                       - MultiPoly.const(RHO1, d)),
            (0,): -4 * A * N * rho,
        })
    raise CaseError(f"no gauged operator is transcribed for {case.value}")


# ---------------------------------------------------------------------------
# Lie-algebraic forms

def _gen3(variables, i, j=None):
    """First-order generators over 3 (or 2) polynomial variables.

    _gen3(vars, i) -> lowering d/du_i; _gen3(vars, i, j) -> u_i d/du_j.
    """
    n = len(variables)
    if j is None:
        derivs = tuple(1 if k == i else 0 for k in range(n))
        return DiffOp(variables, {derivs: 1})
    derivs = tuple(1 if k == j else 0 for k in range(n))
    return DiffOp(variables, {derivs: MultiPoly.var(variables, variables[i])})


def sl2_generators(N: int):
    """(J+, J0, J-) acting on polynomials in rho."""
    rho = MultiPoly.var(RHO1, "rho")
    jm = DiffOp(RHO1, {(1,): 1})
    j0 = DiffOp(RHO1, {(1,): rho, (0,): MultiPoly.const(RHO1, -Fraction(N))})
    jp = DiffOp(RHO1, {(1,): rho ** 2,
                       (0,): -Fraction(N) * rho})
    return jp, j0, jm


def lie_form(case: Case, p: Params) -> DiffOp:
    """The gauged operator expanded from first-order algebra generators."""
    validate_case(case, p)
    om, a, b, c, d = p.omega, p.a, p.b, p.c, Fraction(p.d)

    if case is Case.GENERAL3:
        m1, m2, m3 = p.masses
        mu12, mu13, mu23 = reduced_masses(p)
        J = lambda i, j: _gen3(RHO3, i, j)   # noqa: E731
        Jm = lambda i: _gen3(RHO3, i)        # noqa: E731
        second = (
            (1 / mu12) * J(0, 0).compose(Jm(0))
            + (1 / mu13) * J(1, 1).compose(Jm(1))
            + (1 / mu23) * J(2, 2).compose(Jm(2))
            + (1 / m1) * (J(1, 1).compose(Jm(0)) + J(0, 0).compose(Jm(1))
                          - J(2, 0).compose(Jm(1)))
            + (1 / m2) * (J(2, 2).compose(Jm(0)) + J(0, 0).compose(Jm(2))
                          - J(1, 2).compose(Jm(0)))
            + (1 / m3) * (J(1, 1).compose(Jm(2)) + J(2, 2).compose(Jm(1))
                          - J(0, 1).compose(Jm(2))))
        first = (
            (2 * om / (m1 * m2)) * (
                (2 * a * m1 * m2 + b * mu13 * m2 + c * mu23 * m1) * J(0, 0)
                + (b * mu13 * m2 - c * mu23 * m1) * (J(1, 0) - J(2, 0)))
            + (2 * om / (m1 * m3)) * (
                (2 * b * m1 * m3 + a * mu12 * m3 + c * mu23 * m1) * J(1, 1)
                + (a * mu12 * m3 - c * mu23 * m1) * (J(0, 1) - J(2, 1)))
            + (2 * om / (m2 * m3)) * (
                (2 * c * m2 * m3 + a * mu12 * m3 + b * mu13 * m2) * J(2, 2)
                + (a * mu12 * m3 - b * mu13 * m2) * (J(0, 2) - J(1, 2))))
        lower = d * ((1 / mu12) * Jm(0) + (1 / mu13) * Jm(1)
                     + (1 / mu23) * Jm(2))
        return -2 * second + first - lower

    if case in (Case.EQUAL_MASS3, Case.ISOTROPIC3):
        m = p.m1
        J = lambda i, j: _gen3(RHO3, i, j)   # noqa: E731
        Jm = lambda i: _gen3(RHO3, i)        # noqa: E731
        second = (2 * (J(0, 0).compose(Jm(0)) + J(1, 1).compose(Jm(1))
                       + J(2, 2).compose(Jm(2)))
                  + J(1, 1).compose(Jm(0)) + J(0, 0).compose(Jm(1))
                  - J(2, 0).compose(Jm(1))
                  + J(2, 2).compose(Jm(0)) + J(0, 0).compose(Jm(2))
                  - J(1, 2).compose(Jm(0))
                  + J(1, 1).compose(Jm(2)) + J(2, 2).compose(Jm(1))
                  - J(0, 1).compose(Jm(2)))
        first = om * ((4 * a + b + c) * J(0, 0) + (4 * b + a + c) * J(1, 1)
                      + (4 * c + a + b) * J(2, 2)
                      + (a - c) * J(0, 1) + (a - b) * J(0, 2)
                      + (b - a) * J(1, 2) + (b - c) * J(1, 0)
                      + (c - a) * J(2, 1) + (c - b) * J(2, 0))
        lower = (2 * d / m) * (Jm(0) + Jm(1) + Jm(2))
        return (-2 / m) * second + first - lower

    if case is Case.ATOMIC3:
        m = p.m2
        J = lambda i, j: _gen3(RHO3, i, j)   # noqa: E731
        Jm = lambda i: _gen3(RHO3, i)        # noqa: E731
        second = (J(0, 0).compose(Jm(0)) + J(1, 1).compose(Jm(1))
                  + 2 * J(2, 2).compose(Jm(2))
                  + J(2, 2).compose(Jm(0)) + J(0, 0).compose(Jm(2))
                  - J(1, 2).compose(Jm(0))
                  + J(1, 1).compose(Jm(2)) + J(2, 2).compose(Jm(1))
                  - J(0, 1).compose(Jm(2)))
        first = om * (
            2 * a * (2 * J(0, 0) + J(0, 2) + J(2, 2) - J(1, 2))
            + 2 * b * (2 * J(1, 1) + J(1, 2) + J(2, 2) - J(0, 2))
            + c * (4 * J(2, 2) + J(1, 1) + J(2, 1) - J(0, 1)
                   + J(0, 0) + J(2, 0) - J(1, 0)))
        lower = (d / m) * (Jm(0) + Jm(1) + 2 * Jm(2))
        return (-2 / m) * second + first - lower

    if case is Case.MOLECULAR3:
        m = p.m1
        # b3 generators in (rho12, rho13); rho23 is a ring constant
        J = lambda i, j: _gen3(RHO3, i, j)   # noqa: E731
        Jm = lambda i: _gen3(RHO3, i)        # noqa: E731
        r23 = _v("rho23")
        second = (J(0, 0).compose(Jm(0)) + J(1, 1).compose(Jm(1))
                  + J(1, 1).compose(Jm(0)) + J(0, 0).compose(Jm(1))
                  - r23 * Jm(0).compose(Jm(1)))
        first = 2 * om * ((2 * a + b) * J(0, 0) + (2 * b + a) * J(1, 1)
                          + b * (J(1, 0) - r23 * Jm(0))
                          + a * (J(0, 1) - r23 * Jm(1)))
        lower = (d / m) * (Jm(0) + Jm(1))
        return (-2 / m) * second + first - lower

    if case is Case.ONE_DIM3:
        m1 = p.m1
        mu12, mu13, mu23 = reduced_masses(p)
        J = lambda i, j: _gen3(X1D, i, j)    # noqa: E731
        Jm = lambda i: _gen3(X1D, i)         # noqa: E731
        second = ((Fraction(1, 2) / mu12) * Jm(0).compose(Jm(0))
                  + (Fraction(1, 2) / mu13) * Jm(1).compose(Jm(1))
                  + (1 / m1) * Jm(0).compose(Jm(1)))
        first = ((2 * om / (mu12 * m1)) * (
            mu12 * (a * m1 * J(0, 0) + b * mu13 * J(1, 0))
            + c * mu23 * (m1 - mu12) * (J(0, 0) - J(1, 0)))
            + (2 * om / (mu13 * m1)) * (
            mu13 * (a * mu12 * J(0, 1) + b * m1 * J(1, 1))
            + c * mu23 * (m1 - mu13) * (J(1, 1) - J(0, 1))))
        return -second + first

    if case in (Case.TWO_BODY_ES, Case.TWO_BODY_QES):
        # 2-body sl(2) forms
        N = p.N if p.N is not None else 0
        jp, j0, jm = sl2_generators(N)
        base = (-4 * j0.compose(jm) - 2 * (d + 2 * N) * jm + 4 * om * j0
                + 4 * N * om * DiffOp.identity(RHO1))
        if case is Case.TWO_BODY_QES:
            return base + 4 * p.A * jp
        return base
    raise CaseError(f"no Lie-algebraic form is transcribed for {case.value}")


# ---------------------------------------------------------------------------
# co-metric

@dataclass(frozen=True)
class Cometric:
    matrix: tuple           # tuple of tuples of MultiPoly
    determinant: MultiPoly
    factored_determinant: MultiPoly


def cometric(case: Case, p: Params) -> Cometric:
    """Second-derivative coefficient matrix, with its factored determinant.

    Normalizations follow the source expressions: the 3x3 matrices are read
    from Delta_rad, the molecular 2x2 from (1/2) Delta_rad.
    """
    validate_case(case, p)
    if case in (Case.TWO_BODY_ES, Case.TWO_BODY_QES, Case.ONE_DIM3):
        raise CaseError("case has no rho-space co-metric")
    if case is Case.MOLECULAR3:
        m = p.m1
        r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
        off = Fraction(1, 2) / m * (r12 + r13 - r23)
        mat = ((r12 * (1 / m), off), (off, r13 * (1 / m)))
        det = linalg.det(mat)
        factored = Fraction(1, 4) / m ** 2 * (
            2 * r23 * (r12 + r13) - (r12 - r13) ** 2 - r23 ** 2)
        return Cometric(mat, det, factored)
    mu12, mu13, mu23 = reduced_masses(p)
    i1, i2, i3 = _inv(p.m1), _inv(p.m2), _inv(p.m3)
    r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")
    g12 = i1 * (r13 + r12 - r23)
    g13 = i2 * (r23 + r12 - r13)
    g23 = i3 * (r13 + r23 - r12)
    mat = ((2 / mu12 * r12, g12, g13),
           (g12, 2 / mu13 * r13, g23),
           (g13, g23, 2 / mu23 * r23))
    det = linalg.det(mat)
    area = area_square_expr()
    if case is Case.ATOMIC3:
        m = p.m2
        factored = (2 / m ** 3) * (r12 + r13) * area
    else:
        m1, m2, m3 = p.masses
        factored = (2 * (m1 + m2 + m3) / (m1 * m2 * m3) ** 2) \
            * mass_weighted_linear(p) * area
    return Cometric(mat, det, factored)


# ---------------------------------------------------------------------------
# effective potentials and the gauge factor

def effective_potential(case: Case, p: Params) -> RationalFn:
    validate_case(case, p)
    d = Fraction(p.d)
    if case in (Case.TWO_BODY_ES, Case.TWO_BODY_QES):
        rho = MultiPoly.var(RHO1, "rho")
        return RationalFn(MultiPoly.const(RHO1, (d - 1) * (d - 3) / 4), rho)
    if case is Case.MOLECULAR3:
        m = p.m1
        r23 = _v("rho23")
        dmol = cometric(Case.MOLECULAR3, p).determinant
        return RationalFn((d - 2) * (d - 4) * r23,
                          16 * m ** 2 * dmol)
    if case not in THREE_BODY_CASES:
        raise CaseError(f"no effective potential for {case.value}")
    m1, m2, m3 = p.masses
    lin = mass_weighted_linear(p)
    area = area_square_expr()
    first = RationalFn(MultiPoly.const(RHO3, Fraction(3, 8) * (m1 + m2 + m3)),
                       lin)
    second = RationalFn((d - 2) * (d - 4) / 2 * lin, m1 * m2 * m3 * area)
    return first + second


def gauge_factor_gamma(p: Params):
    """[(base polynomial, rational exponent), ...] for the Gamma factor."""
    if not p.finite_masses():
        raise CaseError("Gamma requires finite masses")
    return [(area_square_expr(), Fraction(2 - p.d, 4)),
            (mass_weighted_linear(p), Fraction(-1, 4))]


# ---------------------------------------------------------------------------
# primitive QES problem

def build_qes_primitive(p: Params):
    """(anharmonic potential, ground state, residual energy).

    The residual is the constant value of (H Psi)/Psi minus the harmonic
    ground energy; a non-constant quotient signals a transcription bug.
    """
    validate_case(Case.PRIMITIVE3_QES, p)
    m1, m2, m3 = p.masses
    mu12, mu13, mu23 = reduced_masses(p)
    a, b, c, om = p.a, p.b, p.c, p.omega
    A12, A13, A23 = p.A12, p.A13, p.A23
    r12, r13, r23 = _v("rho12"), _v("rho13"), _v("rho23")

    cubic = 8 * (
        A12 ** 2 / mu12 * r12 ** 3 + A13 ** 2 / mu13 * r13 ** 3
        + A23 ** 2 / mu23 * r23 ** 3
        + A12 * (A13 / m1 * r13 ** 2 + A23 / m2 * r23 ** 2) * r12
        + A13 * (A12 / m1 * r12 ** 2 + A23 / m3 * r23 ** 2) * r13
        + A23 * (A12 / m2 * r12 ** 2 + A13 / m3 * r13 ** 2) * r23
        - (A12 * A13 / m1 + A12 * A23 / m2 + A13 * A23 / m3)
        * r12 * r13 * r23)
    quadratic = (4 * om / (m1 * m2 * m3)) * (
        A12 * m3 * (2 * a * m1 * m2 + b * mu13 * m2 + c * mu23 * m1) * r12 ** 2
        + A13 * m2 * (a * mu12 * m3 + 2 * b * m1 * m3 + c * mu23 * m1) * r13 ** 2
        + A23 * m1 * (a * mu12 * m3 + b * mu13 * m2 + 2 * c * m2 * m3) * r23 ** 2
        + (A13 * m2 * (a * mu12 * m3 - c * mu23 * m1)
           + A12 * m3 * (b * mu13 * m2 - c * mu23 * m1)) * r12 * r13
        + (A23 * m1 * (a * mu12 * m3 - b * mu13 * m2)
           + A12 * m3 * (c * mu23 * m1 - b * mu13 * m2)) * r12 * r23
        + (A23 * m1 * (b * mu13 * m2 - a * mu12 * m3)
           + A13 * m2 * (c * mu23 * m1 - a * mu12 * m3)) * r13 * r23)
    linear = -2 * (p.d + 2) * (A12 / mu12 * r12 + A13 / mu13 * r13
                               + A23 / mu23 * r23)
    v_anh = cubic + quadratic + linear

    harm = ground_state(Case.GENERAL3, p)
    expo = harm.wavefunction.exponent \
        - (A12 * r12 ** 2 + A13 * r13 ** 2 + A23 * r23 ** 2)
    psi = GaussFn(expo)

    h_total = -build_radial_laplacian(Case.GENERAL3, p)
    v_total = build_potential(Case.GENERAL3, p) + v_anh
    quotient = (h_total + DiffOp.mul_by(v_total)).gauge_conjugate(psi) \
        .apply(MultiPoly.const(RHO3, 1))      # (H psi) / psi
    if not quotient.is_constant():
        raise ValueError("primitive QES quotient is not constant; "
                         "transcription bug")
    residual = quotient.constant_value() - harm.energy_value
    return v_anh, psi, residual


# ---------------------------------------------------------------------------
# JSON params

def _json_int(data: dict, key: str, default: Optional[int]) -> Optional[int]:
    """data[key] as an integer; null only where the default is."""
    v = data.get(key, default)
    if (v is None and default is None) or (
            isinstance(v, int) and not isinstance(v, bool)):
        return v
    raise ValueError(f"params {key!r} must be an integer, not {v!r}")


def _json_rational(key: str, x) -> Fraction:
    """A rational from a number or a string such as "3/2"; anything else,
    a zero denominator included, raises ValueError naming `key`."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"params {key!r}: not a rational: {x!r}") from e


def _json_mass(x) -> Optional[Fraction]:
    """A mass: a rational, or None for "inf" or null (infinite)."""
    if x is None or x == "inf":
        return None
    return _json_rational("m", x)


def _json_triple(key: str, v) -> list:
    """A list of one to three values, padded with its first to three."""
    if not isinstance(v, list) or not 1 <= len(v) <= 3:
        raise ValueError(f"params {key!r} must be a list of 1 to 3 values")
    return v + [v[0]] * (3 - len(v))


def params_from_json(data) -> Tuple[Case, Params]:
    """(case, params) from a parameter file's JSON object; malformed input
    raises ValueError (CaseError for a missing case)."""
    if not isinstance(data, dict):
        raise ValueError("params must be a JSON object")
    if "case" not in data:
        raise CaseError('params need a "case"')
    case = Case(data["case"])
    m = data.get("m", [1, 1, 1])
    m = _json_triple("m", m if isinstance(m, list) else [m])
    springs = _json_triple("springs", data.get("springs", [1, 1, 1]))
    A = data.get("A", [0, 0, 0])
    a, b, c = (_json_rational("springs", x) for x in springs)
    kwargs = dict(
        m1=_json_mass(m[0]), m2=_json_mass(m[1]), m3=_json_mass(m[2]),
        a=a, b=b, c=c,
        omega=_json_rational("omega", data.get("omega", 1)),
        d=_json_int(data, "d", 3),
        N=_json_int(data, "N", None),
    )
    if isinstance(A, list) and len(A) == 3:
        kwargs.update(zip(("A12", "A13", "A23"),
                          (_json_rational("A", x) for x in A)))
    else:
        kwargs.update(A=_json_rational("A", A))
    if "rho23" in data and data["rho23"] is not None:
        kwargs["rho23"] = _json_rational("rho23", data["rho23"])
    return case, Params(**kwargs)


def degenerate(p: Params, case: Case) -> Params:
    """Specialize params along the degeneration chain general -> equal ->
    isotropic, or to the equal-mass 2-body chain."""
    if case is Case.EQUAL_MASS3:
        return replace(p, m2=p.m1, m3=p.m1)
    if case is Case.ISOTROPIC3:
        return replace(p, m2=p.m1, m3=p.m1, b=p.a, c=p.a)
    if case is Case.TWO_BODY_ES:
        return Params(m1=p.m1, m2=p.m1, omega=p.omega, d=p.d)
    return p
