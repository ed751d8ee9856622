"""Separation of variables for the free 3-body radial operator.

The coordinates (w1, w2, w3) turn Delta_rad into a three-term form whose
w3 part is shared between two one-variable operators; the oscillator
potential becomes w3-independent exactly on the minimal superintegrability
locus.  Verification is by exact evaluation at random rational points
(the closed-form push-forward would be a rational-function expression
swell for no gain).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .exact import MultiPoly, RatDiffOp, RationalFn, random_point
from .model import RHO3, Case, Params, build_radial_laplacian, nu_coefficients

W3 = ("w1", "w2", "w3")

MAX_RESAMPLES = 100
MIN_POINTS = 50         # fewest sample points verify_pushforward accepts


class TemplateMismatch(RuntimeError):
    def __init__(self, residuals):
        self.residuals = residuals
        super().__init__(f"operator does not fit the separated template: "
                         f"{sorted(residuals)}")


@dataclass(frozen=True)
class WMap:
    w1: MultiPoly
    w2: MultiPoly
    w3: RationalFn
    denominator_root: MultiPoly  # w3 = w1 w2 / ((m2+m3) * root^2)

    def eval(self, point: Dict[str, Fraction]) -> Dict[str, Fraction]:
        return {"w1": self.w1.eval(point), "w2": self.w2.eval(point),
                "w3": self.w3.eval(point)}


def build_wmap(p: Params) -> WMap:
    m2, m3 = p.m2, p.m3
    if m2 is None or m3 is None:
        raise ValueError("w-map needs finite m2, m3")
    r12 = MultiPoly.var(RHO3, "rho12")
    r13 = MultiPoly.var(RHO3, "rho13")
    r23 = MultiPoly.var(RHO3, "rho23")
    w1 = r23
    w2 = (m2 + m3) * m3 * r13 + (m2 + m3) * m2 * r12 - m2 * m3 * r23
    root = (r23 - r13 + r12) * m2 - m3 * (r23 + r13 - r12)
    den = (m2 + m3) * root ** 2
    return WMap(w1, w2, RationalFn(w1 * w2, den), root)


# ---------------------------------------------------------------------------
# transformed radial operator

def _wconst(c) -> MultiPoly:
    return MultiPoly.const(W3, c)


@dataclass(frozen=True)
class SeparatedForm:
    A: Fraction               # coefficient of the w1 one-variable operator
    B: Fraction               # coefficient of the w2 one-variable operator
    w3_second: RationalFn     # shared w3-operator, second-order coefficient
    w3_first: RationalFn      # shared w3-operator, first-order coefficient
    weight: RationalFn        # 1/w1- and 1/w2-type multiplier of the w3 part

    def operator(self, d: int) -> RatDiffOp:
        """Delta_rad in w-coordinates, assembled from the three terms."""
        w1 = MultiPoly.var(W3, "w1")
        w2 = MultiPoly.var(W3, "w2")
        return RatDiffOp(W3, {
            (2, 0, 0): RationalFn(2 * self.A * w1),
            (1, 0, 0): RationalFn(_wconst(self.A * d)),
            (0, 2, 0): RationalFn(2 * self.B * w2),
            (0, 1, 0): RationalFn(_wconst(self.B * d)),
            (0, 0, 2): self.weight * self.w3_second,
            (0, 0, 1): self.weight * self.w3_first,
        })


def separated_form(p: Params, d: int) -> SeparatedForm:
    """The pieces of Delta_rad in w-coordinates in dimension d: A, B, the
    shared w3 operator and its weight A/w1 + B/w2."""
    m1, m2, m3 = p.masses
    A = Fraction(m2 + m3, 1) / (m2 * m3)
    B = (m2 + m3) * (m1 + m2 + m3) / m1
    w1 = MultiPoly.var(W3, "w1")
    w2 = MultiPoly.var(W3, "w2")
    w3 = MultiPoly.var(W3, "w3")
    return SeparatedForm(
        A=A,
        B=B,
        w3_second=RationalFn(2 * w3 ** 2 * (4 * (m2 + m3) * w3 - _wconst(1))),
        w3_first=RationalFn(w3 * (12 * (m2 + m3) * w3 + _wconst(d - 4))),
        weight=RationalFn(_wconst(A), w1) + RationalFn(_wconst(B), w2),
    )


def build_opham(p: Params, d: Optional[int] = None) -> RatDiffOp:
    """Delta_rad in w-coordinates: rational-coefficient operator."""
    d = p.d if d is None else d
    return separated_form(p, d).operator(d)


def match_separated_template(op: RatDiffOp, p: Params,
                             d: Optional[int] = None) -> SeparatedForm:
    """Check `op` against the three-term separated structure and extract it."""
    d = p.d if d is None else d
    form = separated_form(p, d)
    expected = form.operator(d)
    residuals = []
    for derivs in set(op.terms) | set(expected.terms):
        zero = RationalFn(MultiPoly.zero(W3))
        got = op.terms.get(derivs, zero)
        want = expected.terms.get(derivs, zero)
        if not got.equals(want):
            residuals.append(derivs)
    if residuals:
        raise TemplateMismatch(residuals)
    return form


# ---------------------------------------------------------------------------
# push-forward verification

def default_test_functions():
    """Twelve polynomials of degree <= 2 in (w1, w2, w3)."""
    w1 = MultiPoly.var(W3, "w1")
    w2 = MultiPoly.var(W3, "w2")
    w3 = MultiPoly.var(W3, "w3")
    return [MultiPoly.const(W3, 1), w1, w2, w3,
            w1 ** 2, w2 ** 2, w3 ** 2,
            w1 * w2, w1 * w3, w2 * w3,
            w1 * w2 + w3 ** 2, w1 - 2 * w2 + 3 * w3]


class Jet2:
    """Second-order truncated Taylor expansion in k variables, exact.

    Coefficients are Fractions indexed by exponent tuples of total degree
    <= 2; enough to read off value, gradient and Hessian at the base point.
    """

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs=None):
        self.k = k
        self.coeffs = dict(coeffs or {})

    @classmethod
    def const(cls, k: int, c: Fraction):
        c = Fraction(c)
        return cls(k, {(0,) * k: c} if c else {})

    @classmethod
    def variable(cls, k: int, i: int, value: Fraction):
        e = tuple(1 if j == i else 0 for j in range(k))
        return cls(k, {(0,) * k: Fraction(value), e: Fraction(1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Jet2(self.k, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Jet2(self.k)
            return Jet2(self.k, {e: c * other for e, c in self.coeffs.items()})
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) > 2:
                    continue
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Jet2(self.k, out)

    __rmul__ = __mul__

    def inverse(self):
        zero = (0,) * self.k
        c = self.coeffs.get(zero, Fraction(0))
        if c == 0:
            raise ZeroDivisionError("jet has zero value part")
        u = Jet2(self.k, {e: v / c for e, v in self.coeffs.items()
                          if e != zero})
        # 1/(c(1+u)) = (1 - u + u^2)/c, truncated
        one = Jet2.const(self.k, 1)
        return (one + (-1) * u + u * u) * (Fraction(1) / c)

    def value(self) -> Fraction:
        return self.coeffs.get((0,) * self.k, Fraction(0))

    def derivative(self, derivs: Tuple[int, ...]) -> Fraction:
        """Exact partial derivative at the base point, order <= 2."""
        total = sum(derivs)
        if total > 2:
            raise ValueError("jet only carries derivatives up to order 2")
        c = self.coeffs.get(tuple(derivs), Fraction(0))
        if total == 2 and max(derivs) == 2:
            c *= 2
        return c


def _poly_jet(poly: MultiPoly, jets: Dict[str, Jet2], k: int) -> Jet2:
    out = Jet2(k)
    for exps, c in poly.terms.items():
        term = Jet2.const(k, c)
        for name, e in zip(poly.variables, exps):
            for _ in range(e):
                term = term * jets[name]
        out = out + term
    return out


def verify_pushforward(p: Params, d: Optional[int] = None, seed: int = 0,
                       n_points: int = 50, test_functions=None) -> bool:
    """Exact two-route check of the w-coordinate form of Delta_rad.

    Route 1: apply Delta_rad (rho-space) to f(W(rho)), evaluated at a
    random rational point via exact second-order jet arithmetic.
    Route 2: apply the w-space operator to f and evaluate at W(point).
    True iff every (function, point) pair agrees exactly.  At least
    MIN_POINTS points are required.
    """
    if n_points < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} sample points, "
                         f"got {n_points}")
    d = p.d if d is None else d
    from dataclasses import replace
    p = replace(p, d=d)
    wmap = build_wmap(p)
    delta = build_radial_laplacian(Case.GENERAL3, p)
    opham = build_opham(p, d)
    fns = test_functions if test_functions is not None \
        else default_test_functions()
    if len(fns) < 10:
        raise ValueError("need at least 10 test functions")
    rng = random.Random(seed)
    points = []
    guard = 0
    while len(points) < n_points:
        pt = random_point(RHO3, rng)
        if wmap.denominator_root.eval(pt) == 0 or wmap.w2.eval(pt) == 0 \
                or pt["rho23"] == 0 or wmap.w3.eval(pt) == 0:
            guard += 1
            if guard > MAX_RESAMPLES:
                raise RuntimeError("cannot sample away from singular locus")
            continue
        points.append(pt)
    rhs_fns = {id(f): opham.apply(f) for f in fns}
    for pt in points:
        base = {v: Jet2.variable(3, i, pt[v]) for i, v in enumerate(RHO3)}
        w_jets = {
            "w1": _poly_jet(wmap.w1, base, 3),
            "w2": _poly_jet(wmap.w2, base, 3),
            "w3": _poly_jet(wmap.w3.num, base, 3)
            * _poly_jet(wmap.w3.den, base, 3).inverse(),
        }
        wpt = wmap.eval(pt)
        for f in fns:
            jet = _poly_jet(f, w_jets, 3)
            lhs = Fraction(0)
            for derivs, coeff in delta.terms.items():
                lhs += coeff.eval(pt) * jet.derivative(derivs)
            if lhs != rhs_fns[id(f)].eval(wpt):
                return False
    return True


# ---------------------------------------------------------------------------
# potential in w-coordinates

@dataclass(frozen=True)
class PotentialInW:
    """2 omega^2 [ c1 w1 + c2 w2 +/- c_sqrt sqrt(w1 w2 / w3) ].

    c_sqrt = sqrt_numerator / (m2+m3)^(5/2); the +/- sign is not resolved
    in closed form, but sqrt(w1 w2 / w3) = |root| sqrt(m2+m3) with `root`
    linear in the rho's, so `resolved_sign` records which sign makes the
    identity with the rho-space potential exact for root > 0.
    """
    c1: Fraction
    c2: Fraction
    sqrt_numerator: Fraction
    sqrt_denominator_base: Fraction   # (m2+m3), carried to the 5/2 power
    w3_independent: bool
    resolved_sign: Optional[int]      # +1 / -1 / None when coefficient is 0

    def to_json(self) -> dict:
        def fr(x):
            return f"{x.numerator}/{x.denominator}"
        return {"c1": fr(self.c1), "c2": fr(self.c2),
                "sqrt_numerator": fr(self.sqrt_numerator),
                "sqrt_denominator_base": fr(self.sqrt_denominator_base),
                "w3_independent": self.w3_independent,
                "sign": {1: "+", -1: "-", None: "0"}[self.resolved_sign]}


def potential_in_w(p: Params, nus: Optional[Sequence[Fraction]] = None
                   ) -> PotentialInW:
    m1, m2, m3 = p.masses
    nu12, nu13, nu23 = nus if nus is not None else nu_coefficients(p)
    s = m2 + m3
    c1 = (m3 ** 2 * nu12 + m2 ** 2 * nu13 + s ** 2 * nu23) / s ** 2
    c2 = (nu12 + nu13) / s ** 2
    num = m3 * nu12 - m2 * nu13
    wmap = build_wmap(p)
    r12 = MultiPoly.var(RHO3, "rho12")
    r13 = MultiPoly.var(RHO3, "rho13")
    r23 = MultiPoly.var(RHO3, "rho23")
    target = nu12 * r12 + nu13 * r13 + nu23 * r23
    base = c1 * wmap.w1 + c2 * wmap.w2
    # sqrt(w1 w2 / w3) = root * sqrt(m2+m3) up to sign, so the sqrt term is
    # +/- num * root / (m2+m3)^2, a polynomial; resolve the sign exactly.
    sign: Optional[int] = None
    if num == 0:
        if base != target:
            raise AssertionError("potential identity fails at zero sqrt term")
    else:
        for cand in (1, -1):
            if base + cand * (num / s ** 2) * wmap.denominator_root == target:
                sign = cand
                break
        if sign is None:
            raise AssertionError("potential identity fails for both signs")
    return PotentialInW(c1, c2, num, Fraction(s), num == 0, sign)


# ---------------------------------------------------------------------------
# one-variable separated operator

def one_variable_operator(lam: Fraction, d: int) -> RatDiffOp:
    """2 w d^2/dw^2 + d d/dw + lam/w on functions of one variable w."""
    var = ("w",)
    w = MultiPoly.var(var, "w")
    terms = {
        (2,): RationalFn(2 * w),
        (1,): RationalFn(MultiPoly.const(var, Fraction(d))),
    }
    lam = Fraction(lam)
    if lam != 0:
        terms[(0,)] = RationalFn(MultiPoly.const(var, lam), w)
    return RatDiffOp(var, terms)
