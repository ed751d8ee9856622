"""Separation of variables for the free 3-body radial operator.

The coordinates (w1, w2, w3) turn Delta_rad into a three-term form whose
w3 part is shared between two one-variable operators; the oscillator
potential becomes w3-independent exactly on the minimal superintegrability
locus.

The push-forward is verified by exact evaluation at random rational points
(the closed-form push-forward would be a rational-function expression
swell for no gain).  At each point rho the chain rule turns Delta_rad's
coefficients and the 2-jets (value, gradient, Hessian) of w1, w2, w3 into
the coefficients of Delta_rad on w-derivatives, which are compared one
by one with the w-space operator's coefficients at W(rho).

All of it runs on integers, with no Fraction per point.  One power table
at rho (`exact.power_table`) evaluates every polynomial there: the
singular-locus test, the derivatives of w1, w2 and of w3 = n / d's
numerator and denominator, each over its parent's denominator, and
Delta_rad's coefficients, over their lcm e.  Each component's 2-jet is
then integer numerators over one J_a: den(w_a) * scale for w1 and w2, and
den(n) D^3 for w3 by the quotient rule, D being d's numerator at rho (the
scale cancels).  Each pushed coefficient C_alpha is an integer sum over
e * scale * prod_{a in alpha} J_a, the one denominator its terms share.
A second table at W(rho) gives each w-space coefficient as P / Q, and
C_alpha = P / Q is one cross-multiplication.  A Q that vanishes raises
ZeroDivisionError, as `RationalFn.eval` does: it is never compared as
0 = 0.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from . import VerificationError
from .exact import (DiffOp, MultiPoly, RationalFn, SingularSampleError,
                    over_one_den, partial_numerators, power_table, ratio_str,
                    random_point, table_sum)
from .model import RHO3, Case, Params, build_radial_laplacian, nu_coefficients

W3 = ("w1", "w2", "w3")

MAX_RESAMPLES = 100
MIN_POINTS = 50         # fewest sample points verify_pushforward accepts


class PotentialMismatch(VerificationError):
    """The w-coordinate potential does not reproduce the rho-space one."""


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

    def operator(self, d: int) -> DiffOp:
        """Delta_rad in w-coordinates, assembled from the three terms."""
        w1 = MultiPoly.var(W3, "w1")
        w2 = MultiPoly.var(W3, "w2")
        return DiffOp(W3, {
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


def build_opham(p: Params) -> DiffOp:
    """Delta_rad in w-coordinates: rational-coefficient operator."""
    return separated_form(p, p.d).operator(p.d)


def match_separated_template(op: DiffOp, p: Params) -> SeparatedForm:
    """Check `op` against the three-term separated structure and extract it."""
    form = separated_form(p, p.d)
    expected = form.operator(p.d)
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

_ZERO = (0, 0, 0)
_UNIT = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
_PAIR = tuple(tuple(tuple(x + y for x, y in zip(ea, eb)) for eb in _UNIT)
              for ea in _UNIT)          # e_a + e_b
_ORDER2 = (_ZERO,) + _UNIT + tuple(
    _PAIR[a][b] for a in range(3) for b in range(a, 3))   # |alpha| <= 2


def _derivative_numerators(poly: MultiPoly) -> dict:
    """{alpha: the numerators of d^alpha poly over poly.den} for
    |alpha| <= 2, the zero ones dropped."""
    return {alpha: num for alpha in _ORDER2
            if (num := partial_numerators(poly.num, alpha))}


def _jet_numerators(derivs: dict, rows) -> tuple:
    """(value, gradient, Hessian) of a polynomial at the point of `rows`
    (`power_table`), as numerators over its den * scale, from its
    `_derivative_numerators`."""
    at = {alpha: table_sum(num, rows) for alpha, num in derivs.items()}
    return (at.get(_ZERO, 0), [at.get(e, 0) for e in _UNIT],
            [[at.get(e, 0) for e in row] for row in _PAIR])


def _quotient_numerators(num: tuple, den: tuple, k: int) -> tuple:
    """The 2-jet of n/d as numerators over dn D^3, from the jets of n and d
    as numerators over dn * scale and k * scale, D being d's value
    numerator.  The quotient rule with every term brought over D^3:
      value     n D^2 k,
      gradient  G_i D k,                      G_i = n_i D - n D_i,
      Hessian   ((n_ij D - n D_ij) D - G_i D_j - G_j D_i) k;
    the table's scale cancels."""
    n, ng, nh = num
    D, dg, dh = den
    G = [ng[i] * D - n * dg[i] for i in range(3)]
    return (n * D * D * k, [x * D * k for x in G],
            [[((nh[i][j] * D - n * dh[i][j]) * D - G[i] * dg[j]
               - G[j] * dg[i]) * k for j in range(3)] for i in range(3)])


def _pushed_coefficients(delta_at: Dict[tuple, int],
                         jets: Sequence[tuple]) -> Dict[tuple, int]:
    """Numerators P_alpha of the coefficients C_alpha with
    Delta (f o W) = sum_alpha C_alpha (d^alpha f)(W) at one point, by the
    chain rule.

    `delta_at` maps each derivative index of Delta to its coefficient's
    numerator over one E; `jets` are the 2-jets of w1, w2, w3 there,
    component a's as numerators over J_a.  A term d_i d_j of Delta gives
    delta W_a,ij to C_{e_a} and delta W_a,i W_b,j to C_{e_a+e_b} for every
    ordered pair (a, b), so all the terms of C_alpha share the denominator
    E prod_{a in alpha} J_a, and C_alpha = P_alpha over it.
    """
    C: Dict[tuple, int] = {}

    def add(alpha, x):
        C[alpha] = C.get(alpha, 0) + x

    for derivs, c in delta_at.items():
        pos = [i for i, k in enumerate(derivs) for _ in range(k)]
        if not pos:
            add(_ZERO, c)
        elif len(pos) == 1:
            i, = pos
            for a, (_, g, _) in enumerate(jets):
                if g[i]:
                    add(_UNIT[a], c * g[i])
        elif len(pos) == 2:
            i, j = pos
            for a, (_, ga, ha) in enumerate(jets):
                if ha[i][j]:
                    add(_UNIT[a], c * ha[i][j])
                if not ga[i]:
                    continue
                cg = c * ga[i]
                for b, (_, gb, _) in enumerate(jets):
                    if gb[j]:
                        add(_PAIR[a][b], cg * gb[j])
        else:
            raise ValueError("push-forward carries derivatives up to order 2")
    return C


def verify_pushforward(p: Params, seed: int = 0, n_points: int = 50) -> bool:
    """Exact two-route check of the w-coordinate form of Delta_rad.

    At each random rational point rho, with W = (w1, w2, w3):
    Route 1 pushes Delta_rad (rho-space) onto w-derivatives by the chain
    rule, from its coefficients at rho and the exact 2-jets (value,
    gradient, Hessian) of w1, w2, w3 at rho, giving Delta (f o W) =
    sum_alpha C_alpha (d^alpha f)(W(rho)).
    Route 2 evaluates the w-space operator's coefficients O_alpha at W(rho).
    Two second-order operators are equal exactly when their coefficients
    are, so this is True iff C_alpha == O_alpha for every alpha at every
    point, a zero coefficient counting as an absent one.  At least
    MIN_POINTS points are required.  Both routes run on integers (module
    docstring); a w-space denominator that vanishes at W(rho) raises
    ZeroDivisionError.
    """
    if n_points < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} sample points, "
                         f"got {n_points}")
    wmap = build_wmap(p)
    delta = build_radial_laplacian(Case.GENERAL3, p)
    opham = build_opham(p)
    maps = (wmap.w1, wmap.w2, wmap.w3.num, wmap.w3.den)
    _, _, tops = over_one_den(
        dict(enumerate([*maps, wmap.denominator_root, *delta.terms.values()])),
        3)
    jet_nums = [_derivative_numerators(q) for q in maps]
    e, delta_nums, _ = over_one_den(delta.terms, 3)
    _, _, wtops = over_one_den(
        {(alpha, k): q for alpha, c in opham.terms.items()
         for k, q in enumerate((c.num, c.den))}, 3)
    # O_alpha = (P / (c.num.den * ws)) / (Q / (c.den.den * ws))
    wterms = [(alpha, c.num.num, c.den.num, c.num.den, c.den.den)
              for alpha, c in opham.terms.items()]
    dn, dd = wmap.w3.num.den, wmap.w3.den.den
    rng = random.Random(seed)
    checked = guard = 0
    while checked < n_points:     # each point is checked as it is drawn
        # rho23 is never 0 (random_rational draws from 1..1000), so with
        # the root nonzero w3 = rho23 w2 / den vanishes only with w2
        pt = random_point(RHO3, rng)
        rows, scale = power_table([(pt[v].numerator, pt[v].denominator)
                                   for v in RHO3], tops)
        if not table_sum(wmap.denominator_root.num, rows) \
                or not table_sum(wmap.w2.num, rows):
            guard += 1
            if guard > MAX_RESAMPLES:
                raise SingularSampleError(
                    "cannot sample away from singular locus")
            continue
        checked += 1
        w1, w2, num, den = (_jet_numerators(derivs, rows)
                            for derivs in jet_nums)
        jets = (w1, w2, _quotient_numerators(num, den, dd))
        J = (maps[0].den * scale, maps[1].den * scale, dn * den[0] ** 3)
        C = _pushed_coefficients(
            {key: table_sum(q, rows) for key, q in delta_nums.items()}, jets)
        wrows, _ = power_table([(w1[0], J[0]), (w2[0], J[1]),
                                (num[0] * dd, dn * den[0])], wtops)
        O = {}
        for alpha, pn, qn, pd, qd in wterms:
            Q = table_sum(qn, wrows)
            if not Q:
                raise ZeroDivisionError(
                    "denominator vanishes at sample point")
            O[alpha] = (table_sum(pn, wrows) * qd, Q * pd)
        for alpha in C.keys() | O.keys():
            P, Q = O.get(alpha, (0, 1))
            # C_alpha = C[alpha] / (e scale prod_{a in alpha} J_a)
            over = e * scale
            for a, k in enumerate(alpha):
                over *= J[a] ** k
            if C.get(alpha, 0) * Q != P * over:
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
        return {"c1": ratio_str(self.c1), "c2": ratio_str(self.c2),
                "sqrt_numerator": ratio_str(self.sqrt_numerator),
                "sqrt_denominator_base":
                    ratio_str(self.sqrt_denominator_base),
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
            raise PotentialMismatch(
                "potential identity fails at zero sqrt term")
    else:
        for cand in (1, -1):
            if base + cand * (num / s ** 2) * wmap.denominator_root == target:
                sign = cand
                break
        if sign is None:
            raise PotentialMismatch(
                "potential identity fails for both signs")
    return PotentialInW(c1, c2, num, Fraction(s), num == 0, sign)
