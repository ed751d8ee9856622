"""Separation of variables for the free 3-body radial operator.

The coordinates (w1, w2, w3) turn Delta_rad into a three-term form whose
w3 part is shared between two one-variable operators; the oscillator
potential becomes w3-independent exactly on the minimal superintegrability
locus.

The push-forward is verified by exact evaluation at random rational points
(the closed-form push-forward would be a rational-function expression
swell for no gain).  At each point rho the chain rule turns Delta_rad's
coefficients and the 2-jets (value, gradient, Hessian) of w1, w2, w3 into
the coefficients of Delta_rad on w-derivatives; through every test
function these are compared with the w-space operator's coefficients at
W(rho).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .exact import (DiffOp, MultiPoly, RationalFn, SingularSampleError,
                    ratio_str, random_point)
from .model import RHO3, Case, Params, build_radial_laplacian, nu_coefficients

W3 = ("w1", "w2", "w3")

MAX_RESAMPLES = 100
MIN_POINTS = 50         # fewest sample points verify_pushforward accepts


class PotentialMismatch(RuntimeError):
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

def default_test_functions():
    """Twelve polynomials of degree <= 2 in (w1, w2, w3)."""
    w1 = MultiPoly.var(W3, "w1")
    w2 = MultiPoly.var(W3, "w2")
    w3 = MultiPoly.var(W3, "w3")
    return [MultiPoly.const(W3, 1), w1, w2, w3,
            w1 ** 2, w2 ** 2, w3 ** 2,
            w1 * w2, w1 * w3, w2 * w3,
            w1 * w2 + w3 ** 2, w1 - 2 * w2 + 3 * w3]


_ZERO = (0, 0, 0)
_UNIT = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
_PAIR = tuple(tuple(tuple(x + y for x, y in zip(ea, eb)) for eb in _UNIT)
              for ea in _UNIT)          # e_a + e_b
_ORDER2 = (_ZERO,) + _UNIT + tuple(
    _PAIR[a][b] for a in range(3) for b in range(a, 3))   # |alpha| <= 2


def _fold_constants(polys: Dict[tuple, MultiPoly]) -> dict:
    """`polys` with each constant polynomial held as its Fraction value
    and the zero ones dropped."""
    out = {}
    for key, q in polys.items():
        if q.is_constant():
            q = q.constant_value()
            if not q:
                continue
        out[key] = q
    return out


def _eval_at(table: dict, pt) -> Dict[tuple, Fraction]:
    """Evaluate a _fold_constants table at pt."""
    return {key: q if isinstance(q, Fraction) else q.eval(pt)
            for key, q in table.items()}


def _derivative_polys(poly: MultiPoly, indices) -> dict:
    """d^alpha poly for alpha in `indices`, constants folded."""
    return _fold_constants({alpha: poly.partial(alpha) for alpha in indices})


def _jet(derivs: dict, pt) -> tuple:
    """(value, gradient, Hessian) at pt from _derivative_polys(poly, _ORDER2)."""
    at = _eval_at(derivs, pt)
    zero = Fraction(0)
    return (at.get(_ZERO, zero),
            tuple(at.get(e, zero) for e in _UNIT),
            tuple(tuple(at.get(e, zero) for e in row) for row in _PAIR))


def _quotient_jet(num: tuple, den: tuple) -> tuple:
    """2-jet of num/den from the 2-jets of num and den (quotient rule)."""
    n, ng, nh = num
    d, dg, dh = den
    q = n / d
    g = tuple((ng[i] - q * dg[i]) / d for i in range(3))
    h = tuple(tuple((nh[i][j] - g[i] * dg[j] - g[j] * dg[i] - q * dh[i][j])
                    / d for j in range(3)) for i in range(3))
    return q, g, h


def _pushed_coefficients(delta_at: Dict[tuple, Fraction],
                         jets: Sequence[tuple]) -> Dict[tuple, Fraction]:
    """Coefficients C_alpha with Delta (f o W) = sum_alpha C_alpha (d^alpha f)(W)
    at one point, by the chain rule.

    `delta_at` maps each derivative index of Delta to its coefficient at
    the point; `jets` are the 2-jets of w1, w2, w3 there.  A term
    d_i d_j of Delta gives delta W_a,ij to C_{e_a} and delta W_a,i W_b,j
    to C_{e_a+e_b} for every ordered pair (a, b).
    """
    C: Dict[tuple, Fraction] = {}

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


def verify_pushforward(p: Params, d: Optional[int] = None, seed: int = 0,
                       n_points: int = 50, test_functions=None) -> bool:
    """Exact two-route check of the w-coordinate form of Delta_rad.

    At each random rational point rho, with W = (w1, w2, w3):
    Route 1 pushes Delta_rad (rho-space) onto w-derivatives by the chain
    rule, from its coefficients at rho and the exact 2-jets (value,
    gradient, Hessian) of w1, w2, w3 at rho, giving Delta (f o W) =
    sum_alpha C_alpha (d^alpha f)(W(rho)).
    Route 2 evaluates the w-space operator's coefficients O_alpha at W(rho).
    For every test function f (any degree), the two sums
    sum_alpha C_alpha (d^alpha f)(W(rho)) and sum_alpha O_alpha (d^alpha f)(W(rho))
    are compared exactly.  True iff every (function, point) pair agrees.
    At least MIN_POINTS points are required.
    """
    if n_points < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} sample points, "
                         f"got {n_points}")
    d = p.d if d is None else d
    from dataclasses import replace
    p = replace(p, d=d)
    wmap = build_wmap(p)
    delta = build_radial_laplacian(Case.GENERAL3, p)
    opham = build_opham(p)
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
                raise SingularSampleError(
                    "cannot sample away from singular locus")
            continue
        points.append(pt)
    jet_polys = [_derivative_polys(q, _ORDER2) for q in
                 (wmap.w1, wmap.w2, wmap.w3.num, wmap.w3.den)]
    delta_polys = _fold_constants(delta.terms)
    needed = set(_ORDER2) | set(opham.terms)
    fn_polys = [_derivative_polys(f, needed) for f in fns]
    for pt in points:
        w1, w2, num, den = (_jet(polys, pt) for polys in jet_polys)
        jets = (w1, w2, _quotient_jet(num, den))
        C = _pushed_coefficients(_eval_at(delta_polys, pt), jets)
        wpt = dict(zip(W3, (jet[0] for jet in jets)))
        O = {alpha: c.eval(wpt) for alpha, c in opham.terms.items()}
        used = C.keys() | O.keys()
        for polys in fn_polys:
            at = _eval_at({alpha: q for alpha, q in polys.items()
                           if alpha in used}, wpt)
            lhs = sum(c * at[alpha] for alpha, c in C.items() if alpha in at)
            rhs = sum(c * at[alpha] for alpha, c in O.items() if alpha in at)
            if lhs != rhs:
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
