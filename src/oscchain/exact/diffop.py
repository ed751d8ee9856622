"""Linear differential operators with polynomial (or rational) coefficients.

Canonical form is normal-ordered: every term is a coefficient on the left
times a mixed partial-derivative multi-index, so equality of operators is
syntactic equality of the canonical term maps.  Coefficients are MultiPoly
(integer numerators over one denominator) or RationalFn.

Composition is Leibniz's rule,

    P d^alpha o Q d^beta = sum_{gamma <= alpha} C(alpha, gamma)
                           P (d^gamma Q) d^(alpha-gamma+beta),

and a commutator leaves out gamma = 0, whose terms P Q d^(alpha+beta)
cancel.  Gauge conjugation by g = exp(q) is composition with the
multiplication by g, divided by g:

    g^-1 P d^alpha g = P sum_{gamma <= alpha} C(alpha, gamma) Y_gamma
                       d^(alpha-gamma),

with Y_gamma = g^-1 d^gamma g the polynomials Y_0 = 1 and
Y_(gamma+e_i) = d_i Y_gamma + (d_i q) Y_gamma, each formed once per call.
It is the one way a Gaussian enters an operator: (A psi) / psi is
A.gauge_conjugate(psi) applied to 1.

All three run on one Leibniz kernel, `_leibniz_into`, which reads the
d^gamma Q from a table (`_partials`, or the Y_gamma).  It is a one-pass
integer kernel, as is `phase.poisson_bracket`.  The coefficients of each
operand are brought to one common denominator, each exponent tuple is
packed into one int (`poly.packing`, field widths from the operands'
`tops()`), the integer products of all pairs of terms are summed into one
map per output derivative, and each output coefficient is normalised once;
no MultiPoly is built per product or partial sum.  The kernel reads
integer numerators, so it takes polynomial coefficients only; `apply`
takes rational ones too, and only a polynomial as its argument.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, gt, sub
from typing import Mapping, Sequence, Union

from .gaussian import GaussFn
from .poly import (MultiPoly, RationalFn, VariableMismatch, over_one_den,
                   pack, packing, partial_numerators, unpacked)

Coeffable = Union[int, Fraction, MultiPoly, RationalFn]


def _binom_multi(alpha, gamma) -> int:
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out


def _sub_multi_indices(alpha):
    """All gamma with 0 <= gamma <= alpha componentwise, gamma = 0 first."""
    idx = [()]
    for a in alpha:
        idx = [g + (k,) for g in idx for k in range(a + 1)]
    return idx


def _partials(b: dict, a: dict, skip_leading: bool, shifts) -> dict:
    """{gamma: [(beta, packed numerators of d^gamma Q)]} for the terms
    Q d^beta of B ({beta: numerators}), over the gammas `_leibniz_into`
    reads for A; a d^gamma Q with gamma beyond Q's tops is not formed."""
    tops = {beta: [max(col) for col in zip(*Q)] for beta, Q in b.items()}
    return {gamma: [(beta, [(pack(e, shifts), c) for e, c
                            in partial_numerators(Q, gamma).items()])
                    for beta, Q in b.items()
                    if not any(map(gt, gamma, tops[beta]))]
            for gamma in {g for alpha in a
                          for g in _sub_multi_indices(alpha)[skip_leading:]}}


def _leibniz_into(a: dict, partials: Mapping, out: dict, sign: int,
                  skip_leading: bool, shifts) -> None:
    """Add the numerators of sign * (A o B) to out ({derivs: {packed
    exponent: numerator}}), for A as {alpha: numerators} from
    `over_one_den` and B as the table `partials` of its d^gamma Q (from
    `_partials`, or a gauge conjugation's Y_gamma); skip_leading leaves
    out gamma = 0 (module docstring).  The factors that multiply one P in
    one derivative term are summed before the products with P's terms."""
    for alpha, P in a.items():
        factors: dict = {}
        for gamma in _sub_multi_indices(alpha)[skip_leading:]:
            scale = sign * _binom_multi(alpha, gamma)
            lowered = tuple(map(sub, alpha, gamma))
            for beta, dQ in partials[gamma]:
                S = factors.setdefault(tuple(map(add, lowered, beta)), {})
                for e, c in dQ:
                    S[e] = S.get(e, 0) + scale * c
        P = [(pack(e, shifts), c) for e, c in P.items()]
        for derivs, S in factors.items():
            acc = out.setdefault(derivs, {})
            S = [(e, c) for e, c in S.items() if c]
            for e1, c1 in P:
                for e2, c2 in S:
                    k = e1 + e2
                    acc[k] = acc.get(k, 0) + c1 * c2


class DiffOp:
    """Sum of MultiPoly-coefficient derivative terms over a shared variable list."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple, Coeffable] | None = None):
        self.variables = tuple(variables)
        n = len(self.variables)
        clean: dict = {}
        if terms:
            for derivs, coeff in terms.items():
                derivs = tuple(derivs)
                if len(derivs) != n:
                    raise ValueError(f"derivative index {derivs} has wrong length")
                if isinstance(coeff, (int, Fraction)):
                    coeff = MultiPoly.const(self.variables, coeff)
                elif coeff.variables != self.variables:
                    raise VariableMismatch(
                        f"{coeff.variables} vs {self.variables}")
                if derivs in clean:
                    coeff = clean[derivs] + coeff
                if not coeff.is_zero():
                    clean[derivs] = coeff
                elif derivs in clean:
                    del clean[derivs]
        self.terms = clean

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "DiffOp":
        """The operator with `terms` ({derivs: coefficient}, derivs already
        of the right length) in normal form: zero coefficients dropped."""
        out = cls.__new__(cls)
        out.variables = variables
        out.terms = {d: c for d, c in terms.items() if not c.is_zero()}
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def identity(cls, variables):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): 1})

    @classmethod
    def mul_by(cls, poly: MultiPoly):
        """Multiplication operator f -> poly * f."""
        return cls(poly.variables, {(0,) * len(poly.variables): poly})

    # -- algebra -----------------------------------------------------------
    def _check(self, other: "DiffOp"):
        if self.variables != other.variables:
            raise VariableMismatch(f"{self.variables} vs {other.variables}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        terms = dict(self.terms)
        for derivs, coeff in other.terms.items():
            terms[derivs] = terms[derivs] + coeff if derivs in terms \
                else coeff
        return self._make(self.variables, terms)

    def __neg__(self):
        return self._make(self.variables,
                          {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction, MultiPoly)):
            return NotImplemented
        return self._make(self.variables,
                          {d: c * scalar for d, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    # -- action ------------------------------------------------------------
    def apply(self, f: MultiPoly):
        """Apply to a polynomial; the result is a MultiPoly, or a RationalFn
        where the coefficients are.  A Gaussian factor enters an operator
        only by `gauge_conjugate`."""
        if not isinstance(f, MultiPoly):
            raise TypeError(f"cannot apply DiffOp to {type(f).__name__}")
        if f.variables != self.variables:
            raise VariableMismatch(f"{f.variables} vs {self.variables}")
        out = None
        for derivs, coeff in self.terms.items():
            g = f
            for v, k in zip(self.variables, derivs):
                for _ in range(k):
                    g = g.diff(v)
            if g.is_zero():
                continue
            term = coeff * g
            out = term if out is None else out + term
        return f * 0 if out is None else out

    def _products(self, other: "DiffOp", commutator: bool) -> "DiffOp":
        """self o other, or with `commutator` self o other - other o self,
        over the product of the two operands' common denominators."""
        self._check(other)
        n = len(self.variables)
        da, a, ta = over_one_den(self.terms, n)
        db, b, tb = over_one_den(other.terms, n)
        fields = packing(list(map(add, ta, tb)))
        shifts = fields[0]
        out: dict = {}
        _leibniz_into(a, _partials(b, a, commutator, shifts), out, 1,
                      commutator, shifts)
        if commutator:
            _leibniz_into(b, _partials(a, b, True, shifts), out, -1, True,
                          shifts)
        return self._from_numerators(out, da * db, fields)

    def _from_numerators(self, out: dict, den: int, fields) -> "DiffOp":
        """The operator over self's variables with the numerators `out`
        ({derivs: {packed exponent: numerator}}) over den."""
        return self._make(self.variables, {
            derivs: MultiPoly._make(self.variables, unpacked(num, fields),
                                    den)
            for derivs, num in out.items()})

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self o other in canonical form."""
        return self._products(other, False)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """self o other - other o self, without the gamma = 0 Leibniz terms,
        which cancel because polynomial multiplication commutes."""
        return self._products(other, True)

    def order(self) -> int:
        if not self.terms:
            return 0
        return max(sum(d) for d in self.terms)

    def principal_symbol(self, momentum_names: Sequence[str]) -> MultiPoly:
        """Top-order coefficients with each derivative replaced by a momentum.

        Returns a polynomial over variables + momentum_names.
        """
        top = self.order()
        variables = self.variables + tuple(momentum_names)
        out = MultiPoly.zero(variables)
        for derivs, coeff in self.terms.items():
            if sum(derivs) != top:
                continue
            term = coeff.extend(variables)
            for name, k in zip(momentum_names, derivs):
                if k:
                    term = term * MultiPoly.var(variables, name) ** k
            out = out + term
        return out

    def subs_values(self, point) -> "DiffOp":
        """Substitute numeric values for parameter-like variables.

        Substituted variables must not carry derivatives in any term.
        """
        keep = tuple(v for v in self.variables if v not in point)
        idx = [self.variables.index(v) for v in keep]
        terms = {}
        for derivs, coeff in self.terms.items():
            for i, v in enumerate(self.variables):
                if v in point and derivs[i]:
                    raise ValueError(f"cannot substitute differentiated variable {v}")
            new_coeff = coeff.subs_values(point)
            d = tuple(derivs[i] for i in idx)
            terms[d] = terms[d] + new_coeff if d in terms else new_coeff
        return self._make(keep, terms)

    # -- gauge rotation ----------------------------------------------------
    def gauge_conjugate(self, g: GaussFn, shift=0) -> "DiffOp":
        """Exact g^-1 (self - shift) g for the Gaussian g, shift a number or
        a polynomial: the composition self o g on the Leibniz kernel, with
        Y_gamma in place of d^gamma g and the output seeded with -shift
        (module docstring); the result has polynomial coefficients."""
        variables, n = self.variables, len(self.variables)
        if g.exponent.variables != variables:
            raise VariableMismatch(f"{g.exponent.variables} vs {variables}")
        if not isinstance(shift, MultiPoly):
            shift = MultiPoly.const(variables, shift)
        elif shift.variables != variables:
            raise VariableMismatch(f"{shift.variables} vs {variables}")
        grad = [g.exponent.diff(v) for v in variables]
        zero = (0,) * n
        Y = {zero: MultiPoly.const(variables, 1)}
        for alpha in self.terms:
            for gamma in _sub_multi_indices(alpha):
                if gamma in Y:
                    continue
                i = next(i for i, k in enumerate(gamma) if k)
                prev = Y[gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]]
                Y[gamma] = prev.diff(variables[i]) + grad[i] * prev
        dp, nums, tp = over_one_den(self.terms, n)
        dy, ys, ty = over_one_den(Y, n)
        den = lcm(dp * dy, shift.den)
        m, scale = den // (dp * dy), den // shift.den
        fields = packing([max(x + y, z) for x, y, z
                          in zip(tp, ty, shift.tops())])
        shifts = fields[0]
        partials = {gamma: [(zero, [(pack(e, shifts), c * m)
                                    for e, c in num.items()])]
                    for gamma, num in ys.items()}
        out = {zero: {pack(e, shifts): -c * scale
                      for e, c in shift.num.items()}}
        _leibniz_into(nums, partials, out, 1, False, shifts)
        return self._from_numerators(out, den, fields)
