"""Linear differential operators with polynomial (or rational) coefficients.

Canonical form is normal-ordered: every term is a coefficient on the left
times a mixed partial-derivative multi-index.  Composition re-normal-orders
via the Leibniz expansion, so equality of operators is syntactic equality
of the canonical term maps.  Coefficients are MultiPoly (integer numerators
over one denominator) or RationalFn, and the expansion is MultiPoly
arithmetic; a commutator leaves out the leading Leibniz terms, which
cancel.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

from .gaussian import GaussFn
from .poly import MultiPoly, RationalFn, VariableMismatch

Coeffable = Union[int, Fraction, MultiPoly, RationalFn]


def _binom_multi(alpha, gamma) -> int:
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out


def _sub_multi_indices(alpha):
    """All gamma with 0 <= gamma <= alpha componentwise."""
    idx = [()]
    for a in alpha:
        idx = [g + (k,) for g in idx for k in range(a + 1)]
    return idx


def _leibniz_into(a: dict, b: dict, out: dict, sign: int,
                  skip_leading: bool) -> None:
    """Add the terms of sign * (A o B) to out, for operators A and B given
    by their term maps {derivs: MultiPoly}.

    P d^alpha (Q d^beta f) = sum_gamma C(alpha,gamma) P (d^gamma Q)
    d^(alpha-gamma+beta) f; skip_leading leaves out gamma = 0, the term
    P Q d^(alpha+beta) that cancels in a commutator.  Each d^gamma Q is
    formed once, and the factors that multiply one P in one derivative
    term are summed before the product.
    """
    derived: dict = {}
    for alpha, P in a.items():
        gammas = _sub_multi_indices(alpha)   # gammas[0] is gamma = 0
        if skip_leading:
            gammas = gammas[1:]
        factors: dict = {}
        for gamma in gammas:
            scale = sign * _binom_multi(alpha, gamma)
            for beta, Q in b.items():
                if (beta, gamma) not in derived:
                    derived[beta, gamma] = Q.partial(gamma)
                dQ = derived[beta, gamma]
                if dQ.is_zero():
                    continue
                if scale != 1:
                    dQ = dQ * scale
                derivs = tuple(x - g + y for x, g, y in zip(alpha, gamma, beta))
                factors[derivs] = factors[derivs] + dQ if derivs in factors \
                    else dQ
        for derivs, S in factors.items():
            term = P * S
            out[derivs] = out[derivs] + term if derivs in out else term


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
    def partial(cls, variables, name: str, order: int = 1):
        variables = tuple(variables)
        i = variables.index(name)
        derivs = tuple(order if j == i else 0 for j in range(len(variables)))
        return cls(variables, {derivs: 1})

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

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for derivs in sorted(self.terms, key=lambda d: (sum(d), d)):
            ds = "".join(f" d_{v}^{k}" if k > 1 else f" d_{v}"
                         for v, k in zip(self.variables, derivs) if k)
            parts.append(f"[{self.terms[derivs]!r}]{ds}")
        return " + ".join(parts)

    # -- action ------------------------------------------------------------
    def apply(self, f):
        """Apply to a MultiPoly, GaussFn, or RationalFn; the result is of
        the same kind, or a RationalFn where the coefficients are."""
        if not isinstance(f, (MultiPoly, GaussFn, RationalFn)):
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
        """self o other, or with `commutator` self o other - other o self."""
        self._check(other)
        terms: dict = {}
        _leibniz_into(self.terms, other.terms, terms, 1, commutator)
        if commutator:
            _leibniz_into(other.terms, self.terms, terms, -1, True)
        return self._make(self.variables, terms)

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

    def extend(self, variables: Sequence[str]) -> "DiffOp":
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.variables]
        n = len(variables)
        terms = {}
        for derivs, coeff in self.terms.items():
            d = [0] * n
            for p, k in zip(pos, derivs):
                d[p] = k
            terms[tuple(d)] = coeff.extend(variables)
        return self._make(variables, terms)

    # -- gauge rotation ----------------------------------------------------
    def gauge_conjugate(self, g: GaussFn, shift=0) -> "DiffOp":
        """Exact g^-1 (self - shift) g for unit-prefactor Gaussian g.

        Conjugation sends each d_i to d_i + (d_i q) where q is the exponent
        of g; the result has polynomial coefficients again.
        """
        if not (g.prefactor.is_constant()
                and g.prefactor.constant_value() == 1):
            raise ValueError("gauge factor must have prefactor 1")
        if g.variables != self.variables:
            raise VariableMismatch(f"{g.variables} vs {self.variables}")
        q = g.exponent
        shifted = [DiffOp(self.variables,
                          {tuple(1 if j == i else 0
                                 for j in range(len(self.variables))): 1,
                           (0,) * len(self.variables): q.diff(v)})
                   for i, v in enumerate(self.variables)]
        out = DiffOp.zero(self.variables)
        for alpha, P in self.terms.items():
            term = DiffOp.identity(self.variables)
            for i, k in enumerate(alpha):
                for _ in range(k):
                    term = shifted[i].compose(term)
            out = out + DiffOp.mul_by(P).compose(term)
        if isinstance(shift, MultiPoly):
            out = out - DiffOp.mul_by(shift)
        elif shift != 0:
            out = out - shift * DiffOp.identity(self.variables)
        return out
