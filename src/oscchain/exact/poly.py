"""Exact multivariate polynomials and rational functions over Fraction.

Terms are stored sparsely as a map from exponent tuples to nonzero
Fraction coefficients; the variable list is fixed per polynomial.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class VariableMismatch(ValueError):
    pass


class MultiPoly:
    """Polynomial in named variables with Fraction coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple, Scalar] | None = None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            n = len(self.variables)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError(f"exponent {exps} has wrong length")
                c = _frac(c)
                if c != 0:
                    clean[exps] = clean.get(exps, Fraction(0)) + c
                    if clean[exps] == 0:
                        del clean[exps]
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def const(cls, variables, c: Scalar):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _frac(c)})

    @classmethod
    def var(cls, variables, name: str):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    # -- helpers -----------------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise VariableMismatch(
                f"{self.variables} vs {other.variables}")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def coeff(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        out = MultiPoly(self.variables)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly(self.variables)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            out = MultiPoly(self.variables)
            if c != 0:
                out.terms = {e: k * c for e, k in self.terms.items()}
            return out
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = MultiPoly(self.variables)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus / evaluation ---------------------------------------------
    def diff(self, name: str) -> "MultiPoly":
        i = self.variables.index(name)
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            k = e[i]
            e[i] = k - 1
            e = tuple(e)
            terms[e] = terms.get(e, Fraction(0)) + c * k
        out = MultiPoly(self.variables)
        out.terms = {e: c for e, c in terms.items() if c != 0}
        return out

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        vals = [_frac(point[v]) for v in self.variables]
        total = Fraction(0)
        for exps, c in self.terms.items():
            prod = c
            for x, e in zip(vals, exps):
                if e:
                    prod *= x ** e
            total += prod
        return total

    def subs_values(self, point: Mapping[str, Scalar]) -> "MultiPoly":
        """Substitute numeric values for a subset of variables."""
        keep = [v for v in self.variables if v not in point]
        idx = [self.variables.index(v) for v in keep]
        out_terms: dict = {}
        for exps, c in self.terms.items():
            prod = c
            for i, v in enumerate(self.variables):
                if v in point and exps[i]:
                    prod *= _frac(point[v]) ** exps[i]
            e = tuple(exps[i] for i in idx)
            s = out_terms.get(e, Fraction(0)) + prod
            if s == 0:
                out_terms.pop(e, None)
            else:
                out_terms[e] = s
        out = MultiPoly(keep)
        out.terms = out_terms
        return out

    def rename(self, mapping: Mapping[str, str], order: Sequence[str] | None = None):
        """Relabel variables; `order` fixes the output variable list."""
        new_names = [mapping.get(v, v) for v in self.variables]
        if order is None:
            order = sorted(new_names)
        order = tuple(order)
        perm = [new_names.index(v) for v in order]
        out = MultiPoly(order)
        out.terms = {tuple(exps[p] for p in perm): c
                     for exps, c in self.terms.items()}
        return out

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a larger variable list (superset of current)."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.variables]
        n = len(variables)
        out = MultiPoly(variables)
        terms = {}
        for exps, c in self.terms.items():
            e = [0] * n
            for p, k in zip(pos, exps):
                e[p] = k
            terms[tuple(e)] = c
        out.terms = terms
        return out

    # -- presentation ------------------------------------------------------
    def sorted_terms(self):
        """Graded-lex ordered (exps, coeff) pairs, low degree first."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.variables, exps) if e)
            if mono:
                parts.append(f"({c})*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "terms": [{"coeff": f"{c.numerator}/{c.denominator}",
                       "powers": list(exps)}
                      for exps, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        variables = data["variables"]
        terms = {tuple(t["powers"]): Fraction(t["coeff"])
                 for t in data["terms"]}
        return cls(variables, terms)


# -- sums of products ---------------------------------------------------------

def _diff_terms(terms: dict, d: tuple) -> dict:
    """Mixed partial derivative d^d of a term map."""
    steps = [(i, m) for i, m in enumerate(d) if m]
    if not steps:
        return terms
    out = {}
    for e, c in terms.items():
        e = list(e)
        for i, m in steps:
            if e[i] < m:
                break
            c *= perm(e[i], m)
            e[i] -= m
        else:
            out[tuple(e)] = c
    return out


def sums_of_products(variables: Sequence[str], polys: Sequence[MultiPoly],
                     sums: Mapping) -> dict:
    """{key: MultiPoly} with each value the sum of scale * d^di polys[i] *
    d^dj polys[j] over the (i, di, j, dj, scale) of sums[key], where d^di
    is the mixed partial derivative with exponent tuple di.

    Operator products and Poisson brackets are such sums.  They run on
    integer term maps over one common denominator, so the inner loops do
    integer arithmetic and each result coefficient becomes a Fraction once.
    """
    den = lcm(*(c.denominator for q in polys for c in q.terms.values()))
    ints = [{e: c.numerator * (den // c.denominator)
             for e, c in q.terms.items()} for q in polys]
    derived: dict = {}

    def deriv(i, d):
        if (i, d) not in derived:
            derived[i, d] = _diff_terms(ints[i], d)
        return derived[i, d]

    out = {}
    for key, products in sums.items():
        acc: dict = {}
        for i, di, j, dj, scale in products:
            q = deriv(j, dj)
            for e1, c1 in deriv(i, di).items():
                c1 *= scale
                for e2, c2 in q.items():
                    e = tuple([x + y for x, y in zip(e1, e2)])
                    acc[e] = acc.get(e, 0) + c1 * c2
        p = MultiPoly(variables)
        p.terms = {e: Fraction(c, den * den) for e, c in acc.items() if c}
        out[key] = p
    return out


class RationalFn:
    """Quotient of two MultiPoly with nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.variables, 1)
        if num.variables != den.variables:
            raise VariableMismatch(f"{num.variables} vs {den.variables}")
        if den.is_zero():
            raise ZeroDivisionError("denominator is identically zero")
        self.num = num
        self.den = den

    @property
    def variables(self):
        return self.num.variables

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            other = RationalFn(other)
        if isinstance(other, (int, Fraction)):
            other = RationalFn(MultiPoly.const(self.variables, other))
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (MultiPoly, int, Fraction)):
            other = RationalFn(other if isinstance(other, MultiPoly)
                               else MultiPoly.const(self.variables, other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFn(self.num * other, self.den)
        if isinstance(other, MultiPoly):
            other = RationalFn(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFn(self.num, self.den * other)
        if isinstance(other, MultiPoly):
            other = RationalFn(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def diff(self, name: str) -> "RationalFn":
        # quotient rule; denominator squared
        return RationalFn(self.num.diff(name) * self.den
                          - self.num * self.den.diff(name),
                          self.den * self.den)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return self.num.eval(point) / d

    def equals(self, other: "RationalFn") -> bool:
        """Exact equality by cross-multiplication."""
        if isinstance(other, MultiPoly):
            other = RationalFn(other)
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"

