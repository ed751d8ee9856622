"""Exact multivariate polynomials and rational functions over Q.

A polynomial is stored as integer numerators over one positive common
denominator, the form of FLINT's fmpq_poly: a sparse map from exponent
tuples to nonzero integers, and `den`, normalised so that gcd(numerators,
den) = 1.  Equal polynomials therefore have equal representations.  The
arithmetic runs on integers; Fractions appear only at the interfaces
(constructors, `terms`, `coeff`, `eval`).  The variable list is fixed per
polynomial.  Evaluation has one integer evaluator, `power_table` with
`table_sum`: one table of powers at a point serves every polynomial
evaluated there, over one common scale.  The integer kernels above this
module take their common denominators from `over_one_den`, and their
derivatives, as `MultiPoly.partial` does, from `partial_numerators`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, perm
from operator import add, lshift
from typing import Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def ratio_str(x: Optional[Fraction]) -> Optional[str]:
    """x as the JSON string "numerator/denominator"; None stays None."""
    return None if x is None else f"{x.numerator}/{x.denominator}"


def to_float(x: Scalar, what: str) -> float:
    """float(x); a value past the float range, or a nonzero one that
    rounds to 0.0, is bad input, a ValueError that names it as `what`."""
    try:
        out = float(x)
    except OverflowError:
        out = None
    if out is None or (not out and x):
        raise ValueError(f"{what} does not fit a float")
    return out


def _pair(x: Scalar) -> tuple:
    return x.numerator, x.denominator


def power_table(point: Sequence, tops: Sequence[int]) -> tuple:
    """The integer evaluator's table at a point x_i = a_i / b_i, given as
    pairs (a_i, b_i) of ints with b_i != 0 of either sign (None leaves x_i
    free): the rows [a_i^k b_i^(D_i - k) for k = 0..D_i], D_i = tops[i],
    and `scale`, the product of the b_i^D_i.  A polynomial with integer
    numerators n_e over `den` and every e_i <= D_i has the value
    table_sum(n, rows) / (den * scale) there, so one table serves every
    polynomial evaluated at the point, with one scale."""
    rows, scale = [], 1
    for x, top in zip(point, tops):
        if x is None:
            rows.append(None)
            continue
        a, b = x
        pa, pb = [1], [1]
        for _ in range(top):
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * b)
        rows.append([pa[k] * pb[top - k] for k in range(top + 1)])
        scale *= pb[top]
    return rows, scale


def table_sum(num: Mapping[tuple, int], rows) -> int:
    """sum_e n_e prod_i rows[i][e_i]: the numerator, over den * scale, of
    the polynomial with numerators `num` at the point of `power_table`."""
    total = 0
    for exps, c in num.items():
        for row, k in zip(rows, exps):
            c *= row[k]
        total += c
    return total


def packing(tops: Sequence[int]) -> tuple:
    """The fields of a packed exponent: (shifts, masks), one field per
    variable, each wide enough for that variable's entry of `tops`.  The
    exponent tuple e packs to the int sum_i e_i << shifts[i], so adding
    packed ints adds the tuples, while no entry of a sum exceeds its top,
    and a kernel's inner loop adds one int where it would build a tuple."""
    shifts, masks, at = [], [], 0
    for top in tops:
        width = top.bit_length()
        shifts.append(at)
        masks.append((1 << width) - 1)
        at += width
    return shifts, masks


def pack(exps: Iterable[int], shifts: Sequence[int]) -> int:
    return sum(map(lshift, exps, shifts))


def unpacked(num: Mapping[int, int], fields: tuple) -> dict:
    """{exponent tuple: numerator} of the nonzero packed numerators, with
    `fields` from `packing`."""
    shifts, masks = fields
    return {tuple(key >> s & m for s, m in zip(shifts, masks)): c
            for key, c in num.items() if c}


def partial_numerators(num: Mapping[tuple, int], alpha: Sequence[int]
                       ) -> dict:
    """The numerators of d^alpha of the polynomial with numerators `num`,
    over the same denominator, alpha one order per variable; the terms
    d^alpha kills are dropped."""
    steps = [(i, m) for i, m in enumerate(alpha) if m]
    out = {}
    for e, c in num.items():
        e = list(e)
        for i, m in steps:
            if e[i] < m:
                break
            c *= perm(e[i], m)
            e[i] -= m
        else:
            out[tuple(e)] = c
    return out


def over_one_den(polys: Mapping, n: int) -> tuple:
    """(den, numerators, tops) for the polynomials in n variables `polys`
    ({key: MultiPoly}): den the lcm of their denominators, numerators
    {key: {exponent tuple: numerator over den}}, and tops the highest
    exponent of each variable over them all."""
    for q in polys.values():
        if not isinstance(q, MultiPoly):
            raise TypeError(f"needs polynomials, not {type(q).__name__}")
    den = lcm(*(q.den for q in polys.values()))
    nums = {key: {e: c * (den // q.den) for e, c in q.num.items()}
            for key, q in polys.items()}
    tops = [max(col) for col in zip(*(q.tops() for q in polys.values()))] \
        if polys else [0] * n
    return den, nums, tops


class VariableMismatch(ValueError):
    pass


class MultiPoly:
    """Polynomial in named variables with rational coefficients: `num` maps
    exponent tuples to integer numerators over the denominator `den`."""

    __slots__ = ("variables", "num", "den")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple, Scalar] | None = None):
        self.variables = tuple(variables)
        fracs = {}
        if terms:
            n = len(self.variables)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError(f"exponent {exps} has wrong length")
                fracs[exps] = fracs.get(exps, 0) + _frac(c)
        den = lcm(*(c.denominator for c in fracs.values()))
        self._set({e: c.numerator * (den // c.denominator)
                   for e, c in fracs.items()}, den)

    def _set(self, num: dict, den: int) -> None:
        """Store num/den (den > 0) in normal form: no zero numerators, and
        gcd(numerators, den) = 1."""
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        g = gcd(den, *num.values()) if num else den
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, variables: tuple, num: dict, den: int) -> "MultiPoly":
        out = cls.__new__(cls)
        out.variables = variables
        out._set(num, den)
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def const(cls, variables, c: Scalar):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables, name: str):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls._make(variables, {exps: 1}, 1)

    # -- read-only views ---------------------------------------------------
    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction coefficient}, built on each access."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    def coeff(self, exps: Iterable[int]) -> Fraction:
        return Fraction(self.num.get(tuple(exps), 0), self.den)

    # -- helpers -----------------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise VariableMismatch(
                f"{self.variables} vs {other.variables}")

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(any(exps) for exps in self.num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeff((0,) * len(self.variables))

    def total_degree(self) -> int:
        if not self.num:
            return 0
        return max(sum(e) for e in self.num)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        num = {e: c * a for e, c in self.num.items()}
        for e, c in other.num.items():
            num[e] = num.get(e, 0) + c * b
        return MultiPoly._make(self.variables, num, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.variables,
                               {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k, d = other.numerator, other.denominator
            return MultiPoly._make(self.variables,
                                   {e: c * k for e, c in self.num.items()},
                                   self.den * d)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        num: dict = {}
        second = list(other.num.items())
        for e1, c1 in self.num.items():
            for e2, c2 in second:
                e = tuple(map(add, e1, e2))
                num[e] = num.get(e, 0) + c1 * c2
        return MultiPoly._make(self.variables, num, self.den * other.den)

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
        return (self.variables == other.variables and self.den == other.den
                and self.num == other.num)

    # -- calculus / evaluation ---------------------------------------------
    def partial(self, alpha: Sequence[int]) -> "MultiPoly":
        """The mixed partial derivative d^alpha, alpha one order per
        variable."""
        return MultiPoly._make(self.variables,
                               partial_numerators(self.num, alpha), self.den)

    def diff(self, name: str) -> "MultiPoly":
        i = self.variables.index(name)
        return self.partial([int(j == i) for j in range(len(self.variables))])

    def tops(self) -> list:
        """The highest exponent of each variable (0 for the zero
        polynomial): the table size `power_table` needs for it."""
        return [max(col) for col in zip(*self.num)] if self.num \
            else [0] * len(self.variables)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """The value at `point`, on integers (`power_table`): each
        variable's denominator is cleared once, and the result becomes a
        Fraction once."""
        rows, scale = power_table([_pair(point[v]) for v in self.variables],
                                  self.tops())
        return Fraction(table_sum(self.num, rows), self.den * scale)

    def subs_values(self, point: Mapping[str, Scalar]) -> "MultiPoly":
        """Substitute numeric values for a subset of variables."""
        keep = [i for i, v in enumerate(self.variables) if v not in point]
        rows, scale = power_table(
            [_pair(point[v]) if v in point else None
             for v in self.variables], self.tops())
        num: dict = {}
        for exps, c in self.num.items():
            for row, k in zip(rows, exps):
                if row is not None:
                    c *= row[k]
            e = tuple(exps[i] for i in keep)
            num[e] = num.get(e, 0) + c
        return MultiPoly._make(tuple(self.variables[i] for i in keep), num,
                               self.den * scale)

    def rename(self, mapping: Mapping[str, str], order: Sequence[str]):
        """Relabel variables; `order` fixes the output variable list."""
        new_names = [mapping.get(v, v) for v in self.variables]
        order = tuple(order)
        perm = [new_names.index(v) for v in order]
        return MultiPoly._make(order, {tuple(exps[p] for p in perm): c
                                       for exps, c in self.num.items()},
                               self.den)

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a larger variable list (superset of current)."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.variables]
        n = len(variables)
        num = {}
        for exps, c in self.num.items():
            e = [0] * n
            for p, k in zip(pos, exps):
                e[p] = k
            num[tuple(e)] = c
        return MultiPoly._make(variables, num, self.den)

    # -- presentation ------------------------------------------------------
    def __repr__(self):
        """The terms in graded-lex order, low degree first."""
        if not self.num:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items(), key=lambda kv: (
                sum(kv[0]), tuple(-e for e in kv[0]))):
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.variables, exps) if e)
            if mono:
                parts.append(f"({c})*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFn(self.num * other, self.den)
        if isinstance(other, MultiPoly):
            other = RationalFn(other)
        return RationalFn(self.num * other.num, self.den * other.den)

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
