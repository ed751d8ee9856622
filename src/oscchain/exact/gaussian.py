"""Gaussian-weighted functions p(x) * exp(q(x)) with deg q <= 2.

Closed under differentiation and multiplication, which is all the
ground-state manipulations need.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly, VariableMismatch


class GaussFn:
    """prefactor * exp(exponent), exponent of total degree <= 2."""

    __slots__ = ("prefactor", "exponent")

    def __init__(self, prefactor: MultiPoly, exponent: MultiPoly):
        if prefactor.variables != exponent.variables:
            raise VariableMismatch(
                f"{prefactor.variables} vs {exponent.variables}")
        if exponent.total_degree() > 2:
            raise ValueError("Gaussian exponent must have degree <= 2")
        self.prefactor = prefactor
        self.exponent = exponent

    @property
    def variables(self):
        return self.prefactor.variables

    @classmethod
    def from_exponent(cls, exponent: MultiPoly) -> "GaussFn":
        return cls(MultiPoly.const(exponent.variables, 1), exponent)

    def is_zero(self) -> bool:
        return self.prefactor.is_zero()

    def diff(self, name: str) -> "GaussFn":
        p, q = self.prefactor, self.exponent
        return GaussFn(p.diff(name) + p * q.diff(name), q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return GaussFn(self.prefactor * other, self.exponent)
        return GaussFn(self.prefactor * other.prefactor,
                       self.exponent + other.exponent)

    __rmul__ = __mul__

    def __add__(self, other: "GaussFn") -> "GaussFn":
        if self.exponent != other.exponent:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot add GaussFn with different exponents")
        return GaussFn(self.prefactor + other.prefactor, self.exponent)

    def __eq__(self, other):
        if not isinstance(other, GaussFn):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.prefactor == other.prefactor
                and self.exponent == other.exponent)

    def __repr__(self):
        return f"({self.prefactor!r}) * exp({self.exponent!r})"
