"""Gaussian factors exp(q(x)) with deg q <= 2.

A GaussFn holds only its exponent.  It enters an operator in one way,
`DiffOp.gauge_conjugate`, which turns A into g^-1 A g; (A psi) / psi is
then that operator applied to 1, so no product rule on p exp(q) is kept.
"""
from __future__ import annotations

from .poly import MultiPoly


class GaussFn:
    """exp(exponent), exponent of total degree <= 2."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: MultiPoly):
        if exponent.total_degree() > 2:
            raise ValueError("Gaussian exponent must have degree <= 2")
        self.exponent = exponent
