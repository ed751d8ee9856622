"""Random rational sample points for exact evaluation checks.

A nonzero rational function vanishes at a random rational point with
vanishingly small probability (Schwartz-Zippel), so exact evaluation at a
few such points checks an identity; the push-forward in `sepvar` draws its
points here.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .. import VerificationError


class SingularSampleError(VerificationError):
    """Raised when resampling cannot avoid denominator zeros."""


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 1000), rng.randint(1, 1000))


def random_point(variables: Sequence[str], rng: random.Random) -> dict:
    return {v: random_rational(rng) for v in variables}
