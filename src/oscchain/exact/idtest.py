"""Probabilistic identity testing by exact evaluation at random rational points.

Schwartz-Zippel style: two distinct rational functions agree on a random
rational point with vanishingly small probability, and with exact
arithmetic there are no false negatives.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .poly import MultiPoly, RationalFn

MAX_RETRIES = 100
MIN_POINTS = 25


class SingularSampleError(RuntimeError):
    """Raised when resampling cannot avoid denominator zeros."""


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 1000), rng.randint(1, 1000))


def random_point(variables: Sequence[str], rng: random.Random) -> dict:
    return {v: random_rational(rng) for v in variables}


def identity_test(f, g, points=None, seed: int = 0, n_points: int = 25) -> bool:
    """True iff f and g agree exactly at every sample point.

    f, g: MultiPoly or RationalFn over the same variables.  Without
    `points`, n_points >= MIN_POINTS random points are drawn.  Points
    hitting a denominator zero are resampled (at most MAX_RETRIES times
    overall).
    """
    if points is None and n_points < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} sample points, "
                         f"got {n_points}")
    if isinstance(f, MultiPoly):
        f = RationalFn(f)
    if isinstance(g, MultiPoly):
        g = RationalFn(g)
    if f.variables != g.variables:
        raise ValueError(f"variable mismatch: {f.variables} vs {g.variables}")
    rng = random.Random(seed)
    if points is None:
        points = [random_point(f.variables, rng) for _ in range(n_points)]
    retries = 0
    for point in points:
        while True:
            try:
                if f.eval(point) != g.eval(point):
                    return False
                break
            except ZeroDivisionError:
                retries += 1
                if retries > MAX_RETRIES:
                    raise SingularSampleError(
                        "exceeded retry budget avoiding denominator zeros")
                point = random_point(f.variables, rng)
    return True
