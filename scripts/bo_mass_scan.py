#!/usr/bin/env python3
"""Scan the light-mass grid and fit the leading Born-Oppenheimer gap terms.

Prints the gap for each m1 on the grid, the fitted series coefficients,
and the exact closed-form values they should approach, then runs a
reduced-mass scan showing the gap shrink monotonically as the heavy
masses grow.
"""
import argparse
from fractions import Fraction

from oscchain.model import Params
from oscchain import numerics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=Fraction, default=Fraction(1))
    ap.add_argument("--b", type=Fraction, default=Fraction(1))
    ap.add_argument("--c", type=Fraction, default=Fraction(1))
    ap.add_argument("--omega", type=Fraction, default=Fraction(1))
    ap.add_argument("--d", type=int, default=3)
    args = ap.parse_args()

    p = Params(m1=Fraction(1, 100), m2=1, m3=1, a=args.a, b=args.b,
               c=args.c, omega=args.omega, d=args.d)
    print("m1        gap")
    for m1 in numerics.DEFAULT_FIT_GRID:
        from dataclasses import replace
        gap = numerics.bo_energies(replace(p, m1=m1)).gap
        print(f"{float(m1):<9.4g} {gap:.12g}")

    rep = numerics.bo_report_with_fit(p, numerics.DEFAULT_FIT_GRID)
    print(f"\nfit   c1 = {rep.c1_fit:.10g}   c2 = {rep.c2_fit:.10g}")
    if rep.c1_exact is None:
        print("exact c1, c2: the series needs c > 0")
    else:
        print(f"exact c1 = {rep.c1_exact:.10g}   c2 = {rep.c2_exact:.10g}")

    print("\nreduced-mass scan (heavy masses x10^k/4):")
    rows = numerics.bo_mu_scan(p, [10 ** (k / 4) for k in range(13)])
    for mu, gap in rows:
        print(f"mu = {mu:<12.6g} |gap| = {gap:.6e}")


if __name__ == "__main__":
    main()
