"""Floating-point oracles and physics outputs.

A finite-difference radial eigensolver cross-checks the exact 2-body
algebraic energies; Born-Oppenheimer routines quantify the approximation
error against the exactly known ground energy; potential-curve tables are
emitted exactly (the curve is linear).  numpy and scipy are imported
inside the two functions that use them, so commands without a grid or a
fit never load them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .model import Case, Params, build_potential, ground_state, \
    reduced_masses, nu_coefficients, validate_case


MAX_GRID_POINTS = 1_000_000   # most points of a grid, the halved one included


@dataclass(frozen=True)
class Grid1D:
    rmax: float
    npoints: int

    def __post_init__(self):
        if self.npoints < 200:
            raise ValueError("need at least 200 grid points")
        if self.npoints > MAX_GRID_POINTS:
            raise ValueError(f"a grid of {self.npoints} points (halved grids "
                             f"count) is more than {MAX_GRID_POINTS}")
        if self.rmax <= 0:
            raise ValueError("rmax must be positive")

    @property
    def spacing(self) -> float:
        return self.rmax / (self.npoints - 1)

    def halved(self) -> "Grid1D":
        return Grid1D(self.rmax, 2 * (self.npoints - 1) + 1)


class NonConfiningPotential(ValueError):
    pass


def potential_coeffs(p: Params, case: Case) -> List[float]:
    """Coefficients of V as a polynomial in rho = r^2, constant term first."""
    V = build_potential(case, p)
    deg = V.total_degree()
    return [float(V.coeff((j,))) for j in range(deg + 1)]


def default_rmax(p: Params) -> float:
    """Radius where the ground-state Gaussian tail drops below 1e-12."""
    from .model import two_body_mu
    mu = float(two_body_mu(p))
    om = float(p.omega)
    # exp(-mu om r^2) < 1e-12  =>  r^2 > 12 ln10 / (mu om); pad by 40%
    return 1.4 * math.sqrt(12 * math.log(10.0) / (mu * om))


def fd_radial_eigen(potential: Sequence[float], d: int, grid: Grid1D,
                    k: int = 1, richardson: bool = True) -> List[float]:
    """k lowest eigenvalues of -r^(1-d) (r^(d-1) psi')' + V(r^2) psi, the
    radial operator at mu = 1/2 (the gauge convention), with a Dirichlet
    wall at r_max; second-order stencils, Richardson-extrapolated over
    grids (h, h/2).  For d <= 2, cell-centred finite volumes: centres
    (i + 1/2) h, flux weight r^(d-1) at the faces, zero flux at r = 0 (at
    d = 1 that selects the even states, functions of rho = r^2),
    symmetrised by r^((d-1)/2) at the centres.  For d >= 3 the
    r^((d-1)/2) transform leaves -u'' + [V + (d-1)(d-3)/(4 r^2)] u = E u
    with u(0) = 0."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    potential = list(potential)
    if not potential or potential[-1] <= 0:
        raise NonConfiningPotential("leading potential coefficient must be > 0")

    def solve(g: Grid1D):
        h = g.spacing
        r = (np.arange(g.npoints - 1) + 0.5) * h if d <= 2 \
            else np.arange(1, g.npoints - 1) * h
        rho = r * r
        V = np.zeros_like(r)
        for c in reversed(potential):
            V = V * rho + c
        if d <= 2:
            faces = (np.arange(g.npoints) * h) ** (d - 1)
            faces[0] = 0.0                  # zero flux at r = 0
            w = r ** (d - 1)
            diag = (faces[:-1] + faces[1:]) / (h * h * w) + V
            off = -faces[1:-1] / (h * h * np.sqrt(w[:-1] * w[1:]))
        else:
            V = V + (d - 1) * (d - 3) / (4.0 * r * r)
            diag = 2.0 / h ** 2 + V
            off = np.full(len(r) - 1, -1.0 / h ** 2)
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, k - 1))

    if not richardson:
        return list(solve(grid)[:k])
    fine = grid.halved()    # a grid over the cap is refused before any solve
    return list((4.0 * solve(fine) - solve(grid)) / 3.0)[:k]


def fd_two_body_energies(p: Params, case: Case, k: int = 1,
                         npoints: int = 4000) -> List[float]:
    """Grid oracle for the 2-body cases, mu = 1/2 gauge convention.

    `fd_radial_eigen` solves the radial operator at mu = 1/2, so the
    potential is built at m1 = m2 = 1, as is the grid: in the paper's
    parametrisation the 2-body spectra do not depend on mu."""
    validate_case(case, p)
    unit = replace(p, m1=1, m2=1)
    coeffs = potential_coeffs(unit, case)
    grid = Grid1D(default_rmax(unit), npoints)
    return fd_radial_eigen(coeffs, p.d, grid, k)


# ---------------------------------------------------------------------------
# Born-Oppenheimer

@dataclass(frozen=True)
class BOReport:
    exact_e0: float
    nuclear_e0: float
    gap: float
    c1_exact: Optional[float]     # None when c = 0: the series needs c > 0
    c2_exact: Optional[float]
    c1_fit: Optional[float] = None
    c2_fit: Optional[float] = None

    def to_json(self) -> dict:
        return {"exact_e0": self.exact_e0, "nuclear_e0": self.nuclear_e0,
                "gap": self.gap, "c1_exact": self.c1_exact,
                "c2_exact": self.c2_exact, "c1_fit": self.c1_fit,
                "c2_fit": self.c2_fit}


def bo_series_coefficients(p: Params) -> Tuple[Fraction, Fraction]:
    """Exact leading coefficients of gap(m1) = c1 m1 + c2 m1^2 + ...

    For m2 = m3 = M.  Scaling every mass by one factor leaves both
    energies unchanged, so gap(m1; M) = gap(m1 / M; 1), and with
    c1 = omega d (a+b)/2 and c2 = -omega d (a^2 - 14ab + 4ac + b^2 + 4bc)
    / (8c) at M = 1 the coefficients are c1 / M and c2 / M^2.
    """
    a, b, c, om, d, M = p.a, p.b, p.c, p.omega, Fraction(p.d), p.m2
    c1 = om * d * (a + b) / (2 * M)
    if c == 0:
        raise ZeroDivisionError("series second coefficient needs c > 0")
    c2 = -om * d * (a ** 2 - 14 * a * b + 4 * a * c + b ** 2 + 4 * b * c) \
        / (8 * c * M ** 2)
    return c1, c2


def bo_energies(p: Params) -> BOReport:
    """Zero-point nuclear energy, exact energy, and their gap."""
    if p.m2 is None or p.m3 is None or p.m2 != p.m3:
        raise ValueError("Born-Oppenheimer analysis expects finite m2 = m3")
    exact_e0 = float(ground_state(Case.GENERAL3, p).energy_value)
    if p.a <= 0 or p.b <= 0:
        raise ValueError("need a, b > 0")
    m = float(p.m1)
    mu = float(reduced_masses(p)[2])
    nu23 = float(nu_coefficients(p)[2])
    a, b = float(p.a), float(p.b)
    om, d = float(p.omega), float(p.d)
    nuclear_e0 = om * d * (a + b) \
        + om * d * math.sqrt((a * b * m / mu) * (1 + nu23 / (a * b * m)))
    gap = nuclear_e0 - exact_e0
    c1f = c2f = None
    if p.c != 0:
        c1, c2 = bo_series_coefficients(p)
        c1f, c2f = float(c1), float(c2)
    return BOReport(exact_e0, nuclear_e0, gap, c1f, c2f)


DEFAULT_FIT_GRID = tuple(Fraction(i, 500) for i in range(1, 11))  # (0, 0.02]


def bo_series_fit(p: Params, m1_grid: Sequence[float] = DEFAULT_FIT_GRID
                  ) -> Tuple[float, float]:
    """Leading coefficients of gap(m1) = c1 m1 + c2 m1^2 + ... by fit.

    A quartic (no constant term) least-squares model absorbs the cubic and
    quartic tail so c1, c2 are clean on grids up to m1 ~ 0.05.
    """
    import numpy as np

    m1_grid = [float(m) for m in m1_grid]
    if len(m1_grid) < 6:
        raise ValueError("need at least 6 grid points")
    if any(m <= 0 or m > 0.1 for m in m1_grid):
        raise ValueError("m1 grid must lie in (0, 0.1]")
    gaps = []
    for m1 in m1_grid:
        q = replace(p, m1=Fraction(m1).limit_denominator(10 ** 12))
        gaps.append(bo_energies(q).gap)
    A = np.array([[m ** j for j in range(1, 5)] for m in m1_grid])
    sol, *_ = np.linalg.lstsq(A, np.array(gaps), rcond=None)
    return float(sol[0]), float(sol[1])


def bo_report_with_fit(p: Params, m1_grid: Sequence[float]) -> BOReport:
    base = bo_energies(p)
    c1, c2 = bo_series_fit(p, m1_grid)
    return replace(base, c1_fit=c1, c2_fit=c2)


def bo_mu_scan(p: Params, mu_factors: Sequence[float]) -> List[Tuple[float, float]]:
    """(mu, |gap|) rows for m2 = m3 scaled by each factor."""
    rows = []
    for f in mu_factors:
        scale = Fraction(float(f)).limit_denominator(10 ** 9)
        q = replace(p, m2=p.m2 * scale, m3=p.m3 * scale)
        mu = float(reduced_masses(q)[2])
        rows.append((mu, abs(bo_energies(q).gap)))
    return rows


# ---------------------------------------------------------------------------
# potential curves

def potential_curve(p: Params, rho23_values: Sequence[Fraction]
                    ) -> List[Tuple[Fraction, Fraction]]:
    """(rho23, ground energy) rows of the molecular curve, exact and linear:
    the molecular ground energy E0(rho23) of `model.ground_state`."""
    energy = ground_state(Case.MOLECULAR3, p).energy
    return [(r, energy.eval({"rho12": 0, "rho13": 0, "rho23": r}))
            for r in map(Fraction, rho23_values)]


def curve_csv(rows) -> str:
    lines = ["rho23,E0"]
    for r, e in rows:
        lines.append(f"{float(r):.15g},{float(e):.15g}")
    return "\n".join(lines) + "\n"
