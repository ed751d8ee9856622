"""Floating-point oracles and physics outputs.

A finite-difference radial eigensolver cross-checks the exact 2-body
algebraic energies; Born-Oppenheimer routines quantify the approximation
error against the exactly known ground energy; potential-curve tables are
emitted exactly (the curve is linear).  numpy is imported inside the
functions that use it, so commands without a grid or a fit never load it.
The grid oracle calls LAPACK's dstebz through scipy's f2py module
`scipy/linalg/_flapack`, which `_flapack` loads by itself: importing the
`scipy.linalg` package would cost more than the solve.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import VerificationError
from .exact import to_float
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


class GridOracleFailure(VerificationError):
    """LAPACK returned a nonzero info for the grid oracle's eigenproblem."""


def potential_coeffs(p: Params, case: Case) -> List[float]:
    """Coefficients of V as a polynomial in rho = r^2, constant term first."""
    V = build_potential(case, p)
    return [to_float(V.coeff((j,)), "a coefficient of the potential")
            for j in range(V.total_degree() + 1)]


def default_rmax(p: Params) -> float:
    """Radius where the 2-body ground-state Gaussian tail drops below
    1e-12, at mu = 1/2."""
    mu_om = to_float(p.omega / 2, "mu omega")
    # exp(-mu om r^2) < 1e-12  =>  r^2 > 12 ln10 / (mu om); pad by 40%
    return 1.4 * math.sqrt(12 * math.log(10.0) / mu_om)


@functools.cache
def _flapack():
    """scipy's f2py LAPACK module, loaded from scipy's install directory
    without running the `scipy` or `scipy.linalg` package init."""
    linalg = [os.path.join(path, "linalg") for path in
              importlib.util.find_spec("scipy").submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", linalg)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tridiagonal_lowest(diag, off, k: int):
    """The k lowest eigenvalues, ascending, of the symmetric tridiagonal
    matrix with diagonal `diag` and off-diagonal `off`: the dstebz call
    (range 'I', il = 1, iu = k, abstol = 0, order 'E') and the checks of
    `scipy.linalg.eigh_tridiagonal(..., eigvals_only=True, select="i")`,
    so the floats are the same.  An overflow of D(j) D(j-1) (its splitting
    test) or E(j)^2 (its pivot bound) is a ValueError too."""
    import numpy as np
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    with np.errstate(over="ignore"):
        products = np.concatenate((diag[1:] * diag[:-1], off * off))
    if not np.isfinite(products).all():
        raise ValueError("a product that dstebz forms overflows")
    if not 1 <= k <= len(diag):
        raise ValueError("select_range out of bounds")
    m, w, _, _, info = _flapack().dstebz(diag, off, 2, 0.0, 0.0, 1, k, 0.0,
                                         "E")
    if info:
        raise GridOracleFailure(f"LAPACK dstebz info {info}")
    return w[:m]


def _grid_levels(potential: Sequence[float], d: int, grid: Grid1D, k: int):
    """The k lowest levels of `fd_radial_eigen`'s stencil on one grid."""
    import numpy as np

    h = grid.spacing
    with np.errstate(all="ignore"):     # checked finite below
        r = np.arange(1, grid.npoints - 1) * h if d == 3 \
            else (np.arange(grid.npoints - 1) + 0.5) * h
        rho = r * r
        V = np.zeros_like(r)
        for c in reversed(potential):
            V = V * rho + c
        if d == 3:
            diag = 2.0 / h ** 2 + V
            off = np.full(len(r) - 1, -1.0 / h ** 2)
        else:
            faces = (np.arange(grid.npoints) * h) ** (d - 1)
            faces[0] = 0.0              # zero flux at r = 0
            w = r ** (d - 1)
            diag = (faces[:-1] + faces[1:]) / (h * h * w) + V
            off = -faces[1:-1] / (h * h * np.sqrt(w[:-1] * w[1:]))
    return _tridiagonal_lowest(diag, off, k)


def fd_radial_eigen(potential: Sequence[float], d: int, grid: Grid1D,
                    k: int = 1) -> List[float]:
    """k lowest eigenvalues of -r^(1-d) (r^(d-1) psi')' + V(r^2) psi, the
    radial operator at mu = 1/2 (the gauge convention), with a Dirichlet
    wall at r_max; second-order stencils, Richardson-extrapolated over
    grids (h, h/2).  One rule: cell-centred finite volumes, centres
    (i + 1/2) h, flux weight r^(d-1) at the faces, zero flux at r = 0 (at
    d = 1 that selects the even states, functions of rho = r^2),
    symmetrised by r^((d-1)/2) at the centres.  Its one exception is
    d = 3, whose node stencil -u'' + V u = E u, u = r psi, u(0) = 0, keeps
    the floats it has always given.  Each grid's levels come from
    `_grid_levels`; a stencil that overflows on the grid is a
    ValueError."""
    potential = list(potential)
    if not potential or potential[-1] <= 0:
        raise NonConfiningPotential("leading potential coefficient must be > 0")
    fine = grid.halved()    # a grid over the cap is refused before any solve
    return list((4.0 * _grid_levels(potential, d, fine, k)
                 - _grid_levels(potential, d, grid, k)) / 3.0)[:k]


def fd_two_body_energies(p: Params, case: Case, k: int = 1,
                         npoints: int = 4000) -> List[float]:
    """Grid oracle for the 2-body cases, which are mu = 1/2 throughout,
    as is `fd_radial_eigen`'s radial operator."""
    validate_case(case, p)
    coeffs = potential_coeffs(p, case)
    grid = Grid1D(default_rmax(p), npoints)
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

    def fl(x):
        return to_float(x, "a Born-Oppenheimer term")

    exact_e0 = fl(ground_state(Case.GENERAL3, p).energy_value)
    if p.a <= 0 or p.b <= 0:
        raise ValueError("need a, b > 0")
    a, b, om, d = fl(p.a), fl(p.b), fl(p.omega), fl(p.d)
    abm = fl(p.a * p.b * p.m1)      # one rounding, so an underflow is caught
    mu = fl(reduced_masses(p)[2])
    nu23 = fl(nu_coefficients(p)[2])
    nuclear_e0 = om * d * (a + b) \
        + om * d * math.sqrt((abm / mu) * (1 + nu23 / abm))
    gap = nuclear_e0 - exact_e0
    c1f = c2f = None
    if p.c != 0:
        c1, c2 = bo_series_coefficients(p)
        c1f, c2f = fl(c1), fl(c2)
    return BOReport(exact_e0, nuclear_e0, gap, c1f, c2f)


DEFAULT_FIT_GRID = tuple(Fraction(i, 500) for i in range(1, 11))  # (0, 0.02]


def bo_series_fit(p: Params, m1_grid: Sequence[Fraction] = DEFAULT_FIT_GRID
                  ) -> Tuple[float, float]:
    """Leading coefficients of gap(m1) = c1 m1 + c2 m1^2 + ... by fit.

    A quartic (no constant term) least-squares model absorbs the cubic and
    quartic tail so c1, c2 are clean on grids up to m1 ~ 0.05.  The gaps
    are taken at the exact grid values; floats enter only the design
    matrix.
    """
    import numpy as np

    xs = [to_float(m, "an m1 grid value") for m in m1_grid]
    if len(xs) < 6:
        raise ValueError("need at least 6 grid points")
    if any(x <= 0 or x > 0.1 for x in xs):
        raise ValueError("m1 grid must lie in (0, 0.1]")
    gaps = [bo_energies(replace(p, m1=m)).gap for m in m1_grid]
    A = np.array([[x ** j for j in range(1, 5)] for x in xs])
    sol, *_ = np.linalg.lstsq(A, np.array(gaps), rcond=None)
    return float(sol[0]), float(sol[1])


def bo_report_with_fit(p: Params, m1_grid: Sequence[Fraction]) -> BOReport:
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
        lines.append(f"{to_float(r, 'a curve value'):.15g},"
                     f"{to_float(e, 'a curve value'):.15g}")
    return "\n".join(lines) + "\n"
