"""Finite-dimensional spectral engine on invariant polynomial spaces.

The gauged operators of the solvable cases preserve the space P_N of
polynomials of total degree <= N and never raise the total degree, so their
matrices are block upper-triangular in the degree grading and the spectrum
is the union of the diagonal-block spectra.

The matrix lives in one form from assembly to eigenvectors: a sparse sympy
`DomainMatrix` over QQ, written row by row from the images of the basis
monomials (only nonzero entries are stored).  Diagonal blocks, shifted
blocks and the triangular solves are slices of it.  Everything here is
exact: each block's characteristic polynomial is factored over Q; rational
eigenvalues are reported as Fractions, irrational ones as sympy's isolating
intervals refined by exact sign-change bisection.  The eigenvector of a
rational level that is simple across the grading is the null vector of its
own block, back-substituted through the blocks below it.  sympy is imported
inside the functions that build matrices, so importing this module does not
load it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .exact import DiffOp, MultiPoly, ratio_str
from .model import (Case, CaseError, Params, build_h_algebraic, ground_state,
                    validate_case)


class InvariantSubspaceViolation(RuntimeError):
    def __init__(self, monomial, overflow):
        self.monomial = monomial
        self.overflow = overflow
        super().__init__(
            f"operator leaves the span on {monomial!r}; overflow {overflow!r}")


class DefectiveBlock(RuntimeError):
    """Fewer real eigenvalues than the basis size; `.report` keeps the
    spectrum that was found."""

    def __init__(self, message, report):
        self.report = report
        super().__init__(message)


@dataclass(frozen=True)
class MonomialBasis:
    variables: Tuple[str, ...]
    degree_cap: int
    monomials: Tuple[Tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.monomials)

    def index(self, exps: Tuple[int, ...]) -> int:
        return self.monomials.index(exps)

    def degree_slices(self):
        """[(degree, start, stop), ...] for the graded ordering."""
        out = []
        start = 0
        for n in range(self.degree_cap + 1):
            size = comb(n + len(self.variables) - 1, len(self.variables) - 1)
            out.append((n, start, start + size))
            start += size
        return out


def enumerate_basis(variables: Sequence[str], N: int) -> MonomialBasis:
    """Monomials of total degree <= N, graded-lex ordered."""
    variables = tuple(variables)
    k = len(variables)
    if k not in (1, 2, 3):
        raise ValueError("supported variable counts: 1, 2, 3")
    if N < 0:
        raise ValueError("degree cap must be nonnegative")
    monos = []
    for n in range(N + 1):
        level = []

        def fill(prefix, rem, slots):
            if slots == 1:
                level.append(prefix + (rem,))
                return
            for e in range(rem, -1, -1):
                fill(prefix + (e,), rem - e, slots - 1)

        fill((), n, k)
        monos.extend(level)
    basis = MonomialBasis(variables, N, tuple(monos))
    assert basis.size == comb(N + k, k)
    return basis


@dataclass(frozen=True)
class OpMatrix:
    basis: MonomialBasis
    matrix: object  # sparse sympy DomainMatrix over QQ, rows x columns

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def entries(self) -> tuple:
        """The dense rows, as tuples of Fraction."""
        return tuple(tuple(Fraction(x.numerator, x.denominator) for x in row)
                     for row in self.matrix.to_list())

    def is_graded_triangular(self) -> bool:
        degree = [sum(m) for m in self.basis.monomials]
        return all(degree[i] <= degree[j]
                   for i, row in self.matrix.to_dod().items() for j in row)


def assemble_matrix(op: DiffOp, basis: MonomialBasis) -> OpMatrix:
    """Matrix of `op` on the span of `basis`: column j is the image of
    monomial j.  Only nonzero entries are stored, so a zero row is absent
    from the row dict."""
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    if op.variables != basis.variables:
        raise ValueError(
            f"operator variables {op.variables} != basis {basis.variables}")
    index = {m: i for i, m in enumerate(basis.monomials)}
    rows: dict = {}
    for j, mono in enumerate(basis.monomials):
        image = op.apply(MultiPoly(basis.variables, {mono: 1}))
        for exps, c in image.num.items():
            i = index.get(exps)
            if i is None:
                raise InvariantSubspaceViolation(
                    MultiPoly(basis.variables, {mono: 1}),
                    MultiPoly(basis.variables,
                              {exps: Fraction(c, image.den)}))
            rows.setdefault(i, {})[j] = QQ(c, image.den)
    return OpMatrix(basis, DomainMatrix(rows, (basis.size, basis.size), QQ))


# ---------------------------------------------------------------------------
# spectrum extraction

@dataclass(frozen=True)
class Eigenvalue:
    """Exact value when rational, else a certified isolating interval."""
    value: Optional[Fraction]
    interval: Optional[Tuple[Fraction, Fraction]]
    multiplicity: int
    degree: int
    eigenspace_dim: Optional[int] = None

    def approx(self) -> float:
        if self.value is not None:
            return float(self.value)
        lo, hi = self.interval
        return float((lo + hi) / 2)

    def to_json(self) -> dict:
        out = {"multiplicity": self.multiplicity, "degree": self.degree}
        if self.value is not None:
            out["value"] = ratio_str(self.value)
        else:
            out["interval"] = [ratio_str(x) for x in self.interval]
        if self.eigenspace_dim is not None:
            out["eigenspace_dim"] = self.eigenspace_dim
        return out


@dataclass(frozen=True)
class Eigenfunction:
    eigenvalue: Fraction
    coeffs: Tuple[Fraction, ...]  # coordinates in the monomial basis

    def as_poly(self, basis: MonomialBasis) -> MultiPoly:
        return MultiPoly(basis.variables,
                         {m: c for m, c in zip(basis.monomials, self.coeffs)
                          if c != 0})


@dataclass(frozen=True)
class SpectrumReport:
    case: Optional[Case]
    params: Optional[Params]
    basis: MonomialBasis
    gauged: Tuple[Eigenvalue, ...]
    ground_energy: Optional[Fraction]
    eigenfunctions: Tuple[Eigenfunction, ...] = ()

    @property
    def physical(self) -> Tuple[Eigenvalue, ...]:
        if self.ground_energy is None:
            return self.gauged
        e0 = self.ground_energy
        return tuple(replace(ev, value=ev.value + e0)
                     if ev.value is not None else
                     replace(ev, interval=(ev.interval[0] + e0,
                                           ev.interval[1] + e0))
                     for ev in self.gauged)

    def rational_gauged(self) -> list:
        out = []
        for ev in self.gauged:
            if ev.value is not None:
                out.extend([ev.value] * ev.multiplicity)
        return sorted(out)

    def to_json(self) -> dict:
        out = {
            "case": self.case.value if self.case else None,
            "N": self.basis.degree_cap,
            "basis_size": self.basis.size,
            "gauged": [ev.to_json() for ev in self.gauged],
            "physical": [ev.to_json() for ev in self.physical],
            "eigenfunctions": [
                {"eigenvalue": ratio_str(ef.eigenvalue),
                 "coeffs": [ratio_str(c) for c in ef.coeffs]}
                for ef in self.eigenfunctions],
        }
        if self.ground_energy is not None:
            out["ground_energy"] = ratio_str(self.ground_energy)
        return out


def _shifted(A, lam: Fraction):
    """A - lam I for a square DomainMatrix over QQ."""
    return A - A.eye(A.shape[0], A.domain) * A.domain(lam)


def _block_eigenvalues(block, degree: int):
    """Eigenvalues of one exact diagonal block (a DomainMatrix), with
    eigenspace dims for repeated rational eigenvalues."""
    n = block.shape[0]
    if n == 0:
        return []
    cp = linalg.char_poly(block)
    rational, irrational = linalg.real_roots_exact(cp)
    out = []
    for root, mult in rational:
        dim = n - _shifted(block, root).rank() if mult > 1 else None
        out.append(Eigenvalue(root, None, mult, degree, dim))
    for (lo, hi), mult in irrational:
        out.append(Eigenvalue(None, (lo, hi), mult, degree, None))
    return out


def _eigenfunctions(M: OpMatrix, slices, evs) -> List[Eigenfunction]:
    """Eigenvectors of the rational levels that are simple across `slices`.

    `M` is block upper-triangular over `slices` ([(degree, start, stop)]).
    For a level lam of the block of degree n, the eigenvector vanishes on
    the blocks above n; its part in block n spans the null space of
    B_n - lam; each lower block k is back-substituted from
    (B_k - lam) v_k = -sum_{j>k} M_kj v_j, which is invertible because lam
    is simple.  The first nonzero coordinate is normalised to 1.
    """
    counts: dict = {}
    for ev in evs:
        if ev.value is not None:
            counts[ev.value] = counts.get(ev.value, 0) + ev.multiplicity
    at = {degree: k for k, (degree, _, _) in enumerate(slices)}
    out = []
    for ev in evs:
        if ev.value is None or counts[ev.value] != 1:
            continue
        top = at[ev.degree]
        _, start, stop = slices[top]
        S = _shifted(M.matrix[:stop, :stop], ev.value)
        x = S[start:stop, start:stop].nullspace().transpose()
        for _, lo, hi in reversed(slices[:top]):
            x = S[lo:hi, lo:hi].lu_solve(-(S[lo:hi, hi:stop] * x)).vstack(x)
        v = [Fraction(c.numerator, c.denominator) for c in x.to_list_flat()]
        lead = next(c for c in v if c != 0)
        v += [Fraction(0)] * (M.size - stop)
        out.append(Eigenfunction(ev.value, tuple(c / lead for c in v)))
    return out


def _spectrum_report(M: OpMatrix, slices, case, params, ground_energy,
                     want_eigenfunctions: bool) -> SpectrumReport:
    """Spectrum of a matrix block upper-triangular over `slices`: the
    union of the diagonal-block spectra."""
    evs: List[Eigenvalue] = []
    for degree, start, stop in slices:
        evs.extend(_block_eigenvalues(M.matrix[start:stop, start:stop],
                                      degree))
    eigenfunctions = _eigenfunctions(M, slices, evs) \
        if want_eigenfunctions else []
    evs.sort(key=lambda e: (e.approx(), e.degree))
    report = SpectrumReport(case, params, M.basis, tuple(evs),
                            ground_energy, tuple(eigenfunctions))
    total = sum(ev.multiplicity for ev in evs)
    if total != M.size:
        raise DefectiveBlock(
            f"eigenvalue count {total} != basis size {M.size} "
            "(complex eigenvalues in a diagonal block)", report)
    return report


def eigenvalues_graded(M: OpMatrix, case: Optional[Case] = None,
                       params: Optional[Params] = None,
                       ground_energy: Optional[Fraction] = None,
                       want_eigenfunctions: bool = True) -> SpectrumReport:
    """Spectrum of a graded-triangular matrix, block by block.

    Eigenfunctions are reconstructed by back-substitution for rational
    eigenvalues that are simple across the whole grading.
    """
    if not M.is_graded_triangular():
        raise ValueError("matrix is not block-triangular in the grading")
    return _spectrum_report(M, M.basis.degree_slices(), case, params,
                            ground_energy, want_eigenfunctions)


# ---------------------------------------------------------------------------
# case-level drivers

def case_operator(case: Case, p: Params) -> DiffOp:
    """Gauged operator restricted to its dynamical variables.

    For the molecular case rho23 must be supplied in params and is
    substituted, leaving an operator in (rho12, rho13).
    """
    h = build_h_algebraic(case, p)
    if case is Case.MOLECULAR3:
        if p.rho23 is None:
            raise CaseError("molecular spectra need a numeric rho23")
        h = h.subs_values({"rho23": p.rho23})
    return h


def case_ground_energy(case: Case, p: Params) -> Fraction:
    gs = ground_state(case, p)
    if case is Case.MOLECULAR3:
        return gs.energy.eval({"rho12": 0, "rho13": 0, "rho23": p.rho23})
    return gs.energy_value


def spectrum(case: Case, p: Params, N: int,
             want_eigenfunctions: bool = True) -> SpectrumReport:
    """End-to-end exact spectrum of the gauged operator on P_N."""
    validate_case(case, p)
    h = case_operator(case, p)
    basis = enumerate_basis(h.variables, N)
    M = assemble_matrix(h, basis)
    return eigenvalues_graded(M, case, p, case_ground_energy(case, p),
                              want_eigenfunctions)


def qes_2body_block(p: Params) -> SpectrumReport:
    """Exact (N+1)x(N+1) spectral problem of the sextic 2-body operator.

    The operator raises the degree, so the whole matrix is one block.
    """
    validate_case(Case.TWO_BODY_QES, p)
    h = build_h_algebraic(Case.TWO_BODY_QES, p)
    M = assemble_matrix(h, enumerate_basis(h.variables, p.N))
    return _spectrum_report(M, [(p.N, 0, M.size)], Case.TWO_BODY_QES, p,
                            case_ground_energy(Case.TWO_BODY_QES, p), True)


# ---------------------------------------------------------------------------
# Laguerre verification for the exactly-solvable 2-body case

def laguerre_polynomials(nmax: int, alpha: Fraction, scale: Fraction):
    """L_n^(alpha)(scale * rho) for n <= nmax, exact three-term recurrence."""
    var = ("rho",)
    x = scale * MultiPoly.var(var, "rho")
    one = MultiPoly.const(var, 1)
    polys = [one]
    if nmax >= 1:
        polys.append(MultiPoly.const(var, 1 + alpha) - x)
    for n in range(1, nmax):
        nxt = ((2 * n + 1 + alpha) * one - x) * polys[n] \
            - (n + alpha) * polys[n - 1]
        polys.append(nxt * Fraction(1, n + 1))
    return polys


def laguerre_verify(p: Params, nmax: int) -> bool:
    """Exactly-solvable 2-body eigenfunctions are scaled Laguerre polynomials.

    Checks apply(h, L_n) = 4*omega*n * L_n for all n <= nmax and that the
    eigenfunctions of `spectrum` on P_nmax match the recurrence up to
    scale.  Returns False on the first failing n.
    """
    h = build_h_algebraic(Case.TWO_BODY_ES, p)
    alpha = Fraction(p.d, 2) - 1
    lags = laguerre_polynomials(nmax, alpha, p.omega)
    for n, phi in enumerate(lags):
        if h.apply(phi) != (4 * p.omega * n) * phi:
            return False
    report = spectrum(Case.TWO_BODY_ES, p, nmax)
    by_val = {ef.eigenvalue: ef.as_poly(report.basis)
              for ef in report.eigenfunctions}
    for n, phi in enumerate(lags):
        vec = by_val.get(4 * p.omega * n)
        if vec is None:
            return False
        # proportionality: cross-multiply leading coefficients
        lead_phi = phi.coeff((n,))
        lead_vec = vec.coeff((n,))
        if lead_vec == 0 or vec * lead_phi != phi * lead_vec:
            return False
    return True
