"""Finite-dimensional spectral engine on invariant polynomial spaces.

The gauged operators of the solvable cases preserve the space P_N of
polynomials of total degree <= N and never raise the total degree, so their
matrices are block upper-triangular in the degree grading and the spectrum
is the union of the diagonal-block spectra.

Harmonic cases: the levels from the degree-1 block.  In every harmonic
case the gauged operator h has no zeroth-order term and every coefficient
of total degree <= 1 (`is_gl3_form`).  Write h = D + L, where
D = sum_i l_i d_i with l_i the linear part of the coefficient of d_i: D is
in the gl(3) part of sl(4) (the rho_i d_j), and L, the constant first-order
and the higher-order terms, lowers the degree.  So the diagonal block of
degree n is D on the homogeneous polynomials of degree n, Sym^n V with V
the span of the variables.  D is a derivation: on a product of n linear
forms it acts by the degree-1 block A on each factor in turn.  Over the
algebraic closure take a basis xi of V in which A is upper triangular with
diagonal lambda: then D xi^alpha = (alpha . lambda) xi^alpha plus
monomials in which a factor xi_j became an xi_i with i < j, so D is
triangular on the xi^alpha and the levels of block n, with their algebraic
multiplicities, are {alpha . lambda : |alpha| = n}.  When A is
diagonalizable (always, when its eigenvalues are distinct), the xi^alpha
are eigenvectors, D is diagonalizable on Sym^n V, and the eigenspace of
each level has the dimension of its multiplicity; otherwise that dimension
is read off the rank of the block.  A has size <= 3, and its char poly is
factored over Q once.  With rational roots lambda_i and one irreducible
quadratic u +/- sqrt(delta), alpha . lambda = c + (n2 - n3) sqrt(delta)
where c = sum n_i lambda_i + (n2 + n3) u: alpha with n2 = n3 give the
rational level c, and the others the pair c +/- k sqrt(delta), k =
|n2 - n3|, the roots of (x - c)^2 - k^2 delta, which is irreducible over Q
and isolated like any factor below.  When delta < 0 that pair is complex
and the report ends in `DefectiveBlock`, as on the generic path.

Generic path: an irreducible cubic A, and any matrix not assembled from an
operator of that form (the QES operators, hand-built matrices), factor
each block's characteristic polynomial over Q.

Everything here is exact: rational eigenvalues are reported as Fractions,
irrational ones as sympy's isolating intervals refined by exact
sign-change bisection.  The matrix lives in one form from assembly to
eigenvectors: a sparse sympy `DomainMatrix` over QQ, written row by row
from the images of the basis monomials (only nonzero entries are stored).
Diagonal blocks, shifted blocks and the triangular solves are slices of
it.  The eigenvector of a rational level that is simple across the
grading is the null vector of its own block, back-substituted through the
blocks below it.  sympy is imported inside the functions that build
matrices, so importing this module does not load it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
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
    """Monomials of total degree <= N, graded-lex ordered; one shared
    (frozen) basis per (variables, N)."""
    return _enumerate_basis(tuple(variables), N)


@lru_cache(maxsize=64)
def _enumerate_basis(variables: Tuple[str, ...], N: int) -> MonomialBasis:
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


def is_gl3_form(op: DiffOp) -> bool:
    """True when every term of `op` differentiates and has a polynomial
    coefficient of total degree <= 1, so that op = D + L with D in gl(3)
    and L lowering the degree (module docstring)."""
    zero = (0,) * len(op.variables)
    return all(derivs != zero and isinstance(c, MultiPoly)
               and c.total_degree() <= 1 for derivs, c in op.terms.items())


@dataclass(frozen=True)
class OpMatrix:
    basis: MonomialBasis
    matrix: object  # sparse sympy DomainMatrix over QQ, rows x columns
    # assembled from an operator of gl(3) form: block n is the degree-1
    # block acting on Sym^n
    gl3_form: bool = False

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
    return OpMatrix(basis, DomainMatrix(rows, (basis.size, basis.size), QQ),
                    is_gl3_form(op))


# ---------------------------------------------------------------------------
# spectrum extraction

@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Eigenfunction:
    eigenvalue: Fraction
    coeffs: Tuple[Fraction, ...]  # coordinates in the monomial basis

    def as_poly(self, basis: MonomialBasis) -> MultiPoly:
        return MultiPoly(basis.variables,
                         {m: c for m, c in zip(basis.monomials, self.coeffs)
                          if c != 0})


@dataclass(frozen=True, slots=True)
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
    eigenspace dims for repeated rational eigenvalues, from its char
    poly: the generic path."""
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


def _gl3_block_levels(M: OpMatrix):
    """The levels of each diagonal block of a matrix of gl(3) form, from
    the char poly of its degree-1 block A (module docstring): a function
    (block, degree) -> [Eigenvalue], ordered as `_block_eigenvalues`
    orders them.  None when A has an irreducible cubic factor."""
    slices = M.basis.degree_slices()
    _, start, stop = slices[1]
    A = M.matrix[start:stop, start:stop]
    lams: List[Fraction] = []     # the rational roots of A
    pair = None                   # (u, delta) of a root pair u +/- sqrt(delta)
    for f, mult in linalg.factor_over_q(linalg.char_poly(A)):
        if len(f) == 2:           # f[0] t + f[1]
            lams += [Fraction(-f[1], f[0])] * mult
        elif len(f) == 3:         # a t^2 + b t + e
            a, b, e = f
            pair = Fraction(-b, 2 * a), Fraction(b * b - 4 * a * e, 4 * a * a)
        else:
            return None
    diagonalizable = pair is not None or all(
        stop - start - _shifted(A, lam).rank() == lams.count(lam)
        for lam in set(lams))

    def levels(block, degree: int) -> List[Eigenvalue]:
        _, lo, hi = slices[degree]
        rational: Counter = Counter()
        pairs: Counter = Counter()   # (c, k): c +/- k sqrt(delta)
        for alpha in M.basis.monomials[lo:hi]:
            c = sum((n * lam for n, lam in zip(alpha, lams)), Fraction(0))
            if pair is None:
                rational[c] += 1
                continue
            n2, n3 = alpha[-2:]
            c += (n2 + n3) * pair[0]
            if n2 == n3:
                rational[c] += 1
            elif n2 > n3:
                pairs[c, n2 - n3] += 1
        out = []
        for value, mult in sorted(rational.items()):
            dim = None
            if mult > 1:
                dim = mult if diagonalizable \
                    else block.shape[0] - _shifted(block, value).rank()
            out.append(Eigenvalue(value, None, mult, degree, dim))
        irrational = [(iv, mult) for (c, k), mult in pairs.items()
                      for iv in linalg.isolate_irreducible(
                          [1, -2 * c, c * c - k * k * pair[1]])]
        irrational.sort(key=lambda t: t[0][0])
        out += [Eigenvalue(None, iv, mult, degree, None)
                for iv, mult in irrational]
        return out

    return levels


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
    zero = Fraction(0)   # shared by every zero coordinate
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
        v += [zero] * (M.size - stop)
        out.append(Eigenfunction(ev.value,
                                 tuple(c / lead if c else zero for c in v)))
    return out


def _spectrum_report(M: OpMatrix, slices, case, params, ground_energy,
                     want_eigenfunctions: bool,
                     block_levels=_block_eigenvalues) -> SpectrumReport:
    """Spectrum of a matrix block upper-triangular over `slices`: the
    union of the diagonal-block spectra, each from
    `block_levels(block, degree)`."""
    evs: List[Eigenvalue] = []
    for degree, start, stop in slices:
        evs.extend(block_levels(M.matrix[start:stop, start:stop], degree))
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
    """Spectrum of a graded-triangular matrix, block by block: from the
    degree-1 block when `M.gl3_form` and that block has no irreducible
    cubic factor, else from each block's char poly (module docstring).

    Eigenfunctions are reconstructed by back-substitution for rational
    eigenvalues that are simple across the whole grading.
    """
    if not M.is_graded_triangular():
        raise ValueError("matrix is not block-triangular in the grading")
    levels = _gl3_block_levels(M) \
        if M.gl3_form and M.basis.degree_cap >= 1 else None
    return _spectrum_report(M, M.basis.degree_slices(), case, params,
                            ground_energy, want_eigenfunctions,
                            levels or _block_eigenvalues)


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
