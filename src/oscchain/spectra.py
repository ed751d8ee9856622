"""Finite-dimensional spectral engine on invariant polynomial spaces.

The gauged operators of the solvable cases preserve the space P_N of
polynomials of total degree <= N and never raise the total degree, so their
matrices are block upper-triangular in the degree grading and the spectrum
is the union of the diagonal-block spectra.  The 2-body QES operator at
A != 0 raises the degree and leaves P_N invariant only as a whole, so a
matrix that is not graded-triangular is one block of degree N.

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
each level has the dimension of its multiplicity, so the levels of every
block follow from A's roots and the basis alone.  A non-diagonalizable A
takes the per-block path.

A's roots in closed form.  A is k x k, k <= 3.  Put r0 = tr(A)/k,
B = A - r0 I, so tr B = 0, and delta = tr(B^2)/2 = (tr(A^2) - k r0^2)/2.
For k = 1 the root is r0.  For k = 2 the char poly is (x - r0)^2 - delta.
For k = 3 it is y^3 - delta y - det B in y = x - r0, so det B = 0
certifies the roots r0 and r0 +/- sqrt(delta).  A delta that is not a
rational square (delta < 0 included) gives the pair r0 +/- sqrt(delta)
below.  A nonzero square gives distinct rational roots, so A is
diagonalizable.  delta = 0 gives the single root r0, and then A is
diagonalizable exactly when A = r0 I (in the molecular case a = -b makes
A a nonzero nilpotent).  An A of size 3 with det B != 0 takes the
per-block path.

Why the certificate holds in the 3-variable harmonic cases (general3,
equalmass3, isotropic3, atomic3), whatever the signs of the springs.
Consider S-states in relative coordinates: two Jacobi vectors, scaled by
the masses to u1, u2 in R^d so that the kinetic term is the flat
Laplacian (when m1 is infinite, the scaled positions of bodies 2 and 3
relative to body 1).  The squared distances rho12, rho13, rho23 and the
quadratic invariants |u1|^2, u1 . u2, |u2|^2 span the same space V,
which is Sym^2 of the 2-dimensional mode space.  The gauge factor is
Psi0 = exp(-Phi) with Phi linear in the rho, so Phi = (1/2) sum_kl
S_kl u_k . u_l for a real symmetric 2 x 2 matrix S.  Because
(H - E0) Psi0 = 0 as functions (Psi0 need not be normalizable),
conjugating gives h = -Delta + 2 grad Phi . grad.  By
the chain rule in the rho, -Delta contributes only constant first-order
coefficients and second-order terms.  So D = 2 grad Phi . grad, and A is
its matrix on V.  Rotate the mode plane so that S = diag(s1, s2): the
rotation keeps the flat Laplacian.  With W_k = 2 s_k,
D = W1 u1 . grad_1 + W2 u2 . grad_2, which multiplies u_k . u_l by
W_k + W_l: A is Sym^2 B for the frequency map B = diag(W1, W2).  So A
has the eigenbasis |u1|^2, u1 . u2, |u2|^2 with the eigenvalues 2 W1,
W1 + W2 and 2 W2.  It is diagonalizable over R; r0 = W1 + W2 is a root,
which is the certificate; delta = (W1 - W2)^2 >= 0; and A = r0 I when
W1 = W2.  For positive springs W1, W2 are the normal-mode frequencies
2 omega sqrt(mu_k), mu_k the nonzero eigenvalues of M^-1 L_nu (L_nu the
nu-weighted Laplacian of the pairs, M = diag(m)).  delta = 0 is the
paper's maximal superintegrability, and delta a nonzero rational square
is a rational ratio W1:W2 (Jauch and Hill, Phys. Rev. 57 (1940) 641).
In onedim3 (d = 1, variables x12 and x13) V is the mode space itself
and A is similar to B: its roots W1, W2 are real, and A = r0 I when they
are equal.

Pair levels.  With rational roots lambda_i and the pair u +/- sqrt(delta)
(u = r0), alpha . lambda = c + (n2 - n3) sqrt(delta) where
c = sum n_i lambda_i + (n2 + n3) u: alpha with n2 = n3 give the rational
level c, and the others the pair c +/- k sqrt(delta), k = |n2 - n3|, the
roots of (x - c)^2 - k^2 delta, which is irreducible over Q, so the cells
that hold them come in closed form (`linalg`), as for any quadratic
factor below.  When delta < 0 that pair is complex and the report ends in
`DefectiveBlock`, as on the per-block path.

The QES block: a Jacobi matrix.  The sextic 2-body operator is
h = -4 rho d^2 + (4 A rho^2 + 4 omega rho - 2d) d - 4 A N rho.  On rho^j
it gives 4 omega j rho^j - 2j(2j - 2 + d) rho^(j-1) + 4A(j - N) rho^(j+1),
so its matrix T on P_N is tridiagonal: the diagonal a_j = 4 omega j, the
super-diagonal b_j = T[j][j + 1] = -2(j + 1)(2j + d) and the
sub-diagonal c_j = T[j + 1][j] = 4A(j - N), j < N.  Each product
b_j c_j = 8A(j + 1)(2j + d)(N - j) is > 0 when A > 0 (Turbiner, Commun.
Math. Phys. 118 (1988) 467).  Then T is similar to a real symmetric
matrix: with D = diag(e_j), e_0 = 1 and e_(j+1) = e_j sqrt(c_j / b_j),
D^-1 T D has the off-diagonal entries +/- sqrt(b_j c_j) in both places,
because b_j and c_j have the same sign.  So the N + 1 levels are real.
They are simple: deleting the first row and the last column of T - lam
leaves a triangular matrix with the nonzero c_j on its diagonal, so each
eigenspace has dimension 1, and a symmetric matrix is diagonalizable.
The leading principal minors q_k(lam) = det(lam - T_k) of the first k
rows and columns satisfy q_(k+1) = (lam - a_k) q_k - b_(k-1) c_(k-1)
q_(k-1), q_0 = 1, the same as for the symmetric form, and they form a
Sturm chain: the roots of q_k strictly interlace those of q_(k+1), and
the number of sign changes of q_0(lam), ..., q_(N+1)(lam) is the number
of levels above lam (Barth, Martin and Wilkinson, Numer. Math. 9 (1967)
386).  A zero q_k(lam) can be skipped: for k <= N it gives
q_(k+1)(lam) = -b_(k-1) c_(k-1) q_(k-1)(lam), nonzero and of the other
sign, and at k = N + 1 the strict interlacing leaves the count above lam
unchanged.  `linalg.tridiagonal_levels` scales T by the lcm L of the
denominators of the a_j and of the products, so that LT has a monic
integer char poly, whose rational roots are integers, and finds each
level's grid cell by bisecting the grid indices with integer Sturm
counts.  Its certificates, each an `if`: a rational level is the one
integer candidate y in its cell with q(y) = 0 exactly; an irrational
level's cell has the count fall by exactly one across it and the char
poly strictly opposite signs at its ends (`linalg._grid_cell`).  The
eigenvector of a level lam solves row j of (T - lam) v = 0 for v_(j+1):
v_(j+1) = ((lam - a_j) v_j - c_(j-1) v_(j-1)) / b_j from v_0 = 1.
v_0 != 0 for every eigenvector, since v_0 = 0 would make every v_j zero,
so this is the eigenvector with its first coordinate set to 1, the
normalisation of `_eigenfunction`.  The last row,
c_(N-1) v_(N-1) + (a_N - lam) v_N, is exactly zero: that is its
certificate, and a level for which it is not takes `_eigenfunctions`.
`eigenvalues_graded` takes this path whenever the closed form above does
not hold and the matrix is tridiagonal with every product > 0, all read
off `M.cols`, never off the case.  A graded-triangular matrix of two or
more rows never is, since its c_0 = M[1][0] would raise the degree and
so is 0.  The 1 x 1 matrix at N = 0 always is, having no products: its
one level is M_00 and e_0 its eigenfunction, whose last row is
(a_0 - lam) v_0 = 0.  A product <= 0 (the QES block at A < 0,
hand-built matrices) keeps the per-block path.

Per-block path: an A that fails the certificate or is not
diagonalizable, and any matrix not assembled from an operator of that
form and not a Jacobi matrix as above (the QES block at A < 0,
hand-built matrices), factor each block's characteristic polynomial
over Q, and a repeated rational level reads its eigenspace dim off the
rank of the shifted block.

Everything here is exact: rational eigenvalues are reported as Fractions,
irrational ones as the cell [n, n + 1] / 2^64 of the dyadic grid that
holds them, certified by a strict sign change at its ends: from one
integer square root for a quadratic factor, from sympy's isolation and an
integer bisection over the grid indices for a factor of higher degree
(`linalg.isolate_irreducible`), and from Sturm counts for a Jacobi
matrix.  The matrix is held as the Fraction columns {j: {i: c}} that
assembly writes, column j the image of basis monomial j (only nonzero
entries are stored); the triangularity scan, the degree-1 block, the xi
recursion and the Jacobi path read them.  Its sparse sympy
`DomainMatrix` over QQ is a view transposed into rows on first use, for
the per-block path and `_eigenfunctions` only, so the harmonic path, the
QES block at A > 0, any matrix at N = 0 and importing this module do not
load sympy.

Eigenfunctions: the rational levels that are simple across the grading.
When the closed form of A holds, the level alpha . lambda starts from
xi^alpha, where the eigenforms xi_i of A are the nonzero columns of
adj(A - lambda_i I) (a cross product of two rows in 3 variables), and
xi = x when A = r0 I.  D xi^alpha = (alpha . lambda) xi^alpha, so the
residual (h - lambda) phi of phi = xi^alpha has lower degree.  Each round
writes the residual's top-degree part as sum c_beta xi^beta and adds
sum c_beta / (lambda - beta . lambda) xi^beta to phi, which cancels that
part; the divisors are nonzero because the level is simple.  The loop
stops when the residual is exactly zero, which certifies phi, after at
most deg + 1 rounds.  A level whose residual is not zero by then, or that
needs an irrational xi (delta not a square and the level above degree 1:
onedim3, molecular3), takes `_eigenfunctions`: the null vector of its own
block, back-substituted through the blocks below it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb, isqrt, lcm
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
    monos = tuple(tuple(c.count(i) for i in range(k)) for n in range(N + 1)
                  for c in combinations_with_replacement(range(k), n))
    basis = MonomialBasis(variables, N, monos)
    assert basis.size == comb(N + k, k)
    return basis


def is_gl3_form(op: DiffOp) -> bool:
    """True when every term of `op` differentiates and has a polynomial
    coefficient of total degree <= 1, so that op = D + L with D in gl(3)
    and L lowering the degree (module docstring)."""
    zero = (0,) * len(op.variables)
    return all(derivs != zero and isinstance(c, MultiPoly)
               and c.total_degree() <= 1 for derivs, c in op.terms.items())


_ZERO = Fraction(0)   # shared by every zero coordinate


@dataclass(frozen=True)
class OpMatrix:
    basis: MonomialBasis
    cols: dict  # {j: {i: Fraction}}, the nonzero entries only
    # assembled from an operator of gl(3) form: block n is the degree-1
    # block acting on Sym^n
    gl3_form: bool = False

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def entries(self) -> tuple:
        """The dense rows, as tuples of Fraction."""
        n = self.size
        return tuple(tuple(self.cols.get(j, {}).get(i, _ZERO)
                           for j in range(n)) for i in range(n))

    @cached_property
    def matrix(self):
        """The columns, transposed into the rows of a sparse sympy
        `DomainMatrix` over QQ, built on first use (empty rows left out:
        sympy's sparse rref fails on them)."""
        from sympy.polys.domains import QQ
        from sympy.polys.matrices import DomainMatrix

        rows: dict = {}
        for j, col in self.cols.items():
            for i, c in col.items():
                rows.setdefault(i, {})[j] = QQ(c.numerator, c.denominator)
        return DomainMatrix(rows, (self.size, self.size), QQ)

    def is_graded_triangular(self) -> bool:
        degree = [sum(m) for m in self.basis.monomials]
        return all(degree[i] <= degree[j]
                   for j, col in self.cols.items() for i in col)


def assemble_matrix(op: DiffOp, basis: MonomialBasis) -> OpMatrix:
    """Matrix of `op` on the span of `basis`: column j is the image of
    monomial j.  Only nonzero entries are stored, so a zero column is
    absent from the column dict."""
    if op.variables != basis.variables:
        raise ValueError(
            f"operator variables {op.variables} != basis {basis.variables}")
    index = {m: i for i, m in enumerate(basis.monomials)}
    cols: dict = {}
    for j, mono in enumerate(basis.monomials):
        image = op.apply(MultiPoly(basis.variables, {mono: 1}))
        for exps, c in image.num.items():
            i = index.get(exps)
            if i is None:
                raise InvariantSubspaceViolation(
                    MultiPoly(basis.variables, {mono: 1}),
                    MultiPoly(basis.variables,
                              {exps: Fraction(c, image.den)}))
            cols.setdefault(j, {})[i] = Fraction(c, image.den)
    return OpMatrix(basis, cols, is_gl3_form(op))


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
    poly: the per-block path."""
    n = block.shape[0]
    cp = linalg.char_poly(block)
    rational, irrational = linalg.real_roots_exact(cp)
    out = []
    for root, mult in rational:
        dim = n - _shifted(block, root).rank() if mult > 1 else None
        out.append(Eigenvalue(root, None, mult, degree, dim))
    for (lo, hi), mult in irrational:
        out.append(Eigenvalue(None, (lo, hi), mult, degree, None))
    return out


def _adjugate(B):
    """adj(B), k x k, k <= 3: B adj(B) = det(B) I, so when B has rank
    k - 1 each nonzero column spans B's null space (in 3 variables a
    column is the cross product of two rows)."""
    k = len(B)
    return [[(-1) ** (i + j) * linalg.det(
        [row[:i] + row[i + 1:] for r, row in enumerate(B) if r != j])
        for j in range(k)] for i in range(k)]


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """sqrt(x) when it is rational, else None (x < 0 included)."""
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n != x.numerator or d * d != x.denominator:
        return None
    return Fraction(n, d)


def _degree1_roots(A):
    """The roots of the degree-1 block A, k <= 3 rows of Fractions, in
    closed form (module docstring): (lams, pair) with the rational roots
    lams and pair = (r0, delta) for the roots r0 +/- sqrt(delta) when
    delta is not a rational square (else None).  None when A is not
    diagonalizable (delta = 0 and A != r0 I), or when k = 3 and
    det(A - r0 I) != 0.  An empty A (N = 0) has no roots: ([], None)."""
    k = len(A)
    if not k:
        return [], None
    r0 = sum(A[i][i] for i in range(k)) / k
    B = [[x - r0 if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(A)]
    delta = sum(B[i][j] * B[j][i] for i in range(k) for j in range(k)) / 2
    lams: List[Fraction] = []
    if k == 3:
        if linalg.det(B):
            return None
        lams = [r0]
    root = _rational_sqrt(delta)
    if root is None:
        return lams, (r0, delta)
    if root:
        return lams + [r0 - root, r0 + root], None
    if any(any(row) for row in B):
        return None
    return [r0] * k, None


def _gl3_levels(monomials, degree: int, lams, pair) -> List[Eigenvalue]:
    """The levels of the diagonal block of degree `degree`, spanned by
    `monomials`, of a matrix of gl(3) form whose degree-1 block is
    diagonalizable with the roots (lams, pair) of `_degree1_roots`
    (module docstring), ordered as `_block_eigenvalues` orders them."""
    rational: Counter = Counter()
    pairs: Counter = Counter()   # (c, k): c +/- k sqrt(delta)
    for alpha in monomials:
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
    out = [Eigenvalue(value, None, mult, degree, mult if mult > 1 else None)
           for value, mult in sorted(rational.items())]
    irrational = [(iv, mult) for (c, k), mult in pairs.items()
                  for iv in linalg.isolate_irreducible(
                      [1, -2 * c, c * c - k * k * pair[1]])]
    irrational.sort(key=lambda t: t[0][0])
    out += [Eigenvalue(None, iv, mult, degree, None)
            for iv, mult in irrational]
    return out


def _eigenfunction(value: Fraction, v) -> Eigenfunction:
    """The eigenfunction with coordinates v, the first nonzero one set
    to 1."""
    lead = Fraction(next(c for c in v if c))
    return Eigenfunction(value, tuple(c / lead if c else _ZERO for c in v))


def _expander(F, variables):
    """gamma -> prod_i f_i^gamma_i as {exponents: int}, memoised, for the
    integer linear forms f_i = sum_j F[i][j] y_j in `variables`."""
    unit = [tuple(int(i == j) for i in range(len(variables)))
            for j in range(len(variables))]
    forms = [MultiPoly(variables, dict(zip(unit, row))) for row in F]

    @lru_cache(maxsize=None)
    def expand(gamma):
        if not any(gamma):
            return MultiPoly.const(variables, 1)
        i = next(i for i, e in enumerate(gamma) if e)
        return expand(gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]) * forms[i]
    return lambda gamma: expand(gamma).num


def _xi_divide(top, lam: Fraction, lams):
    """The xi^beta coefficients c_beta / (lam - beta . lams) whose sum
    cancels the residual part sum c_beta xi^beta (module docstring)."""
    return {beta: c / (lam - sum(b * x for b, x in zip(beta, lams)))
            for beta, c in top.items()}


def _xi_eigenfunctions(M: OpMatrix, A, levels, lams, pair) -> dict:
    """{level: Eigenfunction} for the `levels` (rational, simple across the
    grading) that the xi recursion certifies (module docstring), given the
    degree-1 block A and its roots (lams, pair) from `_degree1_roots`.
    xi_i is the eigenform of lams[i]; with a pair only those are rational,
    so only levels of degree <= 1 are tried."""
    monos, k = M.basis.monomials, len(A)
    if pair is None and len(set(lams)) < k:      # A = r0 I: xi = x
        P = [[int(i == j) for j in range(k)] for i in range(k)]
    else:   # integer multiples of the null vectors of A - lam I
        P = [linalg._integer_coeffs(next(col for col in zip(*_adjugate(
            [[x - lam if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(A)])) if any(col))) for lam in lams]
    # x_j = sum_i adj(P)[j][i] xi_i / det(P); with a pair only constants
    # are written in xi, which needs neither
    det, adj = (linalg.det(P), _adjugate(P)) if pair is None else (1, [])
    to_x, to_xi = (_expander(F, M.basis.variables) for F in (P, adj))
    den = lcm(*(x.denominator for x in lams))   # alpha . lams over den
    ells = [int(x * den) for x in lams]
    start = {sum(n * x for n, x in zip(alpha, ells)): alpha
             for alpha in monos if not any(alpha[len(lams):])
             and (pair is None or sum(alpha) < 2)}
    index = {m: i for i, m in enumerate(monos)}
    out = {}
    for ev in levels:
        lam, alpha = ev.value, start.get(ev.value * den)
        if alpha is None:
            continue
        phi, r, step = Counter(), Counter(), to_x(alpha)
        for _ in range(sum(alpha) + 1):
            for mono, c in step.items():           # r += (M - lam) step
                j = index[mono]
                phi[j] += c
                r[j] -= lam * c
                for i, x in M.cols.get(j, {}).items():
                    r[i] += x * c
            r = Counter({i: c for i, c in r.items() if c})
            if not r:               # the certificate: (M - lam) phi = 0
                out[lam] = _eigenfunction(
                    lam, [phi.get(i, _ZERO) for i in range(M.size)])
                break
            d = max(sum(monos[i]) for i in r)
            top = Counter()          # r's degree-d part in xi coordinates
            for i, c in r.items():
                if sum(monos[i]) == d:
                    c /= det ** d
                    for beta, e in to_xi(monos[i]).items():
                        top[beta] += c * e
            step = Counter()
            for beta, c in _xi_divide(top, lam, lams).items():
                for mono, e in to_x(beta).items():
                    step[mono] += c * e
    return out


def _eigenfunctions(M: OpMatrix, slices, levels) -> List[Eigenfunction]:
    """Eigenvectors of the `levels`, rational and simple across `slices`.

    `M` is block upper-triangular over `slices` ([(degree, start, stop)]).
    For a level lam of the block of degree n, the eigenvector vanishes on
    the blocks above n; its part in block n spans the null space of
    B_n - lam; each lower block k is back-substituted from
    (B_k - lam) v_k = -sum_{j>k} M_kj v_j, which is invertible because lam
    is simple.  The first nonzero coordinate is normalised to 1.
    """
    at = {degree: k for k, (degree, _, _) in enumerate(slices)}
    out = []
    for ev in levels:
        top = at[ev.degree]
        _, start, stop = slices[top]
        S = _shifted(M.matrix[:stop, :stop], ev.value)
        x = S[start:stop, start:stop].nullspace().transpose()
        for _, lo, hi in reversed(slices[:top]):
            x = S[lo:hi, lo:hi].lu_solve(-(S[lo:hi, hi:stop] * x)).vstack(x)
        v = [Fraction(c.numerator, c.denominator) for c in x.to_list_flat()]
        out.append(_eigenfunction(ev.value, v + [_ZERO] * (M.size - stop)))
    return out


def _jacobi(M: OpMatrix):
    """(a, b, c): the diagonal a_j, the super-diagonal b_j = M[j][j + 1]
    and the sub-diagonal c_j = M[j + 1][j] of M when M is tridiagonal with
    every product b_j c_j > 0 (module docstring), else None."""
    if any(abs(i - j) > 1 for j, col in M.cols.items() for i in col):
        return None
    n = M.size
    cols = [M.cols.get(j, {}) for j in range(n)]
    a = [cols[j].get(j, _ZERO) for j in range(n)]
    b = [cols[j + 1].get(j, _ZERO) for j in range(n - 1)]
    c = [cols[j].get(j + 1, _ZERO) for j in range(n - 1)]
    if all(x * y > 0 for x, y in zip(b, c)):
        return a, b, c
    return None


def _jacobi_eigenfunctions(a, b, c, levels) -> dict:
    """{level: Eigenfunction} for the rational `levels` of the tridiagonal
    matrix (a, b, c) of `_jacobi` from the forward recurrence v_0 = 1,
    v_{j+1} = ((lam - a_j) v_j - c_{j-1} v_{j-1}) / b_j, certified by the
    last row, c_{n-2} v_{n-2} + (a_{n-1} - lam) v_{n-1} (no c term at
    n = 1), being exactly zero (module docstring)."""
    out = {}
    for ev in levels:
        lam, v = ev.value, [Fraction(1)]
        for j, bj in enumerate(b):
            v.append(((lam - a[j]) * v[j] - (c[j - 1] * v[j - 1] if j else 0))
                     / bj)
        if (c[-1] * v[-2] if c else 0) + (a[-1] - lam) * v[-1] == 0:
            out[lam] = _eigenfunction(lam, v)
    return out


def eigenvalues_graded(M: OpMatrix, case: Optional[Case] = None,
                       ground_energy: Optional[Fraction] = None,
                       want_eigenfunctions: bool = True) -> SpectrumReport:
    """Spectrum of a matrix on P_N: the union of its diagonal-block
    spectra.  The blocks are the degree slices when the matrix is
    graded-triangular, else the whole matrix is one block of degree N.
    Each block's levels come in closed form when `M.gl3_form` and the
    degree-1 block is diagonalizable with a certified closed form, from
    integer Sturm counts when the matrix is a Jacobi matrix (`_jacobi`,
    the 1 x 1 matrix at N = 0 included), else from its char poly (module
    docstring).

    Eigenfunctions are computed for the rational eigenvalues that are
    simple across the whole grading: by the xi recursion when the closed
    form holds, by the three-term recurrence for a Jacobi matrix, else, or
    when the residual or last row is not zero, by `_eigenfunctions`.
    """
    graded = M.is_graded_triangular()
    slices = M.basis.degree_slices() if graded \
        else [(M.basis.degree_cap, 0, M.size)]
    roots = jacobi = None
    if graded and M.gl3_form:    # the degree-1 block A, empty at N = 0
        one = range(1, min(M.size, 1 + len(M.basis.variables)))
        A = [[M.cols.get(j, {}).get(i, _ZERO) for j in one] for i in one]
        roots = _degree1_roots(A)
    else:
        jacobi = _jacobi(M)
    evs: List[Eigenvalue] = []
    if jacobi is not None:
        a, b, c = jacobi
        evs = [Eigenvalue(value, cell, 1, M.basis.degree_cap)
               for value, cell in linalg.tridiagonal_levels(
                   a, [x * y for x, y in zip(b, c)])]
    else:
        for degree, start, stop in slices:
            if roots is not None:
                evs.extend(_gl3_levels(M.basis.monomials[start:stop], degree,
                                       *roots))
            else:
                evs.extend(_block_eigenvalues(M.matrix[start:stop, start:stop],
                                              degree))
    eigenfunctions = []
    if want_eigenfunctions:
        counts: Counter = Counter()
        for ev in evs:
            counts[ev.value] += ev.multiplicity
        simple = [ev for ev in evs
                  if ev.value is not None and counts[ev.value] == 1]
        found = {}
        if roots is not None:
            found = _xi_eigenfunctions(M, A, simple, *roots)
        elif jacobi is not None:
            found = _jacobi_eigenfunctions(*jacobi, simple)
        rest = [ev for ev in simple if ev.value not in found]
        found.update(zip((ev.value for ev in rest),
                         _eigenfunctions(M, slices, rest)))
        eigenfunctions = [found[ev.value] for ev in simple]
    evs.sort(key=lambda e: (e.approx(), e.degree))
    report = SpectrumReport(case, M.basis, tuple(evs),
                            ground_energy, tuple(eigenfunctions))
    total = sum(ev.multiplicity for ev in evs)
    if total != M.size:
        raise DefectiveBlock(
            f"eigenvalue count {total} != basis size {M.size} "
            "(complex eigenvalues in a diagonal block)", report)
    return report


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
    return eigenvalues_graded(M, case, case_ground_energy(case, p),
                              want_eigenfunctions)


def qes_2body_block(p: Params) -> SpectrumReport:
    """Exact spectrum of the sextic 2-body operator on P_N, N = p.N.

    At A != 0 the operator raises the degree, so its (N+1)x(N+1) matrix is
    one block; at A = 0 it is the harmonic 2-body operator.
    """
    return spectrum(Case.TWO_BODY_QES, p, p.N)


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
