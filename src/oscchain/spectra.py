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
triangular on the xi^alpha, and block n has one level alpha . lambda,
counted with algebraic multiplicity, per exponent alpha with |alpha| = n.
When A is diagonalizable (always, when its eigenvalues are distinct), the
xi^alpha are eigenvectors, D is diagonalizable on Sym^n V, and the
eigenspace of each level has the dimension of its multiplicity.  So the
levels of every block follow from A's roots alone, in closed form below;
a non-diagonalizable A has them too, in two variables.

A's roots in closed form.  A is k x k, k <= 3.  Put r0 = tr(A)/k,
B = A - r0 I, so tr B = 0, and delta = tr(B^2)/2 = (tr(A^2) - k r0^2)/2.
For k = 1 the root is r0.  For k = 2 the char poly is (x - r0)^2 - delta.
For k = 3 it is y^3 - delta y - det B in y = x - r0, so det B = 0
certifies the roots r0 and r0 +/- sqrt(delta).  A delta that is not a
rational square (delta < 0 included) gives the pair r0 +/- sqrt(delta)
below.  A nonzero square gives distinct rational roots, so A is
diagonalizable.  delta = 0 gives the single root r0, and then A is
diagonalizable exactly when A = r0 I.  An A of size 3 with det B != 0,
or with delta = 0 and A != r0 I, raises `RootCertificateError`: the next
paragraph proves that no case operator has one.

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
nu-weighted Laplacian of the pairs, M = diag(m)).  The paper's maximal
superintegrability is W1^2 = W2^2, that is r0^2 delta = 0, since
r0^2 delta = (W1^2 - W2^2)^2: with a negative spring W2 = -W1 can hold
at delta != 0 (masses 2, 3, 5/2, springs 1, 2, -3: r0 = 0, delta =
272/3).  delta a nonzero rational square is a rational ratio W1:W2
(Jauch and Hill, Phys. Rev. 57 (1940) 641).
In onedim3 (d = 1, variables x12 and x13) V is the mode space itself
and A is similar to B: its roots W1, W2 are real, and A = r0 I when they
are equal.

The nilpotent degree-1 block.  In two variables, delta = 0 and B != 0
make B a nonzero nilpotent: B is traceless, so B^2 = -det(B) I = delta I
= 0 by Cayley-Hamilton, and B has rank 1.  The molecular case at a = -b
is one: A's roots 2 omega (a + b) and 4 omega (a + b) are both 0, so
r0 = 0.  Take a basis e1, e2 of V with B e2 = e1 and B e1 = 0.  On a
product of n linear forms D acts by A = r0 I + B on each factor in turn,
so on Sym^n V it is n r0 plus the derivation D_B by B, and
D_B e1^i e2^(n-i) = (n - i) e1^(i+1) e2^(n-i-1).  The chain
e2^n -> e1 e2^(n-1) -> ... -> e1^n -> 0 has the nonzero coefficients
n - i, so D_B is one nilpotent Jordan block of size n + 1.  Block n then
has the one level n r0, with multiplicity n + 1, the eigenspace spanned
by e1^n (dimension 1), and the minimal polynomial (x - n r0)^(n + 1) as
its annihilator.

The levels in closed form.  Order xi so that lambda is (r0, r0 - s,
r0 + s), (r0 - s, r0 + s) or (r0) for k = 3, 2 or 1, s = sqrt(delta),
and let a and b be the exponents in alpha at r0 - s and r0 + s.  Then
alpha . lambda = n r0 + j s with j = b - a: block n has the levels
n r0 + j s, the multiplicity of j being the number of alpha with
|alpha| = n and that j.  For k = 3 and j >= 0 they are
(n - j - 2i, i, i + j), i = 0 .. floor((n - j)/2), and swapping a and b
maps j to -j: floor((n - |j|)/2) + 1 for |j| <= n.  For k = 2, a + b = n
and b - a = j meet once when j = n (mod 2) and |j| <= n.  For k = 1,
j = 0, once.  These sum to comb(n + k - 1, k - 1), the block's size, for
every delta.  When s is rational, delta = 0 included, the levels are
rational and equal values merge.  Otherwise j = 0 gives the rational
level n r0, and each j > 0 the pair n r0 +/- j s, the roots of
(x - n r0)^2 - j^2 delta, which is irreducible over Q, so their cells
come in closed form (`linalg`), as for any quadratic factor below; when
delta < 0 the pair is complex and the report ends in `DefectiveBlock`.
No monomial is visited.

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
unchanged.  `linalg.tridiagonal_levels` finds and certifies each level
on LT, L the lcm of the denominators of the a_j and the products, by
integer Sturm counts, and returns the continuant L^(N+1) det(lam - T)
in lam as T's annihilator.

At A < 0 every product is negative, and the levels may be complex.  But
T is still unreduced, so each eigenspace still has dimension 1 (a
repeated level is one Jordan block), and `linalg.real_roots_exact`
factors the same continuant over Q.

Two level routes, and no fallback.  `eigenvalues_graded` takes the closed
form when `M.gl3_form` (the harmonic cases, twobody_qes at A = 0), else
the tridiagonal route when M is tridiagonal with every product nonzero,
read off `M.cols`, never off the case: the QES block at A != 0, and the
1 x 1 matrix at N = 0, which has no products and the one level M_00.
Any other matrix raises `UnsupportedMatrix` (exit 1); only tests build
one (a zeroth-order term, a zero product, a hand-built matrix).  A
graded-triangular matrix of two or more rows outside the closed form has
no route, since its c_0 = M[1][0] would raise the degree and so is 0.

Everything here is exact, and a report keeps each result in integers
where it can.  A rational level is a `RationalLevel`, its value a
Fraction; an irrational one is a `CellLevel`, the cell [n, n + 1] / 2^64
of the dyadic grid that holds it, held as the one integer n, from which
its ends, midpoint and JSON are derived; a physical level adds E0 to both
ends exactly.  Each is an object of four slots.  An `Eigenfunction` holds
integer numerators over one positive denominator, which its first
nonzero numerator equals, up to the last coordinate of its level's
degree block, as v vanishes above that block; `coeffs` pads them back to
the basis size as Fractions.  Each cell is certified by a strict sign
change at its ends: from one integer square root for a quadratic factor,
from sympy's isolation and an integer bisection over the grid indices for
a factor of higher degree (`linalg.isolate_irreducible`), and from Sturm
counts for a Jacobi matrix.  The matrix is held as integer numerators over one
denominator, as `MultiPoly` is: the columns {j: {i: n}} that assembly
writes, column j the image of basis monomial j (only nonzero entries are
stored), over the lcm of the denominators of the operator's coefficients.
The eigenvectors read the integers; the degree-1 block and the tridiagonal
route read Fraction entries (`OpMatrix.entry`).
The levels are ordered exactly, by value (a cell by its midpoint), then
degree, so no float is made while a spectrum is computed.  sympy is
loaded only for a product < 0 on the tridiagonal route (the QES block at
A < 0), never on importing this.

Eigenfunctions: one route, by Cayley-Hamilton, for the rational levels
lam that are simple across the grading.  Each diagonal block B_k has an
annihilator a_k, a_k(B_k) = 0: prod (x - c) over its distinct rational
levels times prod ((x - c)^2 - j^2 delta) over its distinct pairs on the
closed-form path, as D is diagonalizable on Sym^n V, or (x - n r0)^(n+1)
when B is nilpotent; T's continuant on the tridiagonal route.  Divide
a_k(x) = (x - lam) q_k(x) + a_k(lam), so (B_k - lam) q_k(B_k) =
-a_k(lam) I.  In the level's block n, a_n(lam) = 0, so every column of
q_n(B_n) lies in the eigenspace, of dimension 1 as lam is simple; and
q_n(B_n) != 0, since lam is a simple root of a_n and so not one of q_n,
while B_n's minimal polynomial has the root lam and would divide a q_n
with q_n(B_n) = 0.  So v_n = q_n(B_n) e_j for the first basis vector
e_j that gives a nonzero vector.  v vanishes above block n, and each
block k < n solves (B_k - lam) v_k = -r_k, r_k the part in block k of
M applied to the blocks above k; a_k(lam) != 0, lam not being a level
of block k, so v_k = q_k(B_k) r_k / a_k(lam).  Horner's rule applies
q_k(B_k) on the integer numerators of M over one denominator, with v
held as integers up to one scale.  (M - lam) v = 0 exactly is the
certificate; a v that fails it raises `EigenvectorCertificateError`,
never a fallback.  The annihilators are multiplied out only when an
eigenfunction needs them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, gcd, isqrt, lcm
from typing import List, Optional, Sequence, Tuple

from . import VerificationError, linalg
from .exact import DiffOp, MultiPoly, over_one_den, ratio_str, to_float
from .model import (Case, CaseError, Params, build_h_algebraic, ground_state,
                    validate_case)


MAX_BASIS_SIZE = 100_000   # most monomials of one basis


class InvariantSubspaceViolation(VerificationError):
    def __init__(self, monomial, overflow):
        self.monomial = monomial
        self.overflow = overflow
        super().__init__(
            f"operator leaves the span on {monomial!r}; overflow {overflow!r}")


class UnsupportedMatrix(VerificationError):
    """A matrix that fits neither level route of `eigenvalues_graded`."""


class DefectiveBlock(VerificationError):
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
    (frozen) basis per (variables, N).  A basis of more than
    MAX_BASIS_SIZE monomials is refused before it is built."""
    k = len(variables)
    if k not in (1, 2, 3):
        raise ValueError("supported variable counts: 1, 2, 3")
    if N < 0:
        raise ValueError("degree cap must be nonnegative")
    if comb(N + k, k) > MAX_BASIS_SIZE:
        raise ValueError(f"a basis of degree <= {N} in {k} variables has "
                         f"{comb(N + k, k)} monomials, more than "
                         f"{MAX_BASIS_SIZE}")
    return _enumerate_basis(tuple(variables), N)


def _exponents(n: int, k: int) -> list:
    """The exponent tuples of total degree n in k variables,
    lexicographically descending."""
    if k == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n, -1, -1)
            for rest in _exponents(n - a, k - 1)]


@lru_cache(maxsize=64)
def _enumerate_basis(variables: Tuple[str, ...], N: int) -> MonomialBasis:
    k = len(variables)
    monos = tuple(e for n in range(N + 1) for e in _exponents(n, k))
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
    den: int
    cols: dict  # {j: {i: int}}: entry (i, j) is cols[j][i] / den, nonzero only
    # assembled from an operator of gl(3) form: block n is the degree-1
    # block acting on Sym^n
    gl3_form: bool = False

    @property
    def size(self) -> int:
        return self.basis.size

    def entry(self, i: int, j: int) -> Fraction:
        """The entry of row i and column j."""
        x = self.cols.get(j, {}).get(i)
        return Fraction(x, self.den) if x else _ZERO

    @property
    def entries(self) -> tuple:
        """The dense rows, as tuples of Fraction."""
        n = self.size
        return tuple(tuple(self.entry(i, j) for j in range(n))
                     for i in range(n))


def assemble_matrix(op: DiffOp, basis: MonomialBasis) -> OpMatrix:
    """Matrix of `op` on the span of `basis`: column j is the image of
    monomial j, as integer numerators over the lcm of the denominators of
    op's coefficients, which every image's denominator divides.  Only
    nonzero entries are stored, so a zero column is absent from the column
    dict."""
    if op.variables != basis.variables:
        raise ValueError(
            f"operator variables {op.variables} != basis {basis.variables}")
    den = over_one_den(op.terms, len(basis.variables))[0]
    index = {m: i for i, m in enumerate(basis.monomials)}
    cols: dict = {}
    for j, mono in enumerate(basis.monomials):
        image = op.apply(MultiPoly(basis.variables, {mono: 1}))
        scale = den // image.den
        for exps, c in image.num.items():
            i = index.get(exps)
            if i is None:
                raise InvariantSubspaceViolation(
                    MultiPoly(basis.variables, {mono: 1}),
                    MultiPoly(basis.variables,
                              {exps: Fraction(c, image.den)}))
            cols.setdefault(j, {})[i] = c * scale
    return OpMatrix(basis, den, cols, is_gl3_form(op))


# ---------------------------------------------------------------------------
# spectrum extraction

class Level:
    """A level of a report, a `RationalLevel` or a `CellLevel`; both give
    their float and JSON from `midpoint`, `value`, `interval` and
    `eigenspace_dim`."""

    __slots__ = ()

    def approx(self) -> float:
        return to_float(self.midpoint(), "a level")

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
class RationalLevel(Level):
    """A level known exactly; `eigenspace_dim` is set when it is
    repeated."""
    value: Fraction
    multiplicity: int
    degree: int
    eigenspace_dim: Optional[int] = None
    cell = interval = None

    def midpoint(self) -> Fraction:
        return self.value


@dataclass(frozen=True, slots=True)
class CellLevel(Level):
    """An irrational level, held as the integer `cell` of the certified
    grid cell [cell, cell + 1] / 2^64 that holds it, its ends moved by
    `shift` (E0 on a physical level)."""
    cell: int
    multiplicity: int
    degree: int
    shift: int | Fraction = 0
    value = eigenspace_dim = None

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        """The ends of the cell plus `shift`."""
        return (Fraction(self.cell, linalg.GRID) + self.shift,
                Fraction(self.cell + 1, linalg.GRID) + self.shift)

    def midpoint(self) -> Fraction:
        return Fraction(2 * self.cell + 1, 2 * linalg.GRID) + self.shift


@dataclass(frozen=True, slots=True)
class Eigenfunction:
    """The eigenfunction of a simple rational level: its coordinates in
    the monomial basis are numerators[i] / den up to the end of the
    level's degree block, and 0 above it up to `size` (module
    docstring)."""
    eigenvalue: Fraction
    numerators: Tuple[int, ...]
    den: int
    size: int

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coordinates as Fractions, one per basis monomial."""
        return tuple(Fraction(x, self.den) if x else _ZERO
                     for x in self.numerators) \
            + (_ZERO,) * (self.size - len(self.numerators))

    def as_poly(self, basis: MonomialBasis) -> MultiPoly:
        return MultiPoly._make(basis.variables,
                               {m: x for m, x in zip(basis.monomials,
                                                     self.numerators) if x},
                               self.den)


@dataclass(frozen=True, slots=True)
class SpectrumReport:
    case: Optional[Case]
    basis: MonomialBasis
    gauged: Tuple[Level, ...]
    ground_energy: Optional[Fraction]
    eigenfunctions: Tuple[Eigenfunction, ...] = ()

    @property
    def physical(self) -> Tuple[Level, ...]:
        if self.ground_energy is None:
            return self.gauged
        e0 = self.ground_energy
        return tuple(replace(ev, value=ev.value + e0)
                     if ev.value is not None else
                     replace(ev, shift=ev.shift + e0)
                     for ev in self.gauged)

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


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """sqrt(x) when it is rational, else None (x < 0 included)."""
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n != x.numerator or d * d != x.denominator:
        return None
    return Fraction(n, d)


def _degree1_roots(A):
    """(r0, delta, nilpotent) for the degree-1 block A, k <= 3 rows of
    Fractions (module docstring): A's roots are r0 and r0 +/- sqrt(delta)
    when k = 3, r0 +/- sqrt(delta) when k = 2 and r0 when k = 1, and
    nilpotent is True when A - r0 I is a nonzero nilpotent, in two
    variables.  An empty A (N = 0) gives (0, 0, False).
    RootCertificateError when k = 3 and det(A - r0 I) != 0, or delta = 0
    and A != r0 I."""
    k = len(A)
    if not k:
        return _ZERO, _ZERO, False
    r0 = sum(A[i][i] for i in range(k)) / k
    B = [[x - r0 if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(A)]
    delta = sum(B[i][j] * B[j][i] for i in range(k) for j in range(k)) / 2
    nilpotent = not delta and any(any(row) for row in B)
    if k == 3 and (linalg.det(B) or nilpotent):
        raise linalg.RootCertificateError(
            "the 3-variable degree-1 block fails det(A - r0 I) = 0 or is "
            "not diagonalizable")
    return r0, delta, nilpotent


def _gl3_levels(k: int, n: int, r0: Fraction, delta: Fraction,
                nilpotent: bool):
    """(levels, factors) of the diagonal block of degree n of a matrix of
    gl(3) form in k variables whose degree-1 block has (r0, delta,
    nilpotent) from `_degree1_roots`: the levels n r0 + j sqrt(delta)
    with their multiplicities in closed form (module docstring), the
    rational ones first and ascending; and x - c for each distinct
    rational level c (n + 1 times when A - r0 I is nilpotent) and
    (x - c)^2 - j^2 delta for each pair, highest degree first, whose
    product annihilates the block."""
    root, c = _rational_sqrt(delta), n * r0
    rational: Counter = Counter()
    pairs = {}      # j > 0: the multiplicity of c +/- j sqrt(delta)
    for j in range(-n, n + 1, 1 if k == 3 else 2) if k > 1 else [0]:
        mult = (n - abs(j)) // 2 + 1 if k == 3 else 1
        if root is not None:
            rational[c + j * root] += mult
        elif j == 0:
            rational[c] += mult
        elif j > 0:
            pairs[j] = mult
    out = [RationalLevel(value, mult, n,
                         None if mult == 1 else 1 if nilpotent else mult)
           for value, mult in sorted(rational.items())]
    quadratics = {j: [1, -2 * c, c * c - j * j * delta] for j in pairs}
    out += [CellLevel(cell, pairs[j], n)
            for j, f in quadratics.items()
            for cell in linalg.isolate_irreducible(f)]
    return out, [[1, -x] for x, mult in rational.items()
                 for _ in range(mult if nilpotent else 1)] \
        + list(quadratics.values())


def _product(polys):
    """The product of polynomials given highest degree first."""
    out = [1]
    for f in polys:
        out = [sum(out[i - j] * x for j, x in enumerate(f)
                   if 0 <= i - j < len(out))
               for i in range(len(out) + len(f) - 1)]
    return out


class EigenvectorCertificateError(VerificationError):
    """An eigenvector that does not satisfy (M - lam) v = 0 exactly."""


def _divide(a, lam: Fraction):
    """(q, a(lam)) with a(x) = (x - lam) q(x) + a(lam), by synthetic
    division; coefficients highest degree first."""
    out, acc = [], Fraction(0)
    for c in a:
        acc = acc * lam + c
        out.append(acc)
    return out[:-1], out[-1]


def _horner(q, M: OpMatrix, lo: int, hi: int, w):
    """(h, s) with q(B) w = h / s, for the rational polynomial q (highest
    degree first), the diagonal block B of M's rows and columns lo:hi, and
    an integer vector w on the block.  With D the lcm of q's denominators,
    L = M.den and e = deg q, D L^e q(x) = sum_i D q_i L^i (L x)^(e - i)
    has integer coefficients, so Horner's rule runs on integers."""
    D, L = lcm(*(c.denominator for c in q)), M.den
    acc = [0] * (hi - lo)
    for e, c in enumerate(q):           # acc <- (L B) acc + D q_e L^e w
        c = int(c * D) * L ** e
        nxt = [c * x for x in w]
        for j, x in enumerate(acc, lo):
            if x:
                for i, m in M.cols.get(j, {}).items():
                    if i >= lo:
                        nxt[i - lo] += m * x
        acc = nxt
    return acc, D * L ** max(len(q) - 1, 0)


def _eigenvector(M: OpMatrix, slices, annihilators, lam: Fraction,
                 top: int) -> Eigenfunction:
    """The eigenfunction of the level lam of block `top` of `slices`,
    rational and simple across the grading, from the annihilator
    `annihilators(k)` of each diagonal block k (highest degree first) by
    Cayley-Hamilton (module docstring).  v and L M v, L = M.den, are held
    as integers up to one scale.  (M - lam) v = 0 exactly is the
    certificate; otherwise EigenvectorCertificateError."""
    L = M.den
    _, start, stop = slices[top]
    v, Mv = [0] * stop, [0] * stop
    for k in range(top, -1, -1):
        _, lo, hi = slices[k]
        q, rest = _divide(annihilators(k), lam)
        if k == top:                # v_top = q(B) e_j, the first nonzero
            for j in range(lo, hi):
                x, _ = _horner(q, M, lo, hi,
                               [int(i == j) for i in range(lo, hi)])
                if any(x):
                    break
            else:
                raise EigenvectorCertificateError(
                    f"q(B) is zero on the block of the level {lam}")
        elif not rest:
            raise EigenvectorCertificateError(
                f"the level {lam} is a root of a lower block's annihilator")
        else:                       # v_k = q(B) r_k / a_k(lam)
            x, s = _horner(q, M, lo, hi, Mv[lo:hi])
            # r_k = Mv_k / L, so v_k = x a.den / (s L a.num), a = a_k(lam):
            # scale v and Mv by s L a.num instead of dividing v_k
            s *= L * rest.numerator
            v, Mv = [s * y for y in v], [s * y for y in Mv]
            x = [rest.denominator * y for y in x]
        v[lo:hi] = x
        for j in range(lo, hi):
            if v[j]:
                for i, m in M.cols.get(j, {}).items():
                    Mv[i] += m * v[j]
    p, d = lam.numerator, lam.denominator
    if any(d * y != p * L * x for x, y in zip(v, Mv)):
        raise EigenvectorCertificateError(
            f"(M - lam) v != 0 at the level {lam}")
    lead = next(x for x in v if x)          # v / lead: lead becomes 1
    g = gcd(*v) * (1 if lead > 0 else -1)
    return Eigenfunction(lam, tuple(x // g for x in v), lead // g, M.size)


def _jacobi(M: OpMatrix):
    """(a, p): the diagonal a_j and the products p_j = M[j][j + 1]
    M[j + 1][j] of the opposite off-diagonal entries of M when M is
    tridiagonal with every product nonzero (module docstring), else
    None."""
    if any(abs(i - j) > 1 for j, col in M.cols.items() for i in col):
        return None
    a = [M.entry(j, j) for j in range(M.size)]
    p = [M.entry(j, j + 1) * M.entry(j + 1, j) for j in range(M.size - 1)]
    return (a, p) if all(p) else None


def eigenvalues_graded(M: OpMatrix, case: Optional[Case] = None,
                       ground_energy: Optional[Fraction] = None,
                       want_eigenfunctions: bool = True) -> SpectrumReport:
    """Spectrum of a matrix on P_N: the union of its diagonal-block
    spectra, by one of two level routes (module docstring).  When
    `M.gl3_form`, which makes M graded-triangular, the blocks are the
    degree slices, and their levels come in closed form from the degree-1
    block.  Otherwise M must be tridiagonal with every product of opposite
    off-diagonal entries nonzero (`_jacobi`), one block of degree N whose
    levels come from its continuant; any other matrix raises
    UnsupportedMatrix.

    Eigenfunctions are computed for the rational eigenvalues that are
    simple across the whole grading, each by `_eigenvector` from the
    blocks' annihilators, which are built only then.
    """
    evs: List[Level] = []
    factors = []    # per block, polynomials whose product annihilates it
    if M.gl3_form:
        slices = M.basis.degree_slices()
        # the degree-1 block A, empty at N = 0
        k = len(M.basis.variables)
        one = range(1, min(M.size, 1 + k))
        roots = _degree1_roots([[M.entry(i, j) for j in one] for i in one])
        for degree, _, _ in slices:
            levels, fs = _gl3_levels(k, degree, *roots)
            evs.extend(levels)
            factors.append(fs)
    else:
        jacobi = _jacobi(M)
        if jacobi is None:
            raise UnsupportedMatrix(
                "neither of gl(3) form nor tridiagonal with nonzero "
                "off-diagonal products")
        slices = [(M.basis.degree_cap, 0, M.size)]
        levels, char_poly = linalg.tridiagonal_levels(*jacobi)
        N = M.basis.degree_cap
        evs = [RationalLevel(value, mult, N, 1 if mult > 1 else None)
               if cell is None else CellLevel(cell, mult, N)
               for value, cell, mult in levels]
        factors.append([char_poly])
    annihilator = cache(lambda k: _product(factors[k]))
    eigenfunctions = []
    if want_eigenfunctions:
        counts: Counter = Counter()
        for ev in evs:
            counts[ev.value] += ev.multiplicity
        at = {degree: k for k, (degree, _, _) in enumerate(slices)}
        simple = [(ev.value, at[ev.degree]) for ev in evs
                  if ev.value is not None and counts[ev.value] == 1]
        eigenfunctions = [_eigenvector(M, slices, annihilator, lam, k)
                          for lam, k in simple]
    evs.sort(key=lambda e: (e.midpoint(), e.degree))
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
