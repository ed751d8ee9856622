import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest
from hypothesis import strategies as st

from oscchain.exact import (CANONICAL_PAIRS, DiffOp, MultiPoly,
                            random_rational)
from oscchain.model import Params


def draw_fraction(rng: random.Random, lo: int = 1, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def draw_params(rng: random.Random, **fixed) -> Params:
    kwargs = dict(
        m1=draw_fraction(rng), m2=draw_fraction(rng), m3=draw_fraction(rng),
        a=draw_fraction(rng), b=draw_fraction(rng), c=draw_fraction(rng),
        omega=draw_fraction(rng), d=rng.choice([2, 3, 4, 5]),
    )
    kwargs.update(fixed)
    return Params(**kwargs)


def draw_poly(rng: random.Random, variables, max_degree: int = 3,
              n_terms: int = 4) -> MultiPoly:
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = random_rational(rng)
    return MultiPoly(variables, terms)


def degree1_block(case, p):
    """(A, r0, delta) for a 3-variable harmonic case: the degree-1 block A
    of its gauged operator, read off the matrix on P_1 as rows of
    Fractions, r0 = tr(A)/3 and delta = (tr(A^2) - 3 r0^2)/2, so that A
    has the roots r0 and r0 +/- sqrt(delta) (`spectra` docstring)."""
    from oscchain import spectra
    h = spectra.case_operator(case, p)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, 1))
    A = [row[1:] for row in M.entries[1:]]
    r0 = sum(A[i][i] for i in range(3)) / 3
    delta = (sum(A[i][j] * A[j][i] for i in range(3) for j in range(3))
             - 3 * r0 ** 2) / 2
    return A, r0, delta


def char_poly(rows):
    """det(x - B) of the square matrix B given as rows of Fractions, from
    sympy's `Matrix.charpoly`: Fractions, highest degree first."""
    import sympy
    return [Fraction(int(c.p), int(c.q))
            for c in sympy.Matrix(rows).charpoly().all_coeffs()]


def is_graded_triangular(M):
    """True when no stored entry of the OpMatrix M maps a monomial to one
    of higher degree: deg(i) <= deg(j) for every entry (i, j) of
    `M.cols`."""
    degree = [sum(m) for m in M.basis.monomials]
    return all(degree[i] <= degree[j]
               for j, col in M.cols.items() for i in col)


def per_block(M):
    """The levels of the OpMatrix M by the per-block path, the oracle of
    the spectral engine's two level routes: the diagonal blocks are the
    degree slices when M is graded-triangular, else M is one block of
    degree N; each block's levels are the real roots of its `char_poly`
    (`linalg.real_roots_exact`), and a repeated rational level's
    eigenspace dim is the block size less sympy's rank of the shifted
    block (over QQ: `Matrix.rank` takes minutes on a 21 x 21 block).
    Ordered as `spectra.eigenvalues_graded` orders its levels: by exact
    value, a cell by its midpoint, then by degree."""
    import sympy
    from sympy.polys.matrices import DomainMatrix
    from oscchain import linalg, spectra
    slices = M.basis.degree_slices() if is_graded_triangular(M) \
        else [(M.basis.degree_cap, 0, M.size)]
    rows = M.entries
    levels = []
    for degree, lo, hi in slices:
        block = [row[lo:hi] for row in rows[lo:hi]]
        rational, irrational = linalg.real_roots_exact(char_poly(block))
        for x, mult in rational:
            shifted = sympy.Matrix(block) - x * sympy.eye(hi - lo)
            dim = hi - lo - DomainMatrix.from_Matrix(shifted).rank() \
                if mult > 1 else None
            levels.append(spectra.RationalLevel(x, mult, degree, dim))
        levels += [spectra.CellLevel(cell, mult, degree)
                   for cell, mult in irrational]
    return tuple(sorted(levels, key=lambda e: (e.midpoint(), e.degree)))


def rational_gauged(rep):
    """The rational gauged levels of a SpectrumReport, each repeated by
    its multiplicity, sorted."""
    out = []
    for ev in rep.gauged:
        if ev.value is not None:
            out.extend([ev.value] * ev.multiplicity)
    return sorted(out)


# -- the exact kernel's oracle: apply, compose, commutator,
# poisson_bracket and gauge_conjugate in MultiPoly arithmetic, one
# MultiPoly per derivative, product and partial sum, as they were before
# their one-pass kernels; every kernel result must equal the oracle's

def oracle_apply(A, f):
    """A f with each term's derivative taken one variable and one order at
    a time, a new MultiPoly per `diff`."""
    out = None
    for derivs, coeff in A.terms.items():
        g = f
        for v, k in zip(A.variables, derivs):
            for _ in range(k):
                g = g.diff(v)
        if g.is_zero():
            continue
        term = coeff * g
        out = term if out is None else out + term
    return f * 0 if out is None else out


def _binom_multi(alpha, gamma) -> int:
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out


def _sub_multi_indices(alpha):
    """All gamma with 0 <= gamma <= alpha componentwise."""
    idx = [()]
    for a in alpha:
        idx = [g + (k,) for g in idx for k in range(a + 1)]
    return idx


def _leibniz_into(a: dict, b: dict, out: dict, sign: int,
                  skip_leading: bool) -> None:
    """Add the terms of sign * (A o B) to out, for operators A and B given
    by their term maps {derivs: MultiPoly}.

    P d^alpha (Q d^beta f) = sum_gamma C(alpha,gamma) P (d^gamma Q)
    d^(alpha-gamma+beta) f; skip_leading leaves out gamma = 0, the term
    P Q d^(alpha+beta) that cancels in a commutator.
    """
    derived: dict = {}
    for alpha, P in a.items():
        gammas = _sub_multi_indices(alpha)   # gammas[0] is gamma = 0
        if skip_leading:
            gammas = gammas[1:]
        factors: dict = {}
        for gamma in gammas:
            scale = sign * _binom_multi(alpha, gamma)
            for beta, Q in b.items():
                if (beta, gamma) not in derived:
                    derived[beta, gamma] = Q.partial(gamma)
                dQ = derived[beta, gamma]
                if dQ.is_zero():
                    continue
                if scale != 1:
                    dQ = dQ * scale
                derivs = tuple(x - g + y for x, g, y in zip(alpha, gamma, beta))
                factors[derivs] = factors[derivs] + dQ if derivs in factors \
                    else dQ
        for derivs, S in factors.items():
            term = P * S
            out[derivs] = out[derivs] + term if derivs in out else term


def _products(A, B, commutator: bool):
    A._check(B)
    terms: dict = {}
    _leibniz_into(A.terms, B.terms, terms, 1, commutator)
    if commutator:
        _leibniz_into(B.terms, A.terms, terms, -1, True)
    return DiffOp._make(A.variables, terms)


def oracle_compose(A, B):
    return _products(A, B, False)


def oracle_commutator(A, B):
    return _products(A, B, True)


def oracle_poisson_bracket(f, g):
    """{f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i."""
    if f.variables != g.variables:
        raise ValueError("f and g must share a phase space")
    out = MultiPoly.zero(f.variables)
    for q, p in CANONICAL_PAIRS:
        out = out + f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q)
    return out


def oracle_gauge_conjugate(A, q, shift=0):
    """g^-1 (A - shift) g for g = exp(q): each d_i becomes d_i + (d_i q),
    composed term by term."""
    n = len(A.variables)
    shifted = [DiffOp(A.variables,
                      {tuple(1 if j == i else 0 for j in range(n)): 1,
                       (0,) * n: q.diff(v)})
               for i, v in enumerate(A.variables)]
    out = DiffOp(A.variables)
    for alpha, P in A.terms.items():
        term = DiffOp.identity(A.variables)
        for i, k in enumerate(alpha):
            for _ in range(k):
                term = oracle_compose(shifted[i], term)
        out = out + oracle_compose(DiffOp.mul_by(P), term)
    if isinstance(shift, MultiPoly):
        out = out - DiffOp.mul_by(shift)
    elif shift != 0:
        out = out - shift * DiffOp.identity(A.variables)
    return out


def oracle_apply_gaussian(A, f, q):
    """The polynomial r with A(f e^q) = r e^q, by the product rule
    d_i (f e^q) = (d_i f + f d_i q) e^q, one derivative at a time: the
    oracle of the ground-state checks, which use no gauge conjugation."""
    out = MultiPoly.zero(A.variables)
    for alpha, P in A.terms.items():
        r = f
        for v, k in zip(A.variables, alpha):
            for _ in range(k):
                r = r.diff(v) + r * q.diff(v)
        out = out + P * r
    return out


@contextmanager
def oracle_kernels():
    """Within the block, DiffOp.compose, DiffOp.commutator and the
    battery's poisson_bracket are the oracle's."""
    from oscchain import integrals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiffOp, "compose", oracle_compose)
        mp.setattr(DiffOp, "commutator", oracle_commutator)
        mp.setattr(integrals, "poisson_bracket", oracle_poisson_bracket)
        yield


fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


@st.composite
def polys_st(draw, variables=("x", "y"), max_degree=3, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in variables)
        terms[exps] = draw(fractions_st)
    return MultiPoly(variables, terms)


@pytest.fixture
def rng():
    return random.Random(20260823)


# one pass/fail line per acceptance criterion, echoed after the run
# (terminal-summary output is never swallowed by capture)
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
