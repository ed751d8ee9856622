import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from oscchain.exact import MultiPoly, random_rational
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
    sympy's `Matrix.charpoly`: Fractions, lowest degree first."""
    import sympy
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Matrix(rows).charpoly().all_coeffs())]


def per_block(M):
    """The levels of the OpMatrix M by the per-block path, the oracle of
    the spectral engine's two level routes: the diagonal blocks are the
    degree slices when M is graded-triangular, else M is one block of
    degree N; each block's levels are the real roots of its `char_poly`
    (`linalg.real_roots_exact`), and a repeated rational level's
    eigenspace dim is the block size less sympy's rank of the shifted
    block (over QQ: `Matrix.rank` takes minutes on a 21 x 21 block).
    Ordered as `spectra.eigenvalues_graded` orders its levels."""
    import sympy
    from sympy.polys.matrices import DomainMatrix
    from oscchain import linalg, spectra
    slices = M.basis.degree_slices() if M.is_graded_triangular() \
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
            levels.append(spectra.Eigenvalue(x, None, mult, degree, dim))
        levels += [spectra.Eigenvalue(None, cell, mult, degree)
                   for cell, mult in irrational]
    return tuple(sorted(levels, key=lambda e: (e.approx(), e.degree)))


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
