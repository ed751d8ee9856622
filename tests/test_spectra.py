"""Finite spectral engine: graded bases, block triangularity, exact
eigenvalues with certified intervals, and closed-form cross-checks."""
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscchain import linalg, spectra
from oscchain.exact import DiffOp, MultiPoly
from oscchain.model import Case, Params, build_h_algebraic, nu_coefficients

from conftest import degree1_block, draw_params


def test_basis_sizes_and_order():
    for k, variables in ((1, ("rho",)), (2, ("x12", "x13")),
                         (3, ("rho12", "rho13", "rho23"))):
        for N in range(5):
            basis = spectra.enumerate_basis(variables, N)
            assert basis.size == comb(N + k, k)
            degs = [sum(m) for m in basis.monomials]
            assert degs == sorted(degs)


def test_degree_slices_partition():
    basis = spectra.enumerate_basis(("rho12", "rho13", "rho23"), 4)
    slices = basis.degree_slices()
    assert slices[0][1] == 0 and slices[-1][2] == basis.size
    for (_, _, stop), (_, start, _) in zip(slices, slices[1:]):
        assert stop == start


def test_graded_triangularity_of_case_operators(rng):
    for case in (Case.GENERAL3, Case.EQUAL_MASS3, Case.ATOMIC3):
        from test_model import draw_case_params
        p = draw_case_params(rng, case)
        h = build_h_algebraic(case, p)
        M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, 3))
        assert M.is_graded_triangular()


def test_invariant_subspace_violation_is_detected():
    vs = ("rho12", "rho13", "rho23")
    bad = DiffOp(vs, {(1, 0, 0): MultiPoly.var(vs, "rho12") ** 2})
    basis = spectra.enumerate_basis(vs, 2)
    with pytest.raises(spectra.InvariantSubspaceViolation):
        spectra.assemble_matrix(bad, basis)


def test_two_body_harmonic_spectrum_linear():
    p = Params(m1=1, m2=1, omega=Fraction(3, 2), d=4)
    rep = spectra.spectrum(Case.TWO_BODY_ES, p, 6)
    assert rep.rational_gauged() == [6 * n for n in range(7)]
    assert rep.ground_energy == Fraction(3, 2) * 4


def test_isotropic_spectrum_with_multiplicities():
    p = Params(a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(1, 2))
    rep = spectra.spectrum(Case.ISOTROPIC3, p, 4)
    # gauged eigenvalue 6 a omega s with the number of degree-s monomials
    want = []
    for s in range(5):
        want.extend([3 * s] * comb(s + 2, 2))
    assert rep.rational_gauged() == sorted(want)


def test_equal_mass_degree_one_eigenvalues():
    p = Params(a=1, b=1, c=2)
    rep = spectra.spectrum(Case.EQUAL_MASS3, p, 1)
    assert rep.rational_gauged() == [0, 6, 8, 10]


def test_equal_mass_degree_one_brute_force_oracle():
    """The 3x3 degree-1 block must reproduce numpy's eigenvalues."""
    p = Params(a=1, b=1, c=2)
    h = build_h_algebraic(Case.EQUAL_MASS3, p)
    basis = spectra.enumerate_basis(h.variables, 1)
    M = spectra.assemble_matrix(h, basis)
    _, start, stop = basis.degree_slices()[1]
    exact = sorted(v for v, _ in linalg.real_roots_exact(
        linalg.char_poly(M.matrix[start:stop, start:stop]))[0])
    brute = np.linalg.eigvals(
        np.array(M.entries, dtype=float)[start:stop, start:stop])
    assert sorted(round(float(v), 9) for v in exact) \
        == sorted(round(v.real, 9) for v in brute)


def test_eigenvalue_sum_matches_trace(rng):
    p = draw_params(rng)
    h = build_h_algebraic(Case.GENERAL3, p)
    basis = spectra.enumerate_basis(h.variables, 3)
    M = spectra.assemble_matrix(h, basis)
    rep = spectra.eigenvalues_graded(M, Case.GENERAL3, Fraction(0),
                                     want_eigenfunctions=False)
    total = sum(ev.approx() * ev.multiplicity for ev in rep.gauged)
    trace = float(sum(M.entries[i][i] for i in range(M.size)))
    assert abs(total - trace) < 1e-9


def test_omega_scaling_covariance():
    base = spectra.spectrum(Case.EQUAL_MASS3, Params(a=1, b=1, c=2), 2)
    scaled = spectra.spectrum(Case.EQUAL_MASS3,
                              Params(a=1, b=1, c=2, omega=Fraction(5, 3)), 2)
    assert scaled.rational_gauged() \
        == [Fraction(5, 3) * v for v in base.rational_gauged()]


def test_eigenfunctions_satisfy_operator_exactly(rng):
    p = Params(m1=2, m2=3, m3=Fraction(5, 2), a=1, b=2, c=1)
    rep = spectra.spectrum(Case.GENERAL3, p, 2)
    h = build_h_algebraic(Case.GENERAL3, p)
    assert rep.eigenfunctions
    for ef in rep.eigenfunctions:
        f = ef.as_poly(rep.basis)
        assert h.apply(f) == ef.eigenvalue * f


# every level rational, simple levels at every degree; a deep 2-body basis
FIXED_DRAWS = {
    Case.GENERAL3: (Params(m1=2, m2=3, m3=Fraction(5, 2), a=1, b=2, c=2), 6),
    Case.TWO_BODY_ES: (Params(m1=1, m2=1, omega=Fraction(3, 2), d=3), 10),
}


@pytest.mark.parametrize(
    "case", [Case.GENERAL3, Case.EQUAL_MASS3, Case.ATOMIC3, Case.ONE_DIM3,
             Case.MOLECULAR3, Case.TWO_BODY_ES], ids=lambda c: c.value)
def test_eigenfunctions_match_full_matrix_nullspace(case, rng):
    """Eigenvectors from the blocks' annihilators (Cayley-Hamilton) equal
    the normalised null vectors of the whole shifted matrix (sympy's
    nullspace as the oracle), one per rational level that is simple
    across the grading.  The molecular draw with a = -b, where A is a
    nonzero nilpotent, takes the per-block path; its one level 0 is
    repeated, so it has no eigenfunction.  Above 35 basis monomials (the general3 draw of
    `FIXED_DRAWS`) sympy's dense nullspace takes seconds a level; there
    each eigenvector must annihilate the whole shifted matrix exactly and
    equal the per-block path's, whose char polys make its level simple,
    so that the null space is one-dimensional."""
    import sympy
    from test_model import draw_case_params
    draws = [(draw_case_params(rng, case), rng.randint(1, 4))
             for _ in range(3)]
    if case in FIXED_DRAWS:
        draws.append(FIXED_DRAWS[case])
    if case is Case.MOLECULAR3:
        draws.append((Params(m1=2, m2=None, m3=None, a=1, b=-1, c=0,
                             rho23=Fraction(3, 2)), 3))
    for p, N in draws:
        rep = spectra.spectrum(case, p, N)
        M = spectra.assemble_matrix(spectra.case_operator(case, p),
                                    rep.basis)
        counts = Counter()
        for ev in rep.gauged:
            if ev.value is not None:
                counts[ev.value] += ev.multiplicity
        assert sorted(ef.eigenvalue for ef in rep.eigenfunctions) \
            == sorted(v for v, c in counts.items() if c == 1)
        if M.size > 35:
            per_block = spectra.eigenvalues_graded(replace(M, gl3_form=False))
            assert per_block.eigenfunctions == rep.eigenfunctions
            for ef in rep.eigenfunctions:
                assert all(sum(col.get(i, 0) * ef.coeffs[j]
                               for j, col in M.cols.items())
                           == ef.eigenvalue * ef.coeffs[i]
                           for i in range(M.size))
            continue
        full = sympy.Matrix(M.entries)
        for ef in rep.eigenfunctions:
            (null,) = (full - ef.eigenvalue * sympy.eye(M.size)).nullspace()
            lead = next(x for x in null if x != 0)
            assert ef.coeffs == tuple(Fraction(int(x.p), int(x.q))
                                      for x in null / lead)


def test_a_corrupted_annihilator_is_a_named_failure(monkeypatch, capsys):
    """A factor x - c of each block's annihilator turned into x - c + 1
    leaves a product that no longer vanishes on the block (the
    all-rational draw at N = 2), so the certificate (M - lam) v = 0
    fails: `EigenvectorCertificateError` is raised, with no fallback,
    and the CLI exits 1."""
    from oscchain import cli
    gl3_levels = spectra._gl3_levels

    def corrupted(*args):
        levels, ((one, c), *factors) = gl3_levels(*args)
        return levels, [[one, c + 1], *factors]

    monkeypatch.setattr(spectra, "_gl3_levels", corrupted)
    p, _ = FIXED_DRAWS[Case.GENERAL3]
    with pytest.raises(spectra.EigenvectorCertificateError):
        spectra.spectrum(Case.GENERAL3, p, 2)
    assert spectra.spectrum(Case.GENERAL3, p, 2,
                            want_eigenfunctions=False).gauged
    assert cli.main(["spectrum", "--case", "general3", "--m1", "2",
                     "--m2", "3", "--m3", "5/2", "--a", "1", "--b", "2",
                     "--c", "2", "--N", "2"]) == 1
    err = capsys.readouterr().err
    assert "EigenvectorCertificateError" in err and "Traceback" not in err


def op_matrix(variables, N, rows):
    """A hand-built OpMatrix from a row dict {i: {j: value}}, held as the
    columns {j: {i: Fraction}}."""
    cols = {}
    for i, row in rows.items():
        for j, x in row.items():
            cols.setdefault(j, {})[i] = Fraction(x)
    return spectra.OpMatrix(spectra.enumerate_basis(variables, N), cols)


def test_eigenvalues_graded_on_a_hand_built_matrix():
    """Zero rows, the 1x1 zero block of degree 0, and repeated levels with
    eigenspaces of dimension 1 and 2; each level that is simple across
    the grading gets the normalised null vector of the whole shifted
    matrix (sympy's nullspace as the oracle)."""
    import sympy
    M = op_matrix(("x12", "x13"), 2, {
        # row 0 is zero: the degree-0 block is [0]
        1: {1: 3, 2: 1, 4: 1},           # degree 1: [[3, 1], [0, 3]]
        2: {2: 3, 4: 2, 5: -1},
        3: {3: 5},                       # degree 2: [[5, 0, 0],
        4: {3: 1, 4: 7},                 #            [1, 7, 0],
        5: {5: 5},                       #            [0, 0, 5]]
    })
    assert M.is_graded_triangular()
    assert M.entries[0] == (Fraction(0),) * 6
    rep = spectra.eigenvalues_graded(M)
    assert [(ev.value, ev.multiplicity, ev.degree, ev.eigenspace_dim)
            for ev in rep.gauged] \
        == [(0, 1, 0, None), (3, 2, 1, 1), (5, 2, 2, 2), (7, 1, 2, None)]
    full = sympy.Matrix(M.entries)
    assert [ef.eigenvalue for ef in rep.eigenfunctions] == [0, 7]
    for ef in rep.eigenfunctions:
        (null,) = (full - ef.eigenvalue * sympy.eye(M.size)).nullspace()
        lead = next(x for x in null if x != 0)
        assert ef.coeffs == tuple(Fraction(int(x.p), int(x.q))
                                  for x in null / lead)


def test_graded_triangularity_reads_the_stored_entries():
    # an entry from degree 1 down into degree 0 breaks the grading
    M = op_matrix(("x12", "x13"), 1, {1: {0: 1}})
    assert not M.is_graded_triangular()
    # so the whole matrix is one block of degree N = 1: [[0, 0, 0],
    # [1, 0, 0], [0, 0, 0]] has the level 0, thrice, with a 2-dim eigenspace
    assert [(ev.value, ev.multiplicity, ev.degree, ev.eigenspace_dim)
            for ev in spectra.eigenvalues_graded(M).gauged] \
        == [(0, 3, 1, 2)]


def test_defective_block_keeps_report():
    # a rotation in the degree-1 block: two complex levels
    M = op_matrix(("x12", "x13"), 1, {1: {2: -1}, 2: {1: 1}})
    with pytest.raises(spectra.DefectiveBlock) as info:
        spectra.eigenvalues_graded(M)
    Z, one = Fraction(0), Fraction(1)
    assert [ev.value for ev in info.value.report.gauged] == [0]
    assert info.value.report.eigenfunctions[0].coeffs == (one, Z, Z)


def test_molecular_spectrum():
    p = Params(m1=1, m2=None, m3=None, a=1, b=1, c=0, rho23=Fraction(2))
    rep = spectra.spectrum(Case.MOLECULAR3, p, 2)
    assert rep.rational_gauged() == [0, 4, 8, 8, 12, 16]
    assert rep.ground_energy == 3 * 2 + 2 * 2  # omega d (a+b) + 2 m ab rho23


def test_qes_block_reduces_to_harmonic_at_zero_coupling():
    p = Params(m1=1, m2=1, A=0, N=3)
    rep = spectra.qes_2body_block(p)
    assert sorted(ev.value for ev in rep.gauged) == [0, 4, 8, 12]


def test_qes_block_interval_eigenvalues():
    p = Params(m1=1, m2=1, A=1, N=1, d=3)
    rep = spectra.qes_2body_block(p)
    vals = sorted(ev.approx() for ev in rep.gauged)
    # char poly x^2 - 4x - 24: roots 2 +/- sqrt(28)
    lo, hi = 2 - math.sqrt(28), 2 + math.sqrt(28)
    assert abs(vals[0] - lo) < 1e-12 and abs(vals[1] - hi) < 1e-12
    for ev in rep.gauged:
        if ev.value is None:
            a, b = ev.interval
            assert b - a <= Fraction(1, 2 ** 64)


def test_qes_trace_identity():
    p = Params(m1=1, m2=1, A=2, N=2, d=5)
    rep = spectra.qes_2body_block(p)
    h = build_h_algebraic(Case.TWO_BODY_QES, p)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(("rho",), 2))
    trace = float(sum(M.entries[i][i] for i in range(M.size)))
    total = sum(ev.approx() * ev.multiplicity for ev in rep.gauged)
    assert abs(total - trace) < 1e-9


@pytest.mark.parametrize("A", [2, Fraction(1, 2), 0], ids=str)
def test_qes_block_is_the_spectrum_on_p_n(A):
    """`qes_2body_block` is `spectrum` on P_N: one block of degree N at
    A != 0.  At A = 0 the QES operator is the harmonic 2-body operator term
    by term, so its matrix is graded and its levels, degrees and
    eigenfunctions are those of twobody_es."""
    for N in range(5):
        p = Params(m1=1, m2=1, omega=Fraction(3, 2), d=3, A=A, N=N)
        rep = spectra.spectrum(Case.TWO_BODY_QES, p, N)
        assert rep.to_json() == spectra.qes_2body_block(p).to_json()
        if A:
            assert {ev.degree for ev in rep.gauged} == {N}
        else:
            es = spectra.spectrum(Case.TWO_BODY_ES, p, N)
            assert (rep.gauged, rep.eigenfunctions) \
                == (es.gauged, es.eigenfunctions)


def per_block(M):
    """`spectra.eigenvalues_graded` of M with the tridiagonal path shut."""
    from unittest import mock
    with mock.patch.object(spectra, "_jacobi", lambda M: None):
        return spectra.eigenvalues_graded(M)


COUPLINGS = st.fractions(min_value=Fraction(1, 3), max_value=6,
                         max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(COUPLINGS, COUPLINGS, st.integers(1, 5), st.integers(1, 8))
# draws with rational levels (in brackets), each value / L an integer y
@example(Fraction(1, 3), Fraction(1), 3, 2)                  # [12]
@example(Fraction(5, 3), Fraction(5, 3), 1, 4)               # [80/3]
@example(Fraction(1), Fraction(1, 2), 1, 3)                  # [6]
@example(Fraction(2), Fraction(1), 2, 3)                     # [12]
@example(Fraction(6), Fraction(3), 2, 3)                     # [0]
@example(Fraction(3), Fraction(3), 4, 2)                     # [-12]
@example(Fraction(4, 3), Fraction(1, 3), 2, 1)               # [-4, 16/3]
@example(Fraction(2, 3), Fraction(2, 3), 2, 2)               # [-16/3]
def test_qes_block_takes_the_tridiagonal_path(A, omega, d, N):
    """At A > 0 the QES block is tridiagonal with every product of
    opposite off-diagonal entries positive, so its levels come from
    integer Sturm counts and its rational levels' eigenfunctions from its
    char poly as the annihilator; levels, cells and eigenfunctions equal
    the per-block path's."""
    p = Params(m1=1, m2=1, omega=omega, d=d, A=A, N=N)
    M = spectra.assemble_matrix(build_h_algebraic(Case.TWO_BODY_QES, p),
                                spectra.enumerate_basis(("rho",), N))
    assert spectra._jacobi(M) is not None
    got, want = spectra.eigenvalues_graded(M), per_block(M)
    assert (got.gauged, got.eigenfunctions) \
        == (want.gauged, want.eigenfunctions)
    assert all(ev.multiplicity == 1 for ev in got.gauged)
    assert len(got.eigenfunctions) \
        == sum(ev.value is not None for ev in got.gauged)


@pytest.mark.parametrize("product", [-1, 0])
def test_a_product_not_positive_takes_the_per_block_path(
        product, char_poly_sizes):
    """[[0, 1, 0], [1, 5, b], [0, 1, 10]] with b = -1 or 0: tridiagonal
    and one block, but its second product is not positive, so it need not
    be similar to a symmetric matrix and takes the per-block path."""
    row1 = {0: 1, 1: 5, 2: product} if product else {0: 1, 1: 5}
    M = op_matrix(("rho",), 2, {0: {1: 1}, 1: row1, 2: {1: 1, 2: 10}})
    assert not M.is_graded_triangular() and spectra._jacobi(M) is None
    rep = spectra.eigenvalues_graded(M)
    assert char_poly_sizes == [3]
    assert rep == per_block(M)
    assert sum(ev.multiplicity for ev in rep.gauged) == 3


def test_laguerre_recurrence_and_verification():
    assert spectra.laguerre_verify(Params(m1=1, m2=1, d=2), 10)
    assert spectra.laguerre_verify(
        Params(m1=1, m2=1, omega=Fraction(3, 2), d=3), 6)


def test_laguerre_polynomials_known_values():
    polys = spectra.laguerre_polynomials(2, Fraction(1, 2), Fraction(1))
    rho = MultiPoly.var(("rho",), "rho")
    one = MultiPoly.const(("rho",), 1)
    assert polys[0] == one
    assert polys[1] == Fraction(3, 2) * one - rho
    assert polys[2] == Fraction(15, 8) * one - Fraction(5, 2) * rho \
        + Fraction(1, 2) * rho * rho


def test_spectrum_report_json():
    rep = spectra.spectrum(Case.TWO_BODY_ES, Params(m1=1, m2=1), 2)
    doc = rep.to_json()
    assert doc["basis_size"] == 3
    assert doc["gauged"][0]["value"] == "0/1"
    assert doc["physical"][0]["value"] == "3/1"


# -- harmonic levels from the degree-1 block, against the per-block path ----

HARMONIC = [Case.GENERAL3, Case.EQUAL_MASS3, Case.ISOTROPIC3, Case.ATOMIC3,
            Case.MOLECULAR3, Case.ONE_DIM3, Case.TWO_BODY_ES]


def both_paths(M):
    """(outcome, levels, eigenfunctions) of M from the degree-1 block and
    from each block's char poly; a DefectiveBlock reads its report."""
    out = []
    for m in (M, replace(M, gl3_form=False)):
        try:
            rep = spectra.eigenvalues_graded(m)
            out.append(("ok", rep.gauged, rep.eigenfunctions))
        except spectra.DefectiveBlock as e:
            out.append(("defective", e.report.gauged,
                        e.report.eigenfunctions))
    return out


@pytest.fixture
def char_poly_sizes(monkeypatch):
    """The sizes of the blocks that `linalg.char_poly` is called on."""
    sizes = []
    char_poly = linalg.char_poly

    def spy(A):
        sizes.append(A.shape[0])
        return char_poly(A)

    monkeypatch.setattr(linalg, "char_poly", spy)
    return sizes


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HARMONIC), st.integers(0, 2 ** 32),
       st.integers(1, 6))
def test_harmonic_levels_match_block_char_polys(case, seed, N):
    """Every harmonic case is of gl(3) form, and the levels read from the
    degree-1 block equal each block's char-poly levels, eigenspace dims
    included."""
    from test_model import draw_case_params
    p = draw_case_params(random.Random(seed), case)
    h = spectra.case_operator(case, p)
    assert spectra.is_gl3_form(h)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, N))
    assert M.gl3_form
    args = case, Fraction(0), False
    assert spectra.eigenvalues_graded(M, *args).gauged \
        == spectra.eigenvalues_graded(replace(M, gl3_form=False),
                                      *args).gauged


SPRINGS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
MASSES = st.fractions(min_value=Fraction(1, 3), max_value=6,
                      max_denominator=3)


@st.composite
def harmonic_params(draw, cases):
    """(case, params): a case among `cases` with valid parameters, its
    springs zero, negative or positive."""
    case = draw(st.sampled_from(cases))
    m1, m2, m3, omega = (draw(MASSES) for _ in range(4))
    a, b, c = (draw(SPRINGS) for _ in range(3))
    kw = {}
    if case in (Case.EQUAL_MASS3, Case.ISOTROPIC3):
        m2 = m3 = m1
    if case is Case.ISOTROPIC3:
        b = c = a
    if case is Case.ATOMIC3:
        m1, m3 = None, m2
    if case is Case.MOLECULAR3:
        m2 = m3 = None
        c = 0
        kw["rho23"] = draw(MASSES)
    if case is Case.ONE_DIM3:
        kw["d"] = 1
    return case, Params(m1=m1, m2=m2, m3=m3, a=a, b=b, c=c, omega=omega,
                        **kw)


@settings(max_examples=40, deadline=None)
@given(harmonic_params(HARMONIC[:-1]), st.integers(1, 4))
@example((Case.GENERAL3, Params(m1=5, m2=5, m3=Fraction(5, 2),
                                a=Fraction(2, 3), b=Fraction(5, 3),
                                c=Fraction(1, 2))), 3)    # delta = 49/9
@example((Case.GENERAL3, Params(m1=2, m2=3, m3=Fraction(5, 2),
                                a=1, b=2, c=2)), 3)       # delta = 4
@example((Case.GENERAL3, Params(m1=2, m2=3, m3=Fraction(5, 2),
                                a=0, b=0, c=0)), 3)       # A = 0
@example((Case.ISOTROPIC3, Params(a=-1, b=-1, c=-1)), 3)  # A = r0 I
@example((Case.MOLECULAR3, Params(m1=2, m2=None, m3=None, a=1, b=-1, c=0,
                                  rho23=Fraction(3, 2))), 3)  # A nilpotent
def test_levels_match_at_any_springs(case_params, N):
    """Zero, negative and positive springs, and delta = 0, a nonzero
    square or not a square: the levels and eigenfunctions from the
    degree-1 block equal the per-block path's, and every level is real.
    In the molecular case a = -b makes A a nonzero nilpotent, so the
    eigenspace dims come from the blocks' ranks."""
    case, p = case_params
    h = spectra.case_operator(case, p)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, N))
    structural, per_block = both_paths(M)
    assert structural == per_block and structural[0] == "ok"


def normal_mode_invariants(p):
    """(t, s): the trace and the sum of the principal 2x2 minors of
    M^-1 L_nu, from the masses and `nu_coefficients` alone.  L_nu is the
    nu-weighted Laplacian of the three pairs and M = diag(m), with
    1/m1 = 0 in the atomic case.  t and s are the sum and the product of
    the nonzero eigenvalues mu_k, and W_k = 2 omega sqrt(mu_k) are the
    normal-mode frequencies."""
    nu12, nu13, nu23 = nu_coefficients(p)
    L = [[nu12 + nu13, -nu12, -nu13],
         [-nu12, nu12 + nu23, -nu23],
         [-nu13, -nu23, nu13 + nu23]]
    inv = [Fraction(0) if m is None else 1 / m for m in p.masses]
    K = [[inv[i] * x for x in row] for i, row in enumerate(L)]
    t = K[0][0] + K[1][1] + K[2][2]
    s = sum(K[i][i] * K[j][j] - K[i][j] * K[j][i]
            for i, j in ((0, 1), (0, 2), (1, 2)))
    return t, s


@settings(max_examples=60, deadline=None)
@given(harmonic_params([Case.GENERAL3, Case.EQUAL_MASS3, Case.ISOTROPIC3,
                        Case.ATOMIC3]))
def test_degree1_block_from_the_normal_modes(case_params):
    """A's roots are 2 W1, W1 + W2 and 2 W2 (`spectra` docstring), so
    r0 = W1 + W2 = 2 omega (a + b + c), r0^2 + delta = 2 (W1^2 + W2^2) =
    8 omega^2 t and r0^2 delta = (W1^2 - W2^2)^2 = 16 omega^4 (t^2 - 4 s),
    and A's char poly is (x - r0)((x - r0)^2 - delta), the closed form's
    certificate.  These are polynomial identities in the springs, so they
    hold at zero and negative springs too."""
    import sympy
    case, p = case_params
    A, r0, delta = degree1_block(case, p)
    t, s = normal_mode_invariants(p)
    w = p.omega
    assert r0 == 2 * w * (p.a + p.b + p.c)
    assert r0 ** 2 + delta == 8 * w ** 2 * t
    assert r0 ** 2 * delta == 16 * w ** 4 * (t * t - 4 * s)
    x = sympy.Symbol("x")
    r0_, delta_ = sympy.Rational(r0), sympy.Rational(delta)
    assert sympy.Matrix(A).charpoly(x).as_expr().expand() \
        == ((x - r0_) * ((x - r0_) ** 2 - delta_)).expand()


@pytest.fixture
def per_block_stages(monkeypatch):
    """The names of the per-block stages called: `linalg.char_poly`,
    `linalg.factor_over_q` and `DomainMatrix.rank`."""
    from sympy.polys.matrices import DomainMatrix
    calls = []
    for owner, name in ((linalg, "char_poly"), (linalg, "factor_over_q"),
                        (DomainMatrix, "rank")):
        def spy(*args, real=getattr(owner, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
    return calls


def test_harmonic_cases_compute_no_char_poly(per_block_stages, rng):
    """The closed form of the degree-1 block certifies itself in every
    harmonic case, so no char poly, factoring or rank is computed: at the
    README parameters, in the all-rational regime (springs 1, 2, 2) and
    at a random draw of each case, for every N <= 6."""
    from test_model import draw_case_params
    m = dict(m1=2, m2=3, m3=Fraction(5, 2))
    draws = [(Case.GENERAL3, Params(**m, a=1, b=2, c=Fraction(3, 2))),
             (Case.GENERAL3, Params(**m, a=1, b=2, c=2))]
    draws += [(case, draw_case_params(rng, case)) for case in HARMONIC]
    for case, p in draws:
        for N in range(1, 7):
            rep = spectra.spectrum(case, p, N)
            assert sum(ev.multiplicity for ev in rep.gauged) \
                == rep.basis.size
    assert per_block_stages == []


def test_qes_and_zeroth_order_operators_take_the_per_block_path(
        char_poly_sizes):
    """The QES block at A < 0, where every product of opposite
    off-diagonal entries is negative, and a degree-preserving operator
    with a zeroth-order term take the per-block path.  At A > 0 the QES
    block is a Jacobi matrix and computes no char poly."""
    p = Params(m1=1, m2=1, A=2, N=3)
    qes = build_h_algebraic(Case.TWO_BODY_QES, p)
    assert not spectra.is_gl3_form(qes)
    spectra.qes_2body_block(p)
    assert char_poly_sizes == []
    with pytest.raises(spectra.DefectiveBlock):
        spectra.qes_2body_block(replace(p, A=-2))
    assert char_poly_sizes == [4]
    # x d_x + y d_y + 1: degree-preserving, but with a zeroth-order term
    vs = ("x", "y")
    x, y = MultiPoly.var(vs, "x"), MultiPoly.var(vs, "y")
    op = DiffOp(vs, {(1, 0): x, (0, 1): y, (0, 0): 1})
    assert not spectra.is_gl3_form(op)
    M = spectra.assemble_matrix(op, spectra.enumerate_basis(vs, 3))
    assert not M.gl3_form
    char_poly_sizes.clear()
    rep = spectra.eigenvalues_graded(M)
    assert char_poly_sizes == [1, 2, 3, 4]
    assert rep.rational_gauged() == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]


def _rotation(vs):      # y d_x - x d_y + d_x^2: A has roots +/- i
    x, y = (MultiPoly.var(vs, v) for v in vs)
    return DiffOp(vs, {(1, 0): y, (0, 1): -x, (2, 0): 1})


def _jordan(vs):        # x d_x + (x + y) d_y + x d_y^2: A = [[1, 1], [0, 1]]
    x, y = (MultiPoly.var(vs, v) for v in vs)
    return DiffOp(vs, {(1, 0): x, (0, 1): x + y, (0, 2): x})


def _cubic(vs):         # A has the irreducible char poly t^3 - 3t + 1
    x, y, z = (MultiPoly.var(vs, v) for v in vs)
    return DiffOp(vs, {(1, 0, 0): y, (0, 1, 0): z, (0, 0, 1): 3 * y - x,
                       (1, 1, 0): 1})


@pytest.mark.parametrize("build, variables, outcome, char_polys", [
    (_rotation, ("x", "y"), "defective", []),
    (_jordan, ("x", "y"), "ok", [1, 2, 3, 4, 5]),
    (_cubic, ("x", "y", "z"), "ok", [1, 3, 6, 10, 15]),
], ids=["rotation", "jordan", "cubic"])
def test_gl3_form_edge_cases_match_the_per_block_path(
        build, variables, outcome, char_polys, char_poly_sizes):
    """A rotation (complex roots of A: the same DefectiveBlock report), a
    Jordan block (A is not diagonalizable) and an irreducible cubic (the
    closed form's certificate fails): the last two take the per-block
    path, with eigenspace dims from the rank.
    `char_polys` lists the blocks whose char poly the path from the
    degree-1 block computes; the per-block path then computes one per
    block."""
    M = spectra.assemble_matrix(build(variables),
                                spectra.enumerate_basis(variables, 4))
    assert M.gl3_form
    structural, per_block = both_paths(M)
    assert char_poly_sizes == char_polys + [
        stop - start for _, start, stop in M.basis.degree_slices()]
    assert structural == per_block and structural[0] == outcome
    if build is _jordan:
        # Sym^n of a Jordan block is one Jordan block: level n, dim 1
        assert [(ev.value, ev.multiplicity, ev.eigenspace_dim)
                for ev in structural[1]] \
            == [(n, n + 1, 1 if n else None) for n in range(5)]


def test_basis_is_built_once_per_variables_and_degree():
    assert spectra.enumerate_basis(["x", "y"], 3) \
        is spectra.enumerate_basis(("x", "y"), 3)
