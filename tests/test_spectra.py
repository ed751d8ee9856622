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

from conftest import (char_poly, degree1_block, draw_params,
                      is_graded_triangular, per_block, rational_gauged)


def test_basis_order_is_the_counted_combinations():
    """Each degree's exponent tuples in the order of the sorted variable
    multisets that `combinations_with_replacement` gives, counted."""
    from itertools import combinations_with_replacement
    for k, variables in ((1, ("rho",)), (2, ("x12", "x13")),
                         (3, ("rho12", "rho13", "rho23"))):
        for N in range(9):
            want = tuple(tuple(c.count(i) for i in range(k))
                         for n in range(N + 1)
                         for c in combinations_with_replacement(range(k), n))
            assert spectra.enumerate_basis(variables, N).monomials == want


def test_a_basis_at_the_cap_is_built_in_linear_time():
    import time
    spectra._enumerate_basis.cache_clear()
    t0 = time.perf_counter()
    basis = spectra.enumerate_basis(("rho",), spectra.MAX_BASIS_SIZE - 1)
    assert time.perf_counter() - t0 < 2
    assert basis.size == spectra.MAX_BASIS_SIZE
    spectra._enumerate_basis.cache_clear()


def test_the_basis_cap_message_counts_the_monomials():
    """comb(83 + 3, 3) = 102,340 monomials of degree <= 83 in 3 variables,
    the first N past the cap of 10^5; refused before any is built."""
    with pytest.raises(ValueError, match="^a basis of degree <= 83 in 3 "
                       "variables has 102340 monomials, more than 100000$"):
        spectra.enumerate_basis(("rho12", "rho13", "rho23"), 83)


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
        assert is_graded_triangular(M)


def test_invariant_subspace_violation_is_detected():
    vs = ("rho12", "rho13", "rho23")
    bad = DiffOp(vs, {(1, 0, 0): MultiPoly.var(vs, "rho12") ** 2})
    basis = spectra.enumerate_basis(vs, 2)
    with pytest.raises(spectra.InvariantSubspaceViolation):
        spectra.assemble_matrix(bad, basis)


def test_two_body_harmonic_spectrum_linear():
    p = Params(m1=1, m2=1, omega=Fraction(3, 2), d=4)
    rep = spectra.spectrum(Case.TWO_BODY_ES, p, 6)
    assert rational_gauged(rep) == [6 * n for n in range(7)]
    assert rep.ground_energy == Fraction(3, 2) * 4


def test_isotropic_spectrum_with_multiplicities():
    p = Params(a=Fraction(1, 2), b=Fraction(1, 2), c=Fraction(1, 2))
    rep = spectra.spectrum(Case.ISOTROPIC3, p, 4)
    # gauged eigenvalue 6 a omega s with the number of degree-s monomials
    want = []
    for s in range(5):
        want.extend([3 * s] * comb(s + 2, 2))
    assert rational_gauged(rep) == sorted(want)


def test_equal_mass_degree_one_eigenvalues():
    p = Params(a=1, b=1, c=2)
    rep = spectra.spectrum(Case.EQUAL_MASS3, p, 1)
    assert rational_gauged(rep) == [0, 6, 8, 10]


def test_equal_mass_degree_one_brute_force_oracle():
    """The 3x3 degree-1 block must reproduce numpy's eigenvalues."""
    p = Params(a=1, b=1, c=2)
    h = build_h_algebraic(Case.EQUAL_MASS3, p)
    basis = spectra.enumerate_basis(h.variables, 1)
    M = spectra.assemble_matrix(h, basis)
    _, start, stop = basis.degree_slices()[1]
    block = [row[start:stop] for row in M.entries[start:stop]]
    exact = sorted(v for v, _ in linalg.real_roots_exact(
        char_poly(block))[0])
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
    assert rational_gauged(scaled) \
        == [Fraction(5, 3) * v for v in rational_gauged(base)]


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
    across the grading.  In the molecular draw with a = -b, A is a
    nonzero nilpotent; its one level 0 is repeated, so it has no
    eigenfunction.  Above 35 basis monomials (the general3 draw of
    `FIXED_DRAWS`) sympy's dense nullspace takes seconds a level; there
    each eigenvector must be normalised and annihilate the whole shifted
    matrix exactly, and its level be simple by the blocks' char polys
    (`per_block`), so that the null space is one-dimensional."""
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
            assert exact_eigenfunctions(M, rep, per_block(M))
            continue
        full = sympy.Matrix(M.entries)
        for ef in rep.eigenfunctions:
            (null,) = (full - ef.eigenvalue * sympy.eye(M.size)).nullspace()
            lead = next(x for x in null if x != 0)
            assert ef.coeffs == tuple(Fraction(int(x.p), int(x.q))
                                      for x in null / lead)


def exact_eigenfunctions(M, rep, levels):
    """True when `rep` has one eigenfunction per rational level that
    `levels` makes simple across the grading, each normalised (its first
    nonzero coordinate is 1) with M v = lam v exactly.  The null space of
    M - lam is then one-dimensional, so v is the only such vector."""
    counts = Counter()
    for ev in levels:
        if ev.value is not None:
            counts[ev.value] += ev.multiplicity
    if sorted(ef.eigenvalue for ef in rep.eigenfunctions) \
            != sorted(v for v, c in counts.items() if c == 1):
        return False
    return all(next(x for x in ef.coeffs if x) == 1
               and all(sum(col.get(i, 0) * ef.coeffs[j]
                           for j, col in M.cols.items())
                       == M.den * ef.eigenvalue * ef.coeffs[i]
                       for i in range(M.size))
               for ef in rep.eigenfunctions)


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
    columns {j: {i: numerator}} over the lcm of the denominators."""
    den = math.lcm(*(Fraction(x).denominator
                     for row in rows.values() for x in row.values()))
    cols = {}
    for i, row in rows.items():
        for j, x in row.items():
            cols.setdefault(j, {})[i] = int(Fraction(x) * den)
    return spectra.OpMatrix(spectra.enumerate_basis(variables, N), den, cols)


def test_eigenvalues_graded_on_a_hand_built_matrix():
    """A hand-built matrix takes a level route only by its structure.
    [[1, 1, 0], [1, 2, 1], [0, -1, 1]] is tridiagonal with the products
    1 and -1: its continuant (x - 1)^2 (x - 2) is factored, the repeated
    level 1 has a one-dimensional eigenspace, and the simple level 2 gets
    the normalised null vector of the shifted matrix (sympy's nullspace as
    the oracle).  A graded matrix with zero rows and repeated levels,
    built by hand and so not of gl(3) form, fits neither route."""
    import sympy
    M = op_matrix(("rho",), 2, {0: {0: 1, 1: 1}, 1: {0: 1, 1: 2, 2: 1},
                                2: {1: -1, 2: 1}})
    rep = spectra.eigenvalues_graded(M)
    assert [(ev.value, ev.multiplicity, ev.degree, ev.eigenspace_dim)
            for ev in rep.gauged] == [(1, 2, 2, 1), (2, 1, 2, None)]
    assert rep.gauged == per_block(M)
    (ef,) = rep.eigenfunctions
    (null,) = (sympy.Matrix(M.entries) - 2 * sympy.eye(3)).nullspace()
    assert ef.eigenvalue == 2 and ef.coeffs == tuple(null / null[0]) \
        == (1, 1, -1)
    M = op_matrix(("x12", "x13"), 2, {
        # row 0 is zero: the degree-0 block is [0]
        1: {1: 3, 2: 1, 4: 1},           # degree 1: [[3, 1], [0, 3]]
        2: {2: 3, 4: 2, 5: -1},
        3: {3: 5},                       # degree 2: [[5, 0, 0],
        4: {3: 1, 4: 7},                 #            [1, 7, 0],
        5: {5: 5},                       #            [0, 0, 5]]
    })
    assert is_graded_triangular(M)
    assert M.entries[0] == (Fraction(0),) * 6
    with pytest.raises(spectra.UnsupportedMatrix):
        spectra.eigenvalues_graded(M)
    assert [(ev.value, ev.multiplicity, ev.degree, ev.eigenspace_dim)
            for ev in per_block(M)] \
        == [(0, 1, 0, None), (3, 2, 1, 1), (5, 2, 2, 2), (7, 1, 2, None)]


def test_graded_triangularity_reads_the_stored_entries():
    # an entry from degree 1 down into degree 0 breaks the grading
    M = op_matrix(("x12", "x13"), 1, {1: {0: 1}})
    assert not is_graded_triangular(M)
    # so the whole matrix is one block of degree N = 1: [[0, 0, 0],
    # [1, 0, 0], [0, 0, 0]] has the level 0, thrice, with a 2-dim
    # eigenspace, but it is tridiagonal with zero products: no route
    assert [(ev.value, ev.multiplicity, ev.degree, ev.eigenspace_dim)
            for ev in per_block(M)] == [(0, 3, 1, 2)]
    assert spectra._jacobi(M) is None
    with pytest.raises(spectra.UnsupportedMatrix):
        spectra.eigenvalues_graded(M)


def test_defective_block_keeps_report():
    # a rotation in the degree-1 block: two complex levels
    M = spectra.assemble_matrix(_rotation(("x12", "x13")),
                                spectra.enumerate_basis(("x12", "x13"), 1))
    assert M.den == 1 and M.cols == {1: {2: 1}, 2: {1: -1}}
    with pytest.raises(spectra.DefectiveBlock) as info:
        spectra.eigenvalues_graded(M)
    Z, one = Fraction(0), Fraction(1)
    assert [ev.value for ev in info.value.report.gauged] == [0]
    assert info.value.report.eigenfunctions[0].coeffs == (one, Z, Z)


def test_molecular_spectrum():
    p = Params(m1=1, m2=None, m3=None, a=1, b=1, c=0, rho23=Fraction(2))
    rep = spectra.spectrum(Case.MOLECULAR3, p, 2)
    assert rational_gauged(rep) == [0, 4, 8, 8, 12, 16]
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
    char poly as the annihilator; levels and cells equal the per-block
    oracle's, and each eigenfunction is exact."""
    p = Params(m1=1, m2=1, omega=omega, d=d, A=A, N=N)
    M = spectra.assemble_matrix(build_h_algebraic(Case.TWO_BODY_QES, p),
                                spectra.enumerate_basis(("rho",), N))
    assert spectra._jacobi(M) is not None
    got = spectra.eigenvalues_graded(M)
    assert got.gauged == per_block(M)
    assert exact_eigenfunctions(M, got, got.gauged)
    assert all(ev.multiplicity == 1 for ev in got.gauged)
    assert len(got.eigenfunctions) \
        == sum(ev.value is not None for ev in got.gauged)


@pytest.mark.parametrize("product", [-1, 0])
def test_a_product_not_positive_is_factored_or_refused(
        product, factored_degrees):
    """[[0, 1, 0], [1, 5, b], [0, 1, 10]] with b = -1 or 0: tridiagonal
    and one block, but its second product is not positive, so it need not
    be similar to a symmetric matrix.  At b = -1 every product is
    nonzero: its continuant is factored over Q, and the levels equal the
    per-block oracle's.  At b = 0 it fits neither level route."""
    row1 = {0: 1, 1: 5, 2: product} if product else {0: 1, 1: 5}
    M = op_matrix(("rho",), 2, {0: {1: 1}, 1: row1, 2: {1: 1, 2: 10}})
    assert not is_graded_triangular(M)
    if not product:
        assert spectra._jacobi(M) is None
        with pytest.raises(spectra.UnsupportedMatrix):
            spectra.eigenvalues_graded(M)
        assert factored_degrees == []
        return
    rep = spectra.eigenvalues_graded(M)
    assert factored_degrees == [3]
    assert rep.gauged == per_block(M)
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


def test_laguerre_polynomials_at_nmax_0_and_1():
    alpha, scale = Fraction(3, 2), Fraction(2, 3)
    rho = MultiPoly.var(("rho",), "rho")
    one = MultiPoly.const(("rho",), 1)
    assert spectra.laguerre_polynomials(0, alpha, scale) == [one]
    assert spectra.laguerre_polynomials(1, alpha, scale) \
        == [one, Fraction(5, 2) * one - scale * rho]


def test_spectrum_report_json():
    rep = spectra.spectrum(Case.TWO_BODY_ES, Params(m1=1, m2=1), 2)
    doc = rep.to_json()
    assert doc["basis_size"] == 3
    assert doc["gauged"][0]["value"] == "0/1"
    assert doc["physical"][0]["value"] == "3/1"


# -- harmonic levels from the degree-1 block, against the per-block oracle --

HARMONIC = [Case.GENERAL3, Case.EQUAL_MASS3, Case.ISOTROPIC3, Case.ATOMIC3,
            Case.MOLECULAR3, Case.ONE_DIM3, Case.TWO_BODY_ES]


def extract(M):
    """(outcome, report) of `spectra.eigenvalues_graded(M)`: "ok", or
    "defective" with the DefectiveBlock's report, or the name of the
    named error raised with None."""
    try:
        return "ok", spectra.eigenvalues_graded(M)
    except spectra.DefectiveBlock as e:
        return "defective", e.report
    except (spectra.UnsupportedMatrix, linalg.RootCertificateError) as e:
        return type(e).__name__, None


@pytest.fixture
def factored_degrees(monkeypatch):
    """The degrees of the polynomials `linalg.factor_over_q` factors."""
    degrees = []
    factor_over_q = linalg.factor_over_q

    def spy(coeffs):
        degrees.append(len(coeffs) - 1)
        return factor_over_q(coeffs)

    monkeypatch.setattr(linalg, "factor_over_q", spy)
    return degrees


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HARMONIC), st.integers(0, 2 ** 32),
       st.integers(1, 6))
def test_harmonic_levels_match_block_char_polys(case, seed, N):
    """Every harmonic case is of gl(3) form, and the levels read from the
    degree-1 block equal each block's char-poly levels (the per-block
    oracle), eigenspace dims included."""
    from test_model import draw_case_params
    p = draw_case_params(random.Random(seed), case)
    h = spectra.case_operator(case, p)
    assert spectra.is_gl3_form(h)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, N))
    assert M.gl3_form
    assert spectra.eigenvalues_graded(M, case, Fraction(0), False).gauged \
        == per_block(M)


def _no_float(x, what):
    raise AssertionError(f"{what} made a float")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(HARMONIC + [Case.TWO_BODY_QES]),
       st.integers(0, 2 ** 32), st.integers(0, 5), st.sampled_from([1, -1]))
def test_levels_ascend_in_exact_value_then_degree(case, seed, N, sign):
    """`rep.gauged` ascends in exact value, an irrational level at the
    midpoint of its cell, with the degree breaking ties, and no level is
    turned into a float on the way (twobody_qes at A > 0 and A < 0, a
    DefectiveBlock's report included)."""
    from test_model import draw_case_params
    p = draw_case_params(random.Random(seed), case)
    if case is Case.TWO_BODY_QES:
        p = replace(p, A=sign * p.A, N=N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "to_float", _no_float)
        try:
            rep = spectra.spectrum(case, p, N)
        except spectra.DefectiveBlock as e:
            rep = e.report
    keys = [(ev.value if ev.value is not None else sum(ev.interval) / 2,
             ev.degree) for ev in rep.gauged]
    assert keys == sorted(keys)


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
    square or not a square: the levels from the degree-1 block equal the
    per-block oracle's, every level is real and every eigenfunction is
    exact.  In the molecular case a = -b makes A a nonzero nilpotent,
    whose blocks are one Jordan block each."""
    case, p = case_params
    h = spectra.case_operator(case, p)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, N))
    outcome, rep = extract(M)
    assert outcome == "ok" and rep.gauged == per_block(M)
    assert exact_eigenfunctions(M, rep, rep.gauged)


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


def _holds(cell, x, j, delta):
    """True when the cell holds x + j sqrt(delta), exactly, for delta > 0
    and j != 0."""
    lo, hi = (y - x for y in cell)
    if j < 0:
        lo, hi, j = -hi, -lo, -j
    return (lo < 0 or lo * lo < j * j * delta) \
        and hi > 0 and hi * hi > j * j * delta


@pytest.mark.parametrize("delta", [Fraction(9, 4), Fraction(2, 3), 0],
                         ids=["square", "non-square", "zero"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_levels_match_the_monomial_walk(k, delta):
    """The walk that the closed form replaced is its oracle.  Each
    exponent alpha, |alpha| = n <= 12, in k variables has the level
    n r0 + (alpha . w) sqrt(delta), w the root weights (0), (-1, 1) or
    (-1, 0, 1), counted once.  `_gl3_levels` gives the same multiset:
    rational levels of equal value merged, ascending and first, and each
    irrational level a cell that holds exactly one n r0 + j sqrt(delta)
    and carries the count of j.  The multiplicities sum to
    comb(n + k - 1, k - 1), the block's size."""
    from itertools import product
    r0, delta = Fraction(7, 3), Fraction(delta)
    w = {1: (0,), 2: (-1, 1), 3: (-1, 0, 1)}[k]
    root = spectra._rational_sqrt(delta)
    for n in range(13):
        walk = Counter(sum(a * x for a, x in zip(alpha, w))
                       for alpha in product(range(n + 1), repeat=k)
                       if sum(alpha) == n)
        levels, _ = spectra._gl3_levels(k, n, r0, delta, False)
        assert sum(ev.multiplicity for ev in levels) == comb(n + k - 1, k - 1)
        assert all(ev.degree == n for ev in levels)
        rational = [ev for ev in levels if ev.value is not None]
        assert levels[:len(rational)] == rational
        assert [ev.value for ev in rational] \
            == sorted({ev.value for ev in rational})
        assert all(ev.eigenspace_dim == (None if ev.multiplicity == 1
                                         else ev.multiplicity)
                   for ev in rational)
        want = Counter()
        for j, mult in walk.items():
            if root is not None:
                want[n * r0 + j * root] += mult
            elif j == 0:
                want[n * r0] += mult
        assert {ev.value: ev.multiplicity for ev in rational} == want
        if root is None:
            held = [[j for j in walk if j and _holds(ev.interval, n * r0, j,
                                                     delta)]
                    for ev in levels[len(rational):]]
            assert all(len(js) == 1 for js in held)
            assert sorted(js[0] for js in held) \
                == sorted(j for j in walk if j)
            assert all(ev.multiplicity == walk[js[0]] for ev, js
                       in zip(levels[len(rational):], held))


def test_harmonic_cases_compute_no_char_poly(factored_degrees, rng):
    """The closed form of the degree-1 block certifies itself in every
    harmonic case, so no polynomial is factored: at the README
    parameters, in the all-rational regime (springs 1, 2, 2), at a
    = -b in the molecular case and at a random draw of each case, for
    every N <= 6."""
    from test_model import draw_case_params
    m = dict(m1=2, m2=3, m3=Fraction(5, 2))
    draws = [(Case.GENERAL3, Params(**m, a=1, b=2, c=Fraction(3, 2))),
             (Case.GENERAL3, Params(**m, a=1, b=2, c=2))]
    draws += [(case, draw_case_params(rng, case)) for case in HARMONIC]
    draws.append((Case.MOLECULAR3, Params(m1=2, m2=None, m3=None, a=1, b=-1,
                                          c=0, rho23=Fraction(3, 2))))
    for case, p in draws:
        for N in range(1, 7):
            rep = spectra.spectrum(case, p, N)
            assert sum(ev.multiplicity for ev in rep.gauged) \
                == rep.basis.size
    assert factored_degrees == []


def _zeroth_order(vs):  # x d_x + y d_y + 1: degree-preserving
    x, y = (MultiPoly.var(vs, v) for v in vs)
    return DiffOp(vs, {(1, 0): x, (0, 1): y, (0, 0): 1})


def test_qes_below_zero_is_factored_and_a_zeroth_order_term_is_refused(
        factored_degrees):
    """At A > 0 the QES block is a Jacobi matrix and factors nothing.  At
    A < 0 every product of opposite off-diagonal entries is negative, but
    nonzero: its continuant is factored over Q, and at N = 3 it has no
    real root.  A degree-preserving operator with a zeroth-order term is
    not of gl(3) form, and its matrix (diagonal, levels 1, 2, 2, 3, 3, 3,
    4, 4, 4, 4) is not tridiagonal with nonzero products: it fits neither
    level route."""
    p = Params(m1=1, m2=1, A=2, N=3)
    qes = build_h_algebraic(Case.TWO_BODY_QES, p)
    assert not spectra.is_gl3_form(qes)
    spectra.qes_2body_block(p)
    assert factored_degrees == []
    with pytest.raises(spectra.DefectiveBlock) as info:
        spectra.qes_2body_block(replace(p, A=-2))
    assert factored_degrees == [4] and info.value.report.gauged == ()
    op = _zeroth_order(("x", "y"))
    assert not spectra.is_gl3_form(op)
    M = spectra.assemble_matrix(op, spectra.enumerate_basis(op.variables, 3))
    assert not M.gl3_form and is_graded_triangular(M)
    with pytest.raises(spectra.UnsupportedMatrix):
        spectra.eigenvalues_graded(M)
    assert factored_degrees == [4]


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


@pytest.mark.parametrize("build, variables, outcome", [
    (_rotation, ("x", "y"), "defective"),
    (_jordan, ("x", "y"), "ok"),
    (_cubic, ("x", "y", "z"), "RootCertificateError"),
], ids=["rotation", "jordan", "cubic"])
def test_gl3_form_edge_cases_match_the_per_block_path(
        build, variables, outcome, factored_degrees):
    """A rotation (complex roots of A: the DefectiveBlock report keeps the
    real levels), a Jordan block (A = I + a nonzero nilpotent, in closed
    form: Sym^n of a Jordan block is one Jordan block) and an irreducible
    cubic (the certificate det(A - r0 I) = 0 fails, a named error).  The
    first two levels equal the per-block oracle's, with nothing factored,
    and their eigenfunctions are exact."""
    M = spectra.assemble_matrix(build(variables),
                                spectra.enumerate_basis(variables, 4))
    assert M.gl3_form
    got, rep = extract(M)
    assert got == outcome and factored_degrees == []
    if rep is None:
        return
    assert rep.gauged == per_block(M)
    assert exact_eigenfunctions(M, rep, rep.gauged)
    if build is _jordan:    # level n, dim 1; only level 0 is simple
        assert [(ev.value, ev.multiplicity, ev.eigenspace_dim)
                for ev in rep.gauged] \
            == [(n, n + 1, 1 if n else None) for n in range(5)]
        assert [ef.eigenvalue for ef in rep.eigenfunctions] == [0]


@pytest.mark.parametrize("build, variables, error", [
    (_zeroth_order, ("rho12", "rho13"), "UnsupportedMatrix"),
    (_cubic, ("rho12", "rho13", "rho23"), "RootCertificateError"),
], ids=["no-route", "cubic"])
def test_a_matrix_without_a_level_route_exits_1(
        monkeypatch, capsys, build, variables, error):
    """Put in for a case's gauged operator, an operator whose matrix fits
    neither level route, or of gl(3) form with a 3-variable A that fails
    det(A - r0 I) = 0, ends the CLI run in a named error with exit 1."""
    from oscchain import cli
    monkeypatch.setattr(spectra, "case_operator",
                        lambda case, p: build(variables))
    assert cli.main(["spectrum", "--case", "general3", "--N", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"verification failed: {error}: ")
    assert "Traceback" not in err


def test_molecular_nilpotent_block_in_closed_form(factored_degrees):
    """molecular3 at a = -b: A's roots 2 omega (a + b) and 4 omega (a + b)
    are both 0 and A != 0, so A is a nonzero nilpotent, and block n has
    the one level 0 with multiplicity n + 1 and eigenspace dim 1
    (`spectra` docstring), in closed form with nothing factored, as the
    per-block oracle finds.  Level 0 is repeated at every N >= 1, so no
    eigenfunction is returned there."""
    draws = [Params(m1=2, m2=None, m3=None, a=1, b=-1, c=0,
                    rho23=Fraction(3, 2)),
             Params(m1=Fraction(1, 3), m2=None, m3=None, a=Fraction(-3, 2),
                    b=Fraction(3, 2), c=0, omega=Fraction(5, 2),
                    rho23=Fraction(1, 7))]
    reports = {(p, N): spectra.spectrum(Case.MOLECULAR3, p, N)
               for p in draws for N in range(6)}
    assert factored_degrees == []
    for (p, N), rep in reports.items():
        assert [(ev.value, ev.multiplicity, ev.degree, ev.eigenspace_dim)
                for ev in rep.gauged] \
            == [(0, n + 1, n, 1 if n else None) for n in range(N + 1)]
        assert len(rep.eigenfunctions) == (N == 0)
        M = spectra.assemble_matrix(spectra.case_operator(Case.MOLECULAR3, p),
                                    rep.basis)
        assert rep.gauged == per_block(M)


def test_basis_is_built_once_per_variables_and_degree():
    assert spectra.enumerate_basis(["x", "y"], 3) \
        is spectra.enumerate_basis(("x", "y"), 3)


# -- an irrational level is held as its one integer grid cell ----------------

@pytest.mark.parametrize("case, p", [
    (Case.GENERAL3, Params(m1=2, m2=3, m3=Fraction(5, 2), a=1, b=2,
                           c=Fraction(3, 2))),
    (Case.TWO_BODY_QES, Params(m1=1, m2=1, A=1, N=6)),
], ids=["general3", "twobody_qes"])
def test_an_irrational_level_is_held_as_its_integer_cell(case, p):
    """At N = 6, each irrational gauged level stores the int n of its cell
    and no tuple or Fraction; its interval is (n, n + 1) / 2^64, and its
    physical interval is that plus E0, exactly."""
    from dataclasses import fields
    rep = spectra.spectrum(case, p, 6)
    e0 = rep.ground_energy
    assert e0
    cells = [(ev, phys) for ev, phys in zip(rep.gauged, rep.physical)
             if ev.value is None]
    assert cells
    for ev, phys in cells:
        n = ev.cell
        assert type(n) is int
        assert not any(isinstance(getattr(ev, f.name), (tuple, Fraction))
                       for f in fields(ev))
        lo, hi = Fraction(n, 2 ** 64), Fraction(n + 1, 2 ** 64)
        assert ev.interval == (lo, hi)
        assert phys.cell == n and phys.interval == (lo + e0, hi + e0)
        assert phys.midpoint() == (lo + hi) / 2 + e0


# draws that yield cells in every case that has them, and molecular3, whose
# degree-1 block has rational roots only: (case, params, N, sha256 of the
# sorted-key JSON of the report), recorded while each cell was still held as
# its two Fraction ends
JSON_DIGESTS = [
    (Case.GENERAL3, dict(m1=2, m2=3, m3="5/2", a=1, b=2, c="3/2"), 6,
     "b7866ddc73f6da146c82311095772ec21299c2b817a83421231477130f589fe9"),
    (Case.GENERAL3, dict(m1="5/3", m2=2, m3="5/2", a="3/4", b="3/4",
                         c="3/2"), 3,
     "b6c2c0766e0e65fdeb250813d727d4721bacde26f01795e17760074a78af347e"),
    (Case.GENERAL3, dict(m1="4/3", m2="5/4", m3="1/2", a="5/2", b=2,
                         c="4/3"), 5,
     "5c24733efbdb0dc8b82b5194992c71fa0c852babee2852cf598cab9644d2334a"),
    (Case.EQUAL_MASS3, dict(m1="3/4", m2="3/4", m3="3/4", a="1/2", b="4/3",
                            c=3), 4,
     "d7ea593672083c6449b1c26c48e250234c8f4ae853a90144b8714f6404aa30c2"),
    (Case.EQUAL_MASS3, dict(m1="2/3", m2="2/3", m3="2/3", a="5/2", b=3,
                            c="3/2"), 6,
     "d2fe8a2e1903895a97e2e1bc22b4364901472400178e0eb05b23fb887c57ced1"),
    (Case.ATOMIC3, dict(m1=None, m2=2, m3=2, a="2/3", b=3, c="2/3"), 6,
     "46c1ebe32a287de1638e4ef228df8d38534a52d01003e18d36dc099b5fe8282e"),
    (Case.ATOMIC3, dict(m1=None, m2="3/2", m3="3/2", a="5/4", b=3, c="5/2"),
     4, "8dd09c6f4b15237e35d893cf302bab5526b0df794d98b5edcf163ff4a02cffc6"),
    (Case.ONE_DIM3, dict(m1="2/3", m2=3, m3="3/2", d=1), 5,
     "df2ea27b5e67846ad186708e72d6fd6e3641e2c5f03948b045727487fc479f66"),
    (Case.ONE_DIM3, dict(m1=3, m2=3, m3="4/3", a="5/2", b="1/2", c=2, d=1),
     6, "2a258600a810e57e69de954f605a6163f96830b90aea83184fa036d519bec24a"),
    (Case.MOLECULAR3, dict(m1="1/2", m2=None, m3=None, a=1, b=3, c=0,
                           rho23=2), 4,
     "32bb59c5ae95a0884d88df253b2cd36b86a64835d1e040aba275a4179fa162df"),
    (Case.MOLECULAR3, dict(m1="5/2", m2=None, m3=None, a="3/4", b=2, c=0,
                           rho23="3/2"), 5,
     "047be6a5bfcabb67676d6df0c256a5b657d546116722f0207a428b27a72a3079"),
    (Case.TWO_BODY_QES, dict(omega="3/2", A="3/4", N=4), 4,
     "860ce4cb3eed20ef7cfef4f69461918b3a04402760e920e9b35130ebe26fcc1f"),
    (Case.TWO_BODY_QES, dict(omega="1/2", A="3/4", N=5), 5,
     "9227bbbf0f94743d6c2b02434c4ce018673054fdfbbbecfd711bcd1cf73ea087"),
    (Case.TWO_BODY_QES, dict(omega=1, A=1, N=6), 6,
     "a4e3817b589955b004307140c95ea4233f8c8060d089c0a39b881c272588d66a"),
    # A < 0: the continuant is factored over Q (`linalg.real_roots_exact`)
    (Case.TWO_BODY_QES, dict(omega=3, A="-1/20", N=3), 3,
     "94418840da93d5eba3fcbc1d1af825d56d637329414e5b16f6a59a6ac4a0c5ef"),
    (Case.TWO_BODY_QES, dict(omega=5, A="-1/4", N=4), 4,
     "ea681fac2d9d717ed428e97e590539f7740dae4a9f5e9ac89630b3e49b3d8f08"),
]


@pytest.mark.parametrize("case, kw, N, digest", JSON_DIGESTS,
                         ids=[f"{c.value}-N{N}-{d[:6]}"
                              for c, _, N, d in JSON_DIGESTS])
def test_report_json_matches_its_recorded_digest(case, kw, N, digest):
    import hashlib
    import json
    p = Params(**{k: Fraction(v) if isinstance(v, str) else v
                  for k, v in kw.items()})
    rep = spectra.spectrum(case, p, N)
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
