"""Kernel correctness: polynomial ring laws, calculus rules, operator
composition, gauge conjugation, Poisson brackets and random rational
sample points."""
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscchain import integrals
from oscchain.exact import (CANONICAL_PAIRS, PHASE_VARS, DiffOp, GaussFn,
                            MultiPoly, RationalFn, VariableMismatch,
                            over_one_den, partial_numerators, phase_var,
                            poisson_bracket, power_table, random_rational,
                            table_sum)

from conftest import (draw_params, draw_poly, fractions_st,
                      oracle_apply_gaussian, oracle_commutator, oracle_compose,
                      oracle_gauge_conjugate, oracle_kernels,
                      oracle_poisson_bracket, polys_st)

XY = ("x", "y")
XYZ = ("x", "y", "z")


# ---------------------------------------------------------------------------
# polynomial ring laws (property-based)

@settings(max_examples=60, deadline=None)
@given(polys_st(), polys_st(), polys_st())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    zero = MultiPoly.zero(XY)
    one = MultiPoly.const(XY, 1)
    assert p + zero == p
    assert p * one == p
    assert p - p == zero


@settings(max_examples=60, deadline=None)
@given(polys_st(), polys_st())
def test_diff_is_a_derivation(p, q):
    for v in XY:
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


@settings(max_examples=40, deadline=None)
@given(polys_st(), fractions_st, fractions_st)
def test_eval_is_a_homomorphism(p, x, y):
    q = p * p + p
    pt = {"x": x, "y": y}
    assert q.eval(pt) == p.eval(pt) * p.eval(pt) + p.eval(pt)


pairs_st = st.tuples(st.integers(-60, 60),
                     st.integers(-60, 60).filter(bool))


@settings(max_examples=80, deadline=None)
@given(st.lists(polys_st(XYZ, max_terms=5), min_size=1, max_size=4),
       st.tuples(pairs_st, pairs_st, pairs_st),
       st.tuples(*[st.integers(0, 2)] * 3))
@example([MultiPoly(XYZ, {(3, 0, 1): -7, (0, 2, 0): Fraction(5, 6),
                         (0, 0, 0): -1})],
         ((-3, -4), (5, -2), (-1, 7)), (0, 1, 0))
def test_shared_power_table_matches_fraction_evaluation(polys, pairs, slack):
    """One power table at a point given as unreduced integer pairs (a, b),
    b of either sign, evaluates every polynomial whose exponents it
    covers: numerator over den * scale equals the Fraction sum of the
    terms, signs normalised by Fraction."""
    tops = [max(col) + s
            for col, s in zip(zip(*(q.tops() for q in polys)), slack)]
    rows, scale = power_table(pairs, tops)
    point = {v: Fraction(a, b) for v, (a, b) in zip(XYZ, pairs)}
    for q in polys:
        want = sum((c * point["x"] ** e[0] * point["y"] ** e[1]
                    * point["z"] ** e[2] for e, c in q.terms.items()),
                   Fraction(0))
        assert Fraction(table_sum(q.num, rows), q.den * scale) == want
        assert q.eval(point) == want


# ---------------------------------------------------------------------------
# sympy's Poly over QQ as an independent oracle for the kernel


def to_sympy(p):
    from sympy import QQ, Poly, symbols
    return Poly.from_dict({e: QQ(c.numerator, c.denominator)
                           for e, c in p.terms.items()},
                          symbols(p.variables), domain=QQ)


def sympy_terms(P):
    """{exps: Fraction} of a sympy Poly, to compare with MultiPoly.terms."""
    return {e: Fraction(str(c)) for e, c in P.terms() if c != 0}


def assert_normal_form(p):
    """Integer numerators over a positive denominator, no zero numerator,
    and gcd(numerators, den) = 1 (so equality is syntactic)."""
    assert p.den > 0 and all(isinstance(c, int) and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1


@settings(max_examples=60, deadline=None)
@given(polys_st(XYZ, max_terms=5), polys_st(XYZ, max_terms=5),
       st.tuples(*[st.integers(0, 3)] * 3),
       st.tuples(*[fractions_st] * 3), st.sets(st.sampled_from(XYZ)))
def test_kernel_matches_sympy_poly(p, q, alpha, values, subs):
    from sympy import symbols
    P, Q = to_sympy(p), to_sympy(q)
    gens = symbols(XYZ)
    for got, want in ((p + q, P + Q), (p * q, P * Q), (p - q, P - Q),
                      (p.partial(alpha), P.diff(*zip(gens, alpha)))):
        assert_normal_form(got)
        assert got.terms == sympy_terms(want)
    point = dict(zip(XYZ, values))
    assert p.eval(point) == Fraction(str(P.eval(dict(zip(gens, values)))))
    if subs:
        kept = tuple(v for v in XYZ if v not in subs)
        got = p.subs_values({v: point[v] for v in subs})
        want = P.eval({g: x for g, v, x in zip(gens, XYZ, values) if v in subs})
        assert_normal_form(got)
        assert got.variables == kept
        if kept:
            assert got.terms == sympy_terms(want)
        else:
            assert got.constant_value() == Fraction(str(want))


@settings(max_examples=60, deadline=None)
@given(st.lists(polys_st(XYZ, max_terms=5), max_size=4),
       st.tuples(*[st.integers(0, 3)] * 3))
def test_numerator_helpers_keep_every_polynomial(polys, alpha):
    """over_one_den writes each polynomial over the one den, and
    partial_numerators over that den is MultiPoly.partial."""
    den, nums, tops = over_one_den(dict(enumerate(polys)), 3)
    assert len(nums) == len(polys)
    for p, num in zip(polys, nums.values()):
        assert MultiPoly._make(XYZ, num, den) == p
        assert all(e <= t for exps in num for e, t in zip(exps, tops))
        assert MultiPoly._make(XYZ, partial_numerators(num, alpha), den) \
            == p.partial(alpha)
    want = [max((p.tops()[i] for p in polys), default=0) for i in range(3)]
    assert tops == want


def test_graded_lex_term_order():
    p = MultiPoly(XY, {(0, 2): 1, (1, 0): 2, (2, 0): 3, (1, 1): 4})
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(1, 0), (2, 0), (1, 1), (0, 2)]


def test_rename_and_extend():
    p = MultiPoly(("x",), {(2,): 3})
    q = p.rename({"x": "u"}, ("u",))
    assert q.variables == ("u",)
    r = p.extend(("x", "y"))
    assert r.coeff((2, 0)) == 3


# ---------------------------------------------------------------------------
# rational functions

def test_rationalfn_cross_multiplied_equality():
    x = MultiPoly.var(XY, "x")
    y = MultiPoly.var(XY, "y")
    one = MultiPoly.const(XY, 1)
    a = RationalFn(x * x - y * y, x - y)
    b = RationalFn(x + y, one)
    assert a.equals(b)
    assert not a.equals(RationalFn(x, one))


# ---------------------------------------------------------------------------
# Gaussian-weighted functions

def draw_quadratic(rng):
    """Random exponent polynomial of total degree <= 2."""
    choices = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return MultiPoly(XY, {e: random_rational(rng)
                          for e in rng.sample(choices, 4)})


# ---------------------------------------------------------------------------
# differential operators

def _random_op(rng, max_order=2):
    terms = {}
    for _ in range(3):
        derivs = tuple(rng.randint(0, max_order) for _ in XY)
        terms[derivs] = draw_poly(rng, XY, max_degree=2, n_terms=2)
    return DiffOp(XY, terms)


def test_compose_matches_pointwise_application(rng):
    for _ in range(5):
        A, B = _random_op(rng), _random_op(rng)
        f = draw_poly(rng, XY, max_degree=3, n_terms=3)
        assert (A.compose(B)).apply(f) == A.apply(B.apply(f))


def test_compose_is_associative(rng):
    A, B, C = (_random_op(rng, 1) for _ in range(3))
    assert A.compose(B).compose(C) == A.compose(B.compose(C))


def test_commutator_bilinearity_and_jacobi(rng):
    A, B, C = (_random_op(rng, 1) for _ in range(3))
    assert A.commutator(B) == -(B.commutator(A))
    jac = (A.commutator(B.commutator(C))
           + B.commutator(C.commutator(A))
           + C.commutator(A.commutator(B)))
    assert jac.is_zero()


SMALL_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def diffops_and_poly(draw):
    """Two operators over 2 or 3 shared variables (orders 0..2, each with a
    zeroth-order term drawn, coefficients of degree <= 2 with small
    rational coefficients) and a polynomial to apply them to."""
    n = draw(st.integers(2, 3))
    variables = ("x", "y", "z")[:n]
    indices = [e for e in itertools.product(range(3), repeat=n)
               if sum(e) <= 2]

    def coefficient():
        exps = draw(st.lists(st.sampled_from(indices), max_size=3))
        return MultiPoly(variables, {e: draw(SMALL_FRACTIONS) for e in exps})

    def operator():
        derivs = draw(st.lists(st.sampled_from(indices[1:]), unique=True,
                               max_size=3))
        return DiffOp(variables, {d: coefficient()
                                  for d in [(0,) * n] + derivs})

    f = MultiPoly(variables, {e: draw(SMALL_FRACTIONS) for e in draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))})
    return operator(), operator(), f


@settings(max_examples=80, deadline=None)
@given(diffops_and_poly())
def test_commutator_is_the_difference_of_the_products(ops):
    A, B, f = ops
    assert A.compose(B).apply(f) == A.apply(B.apply(f))
    assert A.commutator(B) == A.compose(B) - B.compose(A)


def test_normal_order_canonical_form(rng):
    x = MultiPoly.var(XY, "x")
    dx = DiffOp(XY, {(1, 0): 1})
    mx = DiffOp.mul_by(x)
    # [d/dx, x] = 1
    assert dx.commutator(mx) == DiffOp.identity(XY)


def test_gauge_conjugation_round_trip(rng):
    for _ in range(5):
        A = _random_op(rng)
        q = draw_quadratic(rng)
        g = GaussFn(q)
        ginv = GaussFn(-q)
        assert A.gauge_conjugate(g).gauge_conjugate(ginv) == A


def test_gauge_conjugation_matches_function_level(rng):
    """g^-1 (A (g f)) by the product rule must equal (conjugated A) f."""
    for _ in range(5):
        A = _random_op(rng)
        q = draw_quadratic(rng)
        f = draw_poly(rng, XY, max_degree=2, n_terms=3)
        assert A.gauge_conjugate(GaussFn(q)).apply(f) \
            == oracle_apply_gaussian(A, f, q)


def test_apply_refuses_a_gaussian(rng):
    A = _random_op(rng)
    with pytest.raises(TypeError):
        A.apply(GaussFn(draw_quadratic(rng)))


def test_principal_symbol():
    x = MultiPoly.var(XY, "x")
    op = DiffOp(XY, {(2, 0): x, (1, 1): MultiPoly.const(XY, 2),
                     (1, 0): x * x})
    sym = op.principal_symbol(("px", "py"))
    vs = ("x", "y", "px", "py")
    expect = (MultiPoly.var(vs, "x") * MultiPoly.var(vs, "px") ** 2
              + 2 * MultiPoly.var(vs, "px") * MultiPoly.var(vs, "py"))
    assert sym == expect


# ---------------------------------------------------------------------------
# Poisson bracket

def test_poisson_bracket_canonical_pairs():
    assert poisson_bracket(phase_var("rho12"), phase_var("p1")) \
        == phase_var("rho12") * 0 + 1
    assert poisson_bracket(phase_var("rho12"), phase_var("p2")).is_zero()


def test_poisson_bracket_properties(rng):
    f = draw_poly(rng, PHASE_VARS, max_degree=2, n_terms=3)
    g = draw_poly(rng, PHASE_VARS, max_degree=2, n_terms=3)
    h = draw_poly(rng, PHASE_VARS, max_degree=2, n_terms=3)
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)
    assert poisson_bracket(f, g * h) \
        == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    jac = (poisson_bracket(f, poisson_bracket(g, h))
           + poisson_bracket(g, poisson_bracket(h, f))
           + poisson_bracket(h, poisson_bracket(f, g)))
    assert jac.is_zero()


@settings(max_examples=40, deadline=None)
@given(polys_st(PHASE_VARS, max_degree=2, max_terms=5),
       polys_st(PHASE_VARS, max_degree=2, max_terms=5))
def test_poisson_bracket_matches_the_fraction_formula(f, g):
    # reference: the bracket in sympy's Poly arithmetic over QQ
    from sympy import symbols
    F, G = to_sympy(f), to_sympy(g)
    sym = dict(zip(PHASE_VARS, symbols(PHASE_VARS)))
    want = F * 0
    for q, p in CANONICAL_PAIRS:
        want += F.diff(sym[q]) * G.diff(sym[p]) - F.diff(sym[p]) * G.diff(sym[q])
    assert poisson_bracket(f, g).terms == sympy_terms(want)


# ---------------------------------------------------------------------------
# the one-pass integer kernels against the oracle in conftest

MIXED_FRACTIONS = st.fractions(min_value=-20, max_value=20,
                               max_denominator=12)


@st.composite
def kernel_operands(draw):
    """Two operators over 1, 2 or 3 shared variables, of order <= 3, with
    coefficients of degree <= 3 over mixed denominators, some zero or
    constant; a quadratic Gaussian exponent; and a shift that is 0, a
    number or a polynomial."""
    n = draw(st.integers(1, 3))
    variables = XYZ[:n]
    indices = [e for e in itertools.product(range(4), repeat=n)
               if sum(e) <= 3]
    quadratic = [e for e in indices if sum(e) <= 2]

    def poly(monomials):
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials),
                                        MIXED_FRACTIONS), max_size=4))
        return MultiPoly(variables, dict(terms))

    def coefficient():
        kind = draw(st.sampled_from(("zero", "constant", "polynomial")))
        if kind == "zero":
            return MultiPoly.zero(variables)
        if kind == "constant":
            return MultiPoly.const(variables, draw(MIXED_FRACTIONS))
        return poly(indices)

    def operator():
        derivs = draw(st.lists(st.sampled_from(indices), unique=True,
                               max_size=4))
        return DiffOp(variables, {d: coefficient() for d in derivs})

    shift = draw(st.sampled_from((0, "number", "polynomial")))
    if shift == "number":
        shift = draw(MIXED_FRACTIONS)
    elif shift == "polynomial":
        shift = poly(indices)
    return operator(), operator(), poly(quadratic), shift


@settings(max_examples=80, deadline=None)
@given(kernel_operands())
def test_operator_kernels_equal_the_oracle(operands):
    A, B, q, shift = operands
    assert A.compose(B) == oracle_compose(A, B)
    assert A.commutator(B) == oracle_commutator(A, B)
    assert B.commutator(A) == oracle_commutator(B, A)
    g = GaussFn(q)
    assert A.gauge_conjugate(g, shift) \
        == oracle_gauge_conjugate(A, g, shift)


@settings(max_examples=80, deadline=None)
@given(polys_st(PHASE_VARS, max_degree=3, max_terms=6),
       polys_st(PHASE_VARS, max_degree=3, max_terms=6))
def test_poisson_bracket_equals_the_oracle(f, g):
    assert poisson_bracket(f, g) == oracle_poisson_bracket(f, g)


def test_kernels_refuse_what_they_cannot_read():
    with pytest.raises(VariableMismatch):
        poisson_bracket(phase_var("rho12"), MultiPoly.var(XY, "x"))
    x = MultiPoly.var(XY, "x")
    rational = DiffOp(XY, {(1, 0): RationalFn(x, x + 1)})
    with pytest.raises(TypeError):
        rational.compose(DiffOp.identity(XY))


def draw_nus(p, relations, rng):
    """Frequencies nu12, nu13, nu23 for the masses of p at which exactly
    the given pairwise relations r1, r2, r3 hold."""
    m1, m2, m3 = p.masses
    while True:
        lam = random_rational(rng)
        free = random_rational(rng)
        nus = {(True, True, True): integrals.maximal_nus(p, lam),
               (True, False, False): (lam * m2, lam * m3, free),
               (False, True, False): (free, lam * m1, lam * m2),
               (False, False, True): (lam * m1, free, lam * m3),
               (False, False, False): (lam, free, random_rational(rng)),
               }[relations]
        if integrals.classify_superintegrability(
                p.masses, nus).relations == relations:
            return nus


@pytest.mark.parametrize("relations", [
    (True, True, True), (True, False, False), (False, True, False),
    (False, False, True), (False, False, False)],
    ids=["maximal", "minimal-r1", "minimal-r2", "minimal-r3", "none"])
def test_battery_report_equals_the_oracle(relations):
    rng = random.Random(20261019)
    for _ in range(2):
        p = draw_params(rng)
        nus = draw_nus(p, relations, rng)
        got = integrals.battery(p, nus).to_json()
        with oracle_kernels():
            want = integrals.battery(p, nus).to_json()
        assert got == want
        assert got["consistent"]


# ---------------------------------------------------------------------------
# random rational sample points

def test_random_rational_range():
    rng = random.Random(0)
    for _ in range(200):
        q = random_rational(rng)
        assert 1 <= q.numerator <= 1000 and 1 <= q.denominator <= 1000

