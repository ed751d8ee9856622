"""Change of variables to the separating coordinates: exact push-forward
of the radial operator, the separated template, and the transformed
potential."""
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from oscchain import sepvar
from oscchain.cli import main
from oscchain.exact import MultiPoly, RationalFn, random_point
from oscchain.model import (RHO3, Case, Params, build_radial_laplacian,
                            nu_coefficients)

from conftest import draw_fraction, draw_params


def test_w_coordinate_product_identity(rng):
    """w1 w2 = (m2+m3) root^2 w3 exactly, making the square root rational."""
    for _ in range(3):
        p = draw_params(rng)
        wm = sepvar.build_wmap(p)
        s = p.m2 + p.m3
        lhs = RationalFn(wm.w1 * wm.w2)
        rhs = RationalFn(s * wm.denominator_root ** 2) * wm.w3
        assert lhs.equals(rhs)


def test_separated_template_coefficients():
    p = Params(m1=1, m2=1, m3=1)
    form = sepvar.match_separated_template(sepvar.build_opham(p), p)
    assert form.A == 2 and form.B == 6


def test_separated_template_general_masses(rng):
    p = draw_params(rng)
    form = sepvar.match_separated_template(sepvar.build_opham(p), p)
    m1, m2, m3 = p.masses
    assert form.A == (m2 + m3) / (m2 * m3)
    assert form.B == (m2 + m3) * (m1 + m2 + m3) / m1


def test_template_mismatch_detected():
    p = Params(m1=1, m2=1, m3=1)
    op = sepvar.build_opham(p)
    # perturb one coefficient
    broken = type(op)(op.variables, dict(op.terms))
    key = next(iter(broken.terms))
    broken.terms[key] = broken.terms[key] + RationalFn(
        MultiPoly.const(op.variables, Fraction(1)))
    with pytest.raises(sepvar.TemplateMismatch):
        sepvar.match_separated_template(broken, p)


def test_pushforward_exact(rng):
    assert sepvar.verify_pushforward(Params(m1=1, m2=1, m3=1, d=3), seed=1)
    assert sepvar.verify_pushforward(
        Params(m1=2, m2=3, m3=5, d=4), seed=2)


def test_pushforward_negative_control():
    """Operators built for different masses must not push forward alike."""
    p = Params(m1=1, m2=1, m3=1, d=3)
    q = Params(m1=1, m2=1, m3=2, d=3)
    for derivs in set(sepvar.build_opham(p).terms):
        same = sepvar.build_opham(p).terms[derivs].equals(
            sepvar.build_opham(q).terms.get(derivs, RationalFn(
                MultiPoly.zero(sepvar.W3))))
        if not same:
            return
    pytest.fail("operators for different masses coincide")


# ---------------------------------------------------------------------------
# reference route: Delta_rad applied to f(W(rho)) by second-order jet
# arithmetic, the way the push-forward was first verified

class Jet2:
    """Second-order truncated Taylor expansion in k variables, exact."""

    def __init__(self, k, coeffs=None):
        self.k = k
        self.coeffs = dict(coeffs or {})

    @classmethod
    def const(cls, k, c):
        c = Fraction(c)
        return cls(k, {(0,) * k: c} if c else {})

    @classmethod
    def variable(cls, k, i, value):
        e = tuple(1 if j == i else 0 for j in range(k))
        return cls(k, {(0,) * k: Fraction(value), e: Fraction(1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Jet2(self.k, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Jet2(self.k, {e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= 2:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Jet2(self.k, out)

    def inverse(self):
        zero = (0,) * self.k
        c = self.coeffs[zero]
        u = Jet2(self.k, {e: v / c for e, v in self.coeffs.items()
                          if e != zero})
        # 1/(c(1+u)) = (1 - u + u^2)/c, truncated
        return (Jet2.const(self.k, 1) + u * -1 + u * u) * (1 / c)

    def value(self):
        return self.coeffs.get((0,) * self.k, Fraction(0))

    def derivative(self, derivs):
        c = self.coeffs.get(tuple(derivs), Fraction(0))
        return 2 * c if max(derivs) == 2 else c


def _poly_jet(poly, jets, k):
    out = Jet2(k)
    for exps, c in poly.terms.items():
        term = Jet2.const(k, c)
        for name, e in zip(poly.variables, exps):
            for _ in range(e):
                term = term * jets[name]
        out = out + term
    return out


def reference_pushforward(p, d, seed, n_points, test_functions, opham):
    """True iff Delta_rad (f o W) == (opham f)(W) at every (f, point), with
    the left side from jets; the points are drawn as verify_pushforward
    draws them."""
    p = replace(p, d=d)
    wmap = sepvar.build_wmap(p)
    delta = build_radial_laplacian(Case.GENERAL3, p)
    rng = random.Random(seed)
    points = []
    while len(points) < n_points:
        pt = random_point(RHO3, rng)
        if wmap.denominator_root.eval(pt) and wmap.w2.eval(pt) \
                and pt["rho23"] and wmap.w3.eval(pt):
            points.append(pt)
    rhs = [opham.apply(f) for f in test_functions]
    for pt in points:
        base = {v: Jet2.variable(3, i, pt[v]) for i, v in enumerate(RHO3)}
        w_jets = {"w1": _poly_jet(wmap.w1, base, 3),
                  "w2": _poly_jet(wmap.w2, base, 3),
                  "w3": _poly_jet(wmap.w3.num, base, 3)
                  * _poly_jet(wmap.w3.den, base, 3).inverse()}
        wpt = {name: jet.value() for name, jet in w_jets.items()}
        for f, g in zip(test_functions, rhs):
            jet = _poly_jet(f, w_jets, 3)
            lhs = sum(c.eval(pt) * jet.derivative(derivs)
                      for derivs, c in delta.terms.items())
            if lhs != g.eval(wpt):
                return False
    return True


def test_jet2_matches_exact_derivatives(rng):
    vs = ("x", "y")
    f = MultiPoly(vs, {(0, 0): Fraction(2), (1, 0): Fraction(3),
                       (1, 1): Fraction(-1), (2, 0): Fraction(5),
                       (0, 2): Fraction(7), (2, 1): Fraction(1, 3)})
    pt = {"x": Fraction(2, 3), "y": Fraction(-1, 2)}
    jets = {v: Jet2.variable(2, i, pt[v]) for i, v in enumerate(vs)}
    jet = _poly_jet(f, jets, 2)
    assert jet.value() == f.eval(pt)
    assert jet.derivative((1, 0)) == f.diff("x").eval(pt)
    assert jet.derivative((0, 1)) == f.diff("y").eval(pt)
    assert jet.derivative((2, 0)) == f.diff("x").diff("x").eval(pt)
    assert jet.derivative((1, 1)) == f.diff("x").diff("y").eval(pt)


def test_jet2_inverse():
    j = Jet2.variable(1, 0, Fraction(3))
    inv = j.inverse()
    assert inv.value() == Fraction(1, 3)
    assert inv.derivative((1,)) == Fraction(-1, 9)
    assert inv.derivative((2,)) == Fraction(2, 27)


def perturbed(op, key, amount=Fraction(1, 10 ** 6)):
    """`op` with the constant `amount` added to its `key` coefficient, an
    absent one counting as zero."""
    terms = dict(op.terms)
    terms[key] = terms.get(key, RationalFn(MultiPoly.zero(op.variables))) \
        + RationalFn(MultiPoly.const(op.variables, amount))
    return type(op)(op.variables, terms)


def default_test_functions():
    """Twelve polynomials of degree <= 2 in (w1, w2, w3): their 2-jets at a
    point span every derivative index of order <= 2."""
    w1, w2, w3 = (MultiPoly.var(sepvar.W3, v) for v in sepvar.W3)
    return [MultiPoly.const(sepvar.W3, 1), w1, w2, w3,
            w1 ** 2, w2 ** 2, w3 ** 2,
            w1 * w2, w1 * w3, w2 * w3,
            w1 * w2 + w3 ** 2, w1 - 2 * w2 + 3 * w3]


def custom_test_functions():
    """Ten polynomials in (w1, w2, w3), three of them cubic."""
    w1, w2, w3 = (MultiPoly.var(sepvar.W3, v) for v in sepvar.W3)
    one = MultiPoly.const(sepvar.W3, 1)
    return [one, w1, w2, w3, w1 * w2, w3 ** 2 - w1,
            w1 * w2 * w3, w3 ** 3 - 2 * w1 ** 2 * w2 + w2,
            Fraction(1, 3) * w2 ** 3 + w1 * w3, w1 ** 2 + w2 * w3]


def test_pushforward_agrees_with_the_jet_route(monkeypatch, rng):
    """The chain-rule push-forward and the jet route give the same verdict
    on the true operator and on a perturbed one, for random masses and
    pairwise unequal ones, d in 1..5, several seeds, and on the jet route
    the default test functions or a list with cubics."""
    build_opham = sepvar.build_opham
    unequal = {"m1": 2, "m2": 3, "m3": Fraction(5, 2)}
    for d, fns, masses in ((2, default_test_functions(), {}),
                           (3, custom_test_functions(), {}),
                           (4, default_test_functions(), {}),
                           (1, default_test_functions(), {}),
                           (5, custom_test_functions(), {}),
                           (3, default_test_functions(), unequal)):
        p = draw_params(rng, **masses)
        seed = rng.randint(0, 999)
        true_op = build_opham(replace(p, d=d))
        key = rng.choice(sorted(true_op.terms))
        for op in (true_op, perturbed(true_op, key)):
            monkeypatch.setattr(sepvar, "build_opham",
                                lambda p, op=op: op)
            want = reference_pushforward(p, d, seed, 50, fns, op)
            assert want is (op is true_op)
            assert sepvar.verify_pushforward(
                replace(p, d=d), seed=seed, n_points=50) is want


def test_pushforward_raises_where_a_w_denominator_vanishes(monkeypatch):
    """A w-space coefficient whose denominator vanishes at W(rho) raises,
    as `RationalFn.eval` does, and is never compared as 0 = 0: the true
    (0, 0, 1) coefficient with numerator and denominator both times
    w1 - c, c the w1 = rho23 of the first sample point, equals the true
    one wherever it is defined, so at that point only the refusal keeps
    the cross-multiplied comparison from accepting it."""
    p = Params(m1=2, m2=3, m3=5, d=3)
    wmap = sepvar.build_wmap(p)
    first = random_point(RHO3, random.Random(1))
    assert wmap.denominator_root.eval(first) and wmap.w2.eval(first)
    factor = MultiPoly.var(sepvar.W3, "w1") - first["rho23"]
    true_op = sepvar.build_opham(p)
    terms = dict(true_op.terms)
    c = terms[(0, 0, 1)]
    terms[(0, 0, 1)] = RationalFn(c.num * factor, c.den * factor)
    monkeypatch.setattr(sepvar, "build_opham",
                        lambda p: type(true_op)(true_op.variables, terms))
    with pytest.raises(ZeroDivisionError):
        sepvar.verify_pushforward(p, seed=1)
    assert sepvar.verify_pushforward(p, seed=2)    # defined at every point


OPHAM_KEYS = ((2, 0, 0), (1, 0, 0), (0, 2, 0), (0, 1, 0), (0, 0, 2),
              (0, 0, 1))
SPURIOUS_KEYS = ((1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0))


def test_pushforward_memory_does_not_grow_with_the_points():
    """Each point is checked as it is drawn and then dropped, so the
    traced peak at 200 points is that at 50.  Holding every point's power
    tables until the end, 200 points peaked about 100 kB above 50."""
    import tracemalloc
    p = Params(m1=2, m2=3, m3=Fraction(5, 2), a=1, b=2, c=Fraction(3, 2))
    assert sepvar.verify_pushforward(p, n_points=50)   # warm the caches
    peaks = []
    for n in (50, 200):
        tracemalloc.start()
        try:
            assert sepvar.verify_pushforward(p, n_points=n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16_000, peaks


@pytest.mark.parametrize("key", OPHAM_KEYS + SPURIOUS_KEYS)
def test_pushforward_rejects_each_perturbed_coefficient(monkeypatch, key):
    """A 10^-6 change to any coefficient of the w-space operator, or a
    spurious mixed or zeroth-order term of that size, fails the
    push-forward, while the true operator passes."""
    p = draw_params(random.Random(1313))
    true_op = sepvar.build_opham(p)
    assert set(true_op.terms) == set(OPHAM_KEYS)
    assert sepvar.verify_pushforward(p, seed=5)
    monkeypatch.setattr(sepvar, "build_opham",
                        lambda p: perturbed(true_op, key))
    assert not sepvar.verify_pushforward(p, seed=5)


def test_pushforward_rejects_a_perturbed_operator(monkeypatch, capsys):
    """A real negative control: one coefficient of the w-space operator
    off by 10^-6 fails the push-forward, in the library and the CLI."""
    build_opham = sepvar.build_opham
    monkeypatch.setattr(sepvar, "build_opham", lambda p: perturbed(
        build_opham(p), (0, 0, 1)))
    p = Params(m1=2, m2=3, m3=5, d=3)
    assert not sepvar.verify_pushforward(p, seed=1)
    code = main(["sepvar", "--m1", "2", "--m2", "3", "--m3", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["results"] == {
        "pushforward_ok": False, "A": None, "B": None, "potential": None}
    assert "verification failed: w-coordinate-pushforward" in err


def test_potential_w3_independence_iff_first_relation():
    # equal masses, nu12 = nu13: independent of w3
    p = Params(m1=1, m2=1, m3=1)
    pot = sepvar.potential_in_w(p, (Fraction(1), Fraction(1), Fraction(2)))
    assert pot.w3_independent and pot.resolved_sign is None
    # break the relation: sqrt term appears, sign resolved
    pot2 = sepvar.potential_in_w(p, (Fraction(1), Fraction(2), Fraction(2)))
    assert not pot2.w3_independent
    assert pot2.resolved_sign in (1, -1)


def test_potential_coefficients_closed_form(rng):
    p = draw_params(rng)
    nus = nu_coefficients(p)
    pot = sepvar.potential_in_w(p, nus)
    m1, m2, m3 = p.masses
    s = m2 + m3
    assert pot.c1 == (m3 ** 2 * nus[0] + m2 ** 2 * nus[1]
                      + s ** 2 * nus[2]) / s ** 2
    assert pot.c2 == (nus[0] + nus[1]) / s ** 2
    assert pot.w3_independent == (m2 * nus[1] == m3 * nus[0])
