"""Conservation laws: exact Poisson brackets and commutators for the
candidate integrals, the mass-frequency classification, involution
triplets, discrete symmetries, and principal-symbol consistency."""
import random
from fractions import Fraction

import pytest

from oscchain import integrals as itg
from oscchain.exact import PHASE_VARS, DiffOp, MultiPoly, poisson_bracket
from oscchain.model import (Case, Params, build_potential,
                            build_radial_laplacian, nu_coefficients)

from conftest import draw_fraction, draw_params


def test_maximal_battery_is_fully_conserved(rng):
    for _ in range(3):
        p = draw_params(rng, a=1, b=1, c=1)
        rep = itg.battery(p)
        assert rep.verdict.kind == "maximal"
        assert all(rep.classical_zero.values())
        assert all(rep.quantum_zero.values())
        assert all(rep.triplets_ok.values())
        assert rep.consistent
        assert rep.failures() == ()


def test_battery_hamiltonians_are_the_model_hamiltonian(rng):
    """At the nu's of the springs, the battery's quantum H is the model's
    -Delta_rad + V, and its classical H has V as momentum-free part."""
    for _ in range(5):
        p = draw_params(rng)
        nus = nu_coefficients(p)
        V = build_potential(Case.GENERAL3, p)
        assert itg.quantum_hamiltonian(p, nus) == \
            -build_radial_laplacian(Case.GENERAL3, p) + DiffOp.mul_by(V)
        H = itg.classical_hamiltonian(p, nus)
        assert H.subs_values({"p1": 0, "p2": 0, "p3": 0}) == V


def test_maximal_relations_two_imply_three():
    p = Params(m1=2, m2=3, m3=5)
    nus = itg.maximal_nus(p, Fraction(7, 3))
    v = itg.classify_superintegrability(p.masses, nus)
    assert v.kind == "maximal" and all(v.relations)


def test_minimal_surviving_pair():
    # equal masses with springs a = b = 1, c = 2: only the first relation
    p = Params(m1=1, m2=1, m3=1, d=3)
    nus = (Fraction(3, 4), Fraction(3, 4), Fraction(11, 4))
    rep = itg.battery(p, nus)
    assert rep.verdict.kind == "minimal"
    assert rep.verdict.relations == (True, False, False)
    assert rep.verdict.surviving == ("S3t", "F1")
    assert rep.classical_zero == {"S2t": False, "S3t": True, "F1": True,
                                  "F2": False, "F3": False, "L0": False}
    assert rep.quantum_zero == {"S3tq": True, "F1q": True, "F2q": False,
                                "F3q": False, "L0q": False}
    assert rep.consistent


def test_minimal_l0_bracket_exact_counterexample():
    """Under the single relation the angular-type integral is NOT conserved;
    the bracket evaluates to a specific nonzero polynomial."""
    p = Params(m1=1, m2=1, m3=1, d=3)
    nus = (Fraction(3, 4), Fraction(3, 4), Fraction(11, 4))
    H = itg.classical_hamiltonian(p, nus)
    br = poisson_bracket(H, itg.classical_l0(p))
    r12 = MultiPoly.var(PHASE_VARS, "rho12")
    r13 = MultiPoly.var(PHASE_VARS, "rho13")
    assert br == 8 * (r12 - r13)


PAIRS = ((1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("perm, relation, image", [
    ({1: 3, 2: 2, 3: 1}, 1, 3),       # the swap (1 3): r1 -> r2, F1 -> F3
    ({1: 2, 2: 1, 3: 3}, 2, 2)])      # the swap (1 2): r1 -> r3, F1 -> F2
def test_swaps_take_r1_to_r2_and_r3(perm, relation, image):
    """Relabelling the particles takes the r1 locus to the r2 or r3 locus,
    F1 to F3 or F2 and L0 to -L0, classically and quantum."""
    p = Params(m1=2, m2=3, m3=Fraction(5, 2))
    q = itg.permute_masses(perm, p)
    nus = dict(zip(PAIRS, (Fraction(1), Fraction(5, 6), Fraction(9))))
    moved = {tuple(sorted((perm[i], perm[j]))): nu
             for (i, j), nu in nus.items()}
    assert itg.classify_superintegrability(
        p.masses, [nus[ij] for ij in PAIRS]).relations == (True, False, False)
    assert itg.classify_superintegrability(
        q.masses, [moved[ij] for ij in PAIRS]).relations \
        == tuple(k == relation for k in range(3))
    assert itg.permutation_action(perm, itg.classical_f(p, 1)) \
        == itg.classical_f(q, image)
    assert itg.permutation_action(perm, itg.quantum_f(p, 1)) \
        == itg.quantum_f(q, image)
    assert itg.permutation_action(perm, itg.classical_l0(p)) \
        == -itg.classical_l0(q)
    assert itg.permutation_action(perm, itg.quantum_l0(p)) \
        == -itg.quantum_l0(q)


@pytest.mark.parametrize("nus, relations, survivor", [
    ((7, 1, Fraction(3, 2)), (False, True, False), "F3"),
    ((1, 7, Fraction(5, 4)), (False, False, True), "F2")])
def test_battery_on_the_r2_and_r3_loci(nus, relations, survivor):
    p = Params(m1=2, m2=3, m3=Fraction(5, 2))
    rep = itg.battery(p, nus)
    assert rep.verdict.kind == "minimal"
    assert rep.verdict.relations == relations
    assert rep.verdict.surviving == (survivor,)
    for name in ("F1", "F2", "F3", "L0"):
        conserved = name == survivor
        assert rep.classical_zero[name] is conserved
        assert rep.quantum_zero[name + "q"] is conserved
    assert rep.consistent
    # the battery asserts all eight of these, and none of the S-integrals
    checked = {**rep.classical_zero, **rep.quantum_zero}
    assert set(itg._expected_zero(rep.verdict, checked)) == {
        n + q for n in ("F1", "F2", "F3", "L0") for q in ("", "q")}


def test_none_verdict(rng):
    p = Params(m1=2, m2=3, m3=5)
    nus = (Fraction(1), Fraction(1), Fraction(1))
    v = itg.classify_superintegrability(p.masses, nus)
    assert v.kind == "none" and v.surviving == ()
    H = itg.classical_hamiltonian(p, nus)
    assert not poisson_bracket(H, itg.prolonged_s3(p, nus)).is_zero()


def test_involution_triplets(rng):
    p = draw_params(rng)
    for name, members, ok in itg.involution_triplets(p):
        assert ok, name


def test_hamiltonian_self_consistency(rng):
    p = draw_params(rng)
    nus = itg.maximal_nus(p)
    H = itg.classical_hamiltonian(p, nus)
    assert poisson_bracket(H, H).is_zero()
    Hq = itg.quantum_hamiltonian(p, nus)
    assert Hq.commutator(Hq).is_zero()


def test_classical_vs_quantum_prolongation_signs():
    """The quantum compensation term enters with the sign opposite to the
    classical one (the kinetic quantization flips the relative sign)."""
    p = Params(m1=2, m2=3, m3=5, d=3)
    nus = itg.maximal_nus(p)
    Hq = itg.quantum_hamiltonian(p, nus)
    good = itg.prolonged_s3_quantum(p, nus)          # S3q - shift
    wrong = 2 * itg.quantum_s3(p.d) - good           # S3q + shift
    assert Hq.commutator(good).is_zero()
    assert not Hq.commutator(wrong).is_zero()


PRINCIPAL_SIGNS = [("S1q", "S1", -1), ("S2q", "S2", 1), ("S3q", "S3", 1),
                   ("F1q", "F1", 1), ("F2q", "F2", 1), ("F3q", "F3", 1),
                   ("L0q", "L0", 1)]


@pytest.mark.parametrize("qname,cname,sign", PRINCIPAL_SIGNS)
def test_principal_symbols_match_classical(qname, cname, sign, rng):
    p = draw_params(rng)
    s = itg.build_integral_set(p)
    sym = s.quantum[qname].principal_symbol(("p1", "p2", "p3"))
    assert sym == sign * s.classical[cname]


def test_permutation_symmetries_at_equal_masses():
    p = Params(m1=1, m2=1, m3=1, d=3)
    s = itg.build_integral_set(p)
    L0, S2 = s.classical["L0"], s.classical["S2"]
    for perm in ({1: 1, 2: 3, 3: 2}, {1: 2, 2: 1, 3: 3}, {1: 3, 2: 2, 3: 1}):
        assert itg.permutation_action(perm, L0) == -L0
    for perm in ({1: 2, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 2}):
        assert itg.permutation_action(perm, L0) == L0
    assert itg.permutation_action({1: 1, 2: 3, 3: 2}, S2) == -S2


def test_permutation_covariance_of_kinetic_integral(rng):
    p = draw_params(rng)
    perm = {1: 1, 2: 3, 3: 2}
    assert itg.permutation_action(perm, itg.classical_s1(p)) \
        == itg.classical_s1(itg.permute_masses(perm, p))


def test_l0_momentum_coefficients_equal_masses():
    L0 = itg.classical_l0(Params(m1=1, m2=1, m3=1))
    coeff = {}
    for exps, c in L0.terms.items():
        if exps[3:] == (1, 0, 0):
            coeff[exps[:3]] = c
    assert coeff == {(0, 1, 0): Fraction(2), (0, 0, 1): Fraction(-2)}


def test_battery_works_for_all_dimensions(rng):
    for d in (2, 3, 4, 5):
        p = draw_params(rng, d=d)
        rep = itg.battery(p)
        assert rep.consistent and rep.verdict.kind == "maximal"
