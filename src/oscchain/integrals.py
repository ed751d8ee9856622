"""Classical and quantum integrals of motion for the 3-body S-state problem.

Classical objects are phase-space polynomials over
(rho12, rho13, rho23, p1, p2, p3) with the canonical pairing
(rho12, p1), (rho13, p2), (rho23, p3); quantum objects are exact DiffOps
over the rho's.  Everything is a literal transcription; conservation is
checked by exact Poisson brackets / commutators, never assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .exact import (DiffOp, MultiPoly, PHASE_VARS, RHO_VARS, phase_var,
                    poisson_bracket)
from .model import (Case, Params, area_square_expr, build_radial_laplacian,
                    oscillator_potential, reduced_masses, validate_case)


# ---------------------------------------------------------------------------
# classical integrals

def classical_s1(p: Params) -> MultiPoly:
    mu12, mu13, mu23 = reduced_masses(p)
    m1, m2, m3 = p.masses
    r12, r13, r23 = phase_var("rho12"), phase_var("rho13"), phase_var("rho23")
    p1, p2, p3 = phase_var("p1"), phase_var("p2"), phase_var("p3")
    return ((1 / mu12) * r12 * p1 ** 2 + (1 / mu13) * r13 * p2 ** 2
            + (1 / mu23) * r23 * p3 ** 2
            + (1 / m1) * (r12 + r13 - r23) * p1 * p2
            + (1 / m2) * (r12 + r23 - r13) * p1 * p3
            + (1 / m3) * (r23 + r13 - r12) * p2 * p3)


def classical_s2() -> MultiPoly:
    r12, r13, r23 = phase_var("rho12"), phase_var("rho13"), phase_var("rho23")
    p1, p2, p3 = phase_var("p1"), phase_var("p2"), phase_var("p3")
    return (r13 * p2 ** 2 - r12 * p1 ** 2
            + (r23 + r13 - r12) * p2 * p3
            + (r13 - r12 - r23) * p1 * p3)


def classical_s3() -> MultiPoly:
    r12, r13, r23 = phase_var("rho12"), phase_var("rho13"), phase_var("rho23")
    p1, p2 = phase_var("p1"), phase_var("p2")
    return (-r13 * p2 ** 2 - r12 * p1 ** 2
            + (r23 - r13 - r12) * p1 * p2)


def classical_l0(p: Params) -> MultiPoly:
    m1, m2, m3 = p.masses
    r12, r13, r23 = phase_var("rho12"), phase_var("rho13"), phase_var("rho23")
    p1, p2, p3 = phase_var("p1"), phase_var("p2"), phase_var("p3")
    return (m3 * ((m1 + m2) * r13 - (m1 + m2) * r23 + (m1 - m2) * r12) * p1
            + m2 * ((m1 + m3) * r23 - (m1 + m3) * r12 + (m3 - m1) * r13) * p2
            + m1 * ((m2 + m3) * r12 - (m2 + m3) * r13 + (m2 - m3) * r23) * p3)


def classical_f(p: Params, which: int) -> MultiPoly:
    m1, m2, m3 = p.masses
    p1, p2, p3 = phase_var("p1"), phase_var("p2"), phase_var("p3")
    area = -area_square_expr(PHASE_VARS)
    if which == 1:
        return area * (m2 * p2 - m3 * p1) ** 2
    if which == 2:
        return area * (m1 * p3 - m3 * p1) ** 2
    if which == 3:
        return area * (m1 * p3 - m2 * p2) ** 2
    raise ValueError("which must be 1, 2 or 3")


def classical_hamiltonian(p: Params, nus) -> MultiPoly:
    """2 S1 + oscillator potential, as a phase polynomial.

    The frequency coefficients `nus` are given directly, not derived from
    (a, b, c), since the conservation statements are conditions on the
    nu's.
    """
    return 2 * classical_s1(p) + oscillator_potential(
        p.omega, nus).extend(PHASE_VARS)


def prolonged_s2(p: Params, nus) -> MultiPoly:
    m1, m2, m3 = p.masses
    nu13 = nus[1]
    M = m1 + m2 + m3
    r12, r13, r23 = phase_var("rho12"), phase_var("rho13"), phase_var("rho23")
    return classical_s2() + (p.omega ** 2 * nu13 / (m3 * M)) * (
        m3 * (m2 ** 2 + m1 * m3 + m2 * m3) * r13
        - m2 * (m3 ** 2 + m1 * m2 + m2 * m3) * r12
        - m2 * m3 * (m2 - m3) * r23)


def _prolong_s3_shift(p: Params, nus) -> MultiPoly:
    m1, m2, m3 = p.masses
    nu13 = nus[1]
    M = m1 + m2 + m3
    r12, r13, r23 = phase_var("rho12"), phase_var("rho13"), phase_var("rho23")
    return (p.omega ** 2 * m1 * nu13 / (m3 * M)) * (
        m2 * m3 * r23 - m2 * (m2 + m3) * r12 - m3 * (m2 + m3) * r13)


def prolonged_s3(p: Params, nus) -> MultiPoly:
    return classical_s3() + _prolong_s3_shift(p, nus)


# ---------------------------------------------------------------------------
# quantum integrals

def quantum_s1(p: Params) -> DiffOp:
    """-(1/2) Delta_rad: the free quantum Hamiltonian."""
    return Fraction(-1, 2) * build_radial_laplacian(Case.GENERAL3, p)


def _rv(name: str) -> MultiPoly:
    return MultiPoly.var(RHO_VARS, name)


def quantum_s2(d: int) -> DiffOp:
    r12, r13, r23 = _rv("rho12"), _rv("rho13"), _rv("rho23")
    half_d = Fraction(d, 2)
    return DiffOp(RHO_VARS, {
        (0, 2, 0): r13,
        (2, 0, 0): -r12,
        (0, 1, 1): r23 + r13 - r12,
        (1, 0, 1): r13 - r12 - r23,
        (0, 1, 0): MultiPoly.const(RHO_VARS, half_d),
        (1, 0, 0): MultiPoly.const(RHO_VARS, -half_d),
    })


def quantum_s3(d: int) -> DiffOp:
    r12, r13, r23 = _rv("rho12"), _rv("rho13"), _rv("rho23")
    half_d = Fraction(d, 2)
    return DiffOp(RHO_VARS, {
        (0, 2, 0): -r13,
        (2, 0, 0): -r12,
        (1, 1, 0): r23 - r13 - r12,
        (0, 1, 0): MultiPoly.const(RHO_VARS, -half_d),
        (1, 0, 0): MultiPoly.const(RHO_VARS, -half_d),
    })


def quantum_f(p: Params, which: int) -> DiffOp:
    m1, m2, m3 = p.masses
    area = -area_square_expr(RHO_VARS)
    r12, r13, r23 = _rv("rho12"), _rv("rho13"), _rv("rho23")
    dd = Fraction(p.d - 1)
    if which == 1:
        return DiffOp(RHO_VARS, {
            (0, 2, 0): m2 ** 2 * area,
            (1, 1, 0): -2 * m2 * m3 * area,
            (2, 0, 0): m3 ** 2 * area,
            (1, 0, 0): dd * (m3 ** 2 * (r12 - r13 - r23)
                             + m2 * m3 * (r12 - r13 + r23)),
            (0, 1, 0): dd * (m2 ** 2 * (r13 - r12 - r23)
                             + m2 * m3 * (r13 + r23 - r12)),
        })
    if which == 2:
        return DiffOp(RHO_VARS, {
            (0, 0, 2): m1 ** 2 * area,
            (1, 0, 1): -2 * m1 * m3 * area,
            (2, 0, 0): m3 ** 2 * area,
            (1, 0, 0): dd * (m3 ** 2 * (r12 - r13 - r23)
                             + m1 * m3 * (r12 - r23 + r13)),
            (0, 0, 1): dd * (m1 ** 2 * (r23 - r12 - r13)
                             + m1 * m3 * (r13 + r23 - r12)),
        })
    if which == 3:
        return DiffOp(RHO_VARS, {
            (0, 0, 2): m1 ** 2 * area,
            (0, 1, 1): -2 * m1 * m2 * area,
            (0, 2, 0): m2 ** 2 * area,
            (0, 1, 0): dd * (m2 ** 2 * (r13 - r12 - r23)
                             + m1 * m2 * (r12 - r23 + r13)),
            (0, 0, 1): dd * (m1 ** 2 * (r23 - r12 - r13)
                             + m1 * m2 * (r23 + r12 - r13)),
        })
    raise ValueError("which must be 1, 2 or 3")


def quantum_l0(p: Params) -> DiffOp:
    m1, m2, m3 = p.masses
    r12, r13, r23 = _rv("rho12"), _rv("rho13"), _rv("rho23")
    return DiffOp(RHO_VARS, {
        (1, 0, 0): m3 * ((m1 + m2) * r13 - (m1 + m2) * r23
                         + (m1 - m2) * r12),
        (0, 1, 0): m2 * ((m1 + m3) * r23 - (m1 + m3) * r12
                         + (m3 - m1) * r13),
        (0, 0, 1): m1 * ((m2 + m3) * r12 - (m2 + m3) * r13
                         + (m2 - m3) * r23),
    })


def quantum_hamiltonian(p: Params, nus) -> DiffOp:
    """2 S1q + V = -Delta_rad + V, with V the oscillator potential of the
    frequency coefficients `nus`."""
    V = oscillator_potential(p.omega, nus)
    return 2 * quantum_s1(p) + DiffOp.mul_by(V)


def prolonged_s3_quantum(p: Params, nus) -> DiffOp:
    """S3q minus the oscillator shift.

    The shift enters with the opposite sign relative to the classical
    prolongation because the quantum S2q/S3q are transcribed with +d^2
    where the classical ones carry +p^2, while the free Hamiltonian is
    quantized with -d^2; the subtracted form is the one that actually
    commutes with the full quantum Hamiltonian (verified exactly).
    """
    shift = _prolong_s3_shift(p, nus).subs_values(
        {"p1": 0, "p2": 0, "p3": 0})
    return quantum_s3(p.d) - DiffOp.mul_by(shift)


# ---------------------------------------------------------------------------
# bundled set

@dataclass(frozen=True)
class IntegralSet:
    classical: Dict[str, MultiPoly]
    quantum: Dict[str, DiffOp]


def classical_integrals(p: Params) -> Dict[str, MultiPoly]:
    """The named classical integrals, the members of the
    `involution_triplets`."""
    return {
        "S1": classical_s1(p),
        "S2": classical_s2(),
        "S3": classical_s3(),
        "F1": classical_f(p, 1),
        "F2": classical_f(p, 2),
        "F3": classical_f(p, 3),
        "L0": classical_l0(p),
    }


def build_integral_set(p: Params) -> IntegralSet:
    quantum = {
        "S1q": quantum_s1(p),
        "S2q": quantum_s2(p.d),
        "S3q": quantum_s3(p.d),
        "F1q": quantum_f(p, 1),
        "F2q": quantum_f(p, 2),
        "F3q": quantum_f(p, 3),
        "L0q": quantum_l0(p),
    }
    return IntegralSet(classical_integrals(p), quantum)


# ---------------------------------------------------------------------------
# superintegrability

@dataclass(frozen=True)
class SuperintegrabilityVerdict:
    kind: str                              # "none" | "minimal" | "maximal"
    relations: Tuple[bool, bool, bool]     # the three pairwise conditions
    surviving: Tuple[str, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "relations": list(self.relations),
                "surviving": list(self.surviving)}


# The one superintegrability table: relations (r1, r2, r3) -> (kind,
# surviving).  A pair of relations without the third is absent: it cannot
# occur (see classify_superintegrability).
_SURVIVING = {
    (True, True, True): ("maximal", ("L0", "S2t", "S3t", "F1", "F2", "F3")),
    # L0 is NOT conserved under r1 alone (exact bracket: {H, L0} has
    # coefficient (m2+m3)(m1 nu23 - m3 nu12) on rho12, nonzero unless the
    # remaining conditions also hold), so the surviving set is the pair.
    (True, False, False): ("minimal", ("S3t", "F1")),
    (False, True, False): ("minimal", ("F3",)),
    (False, False, True): ("minimal", ("F2",)),
    (False, False, False): ("none", ()),
}


def classify_superintegrability(masses: Sequence[Fraction],
                                nus: Sequence[Fraction]
                                ) -> SuperintegrabilityVerdict:
    """Classify from the three pairwise mass-frequency conditions.

    relations = (m2 nu13 == m3 nu12, m1 nu23 == m2 nu13,
                 m3 nu12 == m1 nu23).  All three compare the same three
    exact products m3 nu12, m2 nu13 and m1 nu23, so any two of them imply
    the third: exactly zero, one or all three hold, and `_SURVIVING` has
    no entry for two.

    The single relations r2 and r3 are r1 with the particles relabelled:
    the swap (1 3), applied to the integrals by `permutation_action` and to
    the masses by `permute_masses`, takes r1 to r2 and F1 to F3; the swap
    (1 2) takes r1 to r3 and F1 to F2.  So F3 survives alone on r2 and F2
    on r3.  The image of S3t is not among the named integrals, so it is
    not listed there.

    The verdict covers integrals of order <= 2 in the momenta only, the
    first- and second-order integrals the paper searches.  Against the
    normal-mode frequencies W1, W2 (`spectra` docstring), sampled draws
    (tests/test_integrals.py) give `maximal` exactly when W1 = W2 and
    `minimal` only when W1:W2 is rational.  A rational W1:W2 also comes
    with `none`: such commensurate modes may carry integrals of higher
    order, which are not searched here.
    """
    m1, m2, m3 = masses
    nu12, nu13, nu23 = nus
    relations = (m2 * nu13 == m3 * nu12, m1 * nu23 == m2 * nu13,
                 m3 * nu12 == m1 * nu23)
    kind, surviving = _SURVIVING[relations]
    return SuperintegrabilityVerdict(kind, relations, surviving)


def involution_triplets(p: Params,
                        c: Optional[Dict[str, MultiPoly]] = None):
    """The three commuting triplets, each verified by exact brackets.

    Returns [(name, members, ok)]; ok is True iff all pairwise Poisson
    brackets vanish identically.  `c` is classical_integrals(p), built
    here when not given.
    """
    m1, m2, m3 = p.masses
    if c is None:
        c = classical_integrals(p)
    weighted = ((m1 ** 2 + m1 * (m2 + m3) - m2 * m3) * c["F1"]
                + (m2 ** 2 + m2 * (m1 + m3) - m1 * m3) * c["F2"]
                + (m3 ** 2 + m3 * (m1 + m2) - m1 * m2) * c["F3"])
    triplets = [
        ("S-triplet", [c["S1"], c["S2"], c["S3"]]),
        ("F-triplet", [c["S1"], c["F1"], c["S3"]]),
        ("L-triplet", [c["S1"], c["L0"] * c["L0"], weighted]),
    ]
    out = []
    for name, members in triplets:
        ok = all(poisson_bracket(f, g).is_zero()
                 for i, f in enumerate(members)
                 for g in members[i + 1:])
        out.append((name, members, ok))
    return out


# ---------------------------------------------------------------------------
# permutation action

_PAIR_OF = {"rho12": (1, 2), "rho13": (1, 3), "rho23": (2, 3)}
_RHO_OF_PAIR = {frozenset((1, 2)): "rho12", frozenset((1, 3)): "rho13",
                frozenset((2, 3)): "rho23"}
_MOM_OF_RHO = {"rho12": "p1", "rho13": "p2", "rho23": "p3"}


def permutation_action(perm: Dict[int, int], obj):
    """Relabel a phase polynomial or rho-space DiffOp under a particle
    permutation (a dict on {1,2,3}); masses must be permuted by the caller."""
    mapping = {}
    for rho, (i, j) in _PAIR_OF.items():
        target = _RHO_OF_PAIR[frozenset((perm[i], perm[j]))]
        mapping[rho] = target
        mapping[_MOM_OF_RHO[rho]] = _MOM_OF_RHO[target]
    if isinstance(obj, MultiPoly):
        return obj.rename(mapping, obj.variables)
    if isinstance(obj, DiffOp):
        # permute derivative slots and coefficient variables consistently
        variables = obj.variables
        slot = {v: variables.index(mapping.get(v, v)) for v in variables}
        out_terms = {}
        for derivs, coeff in obj.terms.items():
            new_derivs = [0] * len(variables)
            for v, k in zip(variables, derivs):
                new_derivs[slot[v]] = k
            new_coeff = coeff.rename(mapping, variables)
            key = tuple(new_derivs)
            out_terms[key] = out_terms.get(key, MultiPoly.zero(variables)) \
                + new_coeff
        return DiffOp(variables, out_terms)
    raise TypeError(f"cannot permute {type(obj).__name__}")


def permute_masses(perm: Dict[int, int], p: Params) -> Params:
    from dataclasses import replace
    masses = {1: p.m1, 2: p.m2, 3: p.m3}
    inv = {v: k for k, v in perm.items()}
    return replace(p, m1=masses[inv[1]], m2=masses[inv[2]], m3=masses[inv[3]])


# ---------------------------------------------------------------------------
# end-to-end conservation battery

@dataclass(frozen=True)
class BatteryReport:
    verdict: SuperintegrabilityVerdict
    classical_zero: Dict[str, bool]
    quantum_zero: Dict[str, bool]
    triplets_ok: Dict[str, bool]

    @property
    def consistent(self) -> bool:
        return not self.failures()

    def failures(self) -> Tuple[str, ...]:
        zero = {**self.classical_zero, **self.quantum_zero}
        out = [n for n, z in _expected_zero(self.verdict, zero).items()
               if zero[n] != z]
        out.extend(n for n, ok in self.triplets_ok.items() if not ok)
        return tuple(out)

    def to_json(self) -> dict:
        return {"verdict": self.verdict.to_json(),
                "classical_zero": self.classical_zero,
                "quantum_zero": self.quantum_zero,
                "triplets_ok": self.triplets_ok,
                "consistent": self.consistent}


def _expected_zero(verdict: SuperintegrabilityVerdict,
                   names) -> Dict[str, bool]:
    """The bracket pattern the battery asserts over the checked `names`,
    read off `verdict.surviving`: a name is expected conserved exactly when
    it survives, a quantum name ending in q when its classical base does.

    On r1 and on the maximal locus every name is asserted; on r2 and r3
    only the names that do not start with S, because the images of the
    S-integrals under the particle swaps are not named integrals (see
    classify_superintegrability); with no relation, none is.
    """
    if verdict.kind == "none":
        return {}
    r1 = verdict.relations[0]
    return {n: n.removesuffix("q") in verdict.surviving for n in names
            if r1 or not n.startswith("S")}


def maximal_nus(p: Params, lam: Fraction = Fraction(1)):
    """The fully superintegrable frequency family for the given masses:
    nu12 = lam m2, nu13 = lam m3, nu23 = lam m2 m3 / m1 satisfies all
    three pairwise relations."""
    m1, m2, m3 = p.masses
    return (lam * m2, lam * m3, lam * m2 * m3 / m1)


def battery(p: Params, nus: Optional[Sequence[Fraction]] = None
            ) -> BatteryReport:
    """Bracket every candidate integral with the Hamiltonian and compare
    the vanishing pattern against the mass-frequency classification."""
    validate_case(Case.GENERAL3, p)
    if nus is None:
        nus = maximal_nus(p)
    verdict = classify_superintegrability(p.masses, nus)
    Hcl = classical_hamiltonian(p, nus)
    Hq = quantum_hamiltonian(p, nus)
    c = classical_integrals(p)
    classical = {
        "S2t": prolonged_s2(p, nus),
        "S3t": prolonged_s3(p, nus),
        "F1": c["F1"],
        "F2": c["F2"],
        "F3": c["F3"],
        "L0": c["L0"],
    }
    quantum = {
        "S3tq": prolonged_s3_quantum(p, nus),
        "F1q": quantum_f(p, 1),
        "F2q": quantum_f(p, 2),
        "F3q": quantum_f(p, 3),
        "L0q": quantum_l0(p),
    }
    classical_zero = {n: poisson_bracket(Hcl, f).is_zero()
                      for n, f in classical.items()}
    quantum_zero = {n: Hq.commutator(op).is_zero()
                    for n, op in quantum.items()}
    triplets_ok = {name: ok for name, _, ok in involution_triplets(p, c)}
    return BatteryReport(verdict, classical_zero, quantum_zero, triplets_ok)
