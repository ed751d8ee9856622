"""The four workloads: inputs drawn from the seed, the ops, and their checks.

An op is one call the benchmark times: one spectrum, one verification call
or one CLI command.  `build(workload, seed, k)` returns the ops of pass k;
the same arguments always give the same inputs.  Each op carries a check
that runs after the timed passes and returns the reasons its output is
wrong (an empty list when it is right).
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum-deep", "spectrum-sweep", "verify", "cli")

# small-height rationals for the parameter draws
MENU = tuple(Fraction(s) for s in ("1", "2", "3", "1/2", "3/2", "5/2", "2/3",
                                   "4/3", "5/3", "3/4", "5/4"))
EIG_RTOL = 1e-7          # numpy eigvals vs exact levels, relative to the
#                          largest |level| (at least 1)
WIDTH = Fraction(1, 2 ** 64)
CLI_TIMEOUT = 120


@dataclass
class Op:
    label: str
    inputs: str          # the drawn inputs, for failure notes
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    accepts_error: Callable[[Exception], bool] = lambda e: False
    known_defect: Callable[[Any], bool] = lambda result: False


def failures(op: Op, result) -> List[str]:
    """Why the result of `op` is wrong; `result` may be the exception."""
    if isinstance(result, Exception):
        if op.accepts_error(result):
            return []
        return [f"raised {type(result).__name__}: {result}"]
    try:
        return op.check(result)
    except Exception as e:      # a result the check cannot read is wrong
        return [f"check raised {type(e).__name__}: {e}"]


def tally(outcomes):
    """(failed, unexpected, notes) over [(op, result)].

    Every op whose output fails its check counts as failed; `unexpected`
    leaves out the known defect (primitive3_qes answered with the 2-body
    operator, ROADMAP item 4).
    """
    failed = unexpected = 0
    notes = []
    for op, result in outcomes:
        reasons = failures(op, result)
        if not reasons:
            continue
        failed += 1
        known = not isinstance(result, Exception) and op.known_defect(result)
        if not known:
            unexpected += 1
        notes.append(f"{op.label} [{op.inputs}]: {'; '.join(reasons)}"
                     + (" (known defect)" if known else ""))
    return failed, unexpected, notes


# -- parameters --------------------------------------------------------------

def rng_for(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def default_params(case):
    from oscchain.model import Case, Params
    m = (2, 3, Fraction(5, 2))
    springs = dict(a=1, b=2, c=Fraction(3, 2))
    if case is Case.EQUAL_MASS3:
        return Params(m1=2, m2=2, m3=2, **springs)
    return Params(m1=m[0], m2=m[1], m3=m[2], **springs)


def draw_params(case, rng: random.Random, N: Optional[int] = None):
    """Small-height rational parameters valid for `case`."""
    from oscchain.model import Case, Params

    def d():
        return rng.choice(MENU)

    kw = dict(m1=d(), m2=d(), m3=d(), a=d(), b=d(), c=d())
    if case in (Case.EQUAL_MASS3, Case.ISOTROPIC3):
        kw.update(m2=kw["m1"], m3=kw["m1"])
        if case is Case.ISOTROPIC3:
            kw.update(b=kw["a"], c=kw["a"])
    elif case is Case.ATOMIC3:
        kw.update(m1=None, m3=kw["m2"])
    elif case is Case.MOLECULAR3:
        kw.update(m2=None, m3=None, c=0, rho23=d())
    elif case is Case.ONE_DIM3:
        kw.update(d=1)
    elif case is Case.PRIMITIVE3_QES:
        kw.update(A12=d(), A13=d(), A23=d())
    elif case is Case.TWO_BODY_ES:
        kw = dict(m1=1, m2=1, omega=d())
    elif case is Case.TWO_BODY_QES:
        kw = dict(m1=1, m2=1, omega=d(), A=d(), N=N if N is not None else 2)
    return Params(**kw)


def draw_generic(case, rng: random.Random):
    """Draw until the normal-mode frequencies are irrational, as they are
    for the default parameters: then the degree-1 block has one rational
    level, and N=1 two in all.  Draws where they are rational make every
    level rational and cost a full nullspace per level, several times the
    time of a generic draw, so they are drawn again to keep every seed in
    one regime."""
    from oscchain import spectra
    for _ in range(100):
        p = draw_params(case, rng)
        rep = spectra.spectrum(case, p, 1, want_eigenfunctions=False)
        if sum(ev.value is not None for ev in rep.gauged) == 2:
            return p
    raise RuntimeError(f"no generic draw for {case.value}")


# -- spectra -----------------------------------------------------------------

def spectrum_op(case, p, N: int) -> Op:
    from oscchain import spectra
    from oscchain.model import Case, CaseError

    op = Op(f"spectrum {case.value} N={N}", repr(p),
            lambda: spectra.spectrum(case, p, N),
            lambda rep: check_spectrum(case, p, N, rep))
    if case is Case.PRIMITIVE3_QES:
        # seed answer: a 1-variable basis from the 2-body operator; a
        # 3-variable spectrum or a named CaseError would be correct
        op.accepts_error = lambda e: isinstance(e, CaseError)
        op.known_defect = lambda rep: rep.basis.variables == ("rho",)
    return op


def qes_op(p) -> Op:
    from oscchain import spectra
    from oscchain.model import Case
    return Op(f"qes_2body_block N={p.N}", repr(p),
              lambda: spectra.qes_2body_block(p),
              lambda rep: check_spectrum(Case.TWO_BODY_QES, p, p.N, rep))


def check_spectrum(case, p, N: int, rep) -> List[str]:
    import numpy as np
    from oscchain import model, spectra
    from oscchain.model import Case

    reasons = []
    if case is Case.TWO_BODY_QES:
        h = model.build_h_algebraic(case, p)
    else:
        h = spectra.case_operator(case, p)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, N))
    if sum(ev.multiplicity for ev in rep.gauged) != rep.basis.size:
        reasons.append("multiplicities do not sum to the basis size")
    if any(ev.interval is not None and ev.interval[1] - ev.interval[0] > WIDTH
           for ev in rep.gauged):
        reasons.append("an isolating interval is wider than 2^-64")
    want = sorted(ev.approx() for ev in rep.gauged
                  for _ in range(ev.multiplicity))
    got = sorted(np.linalg.eigvals(np.array(M.entries, dtype=float)),
                 key=lambda z: z.real)
    scale = max([1.0] + [abs(x) for x in want])
    if len(got) != len(want) or any(abs(g - w) > EIG_RTOL * scale
                                    for g, w in zip(got, want)):
        reasons.append("levels disagree with numpy eigvals")
    for ef in rep.eigenfunctions:
        phi = ef.as_poly(rep.basis)
        if phi.is_zero() or h.apply(phi) != ef.eigenvalue * phi:
            reasons.append(f"eigenfunction of {ef.eigenvalue} fails h(phi) "
                           "= lambda phi")
    if case is Case.TWO_BODY_ES:
        levels = sorted((ev.value, ev.multiplicity) for ev in rep.gauged)
        if levels != [(4 * p.omega * n, 1) for n in range(N + 1)]:
            reasons.append("twobody_es levels are not {4 omega n}")
    if not set(rep.basis.variables) <= set(model.case_variables(case)):
        reasons.append(f"basis variables {rep.basis.variables} are not "
                       f"among {model.case_variables(case)}")
    return reasons


DEEP_N = 6
SWEEP_N = (1, 2, 3, 4)
SWEEP_DRAWS = 2
GENERIC = ("general3", "equalmass3", "atomic3")   # the rho-triple cases


def spectrum_deep(seed: int, k: int, smoke: bool) -> List[Op]:
    from oscchain.model import Case
    rng = rng_for("spectrum-deep", seed, k)
    N = 2 if smoke else DEEP_N
    ops = []
    for case in (Case.GENERAL3, Case.EQUAL_MASS3):
        p = default_params(case) if seed == 0 else draw_generic(case, rng)
        ops.append(spectrum_op(case, p, N))
    return ops


def spectrum_sweep(seed: int, k: int, smoke: bool) -> List[Op]:
    from dataclasses import replace
    from oscchain.model import Case
    rng = rng_for("spectrum-sweep", seed, k)
    cases = (Case.GENERAL3, Case.EQUAL_MASS3, Case.ISOTROPIC3, Case.ATOMIC3,
             Case.MOLECULAR3, Case.ONE_DIM3, Case.TWO_BODY_ES,
             Case.PRIMITIVE3_QES, Case.TWO_BODY_QES)
    ops = []
    for _ in range(1 if smoke else SWEEP_DRAWS):
        for case in cases:
            p = draw_generic(case, rng) if case.value in GENERIC \
                else draw_params(case, rng)
            for N in SWEEP_N[:1] if smoke else SWEEP_N:
                if case is Case.TWO_BODY_QES:
                    ops.append(qes_op(replace(p, N=N)))
                else:
                    ops.append(spectrum_op(case, p, N))
    return ops


# -- exact verification ------------------------------------------------------

def gauge_identity(case, p) -> bool:
    """H.gauge_conjugate(psi0, E0) == build_h_algebraic(case, p)."""
    from oscchain import model
    from oscchain.exact import DiffOp
    H = -model.build_radial_laplacian(case, p) \
        + DiffOp.mul_by(model.build_potential(case, p))
    gs = model.ground_state(case, p)
    return H.gauge_conjugate(gs.wavefunction, gs.energy) \
        == model.build_h_algebraic(case, p)


def is_true(result) -> List[str]:
    return [] if result is True else [f"returned {result!r}"]


def returned(result) -> List[str]:
    """For calls that verify themselves and raise on a mismatch."""
    return [] if result is not None else ["returned None"]


def verify(seed: int, k: int, smoke: bool) -> List[Op]:
    from oscchain import integrals, sepvar
    from oscchain.model import Case
    rng = rng_for("verify", seed, k)
    p = draw_params(Case.GENERAL3, rng)
    generic = tuple(rng.choice(MENU) for _ in range(3))
    point_seed = rng.randrange(2 ** 31)

    def maximal_ok(rep):
        return ([] if rep.consistent else ["battery inconsistent"]) + \
            ([] if rep.verdict.kind == "maximal"
             else [f"maximal nus classified {rep.verdict.kind}"])

    inputs = repr(p)
    ops = [
        Op("battery maximal nus", inputs, lambda: integrals.battery(p),
           maximal_ok),
        Op("battery generic nus", f"{inputs} nus={generic}",
           lambda: integrals.battery(p, generic),
           lambda rep: [] if rep.consistent else ["battery inconsistent"]),
        Op("verify_pushforward 50 points", f"{inputs} seed={point_seed}",
           lambda: sepvar.verify_pushforward(p, seed=point_seed, n_points=50),
           is_true),
        Op("match_separated_template", inputs,
           lambda: sepvar.match_separated_template(sepvar.build_opham(p), p),
           returned),
        Op("potential_in_w", inputs, lambda: sepvar.potential_in_w(p),
           returned),
    ]
    for case in Case:
        if case is Case.PRIMITIVE3_QES:     # no closed-form gauge identity
            continue
        q = draw_params(case, rng)
        ops.append(Op(f"gauge identity {case.value}", repr(q),
                      lambda case=case, q=q: gauge_identity(case, q),
                      is_true))
    return ops


# -- CLI ---------------------------------------------------------------------

def readme_commands(rng: Optional[random.Random]):
    """The seven README commands.  With `rng`, each command's masses are a
    drawn relabelling of its README masses, and sepvar and verify-all get a
    drawn sample seed.  With equal springs a relabelling is the same chain,
    so each command's cost stays in one regime (masses drawn from MENU made
    spectrum alone range from 1.4 s to 2.5 s)."""
    def masses(*values):
        if rng is not None:
            values = rng.sample(values, len(values))
        return [x for i, m in enumerate(values) for x in (f"--m{i + 1}", m)]

    seed = [] if rng is None else ["--seed", str(rng.randrange(1000))]
    return [
        ("spectrum", ["spectrum", "--case", "general3",
                      *masses("2", "3", "5/2"), "--N", "4"]),
        ("integrals", ["integrals", *masses("2", "3", "5/2")]),
        ("sepvar", ["sepvar", *masses("1", "1", "1"), "--points", "50",
                    *seed]),
        ("qes", ["qes", "--N", "2", "--A", "1", "--omega", "1", "--d", "3"]),
        ("bo", ["bo", "--m1", "1/100", "--a", "1", "--b", "1", "--c", "1"]),
        ("curve", ["curve", "--rho23-range", "0:3:1/4", "--format", "csv"]),
        ("verify-all", ["verify-all", *masses("2", "3", "5"), *seed]),
    ]


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""))


def load_digests() -> dict:
    return json.loads((HERE / "cli_digests.json").read_text())


def cli_run(name: str, argv: List[str], rec=None):
    """One CLI command in a fresh interpreter: (exit code, stdout, stderr).

    With a recorder, the command runs under cli_child.py, which traces the
    program's layers; its spans are filed under a span for the command.
    """
    env = child_env()
    if rec is None:
        done = subprocess.run([sys.executable, "-m", "oscchain.cli", *argv],
                              capture_output=True, env=env,
                              timeout=CLI_TIMEOUT)
        return done.returncode, done.stdout, done.stderr
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(dir=out_dir, suffix=".json")
    os.close(fd)
    env["PERFBENCH_TRACE_OUT"] = path
    index = len(rec.spans)
    span = [f"cli.cmd.{name}", time.perf_counter(), 0.0, None]
    rec.spans.append(span)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), *argv],
            capture_output=True, env=env, timeout=CLI_TIMEOUT)
        span[2] = time.perf_counter()
        child = json.loads(Path(path).read_text() or "null")
    finally:
        os.unlink(path)
    if child is not None:
        rec.add_spans(child["spans"], index)
        rec.counts.update(child["counts"])
        for key, value in child["maxima"].items():
            rec.maxima[key] = max(rec.maxima[key], value)
    return done.returncode, done.stdout, done.stderr


def check_cli(name: str, result, digest: Optional[str]) -> List[str]:
    code, out, err = result
    reasons = []
    if code != 0:
        reasons.append(f"exit code {code}")
    if b"Traceback" in err:
        reasons.append("traceback on stderr")
    if code == 0 and name in ("verify-all", "qes"):
        key = "all_ok" if name == "verify-all" else "agree"
        if json.loads(out)["results"].get(key) is not True:
            reasons.append(f"results.{key} is not true")
    if digest is not None and hashlib.sha256(out).hexdigest() != digest:
        reasons.append("stdout differs from the recorded digest")
    return reasons


def cli(seed: int, k: int, rec=None,
        digests: Optional[dict] = None) -> List[Op]:
    """The README commands; at seed 0 their stdout must match `digests`
    (by default the recorded ones)."""
    if digests is None:
        digests = load_digests() if seed == 0 else {}
    rng = None if seed == 0 else rng_for("cli", seed, k)
    return [Op(f"cli {name}", " ".join(argv),
               lambda name=name, argv=argv: cli_run(name, argv, rec),
               lambda result, name=name: check_cli(name, result,
                                                   digests.get(name)))
            for name, argv in readme_commands(rng)]


# -- entry points ------------------------------------------------------------

def build(workload: str, seed: int, k: int, smoke: bool = False,
          rec=None) -> List[Op]:
    if workload == "cli":
        return cli(seed, k, rec)
    return {"spectrum-deep": spectrum_deep, "spectrum-sweep": spectrum_sweep,
            "verify": verify}[workload](seed, k, smoke)


def warmup(workload: str) -> Op:
    """The op run once during set-up, before the first timed op."""
    if workload == "cli":
        # curve, the cheapest command
        return next(op for op in cli(0, 0) if op.label == "cli curve")
    if workload == "verify":
        return verify(0, 0, True)[-1]
    from oscchain.model import Case
    return spectrum_op(Case.GENERAL3, default_params(Case.GENERAL3), 1)
