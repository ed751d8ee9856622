"""Command-line front end.

Subcommands cover the spectral engine, the conservation battery, the
change-of-variables checks, the Born-Oppenheimer analysis, the
grid-oracle cross-validation, the molecular potential curve, and a
bundled verify-all sweep.  Output is deterministic JSON (or CSV for
tables); exit status 0 = success, 1 = a named verification failure
(`VerificationFailure` or any other `oscchain.VerificationError`),
2 = bad input.  Each handler imports the layers it runs in its own body,
so a command compiles and loads only those.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from dataclasses import fields, replace
from fractions import Fraction
from typing import List, Optional

from . import VerificationError, __version__
from .exact import MultiPoly, ratio_str
from .model import (Case, CaseError, Params, case_variables, degenerate,
                    params_from_json, parse_mass, validate_case)


class VerificationFailure(VerificationError):
    """Raised when a named invariant fails; .args[0] names it."""


_MASSES = ("m1", "m2", "m3")
MAX_RANGE_VALUES = 10_000   # most values one lo:hi:step range may produce
_INT_FLAGS = {"d": "space dimension", "N": "polynomial degree cap / level"}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from e


def parse_range(text: str) -> List[Fraction]:
    """lo:hi:step (inclusive endpoints up to rounding) or a single value;
    at most MAX_RANGE_VALUES values."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(
            f"range must be lo:hi:step, got {text!r}")
    try:
        values = [Fraction(t) for t in parts]
    except ZeroDivisionError as e:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from e
    if len(values) == 1:
        return values
    lo, hi, step = values
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("need step > 0 and hi >= lo")
    count = (hi - lo) // step + 1
    if count > MAX_RANGE_VALUES:
        raise argparse.ArgumentTypeError(
            f"range has {count} values, more than {MAX_RANGE_VALUES}")
    return [lo + k * step for k in range(count)]


def _add_param_flags(sub: argparse.ArgumentParser, reads: str) -> None:
    """--params, --case and one flag per Params field in `reads`, the
    fields the command's handler reads."""
    sub.add_argument("--params", metavar="FILE",
                     help="JSON parameter file; flags below override it")
    sub.add_argument("--case", choices=[c.value for c in Case])
    for name in reads.split():
        if name in _MASSES:     # read by `parse_mass`, as in a file
            sub.add_argument(f"--{name}",
                             help=f"mass {name} (rational or 'inf')")
        elif name in _INT_FLAGS:
            sub.add_argument(f"--{name}", type=int, help=_INT_FLAGS[name])
        else:
            sub.add_argument(f"--{name}", type=_parse_fraction)


def _build_params(args, default_case: Optional[Case] = None,
                  overrides: Optional[dict] = None):
    """(case, params) from --params and the flags.  A command that gives
    `default_case` computes only that case, and any other is rejected.
    The fields the command does not read (`args.reads`) keep their
    defaults, whatever the file holds, so that the echoed params are the
    ones the command computed with; `overrides` then apply."""
    case, base = default_case, Params()
    if args.params:
        try:
            with open(args.params) as fh:
                case, base = params_from_json(json.load(fh))
        except OSError as e:    # any other OSError is writing the output
            raise ValueError(str(e)) from e
    if args.case:
        case = Case(args.case)
    if case is None:
        raise CaseError("no case given (use --case or --params)")
    if default_case is not None and case is not default_case:
        raise CaseError(f"{args.command} computes only the "
                        f"{default_case.value} case, not {case.value}")
    reads = args.reads.split()
    changes = {f.name: f.default for f in fields(Params)
               if f.name not in reads}
    changes.update(overrides or {})
    for name in reads:
        v = getattr(args, name)
        if v is not None:
            changes[name] = parse_mass(v) if name in _MASSES else v
    p = replace(base, **changes)
    validate_case(case, p)
    return case, p


def _params_json(case: Case, p: Params) -> dict:
    return {"case": case.value,
            "m": [ratio_str(m) or "inf" for m in p.masses],
            "springs": [ratio_str(x) for x in (p.a, p.b, p.c)],
            "omega": ratio_str(p.omega), "d": p.d, "N": p.N,
            "A": ratio_str(p.A),
            "A12": ratio_str(p.A12), "A13": ratio_str(p.A13),
            "A23": ratio_str(p.A23), "rho23": ratio_str(p.rho23)}


def _emit(args, case, p, results) -> None:
    doc = {"tool_version": __version__,
           "command": args.command,
           "params": _params_json(case, p),
           "seed": getattr(args, "seed", 0),
           "results": results}
    json.dump(doc, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> None:
    from . import spectra
    case, p = _build_params(args)
    if p.N is None:
        raise CaseError("spectrum needs --N")
    _emit(args, case, p, spectra.spectrum(case, p, p.N).to_json())


def cmd_integrals(args) -> None:
    from . import integrals
    case, p = _build_params(args, Case.GENERAL3)
    rep = integrals.battery(p)
    _emit(args, case, p, rep.to_json())
    if not rep.consistent:
        raise VerificationFailure(
            "conservation-battery: " + ", ".join(rep.failures()))


def cmd_sepvar(args) -> None:
    from . import sepvar
    case, p = _build_params(args, Case.GENERAL3)
    ok = sepvar.verify_pushforward(p, seed=args.seed, n_points=args.points)
    results = {"pushforward_ok": ok, "A": None, "B": None, "potential": None}
    if ok:   # the separated form and the potential presume the push-forward
        form = sepvar.separated_form(p)
        results.update(A=ratio_str(form.A), B=ratio_str(form.B),
                       potential=sepvar.potential_in_w(p).to_json())
    _emit(args, case, p, results)
    if not ok:
        raise VerificationFailure("w-coordinate-pushforward")


def cmd_bo(args) -> None:
    from . import numerics
    case, p = _build_params(args, Case.GENERAL3)
    grid = None
    if args.m1_grid:
        grid = parse_range(args.m1_grid)
    rep = numerics.bo_report_with_fit(
        p, grid if grid is not None else numerics.DEFAULT_FIT_GRID)
    _emit(args, case, p, rep.to_json())


def cmd_qes(args) -> None:
    case, p = _build_params(args, Case.TWO_BODY_QES)
    if p.N is None:
        raise CaseError("qes needs --N")
    if not 0 <= args.rtol < float("inf"):    # nan fails both comparisons
        raise ValueError(f"need a finite rtol >= 0, got {args.rtol}")
    algebraic, fd, rel = _qes_levels(p, args.npoints)
    ok = all(r <= args.rtol for r in rel)
    _emit(args, case, p, {"algebraic": [float(x) for x in algebraic],
                          "grid_oracle": [float(x) for x in fd],
                          "relative_error": [float(r) for r in rel],
                          "rtol": args.rtol, "agree": ok})
    if not ok:
        raise VerificationFailure("qes-grid-cross-validation")


def cmd_curve(args) -> None:
    from . import numerics
    case, p = _build_params(args, Case.MOLECULAR3,
                            overrides={"m2": None, "m3": None,
                                       "c": Fraction(0),
                                       "rho23": Fraction(1)})
    values = parse_range(args.rho23_range)
    rows = numerics.potential_curve(p, values)
    if args.format == "csv":
        sys.stdout.write(numerics.curve_csv(rows))
        return
    _emit(args, case, p, {"rows": [[ratio_str(r), ratio_str(e)]
                                   for r, e in rows]})


def cmd_verify_all(args) -> None:
    from . import integrals, sepvar, spectra
    case, p = _build_params(args, Case.GENERAL3)
    checks = {}

    def run(name, fn):
        """Run every check: one that returns false or raises a named
        verification failure fails under its own name."""
        try:
            checks[name] = bool(fn())
        except VerificationError:
            checks[name] = False

    for c in (Case.GENERAL3, Case.EQUAL_MASS3, Case.ISOTROPIC3,
              Case.TWO_BODY_ES):
        q = degenerate(p, c)
        run(f"ground-state-annihilation-{c.value}",
            lambda q=q, c=c: spectra.case_operator(c, q).apply(
                _one(c)).is_zero())
    run("conservation-battery",
        lambda: integrals.battery(p).consistent)
    run("w-coordinate-pushforward",
        lambda: sepvar.verify_pushforward(p, seed=args.seed, n_points=50))
    run("harmonic-2body-spectrum", lambda: spectra.laguerre_verify(
        Params(m1=1, m2=1, omega=1, d=3), 5))
    run("qes-grid-cross-validation", lambda: _check_qes(p))
    run("bo-series-coefficients", lambda: _check_bo(p))
    run("molecular-curve-linearity", _check_curve)
    failed = [name for name, ok in checks.items() if not ok]
    _emit(args, case, p, {"checks": checks, "all_ok": not failed})
    if failed:
        raise VerificationFailure(", ".join(failed))


def _one(case: Case):
    return MultiPoly.const(case_variables(case), Fraction(1))


def _qes_levels(p: Params, npoints: int = 4000):
    """(algebraic, grid-oracle, relative errors) of the 2-body QES levels,
    each list sorted."""
    from . import numerics, spectra
    rep = spectra.qes_2body_block(p)
    algebraic = sorted(ev.approx() for ev in rep.physical)
    fd = numerics.fd_two_body_energies(p, Case.TWO_BODY_QES,
                                       k=len(algebraic), npoints=npoints)
    rel = [abs(x - y) / max(1.0, abs(x)) for x, y in zip(algebraic, fd)]
    return algebraic, fd, rel


def _check_qes(p: Params) -> bool:
    q = Params(m1=1, m2=1, omega=p.omega, d=3, A=1, N=1)
    return all(r <= 1e-6 for r in _qes_levels(q)[2])


def _check_bo(p: Params) -> bool:
    from . import numerics
    q = Params(m1=Fraction(1, 100), m2=1, m3=1, a=p.a, b=p.b,
               c=p.c if p.c != 0 else Fraction(1), omega=p.omega, d=p.d)
    rep = numerics.bo_report_with_fit(q, numerics.DEFAULT_FIT_GRID)
    return (abs(rep.c1_fit - rep.c1_exact) <= 1e-4 * max(1, abs(rep.c1_exact))
            and abs(rep.c2_fit - rep.c2_exact)
            <= 1e-3 * max(1, abs(rep.c2_exact)))


def _check_curve() -> bool:
    from . import numerics
    p = Params(m1=1, m2=None, m3=None, c=0, rho23=Fraction(1), d=3)
    rows = numerics.potential_curve(
        p, [Fraction(k, 2) for k in range(7)])
    second = [rows[i + 2][1] - 2 * rows[i + 1][1] + rows[i][1]
              for i in range(len(rows) - 2)]
    return all(s == 0 for s in second)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oscchain",
        description="Exact spectral engine for closed chains of three "
                    "harmonically coupled particles.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    # (name, handler, help, the Params fields the handler reads); any
    # other flag, abbreviations included, exits 2
    for name, func, text, reads in (
            ("spectrum", cmd_spectrum, "exact finite spectrum on P_N",
             "m1 m2 m3 a b c omega A rho23 d N"),
            ("integrals", cmd_integrals, "conservation battery",
             "m1 m2 m3 omega d"),
            ("sepvar", cmd_sepvar, "w-coordinate verification",
             "m1 m2 m3 a b c d"),
            ("bo", cmd_bo, "Born-Oppenheimer gap analysis",
             "m1 m2 m3 a b c omega d"),
            ("qes", cmd_qes, "algebraic vs grid-oracle energies",
             "m1 m2 omega A d N"),
            ("curve", cmd_curve, "molecular potential curve table",
             "m1 a b omega d"),
            ("verify-all", cmd_verify_all, "bundled invariant sweep",
             "m1 m2 m3 a b c omega d")):
        parsers[name] = sp = sub.add_parser(name, help=text,
                                            allow_abbrev=False)
        _add_param_flags(sp, reads)
        sp.set_defaults(func=func, reads=reads)
    sv, bo, qes, cv, va = (parsers[name] for name in
                           ("sepvar", "bo", "qes", "curve", "verify-all"))
    for sp in (sv, va):    # the commands that draw sample points
        sp.add_argument("--seed", type=int, default=0)
    sv.add_argument("--points", type=int, default=50)
    bo.add_argument("--m1-grid", metavar="LO:HI:STEP")
    qes.add_argument("--rtol", type=float, default=1e-6)
    qes.add_argument("--npoints", type=int, default=4000)
    cv.add_argument("--rho23-range", default="0:3:1/2", metavar="LO:HI:STEP")
    cv.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


_ARGPARSE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")   # read as a value


def _join_negative_values(argv: List[str]) -> List[str]:
    """argv with each value that starts with '-' and a digit or '.', such
    as '-3/2' or '-1:2:1/2', which argparse takes for an option unlike
    '-1' and '-1.5', joined to the flag before it: `--a -3/2` becomes
    `--a=-3/2`."""
    out: List[str] = []
    for arg in argv:
        if re.match(r"-[\d.]", arg) and not _ARGPARSE_NUMBER.fullmatch(arg) \
                and out and out[-1][:2] == "--" and "=" not in out[-1]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        try:
            args.func(args)
        finally:    # a failure to write outranks the command's own
            sys.stdout.flush()
    except VerificationFailure as e:
        print(f"verification failed: {e.args[0]}", file=sys.stderr)
        return 1
    except VerificationError as e:
        print(f"verification failed: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    except (CaseError, ValueError, json.JSONDecodeError,
            argparse.ArgumentTypeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except OSError as e:    # writing stdout: a full disk, a closed pipe
        print(f"output error: {e}", file=sys.stderr)
        with contextlib.suppress(OSError):  # no second failure at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
