"""Command-line interface: exit codes, deterministic output, and formats."""
import argparse
import json
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscchain.cli import MAX_RANGE_VALUES, main, parse_range
from oscchain.model import Case, case_variables
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("0:2:1/2") == [Fraction(0), Fraction(1, 2),
                                      Fraction(1), Fraction(3, 2),
                                      Fraction(2)]
    assert parse_range("3/4") == [Fraction(3, 4)]


def test_parse_range_is_bounded():
    assert len(parse_range(f"1:{MAX_RANGE_VALUES}:1")) == MAX_RANGE_VALUES
    for text in (f"0:{MAX_RANGE_VALUES}:1", "0:1000000000:1", "0:1:1/0",
                 "1/0"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(text)


def test_spectrum_success(capsys):
    code, out, err = run(capsys, "spectrum", "--case", "twobody_es",
                         "--N", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "spectrum"
    assert doc["results"]["basis_size"] == 3
    assert [ev["value"] for ev in doc["results"]["gauged"]] \
        == ["0/1", "4/1", "8/1"]


def test_integrals_success_and_shape(capsys):
    code, out, _ = run(capsys, "integrals", "--m1", "2", "--m2", "3",
                       "--m3", "5/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"]["kind"] == "maximal"
    assert doc["results"]["consistent"] is True


def test_sepvar_success(capsys):
    code, out, _ = run(capsys, "sepvar", "--m1", "1", "--m2", "1",
                       "--m3", "1", "--points", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pushforward_ok"] is True
    assert doc["results"]["A"] == "2/1"
    assert doc["results"]["B"] == "6/1"


def test_qes_success(capsys):
    code, out, _ = run(capsys, "qes", "--N", "1", "--A", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["agree"] is True
    assert len(doc["results"]["algebraic"]) == 2


def test_qes_failure_exit_code(capsys):
    code, out, err = run(capsys, "qes", "--N", "1", "--A", "1",
                         "--rtol", "1e-18")
    assert code == 1
    assert "verification failed" in err
    assert "qes-grid-cross-validation" in err


def test_bo_success(capsys):
    code, out, _ = run(capsys, "bo", "--m1", "1/100", "--a", "1", "--b", "1",
                       "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["c1_fit"] - 3.0) < 1e-4


def test_curve_json_and_csv(capsys):
    code, out, _ = run(capsys, "curve", "--rho23-range", "0:1:1/2", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["rows"] == [["0/1", "6/1"], ["1/2", "7/1"],
                                      ["1/1", "8/1"]]
    code, out, _ = run(capsys, "curve", "--rho23-range", "0:1:1/2",
                       "--d", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "rho23,E0"


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "spectrum", "--case", "general3", "--N", "2",
                     "--m1", "2", "--m2", "3", "--m3", "5/2", "--seed", "11")
    _, out2, _ = run(capsys, "spectrum", "--case", "general3", "--N", "2",
                     "--m1", "2", "--m2", "3", "--m3", "5/2", "--seed", "11")
    assert out1 == out2


def test_input_error_exit_codes(capsys):
    code, _, err = run(capsys, "spectrum", "--case", "general3")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "bo", "--m1", "1", "--m2", "1", "--m3", "2")
    assert code == 2
    code, _, _ = run(capsys, "spectrum", "--case", "nonsense", "--N", "1")
    assert code == 2


def test_params_file(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"case": "general3", "m": [2, 3, "5/2"],
                             "springs": [1, 1, 1], "omega": 1, "d": 4}))
    code, out, _ = run(capsys, "integrals", "--params", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["d"] == 4
    # inline flag overrides the file
    code, out, _ = run(capsys, "integrals", "--params", str(f), "--d", "2")
    assert json.loads(out)["params"]["d"] == 2


@pytest.mark.parametrize("params", [
    {"case": "general3", "N": 2.5},
    {"N": 2},
    [1, 2],
    {"case": "general3", "springs": 5, "N": 1},
    {"case": "general3", "N": "2"},
    {"case": "general3", "m": [1, 2, 3, 4], "N": 1},
    {"case": "general3", "d": 2.7, "N": 1},
    {"case": "general3", "N": True},
])
def test_malformed_params_file_exits_2(tmp_path, capsys, params):
    # a wrong type, a missing case or a fourth mass is an input error, not
    # a traceback, a truncation or a silently dropped value
    f = tmp_path / "p.json"
    f.write_text(json.dumps(params))
    code, out, err = run(capsys, "spectrum", "--params", str(f))
    assert code == 2 and out == ""
    assert "input error" in err and "Traceback" not in err


def test_both_2body_masses_infinite_exit_2(capsys):
    # one rule for every 2-body command: the reduced mass does not exist
    for argv in (("spectrum", "--case", "twobody_qes", "--A", "1"),
                 ("spectrum", "--case", "twobody_es"),
                 ("qes", "--A", "1")):
        code, out, err = run(capsys, *argv, "--m1", "inf", "--m2", "inf",
                             "--N", "1")
        assert code == 2 and out == "", argv
        assert "input error" in err and "infinite" in err


def test_infinite_mass_flag(capsys):
    code, out, _ = run(capsys, "spectrum", "--case", "molecular3",
                       "--m2", "inf", "--m3", "inf", "--c", "0",
                       "--rho23", "2", "--N", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["m"][1] == "inf"


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--m1", "2", "--m2", "3",
                       "--m3", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_ok"] is True
    assert all(doc["results"]["checks"].values())


def test_case_without_a_gauged_operator_is_rejected(capsys):
    # only the ground state of the 3-body QES case is transcribed
    code, out, err = run(capsys, "spectrum", "--case", "primitive3_qes",
                         "--N", "2", "--A12", "1")
    assert code == 2 and out == ""
    assert "input error" in err and "primitive3_qes" in err


@pytest.mark.parametrize("argv", [
    ("curve", "--rho23-range", "0:1:0"),
    ("sepvar", "--m1", "1", "--m2", "1", "--m3", "1", "--points", "0"),
    ("curve", "--rho23-range", "0:1000000000:1"),
    ("bo", "--m1-grid", "0:1000000000:1"),
    ("curve", "--rho23-range", "1/0"),
])
def test_bad_ranges_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["integrals", "bo"])
def test_three_finite_masses_are_required(capsys, command):
    # atomic3 is a valid case, but the battery and the Born-Oppenheimer
    # analysis are built for three finite masses
    code, out, err = run(capsys, command, "--case", "atomic3", "--m1", "inf")
    assert code == 2 and out == ""
    assert "input error" in err and "general3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("integrals", "--case", "twobody_es"),
    ("bo", "--case", "twobody_es"),
    ("sepvar", "--case", "equalmass3", "--m1", "1", "--m2", "1",
     "--m3", "1"),
    ("verify-all", "--case", "atomic3", "--m1", "inf"),
    ("integrals", "--params", "PARAMS"),
    ("curve", "--case", "twobody_es", "--rho23-range", "0:1:1/2"),
    ("qes", "--case", "twobody_es", "--N", "1", "--A", "1"),
    ("qes", "--case", "general3", "--N", "1", "--A", "1"),
])
def test_single_case_commands_reject_other_cases(capsys, tmp_path, argv):
    # these commands compute one case only (curve: molecular3, qes:
    # twobody_qes, the others: general3); they must not echo another case
    # over its results
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"case": "isotropic3", "m": [1, 1, 1]}))
    code, out, err = run(capsys, *(str(f) if a == "PARAMS" else a
                                   for a in argv))
    computed = {"curve": "molecular3", "qes": "twobody_qes"}.get(
        argv[0], "general3")
    assert code == 2 and out == ""
    assert "input error" in err and f"only the {computed} case" in err
    assert "Traceback" not in err


VALUES = st.sampled_from(("1", "2", "3/2", "1/3")) | st.sampled_from(
    ("inf", "0", "-1", "-5/2", "x", "1/0", ""))
INFINITE_MASSES = st.just(()) | st.sampled_from(
    (("--m1", "inf"), ("--m2", "inf", "--m3", "inf")))
RANGES = ("0:3:1/2", "1/500:1/50:1/500", "0:1:0", "1:0:1", "0:20000:1",
          "1/0", "a:b:c", "1:2", "1/4")


@st.composite
def cli_calls(draw):
    """argv for one of five subcommands, a case, and flag values drawn
    from small rationals, inf, 0, negatives and malformed strings."""
    command = draw(st.sampled_from(
        ("spectrum", "integrals", "sepvar", "bo", "curve")))
    argv = [command]
    case = draw(st.none() | st.sampled_from([c.value for c in Case]))
    if case is not None:
        argv += ["--case", case]
    argv += draw(INFINITE_MASSES)
    for flag in draw(st.lists(st.sampled_from(
            ("m1", "m2", "m3", "a", "b", "c", "omega", "A", "rho23")),
            unique=True, max_size=3)):
        argv += [f"--{flag}", draw(VALUES)]
    if draw(st.booleans()):
        argv += ["--d", draw(st.sampled_from(("1", "2", "3", "0", "-1", "x")))]
    if command == "spectrum":
        argv += ["--N", draw(st.sampled_from(("0", "1", "2", "-1", "x")))]
    option = {"curve": "--rho23-range", "bo": "--m1-grid"}.get(command)
    if option is not None and draw(st.booleans()):
        argv += [option, draw(st.sampled_from(RANGES))]
    return argv


@settings(max_examples=40, deadline=None)
@given(cli_calls())
@example(["integrals", "--case", "atomic3", "--m1", "inf"])
@example(["bo", "--case", "atomic3", "--m1", "inf"])
@example(["spectrum", "--case", "general3", "--N", "2"])
@example(["spectrum", "--case", "molecular3", "--m2", "inf", "--m3", "inf",
          "--c", "0", "--rho23", "2", "--N", "2"])
@example(["spectrum", "--case", "onedim3", "--d", "1", "--N", "2"])
@example(["spectrum", "--case", "primitive3_qes", "--A12", "1", "--N", "2"])
@example(["bo", "--c", "0"])
def test_cli_holds_the_exit_contract(argv):
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        # strict JSON: NaN and Infinity are not JSON values
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    if argv[0] == "spectrum" and code == 0:
        # the basis is every monomial of degree <= N in the case's dynamical
        # variables; molecular3's rho23 is a given number, not one of them
        case = Case(argv[argv.index("--case") + 1])
        k = len(case_variables(case)) - (case is Case.MOLECULAR3)
        N = int(argv[argv.index("--N") + 1])
        assert doc["results"]["basis_size"] == comb(N + k, k)


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


@pytest.mark.parametrize("error", ["defective", "violation"])
def test_spectral_failures_exit_1(capsys, monkeypatch, error):
    from oscchain import spectra
    from oscchain.exact import MultiPoly

    def fail(*args, **kwargs):
        if error == "defective":
            raise spectra.DefectiveBlock("eigenvalue count 1 != basis size 3",
                                         report=None)
        one = MultiPoly.const(("rho",), 1)
        raise spectra.InvariantSubspaceViolation(one, one)

    monkeypatch.setattr(spectra, "spectrum", fail)
    code, out, err = run(capsys, "spectrum", "--case", "twobody_es",
                         "--N", "2")
    assert code == 1
    assert "verification failed" in err and "Traceback" not in err
    assert ("DefectiveBlock" if error == "defective"
            else "InvariantSubspaceViolation") in err


def test_verify_all_catches_a_wrong_2body_operator(capsys, monkeypatch):
    # -rho d^2 lowers the degree, so the gauged matrix stays triangular and
    # its levels stay 4 n; only the eigenfunctions show the fault
    from oscchain import spectra
    from oscchain.exact import DiffOp, MultiPoly
    build = spectra.build_h_algebraic

    def wrong(case, p):
        h = build(case, p)
        if case is Case.TWO_BODY_ES:
            rho = MultiPoly.var(("rho",), "rho")
            h = h + DiffOp(("rho",), {(2,): -rho})
        return h

    monkeypatch.setattr(spectra, "build_h_algebraic", wrong)
    code, out, err = run(capsys, "verify-all", "--m1", "2", "--m2", "3",
                         "--m3", "5")
    assert code == 1 and out == ""
    assert "verification failed: harmonic-2body-spectrum" in err


def _perturbed_template_check(monkeypatch):
    from oscchain import sepvar
    from oscchain.exact import MultiPoly, RationalFn
    match = sepvar.match_separated_template

    def check(op, p):
        terms = dict(op.terms)
        terms[(0, 0, 1)] = terms[(0, 0, 1)] + RationalFn(
            MultiPoly.const(op.variables, Fraction(1, 10 ** 6)))
        return match(type(op)(op.variables, terms), p)

    monkeypatch.setattr(sepvar, "match_separated_template", check)


def _singular_samples(monkeypatch):
    # with equal masses the w-map is singular at rho12 = rho13 = rho23
    from oscchain import sepvar
    monkeypatch.setattr(sepvar, "random_point", lambda variables, rng:
                        dict.fromkeys(variables, Fraction(1)))


def _broken_wmap(monkeypatch):
    from dataclasses import replace
    from oscchain import sepvar
    build_wmap = sepvar.build_wmap

    def broken(p):
        w = build_wmap(p)
        return replace(w, denominator_root=w.denominator_root + 1)

    monkeypatch.setattr(sepvar, "build_wmap", broken)


@pytest.mark.parametrize("fault, masses, name", [
    (_perturbed_template_check, ("1", "1", "1"), "TemplateMismatch"),
    (_singular_samples, ("1", "1", "1"), "SingularSampleError"),
    (_broken_wmap, ("1", "2", "3"), "PotentialMismatch"),
])
def test_sepvar_failures_exit_1(capsys, monkeypatch, fault, masses, name):
    fault(monkeypatch)
    m1, m2, m3 = masses
    code, out, err = run(capsys, "sepvar", "--m1", m1, "--m2", m2,
                         "--m3", m3)
    assert code == 1 and out == ""
    assert f"verification failed: {name}: " in err
    assert "Traceback" not in err


def test_broken_root_certificate_exits_1(capsys, monkeypatch):
    # every sign reads positive, so no isolating interval is certified
    from oscchain import linalg
    monkeypatch.setattr(linalg, "_scaled_value", lambda coeffs, p, q: 1)
    code, out, err = run(capsys, "spectrum", "--case", "general3", "--N",
                         "1", "--m1", "2", "--m2", "3", "--m3", "5/2",
                         "--b", "2", "--c", "3/2")
    assert code == 1 and out == ""
    assert "verification failed: RootCertificateError" in err
    assert "Traceback" not in err


def test_commands_without_a_grid_do_not_load_numpy_or_scipy():
    import os
    import subprocess
    import sys

    import oscchain
    script = (
        "import contextlib, io, sys\n"
        "from oscchain.cli import main\n"
        "loaded = lambda: sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['spectrum', '--case', 'general3', '--N', '2'])\n"
        "print(code, loaded())\n")
    src = os.path.dirname(os.path.dirname(oscchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "0 []"]
