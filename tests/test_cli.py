"""Command-line interface: exit codes, deterministic output, and formats."""
import argparse
import json
import time
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscchain import spectra
from oscchain.cli import MAX_RANGE_VALUES, build_parser, main, parse_range
from oscchain.model import Case, case_variables
from oscchain.numerics import MAX_GRID_POINTS
from fractions import Fraction

# the Params fields each command reads, and its other flags
READS = {"spectrum": "m1 m2 m3 a b c omega A rho23 d N",
         "integrals": "m1 m2 m3 omega d",
         "sepvar": "m1 m2 m3 a b c d",
         "bo": "m1 m2 m3 a b c omega d",
         "qes": "m1 m2 omega A d N",
         "curve": "m1 a b omega d",
         "verify-all": "m1 m2 m3 a b c omega d"}
EXTRAS = {"sepvar": {"seed", "points"}, "bo": {"m1-grid"},
          "qes": {"rtol", "npoints"}, "curve": {"rho23-range", "format"},
          "verify-all": {"seed"}}


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


@pytest.mark.parametrize("m1, m2", [("2", "3"), ("1/2", "5")])
def test_qes_agrees_at_unequal_masses(capsys, m1, m2):
    code, out, _ = run(capsys, "qes", "--N", "2", "--A", "1", "--omega",
                       "1", "--d", "3", "--m1", m1, "--m2", m2)
    assert code == 0
    assert json.loads(out)["results"]["agree"] is True


def test_qes_agrees_at_d1(capsys):
    """At d = 1 the grid oracle reads the even states, whose levels the
    algebraic ones are: -3 and 9 -/+ 4 sqrt 2 at the README draw."""
    code, out, _ = run(capsys, "qes", "--N", "2", "--A", "1", "--omega",
                       "1", "--d", "1")
    assert code == 0
    doc = json.loads(out)["results"]
    assert doc["agree"] is True and max(doc["relative_error"]) < 1e-9


def test_qes_agrees_at_d2(capsys):
    """At d = 2 the cell-centred grid oracle carries no 1/r^2 term, so it
    converges like the others (the r^(1/2) transform read 0.018, 0.105
    and 0.050 here)."""
    code, out, _ = run(capsys, "qes", "--N", "2", "--A", "1", "--omega",
                       "1", "--d", "2")
    assert code == 0
    assert json.loads(out)["results"]["agree"] is True


def test_qes_agrees_at_d4(capsys):
    """At d = 4 the cell-centred grid oracle reads the level 0.567 of this
    draw to 7.7e-9 relative.  The r^((d-1)/2) transform read 2.1e-6 and
    failed it: its 3/(4 r^2) term leaves u ~ r^(3/2) at r = 0."""
    code, out, _ = run(capsys, "qes", "--N", "5", "--A", "10", "--omega",
                       "2", "--d", "4")
    assert code == 0
    doc = json.loads(out)["results"]
    assert doc["agree"] is True and max(doc["relative_error"]) < 1e-7


def test_qes_at_negative_coupling_is_a_defective_block(capsys):
    """At A < 0 every product of opposite off-diagonal entries of the QES
    block is negative, but nonzero: its continuant is factored over Q,
    and at N = 3 it has no real root."""
    code, out, err = run(capsys, "spectrum", "--case", "twobody_qes",
                         "--A", "-1", "--N", "3")
    assert code == 1 and out == ""
    assert "verification failed: DefectiveBlock" in err
    assert "Traceback" not in err


def test_qes_at_a_small_negative_coupling_has_real_levels(capsys):
    """At A = -1/100, omega = 5 the QES block's continuant has four real
    irrational roots: four grid cells, equal to the per-block oracle's,
    and exit 0.  `--A -1/100` reads as `--A=-1/100`."""
    from oscchain import spectra
    from oscchain.model import Params

    from conftest import per_block
    code, out, _ = run(capsys, "spectrum", "--case", "twobody_qes",
                       "--A=-1/100", "--omega", "5", "--N", "3")
    assert code == 0
    assert run(capsys, "spectrum", "--case", "twobody_qes", "--A",
               "-1/100", "--omega", "5", "--N", "3") == (0, out, "")
    gauged = json.loads(out)["results"]["gauged"]
    assert [(ev["degree"], ev["multiplicity"]) for ev in gauged] \
        == [(3, 1)] * 4
    assert all("interval" in ev for ev in gauged)
    p = Params(A=Fraction(-1, 100), omega=5, N=3)
    h = spectra.case_operator(Case.TWO_BODY_QES, p)
    M = spectra.assemble_matrix(h, spectra.enumerate_basis(h.variables, 3))
    assert [ev.to_json() for ev in per_block(M)] == gauged


@pytest.mark.parametrize("spaced, joined", [
    ("spectrum --case general3 --a -3/2 --N 1",
     "spectrum --case general3 --a=-3/2 --N 1"),
    ("spectrum --case molecular3 --m2 inf --m3 inf --a 3/2 --b -3/2 --c 0"
     " --rho23 3/2 --N 2",
     "spectrum --case molecular3 --m2 inf --m3 inf --a 3/2 --b=-3/2 --c 0"
     " --rho23 3/2 --N 2"),
    ("curve --a -1/2 --rho23-range -1:1:1/2",
     "curve --a=-1/2 --rho23-range=-1:1:1/2"),
], ids=["a", "b", "range"])
def test_a_negative_fraction_reads_as_after_an_equals_sign(
        capsys, spaced, joined):
    """argparse takes '-3/2' for an option, unlike '-1' and '-1.5'; the
    CLI joins such a value to its flag, so `--a -3/2` prints the same
    bytes as `--a=-3/2`."""
    code, out, err = run(capsys, *spaced.split())
    assert (code, err) == (0, "") and out
    assert run(capsys, *joined.split()) == (0, out, "")


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
    for argv in (("spectrum", "--case", "general3", "--N", "2", "--m1", "2",
                  "--m2", "3", "--m3", "5/2"),
                 ("sepvar", "--m1", "1", "--m2", "2", "--m3", "3",
                  "--seed", "11")):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0, argv
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


@pytest.mark.parametrize("params", [
    {"m": [1, 1, "1/0"]},
    {"springs": [1, 2, "1/0"]},
    {"omega": "1/0"},
    {"A": "1/0"},
    {"A": [0, "1/0", 0]},
    {"rho23": "1/0"},
], ids=lambda params: json.dumps(params))
def test_a_zero_denominator_in_a_params_file_exits_2(tmp_path, capsys,
                                                     params):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"case": "general3", **params}))
    code, out, err = run(capsys, "spectrum", "--params", str(f), "--N", "1")
    assert code == 2 and out == ""
    key, = params
    assert "input error" in err and repr(key) in err
    assert "Traceback" not in err


def test_a_params_file_sets_only_what_the_command_reads(tmp_path, capsys):
    """One file may serve several commands: `integrals` reads no spring,
    A, rho23 or N, so those keep their defaults and its output equals the
    run with the masses as flags; `spectrum` reads the springs."""
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"case": "general3", "m": [2, 3, "5/2"],
                             "springs": [7, 1, 1], "A": [1, 2, 3],
                             "rho23": 2, "N": 1}))
    code, out, _ = run(capsys, "integrals", "--params", str(f))
    assert code == 0
    assert json.loads(out)["params"]["springs"] == ["1/1"] * 3
    assert run(capsys, "integrals", "--m1", "2", "--m2", "3",
               "--m3", "5/2") == (0, out, "")
    code, out, _ = run(capsys, "spectrum", "--params", str(f))
    params = json.loads(out)["params"]
    assert code == 0 and params["springs"] == ["7/1", "1/1", "1/1"]
    assert params["A12"] == params["A13"] == params["A23"] == "0/1"


def test_both_2body_masses_infinite_exit_2(capsys):
    # one rule for every 2-body command: the reduced mass does not exist
    for argv in (("spectrum", "--case", "twobody_qes", "--A", "1"),
                 ("spectrum", "--case", "twobody_es"),
                 ("qes", "--A", "1")):
        code, out, err = run(capsys, *argv, "--m1", "inf", "--m2", "inf",
                             "--N", "1")
        assert code == 2 and out == "", argv
        assert "input error" in err and "infinite" in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--case", "twobody_es", "--omega", "3/2", "--N", "3"),
    ("spectrum", "--case", "twobody_qes", "--A", "2", "--N", "3"),
    ("qes", "--A", "1", "--N", "2"),
], ids=lambda argv: argv[argv.index("--case") + 1] if "--case" in argv
    else argv[0])
def test_2body_results_do_not_depend_on_the_masses(capsys, argv):
    """The 2-body cases are mu = 1/2 throughout: masses 2, 3 give the
    results of masses 1, 1."""
    results = []
    for m1, m2 in (("1", "1"), ("2", "3")):
        code, out, _ = run(capsys, *argv, "--m1", m1, "--m2", m2)
        assert code == 0
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]


def test_infinite_mass_flag(capsys):
    code, out, _ = run(capsys, "spectrum", "--case", "molecular3",
                       "--m2", "inf", "--m3", "inf", "--c", "0",
                       "--rho23", "2", "--N", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["m"][1] == "inf"


@pytest.mark.parametrize("mass", ["inf", "infinite", "none", "2"])
def test_a_mass_reads_the_same_in_a_flag_and_in_a_params_file(
        tmp_path, capsys, mass):
    """One parser reads a mass from a flag and from a file: `inf` is the
    one spelling of an infinite mass, and any other word is bad input."""
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"case": "atomic3", "m": [mass, 3, 3]}))
    code, out, err = run(capsys, "spectrum", "--case", "atomic3",
                         "--m1", mass, "--m2", "3", "--m3", "3", "--N", "1")
    assert run(capsys, "spectrum", "--params", str(f), "--N", "1")[:2] \
        == (code, out)
    assert code == (0 if mass == "inf" else 2)
    if code:
        assert out == "" and err.startswith("input error: ")
        assert err.count("\n") == 1


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
                         "--N", "2")
    assert code == 2 and out == ""
    assert "input error" in err and "primitive3_qes" in err


@pytest.mark.parametrize("argv", [
    ("integrals", "--a", "7"),
    ("sepvar", "--omega", "2"),
    ("bo", "--seed", "1"),
    ("qes", "--N", "1", "--A", "1", "--m3", "2"),
    ("curve", "--rho23", "2"),
    ("verify-all", "--N", "3"),
    ("spectrum", "--case", "general3", "--N", "1", "--A12", "1"),
])
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    # a value the command would ignore, or only echo, is bad input; curve
    # --rho23 is not read as an abbreviation of --rho23-range
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert "Traceback" not in err


def test_commands_take_the_flags_they_read():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        flags = {opt[2:] for a in parser._actions for opt in a.option_strings
                 if opt not in ("-h", "--help", "--params", "--case")}
        assert flags == set(READS[command].split()) | EXTRAS.get(
            command, set()), command


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
INFINITE_MASSES = ((), ("--m1", "inf"), ("--m2", "inf", "--m3", "inf"))
RANGES = ("0:3:1/2", "1/500:1/50:1/500", "0:1:0", "1:0:1", "0:20000:1",
          "1/0", "a:b:c", "1:2", "1/4")


@st.composite
def cli_calls(draw):
    """argv for one of five subcommands, a case, and values, drawn from
    small rationals, inf, 0, negatives and malformed strings, for flags
    the command reads."""
    command = draw(st.sampled_from(
        ("spectrum", "integrals", "sepvar", "bo", "curve")))
    reads = READS[command].split()
    argv = [command]
    case = draw(st.none() | st.sampled_from([c.value for c in Case]))
    if case is not None:
        argv += ["--case", case]
    argv += draw(st.sampled_from([m for m in INFINITE_MASSES
                                  if all(f[2:] in reads for f in m[::2])]))
    for flag in draw(st.lists(st.sampled_from(
            [f for f in reads if f not in ("d", "N")]),
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
@example(["spectrum", "--case", "primitive3_qes", "--N", "2"])
@example(["bo", "--c", "0"])
@example(["qes", "--N", "1", "--A", "1", "--rtol", "nan"])
@example(["qes", "--N", "1", "--A", "1", "--rtol", "inf"])
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


@pytest.mark.parametrize("flag, value", [
    ("--rtol", "nan"), ("--rtol", "inf"), ("--rtol", "-1"),
    ("--npoints", "199"), ("--npoints", str(MAX_GRID_POINTS + 1)),
])
def test_qes_rejects_bad_rtol_and_npoints(capsys, flag, value):
    code, out, err = run(capsys, "qes", "--N", "1", "--A", "1", flag, value)
    assert code == 2 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, what", [
    pytest.param(argv, what, id=argv) for argv, what in [
        ("qes --N 1 --A 1e200 --omega 1 --d 3",
         "a coefficient of the potential"),
        ("qes --N 1 --A 1 --omega 1e300 --d 3",
         "a coefficient of the potential"),
        ("verify-all --omega 1e300", "a coefficient of the potential"),
        ("qes --N 1 --A 1 --omega 1e400", "a level"),
        ("bo --a 1e300", "a Born-Oppenheimer term"),
        ("verify-all --a 1e300", "a Born-Oppenheimer term"),
        ("bo --m1-grid 1e400:6e400:1e400", "an m1 grid value"),
        ("curve --omega 1e400 --format csv", "a curve value"),
        ("qes --N 1 --A 1e-200 --omega 1", "a coefficient of the potential"),
        ("qes --N 1 --A 1 --omega 1e-400", "a coefficient of the potential"),
        ("verify-all --omega 1e-400", "a coefficient of the potential"),
        ("bo --m1 1e-400", "a Born-Oppenheimer term"),
        ("bo --a 1e-200 --b 1e-200 --m1 1/100", "a Born-Oppenheimer term"),
        ("verify-all --a 1e-200 --b 1e-200", "a Born-Oppenheimer term"),
        ("curve --omega 1e-400 --format csv", "a curve value"),
    ]])
def test_an_oracle_potential_beyond_floats_exits_2(capsys, argv, what):
    # past 1.8e308: the sextic's coefficients hold A^2 and omega^2, its
    # levels omega, the Born-Oppenheimer series coefficient c2 a^2, and
    # the molecular curve's energies omega; below the least subnormal a
    # nonzero value rounds to 0.0, as A^2, omega^2, the product a b m1 of
    # the Born-Oppenheimer energy and the curve's energies do here
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err == f"input error: {what} does not fit a float\n"


@pytest.mark.parametrize("case", ["twobody_es", "general3"])
@pytest.mark.parametrize("omega", ["1e400", "1e-400"])
def test_spectrum_beyond_floats_is_exact(capsys, case, omega):
    """`spectrum` makes no float: at omega past the float range, either
    way, it exits 0 with omega times the levels at omega = 1 (all
    rational at the default masses and springs), 4 omega n for
    twobody_es."""
    code, out, err = run(capsys, "spectrum", "--case", case, "--N", "3",
                         "--omega", omega)
    assert code == 0 and err == ""
    _, unit, _ = run(capsys, "spectrum", "--case", case, "--N", "3")

    def levels(text, scale):
        return [(scale * Fraction(ev["value"]), ev["multiplicity"],
                 ev["degree"])
                for ev in json.loads(text)["results"]["gauged"]]

    omega = Fraction(omega)
    assert levels(out, 1) == levels(unit, omega)
    if case == "twobody_es":
        assert [x for x, _, _ in levels(out, 1)] \
            == [4 * omega * n for n in range(4)]


@pytest.mark.parametrize("argv, line", [
    ("qes --N 1 --A 1", "GridOracleFailure: LAPACK dstebz info 4"),
    ("verify-all", "qes-grid-cross-validation")])
def test_a_lapack_failure_in_the_grid_oracle_exits_1(capsys, monkeypatch,
                                                     argv, line):
    from types import SimpleNamespace

    from oscchain import numerics
    fake = SimpleNamespace(dstebz=lambda *args: (0, None, None, None, 4))
    monkeypatch.setattr(numerics, "_flapack", lambda: fake)
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert err == f"verification failed: {line}\n"


def test_the_named_verification_failures_share_one_base():
    """The nine named verification failures, and no other class of the
    package, subclass VerificationError, which `main` maps to exit 1."""
    import inspect
    import pkgutil
    from importlib import import_module

    import oscchain
    from oscchain import VerificationError
    found = set()
    for info in pkgutil.walk_packages(oscchain.__path__, "oscchain."):
        for name, obj in vars(import_module(info.name)).items():
            if inspect.isclass(obj) and obj is not VerificationError \
                    and issubclass(obj, VerificationError):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == {
        "oscchain.cli.VerificationFailure", "oscchain.spectra.DefectiveBlock",
        "oscchain.spectra.InvariantSubspaceViolation",
        "oscchain.spectra.EigenvectorCertificateError",
        "oscchain.spectra.UnsupportedMatrix",
        "oscchain.linalg.RootCertificateError",
        "oscchain.sepvar.PotentialMismatch",
        "oscchain.exact.idtest.SingularSampleError",
        "oscchain.numerics.GridOracleFailure"}


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
    assert code == 1
    assert err == "verification failed: harmonic-2body-spectrum\n"
    results = json.loads(out)["results"]
    assert results["all_ok"] is False
    assert [name for name, ok in results["checks"].items() if not ok] \
        == ["harmonic-2body-spectrum"]
    assert len(results["checks"]) == 10


def test_verify_all_runs_every_check_past_a_raised_failure(capsys,
                                                           monkeypatch):
    # singular samples raise SingularSampleError in the push-forward, and
    # a false QES cross-check fails by its value; every other check runs
    _singular_samples(monkeypatch)
    from oscchain import cli
    monkeypatch.setattr(cli, "_check_qes", lambda p: False)
    code, out, err = run(capsys, "verify-all", "--m1", "1", "--m2", "1",
                         "--m3", "1")
    assert code == 1
    assert err == ("verification failed: w-coordinate-pushforward, "
                   "qes-grid-cross-validation\n")
    results = json.loads(out)["results"]
    assert results["all_ok"] is False and len(results["checks"]) == 10
    assert {name for name, ok in results["checks"].items() if not ok} \
        == {"w-coordinate-pushforward", "qes-grid-cross-validation"}


def test_an_unbounded_basis_is_refused(capsys, monkeypatch):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--case", "general3",
                         "--N", "100000000")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "more than 100000" in err
    # a basis exactly at the cap is still enumerated, one above it is not;
    # at the cap itself (one variable, N = 99,999) enumerating takes a
    # minute, so the boundary is checked at a cap of 10 = comb(3 + 2, 2)
    monkeypatch.setattr(spectra, "MAX_BASIS_SIZE", 10)
    assert spectra.enumerate_basis(("x", "y"), 3).size == 10
    with pytest.raises(ValueError):
        spectra.enumerate_basis(("x", "y"), 4)


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


# each README command, the oscchain layers it loads besides cli, model and
# exact, and whether it loads numpy; scipy's package is loaded by none
README_LOADS = [
    ("spectrum --case general3 --m1 2 --m2 3 --m3 5/2 --N 4",
     "spectra linalg", False),
    ("integrals --m1 2 --m2 3 --m3 5/2", "integrals", False),
    ("sepvar --m1 1 --m2 1 --m3 1 --points 50", "sepvar", False),
    ("qes --N 2 --A 1 --omega 1 --d 3", "spectra linalg numerics", True),
    ("bo --m1 1/100 --a 1 --b 1 --c 1", "numerics", True),
    ("curve --rho23-range 0:3:1/4 --format csv", "numerics", False),
    ("verify-all --m1 2 --m2 3 --m3 5",
     "spectra linalg numerics integrals sepvar", True),
]


@pytest.mark.parametrize("argv, layers, numpy", README_LOADS,
                         ids=[argv.split()[0] for argv, _, _ in README_LOADS])
def test_each_command_loads_only_its_layers(argv, layers, numpy):
    """Each handler imports its layers in its own body, so a fresh
    interpreter compiles only the modules its command runs."""
    import os
    import subprocess
    import sys

    import oscchain
    script = (
        "import contextlib, io, sys\n"
        "from oscchain.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv.split()!r})\n"
        "print(code)\n"
        "print(' '.join(sorted({name.split('.')[1] for name in sys.modules\n"
        "                       if name.startswith('oscchain.')})))\n"
        "print(' '.join(sorted({'numpy', 'scipy'} & set(sys.modules))))\n")
    src = os.path.dirname(os.path.dirname(oscchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == [
        "0", " ".join(sorted({"cli", "model", "exact", *layers.split()})),
        "numpy" if numpy else "", ""]


def test_harmonic_spectrum_commands_do_not_load_sympy():
    """The harmonic levels come in closed form and their eigenfunctions
    from the blocks' annihilators on integers, so the README spectrum
    command, one command per harmonic case, the all-rational general3
    draw and one command per harmonic case at N = 0 (an empty degree-1
    block) run without sympy.  So do onedim3 at N = 2 with delta not a
    square (here delta = 1/33), whose simple level 2 r0 at degree 2 has
    no rational eigenforms of A to start from, and molecular3 at N = 3.
    molecular3's degree-1 block has the roots 2 omega (a + b) and
    4 omega (a + b), so its delta = omega^2 (a + b)^2 is always a square;
    at a = -b, where A is a nonzero nilpotent, its levels come in closed
    form too (the last two commands)."""
    import os
    import subprocess
    import sys

    import oscchain
    commands = [
        "spectrum --case general3 --m1 2 --m2 3 --m3 5/2 --N 4",   # README
        "spectrum --case general3 --N 4",
        "spectrum --case equalmass3 --N 4",
        "spectrum --case isotropic3 --N 4",
        "spectrum --case atomic3 --m1 inf --N 4",
        "spectrum --case twobody_es --N 4",
        "spectrum --case general3 --m1 2 --m2 3 --m3 5/2 --a 1 --b 2 --c 2"
        " --N 6",
        "spectrum --case general3 --m1 2 --m2 3 --m3 5/2 --N 0",
        "spectrum --case equalmass3 --N 0",
        "spectrum --case isotropic3 --N 0",
        "spectrum --case atomic3 --m1 inf --N 0",
        "spectrum --case twobody_es --N 0",
        "spectrum --case onedim3 --d 1 --N 0",
        "spectrum --case molecular3 --m2 inf --m3 inf --c 0 --rho23 2"
        " --N 0",
        "spectrum --case onedim3 --m1 2 --m2 3 --m3 5/2 --d 1 --N 2",
        "spectrum --case molecular3 --m2 inf --m3 inf --a 1 --b 2 --c 0"
        " --rho23 3/2 --N 3",
        "spectrum --case molecular3 --m2 inf --m3 inf --a 1 --b -1 --c 0"
        " --rho23 3/2 --N 3",
        "spectrum --case molecular3 --m2 inf --m3 inf --a 3/2 --b -3/2"
        " --c 0 --rho23 3/2 --N 3",
    ]
    script = (
        "import contextlib, io, sys\n"
        "from oscchain.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv.split())\n"
        "    print(code, 'sympy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(oscchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["0 False"] * 18


def test_qes_and_verify_all_load_neither_sympy_nor_scipy_linalg():
    """The QES block at A > 0 is a Jacobi matrix: its levels come from
    integer Sturm counts and its rational levels' eigenfunctions from its
    char poly as the annihilator (`spectra` docstring), so the README qes
    and verify-all commands run without sympy.  At N = 0 the one level is
    the degree-0 block's entry, with e_0 as its eigenfunction.  The grid
    oracle calls LAPACK through scipy's extension module alone, so the
    scipy.linalg package is not imported either."""
    import os
    import subprocess
    import sys

    import oscchain
    commands = ["qes --N 2 --A 1 --omega 1 --d 3",
                "verify-all --m1 2 --m2 3 --m3 5",
                "spectrum --case twobody_qes --A 2 --N 0"]
    script = (
        "import contextlib, io, sys\n"
        "from oscchain.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv.split())\n"
        "    print(code, 'sympy' in sys.modules,\n"
        "          'scipy.linalg' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(oscchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["0 False False"] * 3


@pytest.mark.skipif(not __import__("os").path.exists("/dev/full"),
                    reason="needs /dev/full")
def test_a_failed_write_is_an_output_error():
    """stdout on a full device: one stderr line `output error: ...` and
    exit 2, with no traceback and no 'Exception ignored' line from the
    flush at exit.  A --params file that cannot be read stays an input
    error."""
    import os
    import subprocess
    import sys

    import oscchain
    src = os.path.dirname(os.path.dirname(oscchain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "oscchain.cli", "spectrum", "--case",
           "general3", "--N", "1"]
    with open("/dev/full", "w") as full:
        done = subprocess.run(cmd, env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("output error: [Errno 28] ")
    assert done.stderr.count("\n") == 1
    done = subprocess.run(cmd + ["--params", os.devnull + "/missing"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("input error: [Errno 20] ")
