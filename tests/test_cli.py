"""End-to-end tests of the command-line interface via run(argv)."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbiform
from orbiform.cli import MAX_TRUNC_SLOTS, MAX_WEIGHT, run
from orbiform.verify import LAW_IDS
from orbiform.forms import PK_CUTOFF_CAP
from orbiform.frobenius import RegularSingularODE
from orbiform.series import Puiseux


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines()]


def test_bernoulli_poly_and_value(capsys):
    code, (obj,) = run_json(capsys, ["bernoulli", "2"])
    assert code == 0
    assert obj == {"poly": ["1/6", "-1", "1"]}
    code, (obj,) = run_json(capsys, ["bernoulli", "4", "1/2"])
    assert code == 0
    assert obj == {"value": "7/240"}


def test_eisenstein_series(capsys):
    code, (obj,) = run_json(capsys, ["eisenstein", "4", "--trunc", "3"])
    assert code == 0
    assert obj["terms"][0] == ["0", "1/720"]
    assert obj["terms"][1] == ["1", "1/3"]


def test_qk_series_output(capsys):
    code, (obj,) = run_json(capsys, ["qk", "2", "1/3", "1/4", "--trunc", "2"])
    assert code == 0
    assert obj["T"] == 3
    # irrational coefficients come out as conductor/coeffs objects
    assert any(isinstance(c, dict) and "conductor" in c for _, c in obj["terms"])


def test_pk_eval_value(capsys):
    code, (obj,) = run_json(
        capsys,
        ["pk-eval", "1", "1/2", "1/3", "--z", "0.1+0.3i", "--tau", "1.2i"],
    )
    assert code == 0
    assert obj["tail_bound"] < 1e-6
    assert len(obj["value"]) == 2


def test_pk_eval_cutoff_out_of_range_is_a_usage_error(capsys):
    argv = ["pk-eval", "1", "1/2", "1/3", "--z", "0.1+0.3i", "--tau", "1.2i"]
    for cutoff in ("-3", "0", str(PK_CUTOFF_CAP + 1)):
        assert run(argv + [f"--cutoff={cutoff}"]) == 2
        assert "argument --cutoff" in capsys.readouterr().err
    code, (obj,) = run_json(capsys, argv + ["--cutoff=1"])
    assert code == 0 and len(obj["value"]) == 2


def test_pk_eval_overflow_is_an_error_line(capsys):
    # a valid input whose sum overflows: an error line, not a traceback
    code = run(["pk-eval", "1", "1/2", "1/3", "--z", "0.1-0.3i", "--tau", "1.2i"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def _pk_reference(k, j_over_m, l_over_n, z, tau, terms=600):
    """sum over n in j/M + Z, n != 0, of n^(k-1) q_z^n / ((k-1)! (1 - lam q_tau^n)) at 60
    digits; it converges as it stands for |q_tau| < |q_z| < 1."""
    import mpmath

    with mpmath.workdps(60):
        qz, qt = (mpmath.exp(2j * mpmath.pi * mpmath.mpc(w)) for w in (z, tau))
        lam = mpmath.exp(2j * mpmath.pi * mpmath.mpf(l_over_n.numerator) / l_over_n.denominator)
        a = mpmath.mpf(j_over_m.numerator) / j_over_m.denominator
        total = mpmath.fsum((a + off) ** (k - 1) * qz ** (a + off) / (1 - lam * qt ** (a + off))
                            for off in range(-terms, terms + 1) if a + off != 0)
        return complex(total / mpmath.factorial(k - 1))


@pytest.mark.parametrize("k, options", [(120, []), (200, []), (200, ["--cutoff", "5000"])])
def test_pk_eval_up_to_max_weight(capsys, k, options):
    # |n|^(k-1) overflowed a float near n = 400 for k >= 120: "the P_k sum overflows";
    # past n = 2,600 at k = 200 so does |n|^(k-1)/(k-1)!
    code, (obj,) = run_json(
        capsys, ["pk-eval", str(k), "1/2", "1/3", "--z", "0.1+0.3i", "--tau", "1.2i", *options])
    assert code == 0
    want = _pk_reference(k, Fraction(1, 2), Fraction(1, 3), 0.1 + 0.3j, 1.2j)
    assert abs(complex(*obj["value"]) - want) <= 1e-10 * abs(want)


def test_verify_delk_too_few_terms_is_a_tail_error(capsys):
    # one term leaves a tail far above tol/10: an error, not a failing report
    assert run(["verify", "delk_commutes", "--terms", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: series tail bound")


def test_zhu_coeff(capsys):
    code, (obj,) = run_json(capsys, ["zhu-coeff", "3", "2", "1"])
    assert code == 0
    assert obj == {"value": "3/2"}


def test_verify_single_law_and_suite(capsys):
    code, (obj,) = run_json(
        capsys,
        ["verify", "Q_modularity", "--k", "2", "--pair", "1/1,1/2",
         "--gamma", "S", "--tol", "1e-8"],
    )
    assert code == 0
    assert obj["pass"] is True
    code, objs = run_json(capsys, ["verify", "--suite", "all"])
    assert code == 0
    assert len(objs) == 5 and all(o["pass"] for o in objs)
    # --gamma as four integers a,b,c,d: S = (0, -1, 1, 0)
    outs = []
    for gamma in ("0,-1,1,0", "S"):
        assert run(["verify", "Q_modularity", "--gamma", gamma, "--terms", "100"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_verify_terms_out_of_range_is_a_usage_error(capsys):
    q_law = ["verify", "Q_modularity", "--k", "2", "--pair", "1/1,1/2", "--gamma", "S"]
    for argv in (
        q_law + ["--terms=-5"],
        q_law + ["--terms=0"],
        q_law + [f"--terms={MAX_TRUNC_SLOTS + 1}"],
        ["verify", "delk_commutes", "--terms=0"],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert "argument --terms" in captured.err and captured.out == ""


def test_verify_parameter_the_law_does_not_read_is_a_usage_error(capsys):
    argv = ["verify", "G2_quasimodular", "--k", "7", "--pair", "1/2,1/3",
            "--z", "0.1+0.2i", "--terms", "1"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "does not read k, pair, z, terms" in captured.err


def test_verify_negative_exit_code(capsys):
    code = run(["verify", "P_invariance", "--k", "1", "--pair", "1/1,1/1"])
    capsys.readouterr()
    assert code == 1


def test_frobenius_from_file(capsys, tmp_path):
    ode = {
        "order": 2,
        "T": 2,
        "coeffs": [
            {"terms": [["0", "-1/4"], ["1/2", "1"]], "trunc": "12"},
            {"terms": [], "trunc": "12"},
        ],
    }
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(ode))
    code, (obj,) = run_json(
        capsys, ["frobenius", "--ode", str(p), "--trunc", "5"]
    )
    assert code == 0
    assert obj["numeric"] is False
    assert len(obj["solutions"]) == 2
    assert obj["exponent_classes"] == [["1/2", "-1/2"]]


# theta^2 - 2 + q: exponents +-sqrt(2), found by np.roots
_NUMERIC_ODE = {"order": 2, "T": 1, "coeffs": [{"terms": [["0", "-2"], ["1", "1"]], "trunc": "8"},
                                               {"terms": [], "trunc": "8"}]}


def test_frobenius_numeric_exponents_from_file(capsys, tmp_path):
    # c_1 = -1/((sqrt(2) + 1)^2 - 2)
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(_NUMERIC_ODE))
    code, (obj,) = run_json(capsys, ["frobenius", "--ode", str(p), "--trunc", "3"])
    assert code == 0 and obj["numeric"] is True and obj["max_log_power"] == 0
    assert obj["exponent_classes"] == [[s["exponent"]] for s in obj["solutions"]]
    plus = next(s for s in obj["solutions"] if s["exponent"][0] > 0)
    assert abs(plus["exponent"][0] - 2**0.5) < 1e-12 and plus["exponent"][1] == 0
    assert len(plus["coeffs"]) == 3 and plus["coeffs"][0] == [[1.0, 0.0]]
    assert abs(plus["coeffs"][1][0][0] + 1 / (1 + 2 * 2**0.5)) < 1e-12


def test_frobenius_conductor_below_one_is_an_error(capsys, tmp_path):
    bad = {"T": 1, "leading": "0", "trunc": "3", "coeffs": [{"conductor": 0, "coeffs": []}]}
    ode = {"order": 2, "T": 1, "coeffs": [bad, {"terms": [], "trunc": "3"}]}
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(ode))
    assert run(["frobenius", "--ode", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "conductor" in err and "Traceback" not in err


@pytest.mark.parametrize("data", [
    {"order": 1, "T": 1},  # no "coeffs": KeyError
    {"order": 1, "T": 1, "coeffs": ["1/2"]},  # a coefficient as a string: TypeError
    [{"order": 1, "T": 1, "coeffs": []}],  # a top-level list: TypeError
    # a zero denominator in a term or a trunc: ZeroDivisionError
    {"order": 1, "T": 1, "coeffs": [{"terms": [["1", "1/0"]], "trunc": "4"}]},
    {"order": 1, "T": 1, "coeffs": [{"terms": [["1", "1"]], "trunc": "1/0"}]},
], ids=["missing-coeffs", "string-coefficient", "top-level-list",
        "zero-denominator-term", "zero-denominator-trunc"])
def test_frobenius_malformed_file_is_an_error(capsys, tmp_path, data):
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(data))
    assert run(["frobenius", "--ode", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# theta S + c q S = 0, so S = exp(-c q): c_1 = -c and c_2 = c^2/2
def _exp_ode(c, trunc="4", exponent="1"):
    return {"order": 1, "T": 1, "coeffs": [{"terms": [[exponent, c]], "trunc": trunc}]}


@pytest.mark.parametrize("c, want", [("1/10", ["-1/10", "1/200"]), (2, ["-2", "2"])])
def test_frobenius_file_reads_ints_and_rational_strings(capsys, tmp_path, c, want):
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(_exp_ode(c)))
    code, (obj,) = run_json(capsys, ["frobenius", "--ode", str(p), "--trunc", "3"])
    assert code == 0
    (part,) = obj["solutions"][0]
    assert [c["coeffs"] for c in part["coeffs"]] == [["1"], [want[0]], [want[1]]]


@pytest.mark.parametrize("data", [
    _exp_ode(0.1),  # c_2 read -3602879701896397/108086391056891904
    _exp_ode("1", trunc=4.5),
    _exp_ode("1", exponent=1.0),
    {"order": 1, "T": 1, "coeffs": [
        {"T": 1, "leading": 0.5, "trunc": "3", "coeffs": [{"conductor": 1, "coeffs": ["1"]}]}]},
    {"order": 1, "T": 1, "coeffs": [
        {"T": 1, "leading": "1", "trunc": "3", "coeffs": [{"conductor": 1, "coeffs": [0.1]}]}]},
    # 2.0 == 2 passed the count check, then the solver scaled a CycQ by the float
    {"order": 2.0, "T": 1, "coeffs": [{"terms": [["0", "-3/4"], ["1", "1"]], "trunc": "6"},
                                      {"terms": [["0", "1"]], "trunc": "6"}]},
], ids=["term-coefficient", "trunc", "exponent", "series-leading", "cycq-coordinate", "order"])
def test_frobenius_file_float_is_malformed(capsys, tmp_path, data):
    # a JSON float is a binary value, not the decimal it was written as
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(data))
    assert run(["frobenius", "--ode", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: malformed ODE file {p}: TypeError")


def _series_ode(T=1, conductor=1, coord="1"):
    return {"order": 1, "T": 1, "coeffs": [{"T": T, "leading": "1", "trunc": "4", "coeffs": [
        {"conductor": conductor, "coeffs": [coord] + ["0"] * (conductor > 1)}]}]}


@pytest.mark.parametrize("data", [
    {"order": True, "T": 1, "coeffs": [{"terms": [["1", "1"]], "trunc": "4"}]},
    {"order": 1, "T": True, "coeffs": [{"terms": [["1", "1"]], "trunc": "4"}]},
    _exp_ode(True),
    _exp_ode("1", exponent=True),
    _series_ode(T=True),
    _series_ode(conductor=True),
    _series_ode(coord=True),
    _series_ode(conductor=3, coord=False),
], ids=["order", "T", "term-coefficient", "exponent", "series-T", "conductor",
        "cycq-coordinate", "cycq-false"])
def test_frobenius_file_bool_is_malformed(capsys, tmp_path, data):
    # True == 1 and False == 0: each file was solved at --trunc 3 with exit 0
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(data))
    assert run(["frobenius", "--ode", str(p), "--trunc", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:")


def test_frobenius_float_trunc_is_malformed_past_the_cap(capsys, tmp_path):
    # the slot cap read trunc 1e9 with Fraction and called it a usage error (exit 2),
    # where 6.5 was a malformed file (exit 1): one reader refuses both as floats
    for trunc in (1e9, 6.5):
        p = tmp_path / "ode.json"
        p.write_text(json.dumps(_exp_ode("1", trunc=trunc)))
        assert run(["frobenius", "--ode", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: malformed ODE file {p}: TypeError")


def test_frobenius_non_int_branching_is_an_error(capsys, tmp_path):
    ode = {"order": 1, "T": 1.5, "coeffs": [{"terms": [["1", "1"]], "trunc": "4"}]}
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(ode))
    assert run(["frobenius", "--ode", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "branching" in err and "Traceback" not in err


def test_frobenius_coefficient_trunc_over_the_cap_is_a_usage_error(capsys, tmp_path):
    # one slot past the cap at branching 2, as a term list and as a full series;
    # a lead below 0 adds its slots
    over = str(Fraction(MAX_TRUNC_SLOTS + 1, 2))
    at_cap = str(Fraction(MAX_TRUNC_SLOTS, 2))
    empty = {"T": 2, "leading": "0", "trunc": over, "coeffs": []}
    for coeff in (
        {"terms": [["1/2", "1"]], "trunc": over},
        empty,
        dict(empty, T=1),  # allocated at the file's branching 2
        {"terms": [["-1/2", "0"]], "trunc": at_cap},
    ):
        ode = {"order": 1, "T": 2, "coeffs": [coeff]}
        p = tmp_path / "ode.json"
        p.write_text(json.dumps(ode))
        assert run(["frobenius", "--ode", str(p)]) == 2, coeff
        captured = capsys.readouterr()
        assert "usage error" in captured.err and f"more than {MAX_TRUNC_SLOTS} slots" in captured.err
        assert captured.out == ""
    ode = {"order": 1, "T": 2, "coeffs": [{"terms": [["1/2", "1"]], "trunc": at_cap}]}
    p.write_text(json.dumps(ode))
    code, (obj,) = run_json(capsys, ["frobenius", "--ode", str(p), "--trunc", "2"])
    assert code == 0 and len(obj["solutions"]) == 1


def test_moonshine_subcommands(capsys):
    code, (obj,) = run_json(capsys, ["moonshine", "chars"])
    assert code == 0
    assert obj == {"chi": [1, 196883, 21296876]}
    code, (obj,) = run_json(capsys, ["moonshine", "J", "--trunc", "3"])
    assert code == 0
    assert obj["terms"][0] == ["-1", "1"]
    code, (obj,) = run_json(
        capsys, ["moonshine", "hauptmodul", "--class", "2B", "--trunc", "3"]
    )
    assert code == 0
    assert obj["terms"][1] == ["1", "276"]


@pytest.mark.parametrize("eta, const", [([[1, 24], [2, -23.5]], "24"), ([[1, 24], [2, -24]], 24.1)],
                         ids=["eta-exponent", "const"])
def test_moonshine_float_class_data_is_an_error(capsys, tmp_path, monkeypatch, eta, const):
    # a float from ORBIFORM_DATA was truncated (-23.5 as -23) or read as its binary value
    data = {"classes": [{"label": "2B", "eta": eta, "const": const}]}
    (tmp_path / "moonshine.json").write_text(json.dumps(data))
    monkeypatch.setenv("ORBIFORM_DATA", str(tmp_path))
    assert run(["moonshine", "hauptmodul", "--class", "2B", "--trunc", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: hauptmodul data for 2B is malformed")


def test_moonshine_bool_eta_scale_is_malformed(capsys, tmp_path, monkeypatch):
    # true == 1: the eta quotient was built as (1, 24), (2, -24), with exit 0
    data = {"classes": [{"label": "2B", "eta": [[True, 24], [2, -24]], "const": "24"}]}
    (tmp_path / "moonshine.json").write_text(json.dumps(data))
    monkeypatch.setenv("ORBIFORM_DATA", str(tmp_path))
    assert run(["moonshine", "hauptmodul", "--class", "2B", "--trunc", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: hauptmodul data for 2B is malformed")


@pytest.mark.parametrize("data", [
    {"classes": [{"label": "2B", "eta": [[1, 24], [2, -24]]}]},
    {"classes": [{"label": "2B", "const": "24"}]},
    {"klasses": [{"label": "2B", "eta": [[1, 24], [2, -24]], "const": "24"}]},
    [{"label": "2B", "eta": [[1, 24], [2, -24]], "const": "24"}],
    {"classes": [{"label": "2B", "eta": [[1, 24], [2, -24]], "const": "1/0"}]},
], ids=["no-const", "no-eta", "no-classes", "top-level-list", "zero-denominator"])
@pytest.mark.parametrize("command", ["hauptmodul", "twisted4"])
def test_moonshine_malformed_class_data_is_an_error(capsys, tmp_path, monkeypatch, data, command):
    # each ended in a KeyError, TypeError or ZeroDivisionError traceback
    (tmp_path / "moonshine.json").write_text(json.dumps(data))
    monkeypatch.setenv("ORBIFORM_DATA", str(tmp_path))
    assert run(["moonshine", command, "--class", "2B", "--trunc", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: hauptmodul data for 2B is malformed")


def test_moonshine_class_defaults_to_1A(capsys):
    code, (obj,) = run_json(capsys, ["moonshine", "hauptmodul", "--trunc", "3"])
    assert code == 0 and obj["terms"] == [["-1", "1"], ["1", "196884"], ["2", "21493760"]]
    assert run(["moonshine", "twisted4"]) == 1  # no twisted formula for 1A
    assert capsys.readouterr().err.startswith("error:")


def test_moonshine_twisted4_and_theta(capsys):
    code, (obj,) = run_json(capsys, ["moonshine", "twisted4", "--class", "2B", "--trunc", "3"])
    assert code == 0
    assert obj["terms"][:2] == [["-1", "71/60"], ["1", "1293/5"]]
    # q d/dq of T_3B = 1/q + 54 q - 76 q^2 - 243 q^3 + ...
    code, (obj,) = run_json(capsys, ["moonshine", "theta", "--class", "3B", "--trunc", "4"])
    assert code == 0
    assert obj["terms"] == [["-1", "-1"], ["1", "54"], ["2", "-152"], ["3", "-729"]]
    assert run(["moonshine", "twisted4", "--class", "1A"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_pairs_reduce_and_orbit(capsys):
    code, (obj,) = run_json(capsys, ["pairs", "reduce", "2", "3", "5"])
    assert code == 0
    a, b, c, d = obj["gamma"]
    assert a * d - b * c == 1
    assert (2 * a + 3 * c) % 5 == 0
    assert (2 * b + 3 * d) % 5 == obj["e"]
    code, (obj,) = run_json(capsys, ["pairs", "orbit", "1/2", "1/1"])
    assert code == 0
    assert "(1/2,1)" in obj["orbit"] or "(1/2,1/1)" in obj["orbit"]
    assert len(obj["orbit"]) == 3  # the three 2-torsion pairs


def test_pairs_orbit_past_the_cap_is_a_usage_error(capsys):
    # the orbit of (1/N, 0) holds every pair of level N: 7,200 at N = 100 and
    # 10,200 at N = 101, past MAX_TRUNC_SLOTS
    code, (obj,) = run_json(capsys, ["pairs", "orbit", "1/100", "0"])
    assert code == 0 and len(obj["orbit"]) == 7200 <= MAX_TRUNC_SLOTS
    assert run(["pairs", "orbit", "1/101", "0"]) == 2
    captured = capsys.readouterr()
    assert f"more than {MAX_TRUNC_SLOTS} pairs" in captured.err and captured.out == ""


def test_pairs_reduce_modulus_must_be_positive(capsys):
    # a zero or negative modulus is a usage error (exit 2), not the library's
    # ValueError (exit 1)
    for n in ("0", "-5"):
        assert run(["pairs", "reduce", "2", "3", n]) == 2
        captured = capsys.readouterr()
        assert "argument n" in captured.err and captured.out == ""


# -- every run ends in one of three ways ------------------------------------------

moduli = st.integers(-2, 12)
ratios = st.builds("{}/{}".format, st.integers(0, 13), moduli)  # a zero modulus is 1/0
taus = st.sampled_from([1j, 0.5 + 1j, 0.3 + 1.7j, 1.2j, -0.4 + 0.9j])


def _complex_arg(w: complex) -> str:
    return f"{w.real!r}{w.imag:+}i"


@st.composite
def cli_argvs(draw):
    """pk-eval, verify and pairs, with M, N <= 12, z in the annulus
    -Im tau < Im z < Im tau, tau on a grid and moduli from -2 to 12; every
    option value is given as --opt=value, so a leading minus is a value."""
    tau = draw(taus)
    z = complex(draw(st.floats(-1, 1)), draw(st.floats(-0.99, 0.99)) * tau.imag)
    command = draw(st.sampled_from(["pk-eval", "verify", "pairs reduce", "pairs orbit"]))
    if command == "pairs reduce":
        return ["pairs", "reduce", *map(str, draw(st.tuples(moduli, moduli, moduli)))]
    if command == "pairs orbit":
        return ["pairs", "orbit", draw(ratios), draw(ratios)]
    if command == "pk-eval":
        argv = ["pk-eval", str(draw(st.integers(-1, 6))), draw(ratios), draw(ratios),
                f"--z={_complex_arg(z)}", f"--tau={_complex_arg(tau)}"]
        cutoff = draw(st.none() | st.integers(-2, 1000))
        return argv if cutoff is None else argv + [f"--cutoff={cutoff}"]
    argv = ["verify", draw(st.sampled_from(LAW_IDS))]
    options = {
        "k": st.integers(-1, 6).map(str),
        "pair": st.builds("{},{}".format, ratios, ratios),
        "gamma": st.sampled_from(["S", "T", "ST", "TS", "2,1,1,1", "1,1,1,1"]),
        "z": st.just(_complex_arg(z)),
        "terms": st.integers(-1, 40).map(str),
    }
    for name in draw(st.sets(st.sampled_from(sorted(options)), max_size=2)):
        argv.append(f"--{name}={draw(options[name])}")
    return argv


@settings(max_examples=80, deadline=None)
@given(cli_argvs())
@example(["verify", "delk_commutes", "--terms=1"])  # too few terms: a tail error line, exit 1
@example(["verify", "P_invariance", "--pair=1/1,1/1"])  # a failing law: its report, exit 1
@example(["pk-eval", "1", "1/2", "1/3", "--z=0.1-0.3i", "--tau=1.2i"])  # overflow: exit 1
@example(["pairs", "reduce", "2", "3", "0"])  # a zero modulus: exit 2
def test_every_run_ends_in_exit_0_1_or_2(argv):
    # exit 0 with JSON, exit 1 with an error line (or, from verify, a failing
    # law's report), or exit 2 with a usage error; an exception out of run()
    # is a traceback and fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    reports = [json.loads(line) for line in out.splitlines()]
    if code == 0:
        assert reports and all(r.get("pass", True) for r in reports)
    elif code == 1 and reports:
        assert argv[0] == "verify" and not reports[0]["pass"] and err.startswith("FAIL ")
    elif code == 1:
        assert any(line.startswith("error: ") for line in err.splitlines())
    else:
        assert code == 2 and out == ""
        assert "usage error: " in err or "usage: " in err


def test_usage_errors(capsys):
    assert run(["definitely-not-a-command"]) == 2
    capsys.readouterr()
    assert run(["verify"]) == 2
    capsys.readouterr()
    assert run(["qk", "2", "bogus", "1/3"]) == 2
    capsys.readouterr()
    # a bad value is refused by its argparse type, which names the argument: a
    # zero denominator (not a ZeroDivisionError traceback), a malformed or
    # non-unimodular --gamma, a --suite other than all
    for argv, name in ((["qk", "2", "1/2", "1/0"], "l_over_N"), (["bernoulli", "2", "1/0"], "x"),
                       (["eisenstein", "4", "--trunc", "1/0"], "--trunc"),
                       (["verify", "Q_modularity", "--pair", "1/0,1/2"], "--pair"),
                       (["verify", "Q_modularity", "--gamma", "1,x,0,1"], "--gamma"),
                       (["verify", "Q_modularity", "--gamma", "1,1,1,1"], "--gamma"),
                       (["verify", "--suite", "some"], "--suite")):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert f"argument {name}: " in captured.err and captured.out == ""
    # a rule across arguments is a usage error: an option the command does not
    # read is not ignored (--class outside hauptmodul, twisted4 and theta, and
    # a law id or law option with --suite all), and P_k starts at k = 1
    for argv in (["moonshine", "J", "--class", "2B", "--trunc", "3"],
                 ["moonshine", "chars", "--class", "3B"],
                 # chars reads q and q^2 of a braced series it builds to trunc 3
                 ["moonshine", "chars", "--trunc", "5"],
                 ["moonshine", "chars", "--trunc", "1"],
                 ["moonshine", "weight4", "--class", "1A"],
                 ["verify", "--suite", "all", "--k", "7", "--gamma", "T"],
                 ["verify", "Q_modularity", "--suite", "all"],
                 ["verify", "--suite", "all", "--pair", "1/2,1/3"],
                 ["verify", "--suite", "all", "--z", "0.1+0.2i"],
                 ["verify", "--suite", "all", "--terms", "10"],
                 ["verify", "P_invariance", "--k", "0"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert "usage error" in captured.err and captured.out == ""
    # weights and zhu-coeff's i and m lie between 0 and MAX_WEIGHT; pk-eval
    # takes k >= 1 and eisenstein an even k >= 2
    over = str(MAX_WEIGHT + 1)
    for argv in (["bernoulli", over], ["eisenstein", over], ["qk", over, "1/2", "1/3"],
                 ["pk-eval", over, "1/2", "1/3", "--z", "0.1+0.3i", "--tau", "1.2i"],
                 ["verify", "Q_modularity", "--k", over],
                 ["zhu-coeff", "1", over, "3"], ["zhu-coeff", "1", "3", over],
                 ["bernoulli", "two"], ["qk", "-1", "1/2", "1/3"], ["bernoulli", "-1"],
                 ["zhu-coeff", "1", "-1", "0"], ["eisenstein", "0"], ["eisenstein", "3"],
                 ["eisenstein", str(MAX_WEIGHT - 1)],
                 ["pk-eval", "0", "1/2", "1/3", "--z", "0.1+0.3i", "--tau", "1.2i"],
                 # a tol that is not finite and above 0 would pass or fail every law
                 ["verify", "Q_modularity", "--pair", "0,0", "--tol", "inf"],
                 ["verify", "--suite", "all", "--tol", "inf"],
                 ["verify", "Q_modularity", "--tol", "nan"],
                 ["verify", "Q_modularity", "--tol", "0"],
                 ["verify", "Q_modularity", "--tol", "-1"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert "argument" in captured.err and captured.out == ""
    # Q_0 is the constant -1: its law holds
    code, (obj,) = run_json(capsys, ["verify", "Q_modularity", "--k", "0"])
    assert code == 0 and obj["pass"]
    code, (obj,) = run_json(capsys, ["bernoulli", str(MAX_WEIGHT)])
    assert code == 0 and len(obj["poly"]) == MAX_WEIGHT + 1
    code, (obj,) = run_json(capsys, ["eisenstein", "2", "--trunc", "2"])
    assert code == 0 and obj["terms"] == [["0", "-1/12"], ["1", "2"]]


def test_trunc_out_of_range_is_a_usage_error(capsys, tmp_path):
    ode = {"order": 1, "T": 2, "coeffs": [{"terms": [["1/2", "1"]], "trunc": "4"}]}
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(ode))
    # one slot past the cap is MAX_TRUNC_SLOTS/2 + 1/2 at branching 2
    over = str(Fraction(MAX_TRUNC_SLOTS + 1, 2))
    # a trunc not above 0 is refused by its argparse type; too many slots for
    # the branching is a usage error
    for trunc in ("0", "-1", "-1/2", over):
        assert run(["frobenius", "--ode", str(p), f"--trunc={trunc}"]) == 2
        assert ("usage error" if trunc == over else "argument --trunc") in capsys.readouterr().err
    for trunc in ("0", "-3", str(MAX_TRUNC_SLOTS + 1), "1000000000"):
        assert run(["moonshine", "J", f"--trunc={trunc}"]) == 2
        assert ("usage error" if int(trunc) > 0 else "argument --trunc") in capsys.readouterr().err
    code, (obj,) = run_json(capsys, ["frobenius", "--ode", str(p), "--trunc", "1/2"])
    assert code == 0 and len(obj["solutions"]) == 1


def test_determinism(capsys):
    run(["moonshine", "weight4", "--trunc", "4"])
    first = capsys.readouterr().out
    run(["moonshine", "weight4", "--trunc", "4"])
    second = capsys.readouterr().out
    assert first == second


_RESONANT_ODE = {"order": 2, "T": 2, "coeffs": [
    {"terms": [["0", "-1/4"], ["1/2", "1"]], "trunc": "12"}, {"terms": [], "trunc": "12"}]}
# roots 1/4 and -5/12 at T = 3, two steps apart: a log, and den(T mu) = 4
_BRANCHED_ODE = {"order": 2, "T": 3, "coeffs": [
    {"terms": [["0", "-5/48"], ["1/3", "1"]], "trunc": "6"},
    {"terms": [["0", "1/6"], ["2/3", "1/2"]], "trunc": "6"}]}
# (theta - 1/2)^3 plus q-terms: a triple root, log power 2
_TRIPLE_ROOT_ODE = {"order": 3, "T": 1, "coeffs": [
    {"terms": [["0", "-1/8"], ["1", "1"]], "trunc": "8"},
    {"terms": [["0", "3/4"], ["2", "-2"]], "trunc": "8"},
    {"terms": [["0", "-3/2"], ["1", "1/3"]], "trunc": "8"}]}
# (theta - 1/2)^3 plus zeta_3 q-terms in r_0, r_1 and r_2: the CycQ recursion,
# with R_1 = zeta_3 + (zeta_3/3) x^2 of degree 2
_ZETA3_TRIPLE_ODE = {"order": 3, "T": 1, "coeffs": [
    {"T": 1, "leading": "0", "trunc": "40", "coeffs": [
        {"conductor": 1, "coeffs": ["-1/8"]}, {"conductor": 3, "coeffs": ["0", "1"]},
        {"conductor": 1, "coeffs": ["1/2"]}]},
    {"T": 1, "leading": "0", "trunc": "40", "coeffs": [
        {"conductor": 1, "coeffs": ["3/4"]}, {"conductor": 1, "coeffs": ["0"]},
        {"conductor": 3, "coeffs": ["-1", "-1"]}]},
    {"T": 1, "leading": "0", "trunc": "40", "coeffs": [
        {"conductor": 1, "coeffs": ["-3/2"]}, {"conductor": 3, "coeffs": ["0", "1/3"]}]}]}


def _ode_files(tmp_path) -> dict:
    """The ODE files the pinned commands read; "conductor3" is _RESONANT_ODE
    with every coefficient written at conductor 3 by Puiseux.to_json."""
    resonant = RegularSingularODE.from_json(_RESONANT_ODE)
    lifted = RegularSingularODE(resonant.order, resonant.T, [
        Puiseux(r.T, r.lead, [c.lift(3) for c in r.coeffs], r.trunc) for r in resonant.coeffs])
    files = {}
    for name, obj in [("ode", _RESONANT_ODE), ("branched", _BRANCHED_ODE),
                      ("triple", _TRIPLE_ROOT_ODE), ("conductor3", lifted.to_json()),
                      ("zeta3_triple", _ZETA3_TRIPLE_ODE)]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    return files

# sha256 of stdout for exact commands; the float commands (pk-eval, verify)
# are left out, since their last bits can vary by platform
STDOUT_SHA256 = {
    "bernoulli 4":
        "61989da60d823862c56745909dda82b21b5077975b71e0f316fd0a68bc050453",
    "bernoulli 4 1/2":
        "3c82d2e7fa5920513eac7f57e2b88e46963d305565f76ca654764db47f2c9863",
    "eisenstein 4 --trunc 8":
        "09669eaac2c2618965cfc7d1b37a7f9f08b378c6d6fda4918b550ce8cd2911e7",
    "qk 3 1/4 2/3":
        "e84b511771519215f40a63e0f691de7e331971937f8bec1d3aba9e67aac84b9b",
    "qk 2 1/2 1/3 --trunc 6":
        "19563fc2aca779ac411c90f7802a4cccc5a47e969133d998828687d54acb5d5a",
    # conductor-7 rows, Q_0's zero window and the j/M = 1 boundary constant
    "qk 4 2/5 3/7 --trunc 40":
        "d26adada870840d5db4eb52cab2f62987b8c0f3709b983cbe536de8ca643a864",
    "qk 0 1/2 1/3":
        "776aae1cf0939197f38152e359575221a2167064ab9090eca9b0b6be6837518d",
    "qk 1 1 5/12 --trunc 30":
        "f554875aee7e30f0d2c3d2c9c4634972c707e1576ff8b0c9e768a8142b9787b1",
    "zhu-coeff 3 2 1":
        "a3bc75fe6beb931e53f152ccb076aa1f7d6860b0fcb90abb6cc839b4703fecd5",
    "pairs reduce 2 3 5":
        "52bfc69db0c237288d5c113a86bab9d73b1cad889719e89cc560acaef869fc06",
    "pairs orbit 1/2 1/1":
        "6fbbc3765aa5a754eb61643461252ae59439c336b0172393d0a1dd5402d7bbd5",
    "moonshine J":
        "4fd1200df9f3e912c6f36559b43dcdd97ce614e731b5d7caab74874a6228cf9e",
    "moonshine hauptmodul --class 2B":
        "8b3477ccbd8104966bb46a1d63ffd03d5e182eb118a07df47d829078feeb2c11",
    "moonshine weight4":
        "1d23ed4c18075d30283d8f5bc182020e257200369983ef0441b783cf39102908",
    "moonshine twisted4 --class 2B":
        "52616e83e309ca7150da6277d411e372ca540bd1e6bd0730a9995c410e3c2f7d",
    "moonshine theta --class 3B":
        "ac9f47d01cfd4e5590f1c3f81bef4d2c2c00ab7681ee065f924f723e559d0ba5",
    "moonshine chars":
        "13f652f45233bb8f15af68e28cd940bdb23ab931675d68890ad3a044d3d6fb20",
    "frobenius --ode {ode} --trunc 5":
        "8d8456fed99de0537ef9a26f77ffabec0c64be8fae4ac4eeb807e9602911863c",
    "frobenius --ode {branched} --trunc 5":
        "c7bb180ec8b65dea790f95c156b920249ee0b27d78d3e274d51816743a61fafd",
    # a span off the (1/3)Z grid: each part's trunc is 73/20, at T = 12
    "frobenius --ode {branched} --trunc 17/5":
        "2c5342c8b999f13c562ac98096b0782216fbbc0fa523c268bae1075999a3bd6c",
    "frobenius --ode {triple} --trunc 5":
        "16e872c2387724bef19d3ff72f339ba02a3c3b5689e46b8060bdd65a7e5f9dab",
    "frobenius --ode {conductor3} --trunc 5":
        "95c1dfd40ab74ffea5e004ee3125cc1fb5b016d747a93363ffb742af479a63ad",
    # rational r_i(0), zeta_3 q-terms: R_s of degree 2 on CycQ values, 39 steps
    "frobenius --ode {zeta3_triple} --trunc 40":
        "9d6ee930668aa8b3508dd6a483e0860015e28937f596f55454e495a7991a2136",
}


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_stdout_is_byte_identical(capsys, tmp_path, command):
    # the digests also pin what the fingerprints leave out: T, conductors, trunc
    assert run(command.format(**_ode_files(tmp_path)).split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


# run(argv) in a fresh interpreter; prints its exit code, its stdout and
# whether numpy and mpmath were imported
_COLD_RUN = """
import contextlib, io, json, sys
from orbiform.cli import run
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, out.getvalue(), "numpy" in sys.modules, "mpmath" in sys.modules]))
"""


@pytest.mark.parametrize("command, numeric", [
    ("bernoulli 4", False),
    ("qk 3 1/4 2/3", False),
    ("moonshine chars", False),
    ("moonshine J --trunc 20", False),
    ("frobenius --ode {ode} --trunc 5", False),
    ("pk-eval 2 1/2 1/3 --z 0.1+0.2i --tau 1.1i", True),
    ("verify Q_modularity --gamma S --terms 100", True),
    ("frobenius --ode {numeric_ode} --trunc 3", True),
])
def test_cold_process_loads_numpy_and_mpmath_only_for_numeric_commands(
        capsys, tmp_path, command, numeric):
    # the exact commands load neither library; the numeric ones load numpy on
    # first use, and from a cold process print what run() prints here
    ode, numeric_ode = tmp_path / "ode.json", tmp_path / "numeric.json"
    ode.write_text(json.dumps(_RESONANT_ODE))
    numeric_ode.write_text(json.dumps(_NUMERIC_ODE))
    argv = command.format(ode=ode, numeric_ode=numeric_ode).split()
    src = str(Path(orbiform.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, out, has_numpy, has_mpmath = json.loads(proc.stdout.splitlines()[-1])
    assert code == run(argv) == 0
    assert out == capsys.readouterr().out
    assert has_numpy == numeric
    assert numeric or not has_mpmath
