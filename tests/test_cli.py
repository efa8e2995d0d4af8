"""End-to-end tests of the command-line interface via run(argv)."""

import json
from fractions import Fraction

import pytest

from orbiform.cli import MAX_TRUNC_SLOTS, run
from orbiform.forms import PK_CUTOFF_CAP


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
        assert "usage error" in capsys.readouterr().err
    code, (obj,) = run_json(capsys, argv + ["--cutoff=1"])
    assert code == 0 and len(obj["value"]) == 2


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
        assert "usage error" in captured.err and captured.out == ""


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


def test_frobenius_conductor_below_one_is_an_error(capsys, tmp_path):
    bad = {"T": 1, "leading": "0", "trunc": "3", "coeffs": [{"conductor": 0, "coeffs": []}]}
    ode = {"order": 2, "T": 1, "coeffs": [bad, {"terms": [], "trunc": "3"}]}
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(ode))
    assert run(["frobenius", "--ode", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "conductor" in err and "Traceback" not in err


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


def test_usage_errors(capsys):
    assert run(["definitely-not-a-command"]) == 2
    capsys.readouterr()
    assert run(["verify"]) == 2
    capsys.readouterr()
    assert run(["qk", "2", "bogus", "1/3"]) == 2
    capsys.readouterr()


def test_trunc_out_of_range_is_a_usage_error(capsys, tmp_path):
    ode = {"order": 1, "T": 2, "coeffs": [{"terms": [["1/2", "1"]], "trunc": "4"}]}
    p = tmp_path / "ode.json"
    p.write_text(json.dumps(ode))
    # one slot past the cap is MAX_TRUNC_SLOTS/2 + 1/2 at branching 2
    over = str(Fraction(MAX_TRUNC_SLOTS + 1, 2))
    for trunc in ("0", "-1", "-1/2", over):
        assert run(["frobenius", "--ode", str(p), f"--trunc={trunc}"]) == 2
        assert "usage error" in capsys.readouterr().err
    for trunc in ("0", "-3", str(MAX_TRUNC_SLOTS + 1), "1000000000"):
        assert run(["moonshine", "J", f"--trunc={trunc}"]) == 2
        assert "usage error" in capsys.readouterr().err
    code, (obj,) = run_json(capsys, ["frobenius", "--ode", str(p), "--trunc", "1/2"])
    assert code == 0 and len(obj["solutions"]) == 1


def test_determinism(capsys):
    run(["moonshine", "weight4", "--trunc", "4"])
    first = capsys.readouterr().out
    run(["moonshine", "weight4", "--trunc", "4"])
    second = capsys.readouterr().out
    assert first == second
