"""Tests for the j/J series, hauptmoduln, and Moonshine identities."""

import json
import os
from fractions import Fraction

import pytest

from orbiform.cyclotomic import cyc_root
from orbiform.errors import NonIntegralCharacter, UnknownClass
from orbiform.moonshine import (
    CharacterData,
    char_solve,
    delta_j_J,
    e4_standard,
    hauptmodul,
    hauptmodul_spec,
    load_data,
    theta_trace,
    twisted_weight4,
    weight4_onepoint,
)
from orbiform.series import Puiseux


def test_delta_and_j_coefficients():
    delta, j, J = delta_j_J(5)
    assert delta.coeff_at(1) == 1
    assert delta.coeff_at(2) == -24
    assert delta.coeff_at(3) == 252
    assert j.coeff_at(-1) == 1
    assert j.coeff_at(0) == 744
    assert j.coeff_at(1) == 196884
    assert j.coeff_at(2) == 21493760
    assert J.coeff_at(0) == 0
    assert J.coeff_at(1) == 196884


def test_e4_standard_normalization():
    e4 = e4_standard(4)
    assert e4.coeff_at(0) == 1
    assert e4.coeff_at(1) == 240
    assert e4.coeff_at(2) == 240 * 9


def test_available_classes_and_hauptmoduln():
    assert {c["label"] for c in load_data()["classes"]} >= {"1A", "2B", "3B"}
    for label in ("1A", "2B", "3B"):
        t = hauptmodul(label, 4)
        assert t.coeff_at(-1) == 1
        assert t.coeff_at(0) == 0
    # known small coefficients of the eta-quotient hauptmoduln
    t2b = hauptmodul("2B", 4)
    assert t2b.coeff_at(1) == 276
    assert t2b.coeff_at(2) == -2048
    t3b = hauptmodul("3B", 4)
    assert t3b.coeff_at(1) == 54
    assert t3b.coeff_at(2) == -76
    with pytest.raises(UnknownClass):
        hauptmodul("9Z", 4)


def test_weight4_braces_coefficients():
    _, braces = weight4_onepoint(4)
    assert braces.coeff_at(-1) == 1
    assert braces.coeff_at(0) == 0
    assert braces.coeff_at(1) == 141444
    assert braces.coeff_at(2) == 68234240


def test_char_solve_degrees():
    _, braces = weight4_onepoint(4)
    chars = char_solve(braces)
    assert chars.degrees == (1, 196883, 21296876)


def test_char_solve_rejects_bad_data():
    with pytest.raises(NonIntegralCharacter):
        CharacterData((2, 5))
    with pytest.raises(NonIntegralCharacter):
        CharacterData((1, 10, 3))
    # char_solve: an irrational coefficient, a combo that adds no single degree,
    # and a degree that is not an integer or does not ascend
    with pytest.raises(NonIntegralCharacter, match="not rational"):
        char_solve(Puiseux.from_terms([(1, cyc_root(1, 3))], 3))
    with pytest.raises(ValueError, match="exactly one degree"):
        char_solve(Puiseux.from_terms([(1, 5)], 3), combos=((1,),))
    for q1 in (Fraction(7, 2), 2):  # the degrees 5/2 and 1 after chi_1 = 1
        with pytest.raises(NonIntegralCharacter, match="ascending positive integer"):
            char_solve(Puiseux.from_terms([(1, q1)], 3), combos=((1, 1),))


def test_twisted_weight4_known_classes_only():
    for label in ("2B", "3B"):
        s = twisted_weight4(label, 6)
        # leading term 12*71*E4(s tau)*q^-1 with E4 constant term 1/720
        assert s.coeff_at(-1) == Fraction(12 * 71, 720)
    with pytest.raises(UnknownClass):
        twisted_weight4("1A", 6)


def test_theta_trace_weights_coefficients():
    t = theta_trace("1A", 4)
    # theta(q^-1 + 0 + c1 q + ...) = -q^-1 + c1 q + 2 c2 q^2 + ...
    assert t.coeff_at(-1) == -1
    assert t.coeff_at(1) == 196884


def test_data_override(tmp_path, monkeypatch):
    data = {"classes": [{"label": "XX", "eta": [[1, 24], [2, -24]], "const": "24"}]}
    p = tmp_path / "moonshine.json"
    p.write_text(json.dumps(data))
    # a directory or the file itself; either replaces the packaged classes
    for override in (tmp_path, p):
        monkeypatch.setenv("ORBIFORM_DATA", str(override))
        assert load_data() == data
        assert hauptmodul("XX", 3).coeff_at(1) == 276
        with pytest.raises(UnknownClass):
            hauptmodul("2B", 3)


@pytest.mark.parametrize("eta, const", [
    ([[1, 24], [2, -23.5]], "24"),  # was read as (2, -23)
    ([[1.0, 24], [2, -24]], "24"),
    ([[1, 24], [2, -24]], 24.1),  # was read as 3391773469363405/140737488355328
    ([[1, 24], ["2", -24]], "24"),
], ids=["exponent", "scale", "const", "string-scale"])
def test_hauptmodul_data_of_the_wrong_type_is_a_value_error(tmp_path, monkeypatch, eta, const):
    data = {"classes": [{"label": "ZZ", "eta": eta, "const": const}]}
    (tmp_path / "moonshine.json").write_text(json.dumps(data))
    monkeypatch.setenv("ORBIFORM_DATA", str(tmp_path))
    with pytest.raises(ValueError, match="hauptmodul data for ZZ is malformed"):
        hauptmodul_spec("ZZ")
    # the packaged classes read as before from their ints and strings
    monkeypatch.delenv("ORBIFORM_DATA")
    assert hauptmodul_spec("2B").eta_factors == ((1, 24), (2, -24))
    assert hauptmodul_spec("2B").additive_constant == 24


def test_hauptmodul_bool_eta_scale_is_a_value_error(tmp_path, monkeypatch):
    # operator.index(True) is 1, so [true, 24] was read as the scale 1
    data = {"classes": [{"label": "ZZ", "eta": [[True, 24], [2, -24]], "const": "24"}]}
    (tmp_path / "moonshine.json").write_text(json.dumps(data))
    monkeypatch.setenv("ORBIFORM_DATA", str(tmp_path))
    with pytest.raises(ValueError, match="hauptmodul data for ZZ is malformed: eta scale must be"):
        hauptmodul_spec("ZZ")


_MALFORMED_DATA = {
    "no-const": {"classes": [{"label": "2B", "eta": [[1, 24], [2, -24]]}]},
    "no-eta": {"classes": [{"label": "2B", "const": "24"}]},
    "no-classes": {"klasses": [{"label": "2B", "eta": [[1, 24], [2, -24]], "const": "24"}]},
    "top-level-list": [{"label": "2B", "eta": [[1, 24], [2, -24]], "const": "24"}],
    "zero-denominator": {"classes": [{"label": "2B", "eta": [[1, 24], [2, -24]], "const": "1/0"}]},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_DATA))
def test_hauptmodul_data_of_the_wrong_shape_is_a_value_error(tmp_path, monkeypatch, name):
    # a missing key, a list at the top or a zero denominator was a KeyError, TypeError or
    # ZeroDivisionError from inside the reader
    (tmp_path / "moonshine.json").write_text(json.dumps(_MALFORMED_DATA[name]))
    monkeypatch.setenv("ORBIFORM_DATA", str(tmp_path))
    with pytest.raises(ValueError, match="hauptmodul data for 2B is malformed"):
        hauptmodul_spec("2B")
    with pytest.raises(ValueError, match="hauptmodul data for 2B is malformed"):
        twisted_weight4("2B", 3)


def test_bad_hauptmodul_data_rejected(tmp_path, monkeypatch):
    data = {"classes": [{"label": "YY", "eta": [[1, 24], [2, -24]], "const": "7"}]}
    p = tmp_path / "moonshine.json"
    p.write_text(json.dumps(data))
    monkeypatch.setenv("ORBIFORM_DATA", str(p))
    with pytest.raises(ValueError):
        hauptmodul("YY", 3)
