"""Tests for the numeric law-verification harness."""

import math
from fractions import Fraction

import pytest

from orbiform import forms, series, verify
from orbiform.errors import TruncationInsufficient, TruncationTooSmall
from orbiform.modular import S, T, GammaMat, TorsionPair
from orbiform.series import EvalResult
from orbiform.verify import LAW_IDS, verify_law, verify_suite


def test_suite_all_pass_and_order_is_deterministic():
    reports = verify_suite()
    assert [r.check for r in reports] == list(LAW_IDS)
    for r in reports:
        assert r.passed, (r.check, r.error)
        assert r.error < 1e-8


def test_unknown_law_rejected():
    with pytest.raises(ValueError):
        verify_law("no_such_law")


def test_an_empty_tau_grid_is_rejected():
    # a law checked at no point has no discrepancy and would pass vacuously
    for law in LAW_IDS:
        with pytest.raises(ValueError, match="tau grid is empty"):
            verify_law(law, tau_grid=())
    with pytest.raises(ValueError, match="tau grid is empty"):
        verify_suite(tau_grid=[])


def test_parameters_a_law_does_not_read_are_rejected():
    with pytest.raises(ValueError, match="G2_quasimodular does not read k, terms"):
        verify_law("G2_quasimodular", {"k": 7, "terms": 1, "gamma": S})
    with pytest.raises(ValueError, match="Q_modularity does not read z"):
        verify_law("Q_modularity", {"z": 0.1j})
    r = verify_law("wp1_laws", {"gamma": T, "trunc": 200})
    assert r.params == {"gamma": T, "trunc": 200}


def test_q_modularity_extra_gammas():
    for gamma in (T, S @ T, GammaMat(2, 1, 1, 1)):
        r = verify_law(
            "Q_modularity",
            {"k": 3, "pair": TorsionPair(Fraction(1, 3), Fraction(1, 2)),
             "gamma": gamma},
        )
        assert r.passed, (gamma, r.error)


def test_series_laws_reject_fewer_than_one_term():
    # a series of no terms is 0 on both sides, which would pass vacuously
    for law in ("Q_modularity", "delk_commutes"):
        for terms in (0, -5):
            with pytest.raises(TruncationTooSmall):
                verify_law(law, {"terms": terms})


def test_p_invariance_negative_at_trivial_pair():
    r = verify_law(
        "P_invariance",
        {"k": 1, "pair": TorsionPair(Fraction(1), Fraction(1)), "gamma": S},
        tau_grid=(1.5j,),
        tol=1e-6,
    )
    assert not r.passed
    assert r.error > 1e-3


def test_delk_law_takes_theta_exactly_on_the_default_grid():
    # theta = q d/dq multiplies each embedded slot by its exponent; the
    # five-point finite difference in its place would be off by 7.5e-13 here
    r = verify_law("delk_commutes", tau_grid=verify.DEFAULT_TAU_GRID)
    assert r.error < 1e-15


def test_the_series_laws_build_no_exact_series(monkeypatch):
    # Q_k and E_4 embed from their integer rows: no power-basis reduction, no
    # Puiseux, and no embedding of one
    def built(*args):
        raise AssertionError("a numeric law built an exact series")

    monkeypatch.setattr(forms, "_reduce_rows", built)
    monkeypatch.setattr(series.Puiseux, "_make", staticmethod(built))
    monkeypatch.setattr(series.Embedded, "__new__", built)
    for law in ("Q_modularity", "delk_commutes"):
        assert verify_law(law).passed
    assert verify_law("Q_modularity", {"k": 1, "pair": TorsionPair(Fraction(1), Fraction(1, 3)),
                                       "gamma": T}).passed


def test_report_serialization():
    r = verify_law("G2_quasimodular")
    obj = r.to_json()
    assert obj["pass"] is True
    assert "error" in obj and "params" in obj
    assert isinstance(r.dumps(), str)


@pytest.mark.parametrize("law, evaluator, tau_arg, nan", [
    ("P_invariance", "pk_eval", 3, (math.nan, 0.0)),
    ("Q_modularity", "eval_at_tau", 1, EvalResult(math.nan, 0.0)),
    ("G2_quasimodular", "g2_eval", 0, math.nan),
    ("wp1_laws", "wp1_eval", 1, math.nan),
    ("delk_commutes", "g2_eval", 0, math.nan),
])
def test_a_nan_discrepancy_fails_the_law(monkeypatch, law, evaluator, tau_arg, nan):
    # max(err, nan) keeps err: a law whose values went nan after a finite
    # discrepancy reported that discrepancy and passed
    real = getattr(verify, evaluator)

    def nan_near_2i(*args, **kwargs):
        return nan if abs(args[tau_arg] - 2j) < 0.1 else real(*args, **kwargs)

    monkeypatch.setattr(verify, evaluator, nan_near_2i)
    r = verify_law(law, tau_grid=(1j, 2j))
    assert math.isnan(r.error) and not r.passed


def test_a_nan_tail_is_insufficient(monkeypatch):
    monkeypatch.setattr(verify, "pk_eval", lambda *args, **kwargs: (0j, math.nan))
    with pytest.raises(TruncationInsufficient):
        verify_law("P_invariance")
