"""Tests for the numeric law-verification harness."""

from fractions import Fraction

import pytest

from orbiform.errors import TruncationTooSmall
from orbiform.modular import S, T, GammaMat, TorsionPair
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


def test_report_serialization():
    r = verify_law("G2_quasimodular")
    obj = r.to_json()
    assert obj["pass"] is True
    assert "error" in obj and "params" in obj
    assert isinstance(r.dumps(), str)
