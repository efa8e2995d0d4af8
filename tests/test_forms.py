"""Tests for Bernoulli polynomials, Eisenstein and twisted series, and the
numeric evaluators."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiform.errors import OutsideRegion, UndefinedAtTrivialPair
from orbiform.forms import (
    bernoulli_identities_check,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_value,
    del_k,
    eisenstein,
    g2_eval,
    klein_hecke_series,
    lemma_plambda_check,
    pbar_series,
    pk_double_sum_oracle,
    pk_eval,
    plambda_eval,
    prop44_check,
    prop46_exact_checks,
    prop48_check,
    qk_series,
    qk_series_divisor_oracle,
    wp1_eval,
    zhu_coeff,
    zhu_coeff_binomial_oracle,
)
from orbiform.modular import TorsionPair
from orbiform.series import Puiseux, eval_at_tau, theta


def test_bernoulli_polynomials_exact():
    assert [str(c) for c in bernoulli_poly(0).coefficients] == ["1"]
    assert [str(c) for c in bernoulli_poly(1).coefficients] == ["-1/2", "1"]
    assert [str(c) for c in bernoulli_poly(2).coefficients] == ["1/6", "-1", "1"]
    assert [str(c) for c in bernoulli_poly(3).coefficients] == [
        "0", "1/2", "-3/2", "1",
    ]
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert bernoulli_value(4, Fraction(1, 2)) == Fraction(7, 240)


def test_bernoulli_odd_vanishing_and_reflection():
    for k in range(3, 21, 2):
        assert bernoulli_number(k) == 0
    for k in range(1, 12):
        bk = bernoulli_poly(k)
        assert bk(Fraction(1, 3)) == (-1) ** k * bk(Fraction(2, 3))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.fractions(min_value=0, max_value=1, max_denominator=5),
    st.integers(min_value=1, max_value=8),
)
def test_bernoulli_identities_property(k, x, n):
    assert bernoulli_identities_check(k, x, n)


def test_eisenstein_normalization_and_divisors():
    e4 = eisenstein(4, 10)
    # constant -B_4/4! = 1/720; q-coefficient 2 sigma_3(n)/3!
    assert e4.coeff_at(0) == Fraction(1, 720)
    assert e4.coeff_at(1) == Fraction(2, 6)
    assert e4.coeff_at(2) == Fraction(2 * 9, 6)
    e6 = eisenstein(6, 5)
    assert e6.coeff_at(0) == Fraction(-1, 30240)
    with pytest.raises(Exception):
        eisenstein(3, 5)


def test_qk_weight_zero_and_trivial_pair():
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    assert qk_series(0, pair, 10) == -1
    triv = TorsionPair(Fraction(1), Fraction(1))
    with pytest.raises(UndefinedAtTrivialPair):
        qk_series(1, triv, 10)
    # for k >= 2 the singular boundary term has zero weight
    assert qk_series(2, triv, 10) == eisenstein(2, 10)
    assert qk_series(3, triv, 10).is_zero()


def test_qk_matches_divisor_oracle():
    for k in (3, 4, 5):
        for pair in (
            TorsionPair(Fraction(1, 2), Fraction(1, 3)),
            TorsionPair(Fraction(2, 3), Fraction(1, 4)),
            TorsionPair(Fraction(1), Fraction(1, 2)),
        ):
            trunc = Fraction(20, pair.M)
            assert (
                qk_series(k, pair, trunc)
                - qk_series_divisor_oracle(k, pair, trunc)
            ).is_zero()


def test_qk_well_defined_modulo_one():
    a = qk_series(2, TorsionPair(Fraction(1, 4), Fraction(2, 3)), 5)
    b = qk_series(2, TorsionPair(Fraction(5, 4), Fraction(5, 3)), 5)
    assert (a - b).is_zero()


def test_del_k_output_is_weight_six_modular():
    from orbiform.modular import S

    e4 = eisenstein(4, 200)
    d = del_k(e4, 4)
    for tau in (1j, 0.3 + 1.4j):
        j = S.automorphy(tau)
        lhs, _ = eval_at_tau(d, S.apply(tau))
        rhs, _ = eval_at_tau(d, tau)
        assert abs(lhs - j**6 * rhs) < 1e-8


def test_pk_eval_against_double_sum_oracle():
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    z, tau = 0.1 + 0.3j, 1.2j
    for k in (1, 2, 3):
        v, tail = pk_eval(k, pair, z, tau, 300)
        w = pk_double_sum_oracle(k, pair, z, tau, 300)
        assert abs(v - w) < 1e-10
        assert tail < 1e-10


def test_pk_eval_region_checks():
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(OutsideRegion):
        pk_eval(1, pair, 0.1 + 3j, 1j)
    # a cutoff below 1 would double toward a tolerance forever
    for cutoff in (0, -3):
        with pytest.raises(ValueError):
            pk_eval(1, pair, 0.1 + 0.3j, 1.2j, cutoff)


def test_wp1_periodicity():
    tau = 1.3j
    z = 0.21 - 0.3j
    g2 = g2_eval(tau)
    assert abs(wp1_eval(z + 1, tau) - wp1_eval(z, tau) - g2) < 1e-10


def test_plambda_lemma():
    r = lemma_plambda_check(0.3 + 0.2j, 1.1j, Fraction(1, 3))
    assert r.passed and r.error < 1e-10


def test_klein_hecke_vs_twisted_series():
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    for rep in prop46_exact_checks(pair, 25):
        assert rep.passed, rep.check
    g, h = klein_hecke_series(pair, 25)
    assert g.normalized().lead == bernoulli_poly(2)(Fraction(1, 2)) / 2


def test_zhu_coeff_against_binomial_oracle():
    for p in range(1, 6):
        for i in range(8):
            for m in range(i + 1):
                assert zhu_coeff(p, i, m) == zhu_coeff_binomial_oracle(p, i, m)
    assert zhu_coeff(1, 0, 0) == 1
    assert zhu_coeff(3, 2, 1) == Fraction(3, 2)


def test_prop44_small_cutoff():
    r = prop44_check(2, 1, 2, cutoff=20000, tol=1e-6)
    assert r.passed


def test_pbar_coefficients_are_weighted_reciprocals():
    # P_n (1 - lam q^n) = n^(k-1)/(k-1)! for n > 0, n < 0 and, at j/M = 1, n = 0
    trunc = 6
    for pair in (
        TorsionPair(Fraction(1), Fraction(1, 3)),
        TorsionPair(Fraction(1, 2), Fraction(1, 2)),
        TorsionPair(Fraction(2, 3), Fraction(1, 4)),
        TorsionPair(Fraction(1, 5), Fraction(2, 5)),
    ):
        t = pair.M
        lam = pair.lam
        seen = set()
        for k in (1, 2, 3):
            pbar = pbar_series(k, pair, (-4, 4), trunc)
            for off in range(-4, 5):
                n = pair.j_over_M + off
                w = n ** (k - 1) / math.factorial(k - 1)  # 0^0 = 1
                if not w:
                    continue
                if n:
                    binom = Puiseux.from_terms([(0, 1), (n, -lam)], trunc, t)
                else:
                    binom = Puiseux.constant(1 - lam, trunc, t)
                got = (pbar.coeff_at_w(n) * binom).scalar_mul(1 / w)
                assert got == 1, (pair, k, n)
                seen.add((n > 0) - (n < 0))
        assert seen == ({-1, 0, 1} if pair.j_over_M == 1 else {-1, 1})


def test_prop48_single_cases():
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 2))
    for k in (0, 1, 2):
        for m in (-1, 0, 2):
            rep = prop48_check(k, m, pair, 8)
            assert rep.passed, (k, m)
