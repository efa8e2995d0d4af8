"""Tests for Bernoulli polynomials, Eisenstein and twisted series, and the
numeric evaluators."""

import cmath
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiform import forms
from orbiform.cyclotomic import CycQ, cyc_root_of, lcm
from orbiform.errors import (
    BadWeight,
    NearPole,
    NotConvergent,
    OrbiformError,
    OutsideRegion,
    TruncationTooSmall,
    UndefinedAtLatticePoint,
    UndefinedAtTrivialPair,
)
from orbiform.forms import (
    BernoulliPoly,
    _add_qk,
    _eisenstein_embedded,
    _qk_constant,
    _qk_embedded,
    _qk_slots,
    _reduce_rows,
    _residue_rows,
    bernoulli_identities_check,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_value,
    eisenstein,
    g2_eval,
    klein_hecke_series,
    lemma_plambda_check,
    pbar_series,
    pk_double_sum_oracle,
    pk_eval,
    prop44_check,
    prop46_exact_checks,
    prop48_check,
    qk_series,
    qk_series_divisor_oracle,
    wp1_eval,
    zhu_coeff,
)
from orbiform.modular import TorsionPair
from orbiform.series import (Embedded, Puiseux, _int_convolve, _nterms, eval_at_tau,
                             product_expand, theta)


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


# a negative index returned 0 (k = -2), or died with ZeroDivisionError (k = -1) or
# "factorial() not defined for negative values" (P-bar), naming no argument
@pytest.mark.parametrize("k", [-2, -1])
def test_bernoulli_number_refuses_a_negative_degree(k):
    with pytest.raises(BadWeight, match=f"degree must be at least 0, got {k}"):
        bernoulli_number(k)


def _fraction_horner(poly, x):
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc


_points = st.one_of(st.just(0), st.integers(-40, 40), st.fractions(max_denominator=60),
                    st.fractions(max_value=0, max_denominator=60))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 16), _points)
@example(4, Fraction(3, 4))
@example(16, Fraction(-7, 3))
@example(0, 5)
def test_bernoulli_values_match_fraction_horner(k, x):
    got = bernoulli_poly(k)(x)
    assert type(got) is Fraction and got == _fraction_horner(bernoulli_poly(k), Fraction(x))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=30), max_size=8), _points)
def test_any_polynomial_is_evaluated_as_by_fraction_horner(coeffs, x):
    poly = BernoulliPoly(max(len(coeffs) - 1, 0), coeffs)
    assert poly(x) == _fraction_horner(poly, Fraction(x))


def test_bernoulli_poly_equality_and_repr():
    b2 = bernoulli_poly(2)
    assert b2 == BernoulliPoly(2, ["1/6", -1, 1])
    assert b2 != bernoulli_poly(3) and b2 != [Fraction(1, 6), -1, 1]
    assert repr(b2) == "BernoulliPoly(2, ['1/6', '-1', '1'])"
    # every caller shares bernoulli_poly(k), and its values are read from ints made once
    with pytest.raises(TypeError):
        b2.coefficients[0] = Fraction(1)


def test_pbar_series_refuses_a_negative_weight():
    with pytest.raises(BadWeight, match="weight must be at least 0, got -1"):
        pbar_series(-1, TorsionPair(Fraction(1, 2), Fraction(1, 3)), (0, 1), 2)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.fractions(min_value=0, max_value=1, max_denominator=5),
    st.integers(min_value=1, max_value=8),
)
def test_bernoulli_identities_property(k, x, n):
    assert bernoulli_identities_check(k, x, n)


def test_exact_checks_refuse_a_window_with_no_slot():
    # each passed over nothing: an empty power sum, an empty residue window
    for n in (0, -2):
        with pytest.raises(ValueError, match=f"needs n >= 1, got {n}"):
            bernoulli_identities_check(3, Fraction(1, 3), n)
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    for k, trunc in ((2, 0), (2, -3), (0, 0), (1, Fraction(-1, 2))):
        with pytest.raises(TruncationTooSmall, match="needs trunc > 0"):
            prop48_check(k, 1, pair, trunc)
    for trunc in (0, -1, Fraction(-1, 2)):
        with pytest.raises(TruncationTooSmall, match="need trunc > 0"):
            prop46_exact_checks(pair, trunc)
    # the least positive truncations still hold
    assert prop48_check(2, 1, pair, Fraction(1, 2)).passed
    assert all(rep.passed for rep in prop46_exact_checks(pair, Fraction(1, 2)))


def test_eisenstein_normalization_and_divisors():
    e4 = eisenstein(4, 10)
    # constant -B_4/4! = 1/720; q-coefficient 2 sigma_3(n)/3!
    assert e4.coeff_at(0) == Fraction(1, 720)
    assert e4.coeff_at(1) == Fraction(2, 6)
    assert e4.coeff_at(2) == Fraction(2 * 9, 6)
    e6 = eisenstein(6, 5)
    assert e6.coeff_at(0) == Fraction(-1, 30240)
    for k in (3, 7, 0):
        with pytest.raises(BadWeight):
            eisenstein(k, 5)


def _sigma(power: int, m: int) -> int:
    """sigma_power(m) by trial division over d <= m."""
    return sum(d**power for d in range(1, m + 1) if m % d == 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 10, 12]), st.integers(0, 300))
@example(12, 300)
@example(2, 2)
def test_eisenstein_slots_are_divisor_sums_by_trial_division(k, n):
    # slot m >= 1 of E_k is 2 sigma_(k-1)(m)/(k-1)!, whatever sieve adds it
    e = eisenstein(k, n)
    assert e.trunc == n
    for m in range(1, n):
        assert e.coeff_at(m) == Fraction(2 * _sigma(k - 1, m), math.factorial(k - 1))


def test_qk_at_the_trivial_pair_is_the_eisenstein_series():
    # two builders that share only the sieve: E_k adds one one-column family over
    # k! den(B_k), Q_k its two geometric families plus -B_k(1)/k!; at 300 slots
    # both sides of the hyperbola split run
    triv = TorsionPair(Fraction(1), Fraction(1))
    for k in range(2, 13, 2):
        assert eisenstein(k, 300) == qk_series(k, triv, 300), k
    for k in range(3, 12, 2):
        assert qk_series(k, triv, 300).is_zero(), k


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


def test_qk_matches_divisor_oracle_at_conductors_5_and_7():
    # conductors with 2 phi(N) - 2 >= N, where a product reads a reduction
    # row of index >= N; the oracle sieves each admissible divisor from d = 1
    for pair in (
        TorsionPair(Fraction(1, 5), Fraction(1, 7)),
        TorsionPair(Fraction(2, 7), Fraction(3, 5)),
        TorsionPair(Fraction(1, 7), Fraction(1)),
    ):
        for k in (3, 4, 5):
            trunc = Fraction(40, pair.M)
            assert qk_series(k, pair, trunc) == qk_series_divisor_oracle(k, pair, trunc)


# -- per-term reference: one root of unity per geometric term -------------------

def _geometric_terms(slots, t, x, s, weight):
    """weight * sum_(m>=1) e^(2 pi i m s) q^(m x) as (root exponent, weight) terms."""
    step = int(x * t)
    for m, idx in enumerate(range(step, len(slots), step), 1):
        slots[idx].append((m * s % 1, weight))


def _reference_qk(k, pair, slots):
    a1, s, t = pair.j_over_M, pair.l_over_N, pair.M
    km1fact = Fraction(1, math.factorial(k - 1))
    const = CycQ.from_rational(-bernoulli_poly(k)(a1) / math.factorial(k))
    for n in range(len(slots)):
        _geometric_terms(slots, t, n + a1, s, km1fact * (n + a1) ** (k - 1))
        x = n + 1 - a1
        if x > 0:
            _geometric_terms(slots, t, x, -s, (-1) ** k * km1fact * x ** (k - 1))
        elif k == 1:
            lam_inv = cyc_root_of(-s)
            const = const - lam_inv / (1 - lam_inv)
    return const


def _reference_pbar(k, pair, n, slots):
    w = n ** (k - 1) / math.factorial(k - 1)
    s = pair.l_over_N
    if n > 0:
        _geometric_terms(slots, pair.M, n, s, w)
        return CycQ.from_rational(w)
    if n < 0:
        _geometric_terms(slots, pair.M, -n, -s, -w)
        return CycQ.zero
    return CycQ.zero if pair.is_trivial() or not w else (1 - pair.lam).inverse() * w


def _reference_hecke(pair, slots):
    a1, s, t = pair.j_over_M, pair.l_over_N, pair.M
    const = CycQ.from_rational(a1 - Fraction(1, 2))
    for m in range(len(slots)):
        _geometric_terms(slots, t, m + a1, s, -1)
        if m + 1 - a1 > 0:
            _geometric_terms(slots, t, m + 1 - a1, -s, 1)
        else:
            lam_inv = cyc_root_of(-s)
            const = const + lam_inv / (1 - lam_inv)
    return const


def _assert_matches_reference(series, const, slots, unit_weights=False):
    assert series.coeffs[0] == const
    for idx in range(1, len(slots)):
        got = series.coeffs[idx]
        assert got == sum((cyc_root_of(x) * w for x, w in slots[idx]), CycQ.zero), idx
        if got.is_zero():
            continue
        per_term = math.lcm(*(x.denominator for x, _ in slots[idx]))
        totals = {}
        for x, w in slots[idx]:
            totals[x] = totals.get(x, 0) + w
        surviving = math.lcm(*(x.denominator for x, w in totals.items() if w))
        # one CycQ per term lifted the sum to the lcm of the terms' roots; a
        # row reduces at the roots whose coefficients survive.  Those differ
        # only where unit weights cancel a root (Q_1 and h)
        assert got.conductor == surviving, idx
        if unit_weights:
            assert per_term % got.conductor == 0, idx
        else:
            assert got.conductor == per_term, idx


@settings(max_examples=12, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    st.integers(12, 40),
)
@example(5, 1, 7, 1, 40)
@example(9, 2, 11, 3, 40)
@example(11, 4, 9, 2, 40)
@example(7, 3, 5, 2, 40)
@example(9, 7, 4, 1, 72)  # Q_1, h: the roots of slot 70 cancel down to conductor 2
def test_builders_match_the_per_term_reference(m, j, n, l, nslots):
    pair = TorsionPair(Fraction(j, m), Fraction(l, n))
    trunc = Fraction(nslots, pair.M)
    for k in range(1, 6):
        if k == 1 and pair.is_trivial():
            continue
        slots = [[] for _ in range(nslots)]
        const = _reference_qk(k, pair, slots)
        _assert_matches_reference(qk_series(k, pair, trunc), const, slots, k == 1)
    for k in (1, 2, 3, 4):
        pbar = pbar_series(k, pair, (-3, 3), trunc)
        for off in range(-3, 4):
            n_w = pair.j_over_M + off
            slots = [[] for _ in range(nslots)]
            const = _reference_pbar(k, pair, n_w, slots)
            _assert_matches_reference(pbar.coeff_at_w(n_w), const, slots)
    if not pair.is_trivial():
        slots = [[] for _ in range(nslots)]
        const = _reference_hecke(pair, slots)
        _, h = klein_hecke_series(pair, trunc)
        _assert_matches_reference(h, const, slots, unit_weights=True)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 6), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    st.integers(1, 12), st.integers(-2, 50),
)
@example(0, 3, 1, 5, 2, 10)
@example(1, 1, 1, 3, 1, 30)  # j/M = 1: the constant carries the boundary term
@example(4, 7, 3, 7, 2, 40)
@example(3, 12, 5, 12, 7, 40)
@example(200, 3, 1, 4, 1, 6)  # entries past the float range before their division
def test_qk_embedded_matches_the_exact_path(k, m, j, n, l, nslots):
    j, l = min(j, m), min(l, n)
    pair = TorsionPair(Fraction(j, m), Fraction(l, n))
    assume(not (k == 1 and pair.is_trivial()))
    trunc = Fraction(nslots, pair.M)
    got, want = _qk_embedded(k, pair, trunc), Embedded(qk_series(k, pair, trunc))
    assert (got.T, got.leads, got.truncs) == (want.T, want.leads, want.truncs)
    assert got.coeffs.shape == want.coeffs.shape
    if k:
        denom = math.factorial(k - 1) * pair.M ** (k - 1)
        cols = [[0] * got.coeffs.shape[1] for _ in range(pair.l_over_N.denominator)]
        _add_qk(cols, k, pair)
        sizes = [sum(map(abs, slot)) / denom for slot in zip(*cols)]
        const = _qk_constant(k, pair)
        n_const, n_rows = const.conductor, pair.l_over_N.denominator
    else:
        sizes, const, n_const, n_rows = [0.0] * got.coeffs.shape[1], CycQ.one, 1, 1
    if sizes:
        sizes[0] = sum(map(abs, const.nums)) / const.den
    eps = sys.float_info.epsilon
    tols = [4 * (n_const if i == 0 else n_rows) * eps * size for i, size in enumerate(sizes)]
    for i, tol in enumerate(tols):
        assert abs(got.coeffs[0, i] - want.coeffs[0, i]) <= tol, i
    assert abs(got.maxabs[0] - want.maxabs[0]) <= max(tols, default=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    st.integers(1, 12), st.integers(0, 40), st.integers(0, 45), st.sampled_from([1, -1]),
)
@example(3, 12, 5, 12, 7, 40, 9, -1)  # prop48_check's start and sign
@example(2, 1, 1, 4, 1, 10, 12, 1)  # start past the window's end
def test_add_qk_adds_sign_times_the_qk_window_at_start(k, m, j, n, l, nslots, start, sign):
    j, l = min(j, m), min(l, n)
    pair = TorsionPair(Fraction(j, m), Fraction(l, n))
    assume(not (k == 1 and pair.is_trivial()))
    cols = [[0] * nslots for _ in range(pair.l_over_N.denominator)]
    _add_qk(cols, k, pair, start, sign)
    _, _, fresh, _ = _qk_slots(k, pair, Fraction(max(0, nslots - start), pair.M))
    assert cols == [[0] * min(start, nslots) + [sign * x for x in col] for col in fresh]


def _naive_family(cols, s0, t, weights, l, n, start):
    """The per-term loop: every (step, m) term added into its slot on its own."""
    for i, w in enumerate(weights):
        step = s0 + i * t
        for m, idx in enumerate(range(start + step, len(cols[0]), step), 1):
            cols[m * l % n][idx] += w


@st.composite
def _families(draw):
    """(window, s0, t, weights, l, n, start): a window of 0-300 slots of Z[C_n], n <= 24,
    filled with small ints, and a family of 0-40 weights (zeros and negatives among them)
    whose l may be negative or 0 mod n and whose start may lie past the window's end."""
    n, size, seed = draw(st.integers(1, 24)), draw(st.integers(0, 300)), draw(st.integers(0, 6))
    window = [[(seed + 3 * e + 5 * i) % 7 - 3 for i in range(size)] for e in range(n)]
    weights = draw(st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)), max_size=40))
    l = draw(st.one_of(st.integers(-50, 50), st.integers(-3, 3).map(lambda c: c * n)))
    return (window, draw(st.integers(1, 40)), draw(st.integers(1, 12)), weights, l, n,
            draw(st.integers(0, 320)))


@settings(max_examples=300, deadline=None)
@given(_families())
@example(([[0] * 3000 for _ in range(5)], 1, 1, [1] * 3000, 1, 5, 0))  # qk 2 1 1/5, trunc 3000
@example(([[0] * 40], 1, 1, [7], 0, 1, 0))  # one step at t = 1, p = 1
@example(([[0] * 200], 1, 1, [1, 2, 3, 4, 5], 1, 1, 0))  # each m's slice stops at the 5th step
@example(([[0] * 300 for _ in range(12)], 2, 5, [3], -7, 12, 5))  # one step, negative l
@example(([[0] * 300 for _ in range(24)], 1, 1, [-1, 0, 2] * 13, 24, 24, 1))  # p = 1
@example(([[0] * 9 for _ in range(3)], 1, 1, [1, 2, 3], 1, 3, 9))  # start at the window's end
@example(([[] for _ in range(4)], 1, 1, [1, 2], 1, 4, 0))  # a window of no slot
def test_add_family_adds_what_the_per_term_loop_adds(family):
    window, s0, t, weights, l, n, start = family
    got, want = [list(col) for col in window], [list(col) for col in window]
    forms._add_family(got, s0, t, weights, l, n, start)
    _naive_family(want, s0, t, weights, l, n, start)
    assert got == want


@st.composite
def _dense_windows(draw):
    """(rows, N): up to 60 rows of Z[C_N], N <= 24, with zero rows and rows whose
    value cancels (c times 1 + zeta + ... + zeta^(N-1), or c (zeta^e + zeta^(e + N/2))),
    so that a group of rows of one support gcd may hold one row, two or many."""
    n = draw(st.integers(1, 24))
    cancelling = [st.integers(-3, 3).map(lambda c: [c] * n)]
    if n % 2 == 0:
        cancelling.append(st.tuples(st.integers(-3, 3), st.integers(0, n // 2 - 1)).map(
            lambda ce: [ce[0] if e % (n // 2) == ce[1] else 0 for e in range(n)]))
    row = st.one_of(st.just([0] * n), st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    *cancelling)
    return draw(st.lists(row, max_size=60)), n


def _key(c):
    return (c.conductor, c.den, c.nums)


@settings(max_examples=120, deadline=None)
@given(
    _dense_windows(), st.integers(1, 720),
    st.one_of(st.just(CycQ.zero), st.fractions(max_denominator=30).map(CycQ.from_rational),
              st.tuples(st.integers(0, 11), st.integers(1, 12)).map(
                  lambda en: cyc_root_of(Fraction(*en)))),
    st.integers(0, 33),
)
@example(([[1, 1]], 2), 1, CycQ.one, 0)  # 1 + zeta_2 = 0, plus 1 at slot 0
@example(([[0, 0, 0]] * 3, 3), 6, cyc_root_of(Fraction(1, 3)), 2)  # const alone in a zero slot
@example(([[2]], 1), 4, CycQ.from_rational(Fraction(-1, 2)), 0)  # a slot that sums to zero
@example(([[1, 0]], 2), 1, CycQ.one, 1)  # at past the window's end
# 40 rows at N = 24 with several support gcds, as Q_k's and the oracle's windows have
@example(([[(i * e) % 5 - 2 if e % (i % 8 + 1) == 0 else 0 for e in range(24)] for i in range(40)],
          24), 6, CycQ.one, 3)
def test_reduce_rows_adds_const_at_its_slot(window, denom, const, at):
    rows, n = window
    got = _reduce_rows([[row[e] for row in rows] for e in range(n)], denom, const, at)
    assert len(got) == len(rows)
    for idx, row in enumerate(rows):
        # the plain reduction: each surviving zeta_N^e term lifted and summed
        want = sum((cyc_root_of(Fraction(e, n)) * Fraction(c, denom)
                    for e, c in enumerate(row) if c), CycQ.zero)
        if idx == at:
            want = want + const
        assert _key(got[idx]) == _key(want), idx


def test_qk_embedded_raises_as_qk_series_does():
    pair, triv = TorsionPair(Fraction(1, 2), Fraction(1, 3)), TorsionPair(Fraction(1), Fraction(1))
    for k, p, trunc, error in ((-1, pair, 5, ValueError), (1, triv, 5, UndefinedAtTrivialPair),
                               (1, triv, 0, UndefinedAtTrivialPair), (2, pair, 2.5, TypeError)):
        for build in (qk_series, _qk_embedded):
            with pytest.raises(error):
                build(k, p, trunc)


@pytest.mark.parametrize("trunc", [0, 1, Fraction(7, 2), 200])
def test_e4_embeds_from_its_int_row_to_the_same_floats(trunc):
    got, want = _eisenstein_embedded(4, trunc), Embedded(eisenstein(4, trunc))
    assert (got.T, got.leads, got.truncs) == (want.T, want.leads, want.truncs)
    assert (got.coeffs.tolist(), got.maxabs) == (want.coeffs.tolist(), want.maxabs)
    with pytest.raises(BadWeight):
        _eisenstein_embedded(3, trunc)


def test_qk_well_defined_modulo_one():
    a = qk_series(2, TorsionPair(Fraction(1, 4), Fraction(2, 3)), 5)
    b = qk_series(2, TorsionPair(Fraction(5, 4), Fraction(5, 3)), 5)
    assert (a - b).is_zero()


def _del_k(f, k):
    """theta(f) + k E_2 f, the weight-raising derivative."""
    e2 = eisenstein(2, f.trunc - f.lead)
    return theta(f, "full") + (e2 * f).scalar_mul(Fraction(k))


def test_del_k_output_is_weight_six_modular():
    from orbiform.modular import S

    e4 = eisenstein(4, 200)
    d = _del_k(e4, 4)
    for tau in (1j, 0.3 + 1.4j):
        j = S.automorphy(tau)
        lhs, _ = eval_at_tau(d, S.apply(tau))
        rhs, _ = eval_at_tau(d, tau)
        assert abs(lhs - j**6 * rhs) < 1e-8


def test_pk_eval_against_double_sum_oracle():
    z, tau = 0.1 + 0.3j, 1.2j
    # j/M = 1 puts an n = 0 term in the sum: 1/(1 - lam) for k = 1, none for k = 2,
    # and none at the trivial pair
    for pair, ks in ((TorsionPair(Fraction(1, 2), Fraction(1, 3)), (1, 2, 3)),
                     (TorsionPair(Fraction(1), Fraction(1, 3)), (1, 2)),
                     (TorsionPair(Fraction(1), Fraction(1)), (1, 2))):
        for k in ks:
            v, tail = pk_eval(k, pair, z, tau, 300)
            w = pk_double_sum_oracle(k, pair, z, tau, 300)
            assert abs(v - w) < 1e-10
            assert tail < 1e-10
            # near the annulus edge cutoff 10 leaves a tail bound of 1e-6 to 1e-3, so
            # the cutoff doubles until the bound meets tol
            v, tail = pk_eval(k, pair, 0.1 + 0.1j, 0.3j, 10, tol=1e-12)
            w = pk_double_sum_oracle(k, pair, 0.1 + 0.1j, 0.3j, 300)
            assert tail <= 1e-12 and abs(v - w) < 1e-10


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([(1, 2), (1, 3), (2, 3), (3, 4), (1, 1)]),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=-0.99, max_value=0.99),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=0.3, max_value=2.0),
    st.sampled_from([None, 1e-10]),
)
@example(1, (2, 3), 0.1, -0.3 / 1.2, 0.0, 1.2, None)  # overflows at n = 377
def test_pk_eval_returns_a_finite_value_or_raises(k, dens, x, frac, re_tau, im_tau, tol):
    # z anywhere in the annulus -Im tau < Im z < Im tau that the docstring allows
    pair = TorsionPair(Fraction(1, dens[0]), Fraction(1, dens[1]))
    tau = complex(re_tau, im_tau)
    try:
        value, tail = pk_eval(k, pair, complex(x, frac * im_tau), tau, tol=tol)
    except (OverflowError, OrbiformError):
        return
    assert cmath.isfinite(value) and math.isfinite(tail)


def test_pk_eval_tail_past_the_float_range_is_inf():
    # near the annulus edge at k = 200, 2 (c+1)^(k-1) r^(c+1) / ((1-r)^k (k-1)!) passes
    # 1e308: the bound is inf, and a tol doubles the cutoff until it is finite again
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    assert pk_eval(200, pair, 0.1 + 1.19j, 1.2j)[1] == math.inf
    assert pk_eval(200, pair, 0.1 + 1.19j, 1.2j, tol=1e-8)[1] <= 1e-8


def test_pk_eval_overflow_is_an_overflow_error():
    with pytest.raises(OverflowError):
        pk_eval(1, TorsionPair(Fraction(1, 2), Fraction(1, 3)), 0.1 - 0.3j, 1.2j)


@pytest.mark.parametrize("trunc", [0, 1, 2, 200, Fraction(7, 2)])
def test_g2_eval_matches_the_eisenstein_series(trunc):
    e2 = eisenstein(2, trunc)
    for tau in (1j, 0.5 + 1j, 0.3 + 1.7j, -0.41 + 0.2j, 0.1 + 3j):
        want = (2j * cmath.pi) ** 2 * eval_at_tau(e2, tau).value
        assert abs(g2_eval(tau, trunc) - want) <= 1e-12 * abs(want)


def test_g2_and_wp1_errors():
    for tau in (0.3, 0.2 - 1j):
        with pytest.raises(NotConvergent):
            g2_eval(tau)
        with pytest.raises(NotConvergent):  # a bare ValueError before
            wp1_eval(0.21 - 0.4j, tau)
    tau = 0.1 + 1.1j
    with pytest.raises(NearPole, match="n=3"):
        wp1_eval(3 * tau, tau)


def test_wp1_eval_reads_trunc_as_an_int():
    # a Fraction trunc reached numpy's arange and died in a ufunc loop
    for trunc in (Fraction(401, 2), Fraction(200), "200", 200.0):
        with pytest.raises(TypeError, match="trunc must be an int"):
            wp1_eval(0.21 - 0.4j, 1.1j, trunc)


def _wp1_term_loop(z, tau, trunc):
    """wp1_eval's lattice sum one cmath term at a time."""
    qz, qt = cmath.exp(2j * cmath.pi * z), cmath.exp(2j * cmath.pi * tau)
    acc = sum((qt**n / qz) / (1 - qt**n / qz) - (qz * qt**n) / (1 - qz * qt**n)
              for n in range(1, trunc + 1))
    return g2_eval(tau, trunc) * z + 1j * cmath.pi * (qz + 1) / (qz - 1) + 2j * cmath.pi * acc


def test_wp1_eval_matches_the_term_loop():
    for z, tau, trunc in ((0.21 - 0.4j, 1j, 400), (0.3 + 0.2j, 0.4 + 0.7j, 200), (0.1j, 0.3j, 50)):
        want = _wp1_term_loop(z, tau, trunc)
        assert abs(wp1_eval(z, tau, trunc) - want) <= 1e-12 * abs(want)


def test_plambda_lemma():
    for l_over_N in (Fraction(1, 3), Fraction(1)):  # lam = 1 has no n = 0 term to drop
        r = lemma_plambda_check(0.3 + 0.2j, 1.1j, l_over_N)
        assert r.passed and r.error < 1e-10
    # P_lambda's series needs |q_tau| < |q_z| < 1, and q_z away from 1
    for z in (0.3 - 0.2j, 0.3 + 0j, 0.3 + 1.2j):
        with pytest.raises(OutsideRegion, match=r"\|q_z\| < 1$"):
            lemma_plambda_check(z, 1.1j, Fraction(1, 3))
    with pytest.raises(NearPole):
        lemma_plambda_check(1e-14j, 1.1j, Fraction(1, 3))


def test_klein_hecke_vs_twisted_series():
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    for rep in prop46_exact_checks(pair, 25):
        assert rep.passed, rep.check
    g, h = klein_hecke_series(pair, 25)
    assert g.normalized().lead == bernoulli_poly(2)(Fraction(1, 2)) / 2


def _prop46_by_division(pair, trunc):
    """The Hecke and Klein identities as h == -Q_1 and theta(g) g^-1 == -Q_2,
    through the module's builders, so a planted fault reaches both forms."""
    g, h = forms.klein_hecke_series(pair, trunc)
    return [h == -forms.qk_series(1, pair, trunc),
            theta(g, "full") * g.inverse() == -forms.qk_series(2, pair, trunc)]


_SMALL_PAIRS = sorted({TorsionPair(Fraction(j, m), Fraction(l, n))
                       for m in range(1, 7) for j in range(1, m + 1)
                       for n in range(1, 5) for l in range(1, n + 1)} - {TorsionPair(1, 1)},
                      key=lambda p: (p.j_over_M, p.l_over_N))


@pytest.mark.parametrize("trunc", [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 3)])
def test_prop46_sums_agree_with_the_division_form(trunc):
    for pair in _SMALL_PAIRS:
        got = [rep.passed for rep in prop46_exact_checks(pair, trunc)]
        assert got == _prop46_by_division(pair, trunc) == [True, True], (pair, trunc)


def test_prop46_reports_over_the_small_pairs_are_pinned():
    # the to_json of every report over the 71 pairs and four truncations: the
    # branching the Klein form is built at reaches no byte of them
    reports = [rep.to_json() for trunc in (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 3))
               for pair in _SMALL_PAIRS for rep in prop46_exact_checks(pair, trunc)]
    assert len(_SMALL_PAIRS) == 71 and all(rep["pass"] for rep in reports)
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == \
        "a49571b5d85ce27e4d1caa5f617f91a093723cb2d523cbd037ea322df98323f2"


def _plus_unit_at(s, slot):
    return s + Puiseux.monomial(1, s.lead + Fraction(slot, s.T), s.trunc, s.T)


@pytest.mark.parametrize("a,b", [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(2, 3)),
                                 (Fraction(1), Fraction(1, 4)), (Fraction(5, 6), Fraction(1))])
def test_prop46_rejects_one_planted_unit(monkeypatch, a, b):
    pair, trunc = TorsionPair(a, b), 3
    assert [rep.passed for rep in prop46_exact_checks(pair, trunc)] == [True, True]
    qk, kh = forms.qk_series, forms.klein_hecke_series

    def planted_qk(k, p, tr):
        s = qk(k, p, tr)
        return _plus_unit_at(s, 1) if k == 2 else s

    # a unit in Q_2's second slot breaks the Klein identity alone
    monkeypatch.setattr(forms, "qk_series", planted_qk)
    reports = prop46_exact_checks(pair, trunc)
    assert [(rep.passed, rep.error) for rep in reports] == [
        (True, "exact"), (False, "coefficient mismatch")]
    assert _prop46_by_division(pair, trunc) == [True, False]
    monkeypatch.setattr(forms, "qk_series", qk)
    # a unit in one slot of h breaks the Hecke identity alone
    for slot in (0, 2, 3 * pair.M - 1):
        def planted_kh(p, tr):
            g, h = kh(p, tr)
            return g, _plus_unit_at(h, slot)

        monkeypatch.setattr(forms, "klein_hecke_series", planted_kh)
        reports = prop46_exact_checks(pair, trunc)
        assert [(rep.passed, rep.error) for rep in reports] == [
            (False, "coefficient mismatch"), (True, "exact")], slot
        assert _prop46_by_division(pair, trunc) == [False, True]


def _assert_made_as_checked(s: Puiseux):
    """What Puiseux(...) would check and coerce, on a series built by the
    unchecked Puiseux._make: Fraction lead and trunc, one slot per exponent
    below trunc, and every slot a CycQ with Fraction coordinates."""
    assert type(s.lead) is Fraction and type(s.trunc) is Fraction
    assert len(s.coeffs) == _nterms(s.lead, s.trunc, s.T)
    for c in s.coeffs:
        assert type(c) is CycQ
        assert all(type(x) is Fraction for x in c.coeffs)


@pytest.mark.parametrize("trunc", [Fraction(0), Fraction(1, 2), Fraction(7), Fraction(19, 3)])
@pytest.mark.parametrize("a,b", [(Fraction(1, 2), Fraction(1, 3)),
                                 (Fraction(3, 4), Fraction(0)),
                                 (Fraction(0), Fraction(2, 5))])
def test_builders_keep_the_unchecked_constructor_contract(a, b, trunc):
    pair = TorsionPair(a, b)
    for s in (eisenstein(4, trunc), eisenstein(2, trunc),
              product_expand([(1, 24)], trunc), product_expand([(1, -1), (2, 2)], trunc),
              qk_series(2, pair, trunc), qk_series(3, pair, trunc),
              *pbar_series(2, pair, (-2, 2), trunc).coeffs,
              *klein_hecke_series(pair, trunc)):
        _assert_made_as_checked(s)


def _reference_klein_g(pair, trunc):
    """g = -zeta^p q^lead prod (1 - root q^e), one Puiseux binomial at a time."""
    a1, a2 = pair.j_over_M, pair.l_over_N
    trunc = Fraction(trunc)
    t = a1.denominator
    lam, lam_inv = pair.lam, cyc_root_of(-a2)
    lead = bernoulli_poly(2)(a1) / 2
    g = Puiseux.monomial(-cyc_root_of(a2 * (a1 - 1) / 2), lead, lead + trunc,
                         lcm(t, lead.denominator))
    factors = [(a1, lam)] if a1 < trunc else []
    n = 1
    while n + a1 < trunc or n - a1 < trunc:
        if n + a1 < trunc:
            factors.append((n + a1, lam))
        if n - a1 < trunc:
            factors.append((n - a1, lam_inv))
        n += 1
    for e, root in factors:
        if e == 0:
            binom = Puiseux.constant(CycQ.one - root, trunc, t)
        else:
            binom = Puiseux.from_terms([(Fraction(0), CycQ.one), (e, -root)], trunc, t)
        g = g * binom
        g = g.truncated(min(g.trunc, lead + trunc))
    return g


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]),
)
@example(1, 1, 1, 1, Fraction(3))  # the lattice point (1, 1)
@example(1, 1, 3, 1, Fraction(3))  # a1 = 1: the constant factor 1 - lam^-1
@example(2, 1, 3, 1, Fraction(10))
@example(4, 1, 3, 2, Fraction(4))  # T = 96
@example(5, 2, 7, 3, Fraction(3))
def test_klein_g_matches_the_per_factor_product(m, j, n, l, trunc):
    pair = TorsionPair(Fraction(j, m), Fraction(l, n))
    if pair.is_trivial():
        with pytest.raises(UndefinedAtLatticePoint):
            klein_hecke_series(pair, trunc)
        return
    g, _ = klein_hecke_series(pair, trunc)
    assert g.T == pair.M
    want = _reference_klein_g(pair, trunc)
    g = g.with_branching(want.T)
    assert (g.T, g.lead, g.trunc) == (want.T, want.lead, want.trunc)
    assert g.coeffs == want.coeffs


def _klein_rows(pair, trunc):
    """The Klein form's window of rows of Z[C_n] by the row loop: row[x] is the coefficient
    of zeta_n^x, and each factor (1 - zeta_n^root q^(step/t)) is taken from the top slot down,
    the constant factor (step 0, a1 = 1) reading a copy of its own row."""
    a1, a2 = pair.j_over_M, pair.l_over_N
    t, j = a1.denominator, a1.numerator
    p = a2 * (a1 - 1) / 2
    n = lcm(a2.denominator, p.denominator)
    rows = [[0] * n for _ in range(max(0, math.ceil(trunc * t)))]
    if rows:
        rows[0][int(p * n) % n] = -1
    r = int(a2 * n)
    for first, root in ((j, r), (t - j, -r)):
        for step in range(first, len(rows), t):
            for idx in range(len(rows) - 1, step - 1, -1):
                src = rows[idx - step]
                for x, c in enumerate(list(src) if step == 0 else src):
                    if c:
                        rows[idx][(x + root) % n] -= c
    return rows, n


def test_klein_window_matches_the_row_loop(monkeypatch):
    # every pair with M, N <= 6: a1 = 1 takes the step-0 factor, a2 = 1 has root 0
    windows, reduce_rows = [], forms._reduce_rows

    def keep(cols, *args):
        windows.append([list(col) for col in cols])
        return reduce_rows(cols, *args)

    monkeypatch.setattr(forms, "_reduce_rows", keep)
    pairs = {TorsionPair(Fraction(j, m), Fraction(l, n))
             for m in range(1, 7) for j in range(1, m + 1) for n in range(1, 7) for l in range(1, n + 1)}
    for pair in pairs - {TorsionPair(Fraction(1), Fraction(1))}:
        for trunc in (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(7)):
            windows.clear()
            klein_hecke_series(pair, trunc)
            rows, n = _klein_rows(pair, trunc)
            assert windows[0] == [[row[e] for row in rows] for e in range(n)], (pair, trunc)


def zhu_log_power(p, i, m):
    """[z^i] (log(1+z))^m (1+z)^(p-1) / m!, the definition, on int rows over one
    denominator: log(1+z)^m by square-and-multiply, each product brought to lowest
    terms by one gcd, then one product by the binomial series of (1+z)^(p-1)."""
    def times(a, b):
        den, row = a[0] * b[0], _int_convolve(a[1], b[1], i + 1)
        g = math.gcd(den, *row)
        return den // g, [x // g for x in row]

    L = math.lcm(*range(1, i + 1))
    log1p = (L, [0] + [(L if n % 2 else -L) // n for n in range(1, i + 1)])
    power = (1, [1])
    for bit in bin(m)[2:]:  # from the top bit: square, then times log(1+z) at a 1
        power = times(power, power)
        if bit == "1":
            power = times(power, log1p)
    den, acc = power
    binom = [1]  # binom(p-1, n) is an integer for an integer p, so each step divides exactly
    for n in range(i):
        binom.append(binom[-1] * (p - 1 - n) // (n + 1))
    return Fraction(_int_convolve(acc, binom, i + 1)[i], den * math.factorial(m))


def test_zhu_coeff_against_log_power_definition():
    for p in range(1, 6):
        for i in range(8):
            for m in range(i + 1):
                assert zhu_coeff(p, i, m) == zhu_log_power(p, i, m)
    assert zhu_coeff(1, 0, 0) == 1
    assert zhu_coeff(3, 2, 1) == Fraction(3, 2)
    # (log(1+z))^m starts at z^m, so every z^i below it is 0
    for p, i, m in ((3, 2, 5), (-2, 0, 1), (1, 39, 40)):
        assert zhu_coeff(p, i, m) == 0 == zhu_log_power(p, i, m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=0, max_value=40).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(min_value=0, max_value=i))
    ),
)
@example(-30, (0, 0))  # one slot: log(1+z) is the zero row
@example(0, (40, 0))  # m = 0: the binomial row alone, p - 1 < 0
@example(-3, (4, 2))
@example(30, (40, 40))
@example(3, (200, 199))  # log(1+z)^199, at the CLI's largest i
def test_zhu_coeff_matches_log_power_at_any_p(p, im):
    i, m = im
    assert zhu_coeff(p, i, m) == zhu_log_power(p, i, m)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3), 0.5])
def test_zhu_coeff_takes_only_an_integer_p(p):
    with pytest.raises(TypeError):
        zhu_coeff(p, 3, 1)


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


def _reference_residue_rhs(k, m, pair, trunc):
    """The right side of the residue identity summed series by series: dense
    P-bar coefficients from pbar_series, the second sum shifted by q^n, both
    summed by Puiseux.sum, and the second scaled by lam."""
    a1 = pair.j_over_M
    depth = math.ceil(trunc) + abs(m) + 2
    pbar = pbar_series(k, pair, (-m - depth, 1 - m + depth), trunc + max(m, 0))
    first = Puiseux.sum(pbar.coeff_at_w(a1 + off) for off in range(-m - depth, 1 - m))
    second = Puiseux.sum(pbar.coeff_at_w(a1 + off).shifted(a1 + off)
                         for off in range(1 - m, 2 - m + depth))
    return first + second.scalar_mul(pair.lam)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
    st.integers(1, 5), st.integers(-1, 3),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3), Fraction(4)]),
)
@example(1, 1, 3, 1, 1, 0, Fraction(4))  # j/M = 1, k = 1: the n = 0 term in the first sum
@example(1, 1, 4, 1, 1, 2, Fraction(4))  # ... and in the second, times lam
@example(3, 2, 5, 2, 2, -1, Fraction(4))  # m = -1
@example(4, 1, 6, 5, 3, 3, Fraction(4))  # m = 3: negative shifts in the second sum
@example(5, 3, 5, 2, 4, 3, Fraction(2))  # conductor 5
def test_residue_rows_match_the_summed_pbar_series(m_den, j, n, l, k, m, trunc):
    pair = TorsionPair(Fraction(j, m_den), Fraction(l, n))
    cols, const, base = _residue_rows(k, m, pair, trunc)
    coeffs = _reduce_rows(cols, math.factorial(k - 1) * pair.M ** (k - 1), const, base)
    want = _reference_residue_rhs(k, m, pair, trunc)
    # prop48_check compares to min(lhs.trunc, rhs.trunc, trunc); lhs.trunc is trunc
    want = want.truncated(min(trunc, want.trunc))
    assert (want.T, want.lead) == (pair.M, Fraction(-base, pair.M))
    assert coeffs == want.coeffs


def _residue_window_per_term(k, m, pair, trunc):
    """The residue window as rows of Z[C_N] (row[e] the coefficient of zeta_N^e), built one
    P_n at a time and one (n, m) term at a time: (rows, const, base) as ``_residue_rows``
    gives them by column."""
    t, j = pair.M, pair.j_over_M.numerator
    l, n = pair.l_over_N.numerator, pair.l_over_N.denominator
    depth = math.ceil(trunc) + abs(m) + 2
    least = j + (1 - m) * t
    base = max(0, -least)
    end = min(trunc, trunc + max(m, 0) + Fraction(least, t))
    rows = [[0] * n for _ in range(max(0, math.ceil(end * t) + base))]

    def add_pbar(step, start, rot):
        # zeta_N^rot P_n, n = step/M, with q^0 at slot start
        w = step ** (k - 1)
        terms = [(step, l, w)] if step > 0 else [(-step, -l, -w)] if step < 0 else []
        for s, root, weight in terms:
            for mm, idx in enumerate(range(start + s, len(rows), s), 1):
                rows[idx][(mm * root + rot) % n] += weight
        if step > 0 and start < len(rows):
            rows[start][rot % n] += w
        if step == 0 and w and not pair.is_trivial():
            return (CycQ.one - pair.lam).inverse() * cyc_root_of(Fraction(rot, n))
        return CycQ.zero

    consts = [add_pbar(j + off * t, base, 0) for off in range(-m - depth, 1 - m)]
    consts += [add_pbar(step, base + step, l) for step in range(least, least + (depth + 1) * t, t)]
    return rows, sum(filter(None, consts), CycQ.zero), base


def test_residue_window_matches_the_per_term_window():
    # k <= 5, m in -2..3, M, N <= 4 and trunc 1, 3 or 10: 9,000 cases
    for m_den in range(1, 5):
        for j in range(1, m_den + 1):
            for n in range(1, 5):
                for l in range(1, n + 1):
                    pair = TorsionPair(Fraction(j, m_den), Fraction(l, n))
                    for k, m, trunc in itertools.product(range(1, 6), range(-2, 4), (1, 3, 10)):
                        cols, const, base = _residue_rows(k, m, pair, Fraction(trunc))
                        rows, want_const, want_base = _residue_window_per_term(k, m, pair, trunc)
                        assert cols == [[row[e] for row in rows] for e in range(pair.N)]
                        assert (_key(const), base) == (_key(want_const), want_base)


def _plant_in_pbar_term(monkeypatch):
    # one unit more in the window of the P-bar terms, at its q^0 slot
    residue_rows = forms._residue_rows

    def plant(k, m, pair, trunc):
        cols, const, base = residue_rows(k, m, pair, trunc)
        cols[0][base] += 1
        return cols, const, base

    monkeypatch.setattr(forms, "_residue_rows", plant)


def _plant_in_qk_rows(monkeypatch):
    add_qk = forms._add_qk

    def plant(cols, k, pair, start=0, sign=1):
        add_qk(cols, k, pair, start, sign)
        cols[0][-1] += 1

    monkeypatch.setattr(forms, "_add_qk", plant)


def _plant_in_constant(monkeypatch):
    qk_constant = forms._qk_constant
    monkeypatch.setattr(forms, "_qk_constant", lambda k, pair: qk_constant(k, pair) + 1)


@pytest.mark.parametrize("plant", [_plant_in_pbar_term, _plant_in_qk_rows, _plant_in_constant])
@pytest.mark.parametrize("k,m,a,b", [(1, 2, Fraction(1), Fraction(1, 3)),
                                     (2, -1, Fraction(2, 3), Fraction(1, 4)),
                                     (4, 3, Fraction(3, 4), Fraction(1, 2))])
def test_prop48_rejects_one_planted_unit(monkeypatch, plant, k, m, a, b):
    pair = TorsionPair(a, b)
    assert prop48_check(k, m, pair, 6).passed
    plant(monkeypatch)
    rep = prop48_check(k, m, pair, 6)
    assert (rep.passed, rep.error) == (False, "mismatch")
