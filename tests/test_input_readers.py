"""Tests for the readers of outside values and the input errors they guard.

Ints from a JSON file or an API call go through ``cyclotomic._index`` or
``cyclotomic._positive_int``, rationals through ``cyclotomic._exponent``: a
bool, float, Fraction or str is refused alike at every int site, a bool or
float at every rational site, and a numpy int is read as the int it holds.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from orbiform.cyclotomic import CycQ, _index, _positive_int, cyc_root
from orbiform.errors import NearPole, WindowTooSmall
from orbiform.forms import (
    BernoulliPoly,
    bernoulli_identities_check,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_value,
    eisenstein,
    pbar_series,
    pk_eval,
    prop44_check,
    prop48_check,
    qk_series,
    qk_series_divisor_oracle,
    wp1_eval,
    zhu_coeff,
    zhu_coeff_binomial_oracle,
)
from orbiform.frobenius import RegularSingularODE
from orbiform.modular import S, GammaMat, TorsionPair, reduce_cyclic_pair, slash_eval
from orbiform.moonshine import char_solve, delta_j_J, weight4_onepoint
from orbiform.series import BiSeries, LogQSeries, Puiseux, product_expand

PAIR = TorsionPair(Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize("v", [3, np.int64(3), np.uint8(3)])
def test_readers_return_a_python_int(v):
    for got in (_index("n", v), _positive_int("n", v)):
        assert got == 3 and type(got) is int


@pytest.mark.parametrize("v", [True, False, 3.0, Fraction(3), "3", None])
def test_readers_refuse_what_is_no_int(v):
    with pytest.raises(TypeError, match=f"n must be an int, not {type(v).__name__}"):
        _index("n", v)
    with pytest.raises(ValueError, match="n must be a positive integer, got "):
        _positive_int("n", v)


def test_positive_int_refuses_an_int_below_one():
    assert _index("n", -2) == -2
    for v in (0, -2, np.int64(0)):
        named = re.escape(repr(v))
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {named}"):
            _positive_int("n", v)


@pytest.mark.parametrize("call, exc, fragment", [
    # True == 1 was read as 1 (a scale, an exponent, a trunc, a p, an order, a modulus)
    (lambda: product_expand([(True, 24)], 4), ValueError, "product scale must be a positive"),
    (lambda: product_expand([(1, True)], 4), TypeError, "product exponent must be an int"),
    # 1.5 died inside range() without naming itself
    (lambda: product_expand([(1.5, 1)], 4), ValueError, "product scale must be a positive "
                                                        "integer, got 1.5"),
    (lambda: wp1_eval(0.21 - 0.4j, 1.1j, True), TypeError, "trunc must be an int, not bool"),
    (lambda: zhu_coeff(True, 2, 1), TypeError, "p must be an int, not bool"),
    (lambda: cyc_root(1, True), ValueError, "order must be a positive integer, got True"),
    (lambda: reduce_cyclic_pair(2, 3, True), ValueError,
     "modulus must be a positive integer, got True"),
    # True was read as 1, and 2.0 died without naming its argument or was read as 2
    (lambda: qk_series(True, PAIR, 3), TypeError, "weight must be an int, not bool"),
    (lambda: qk_series(2.0, PAIR, 3), TypeError, "weight must be an int, not float"),
    (lambda: qk_series_divisor_oracle(True, PAIR, 3), TypeError, "weight must be an int, not bool"),
    (lambda: qk_series_divisor_oracle(3.0, PAIR, 3), TypeError,
     "weight must be an int, not float"),
    (lambda: eisenstein(True, 3), TypeError, "weight must be an int, not bool"),
    (lambda: eisenstein(4.0, 3), TypeError, "weight must be an int, not float"),
    (lambda: pbar_series(2, PAIR, (0, True), 2), TypeError, "window must be an int, not bool"),
    (lambda: pbar_series(2, PAIR, (0, 1.0), 2), TypeError, "window must be an int, not float"),
    (lambda: pk_eval(True, PAIR, 0.1 + 0.3j, 1.2j), TypeError, "k must be an int, not bool"),
    (lambda: pk_eval(2.0, PAIR, 0.1 + 0.3j, 1.2j), TypeError, "k must be an int, not float"),
    (lambda: zhu_coeff(2, 3, True), TypeError, "m must be an int, not bool"),
    (lambda: zhu_coeff(2, 3.0, 1), TypeError, "i must be an int, not float"),
    (lambda: prop48_check(2, True, PAIR, 2), TypeError, "m must be an int, not bool"),
    (lambda: prop48_check(2, 0.0, PAIR, 2), TypeError, "m must be an int, not float"),
    (lambda: prop44_check(2, True, 3), TypeError, "j must be an int, not bool"),
    (lambda: prop44_check(2, 1.0, 3), TypeError, "j must be an int, not float"),
    (lambda: bernoulli_number(True), TypeError, "degree must be an int, not bool"),
    (lambda: bernoulli_number(2.0), TypeError, "degree must be an int, not float"),
    (lambda: bernoulli_poly(True), TypeError, "degree must be an int, not bool"),
    (lambda: bernoulli_poly(2.0), TypeError, "degree must be an int, not float"),
    (lambda: bernoulli_identities_check(2, 0, True), TypeError, "n must be an int, not bool"),
    (lambda: bernoulli_identities_check(2, 0, 3.0), TypeError, "n must be an int, not float"),
    (lambda: cyc_root(True, 3), TypeError, "exponent must be an int, not bool"),
    (lambda: cyc_root(1.0, 3), TypeError, "exponent must be an int, not float"),
    (lambda: GammaMat(True, 0, 0, True), TypeError, "a must be an int, not bool"),
    (lambda: GammaMat(1.0, 0, 0, 1.0), TypeError, "a must be an int, not float"),
    (lambda: reduce_cyclic_pair(True, 2, 5), TypeError, "a must be an int, not bool"),
    (lambda: reduce_cyclic_pair(1.0, 2, 5), TypeError, "a must be an int, not float"),
    (lambda: slash_eval(lambda t: t, True, S, 1j), TypeError, "weight must be an int, not bool"),
    (lambda: slash_eval(lambda t: t, 2.0, S, 1j), TypeError, "weight must be an int, not float"),
], ids=["scale-true", "exponent-true", "scale-float", "wp1-trunc", "zhu-p", "cyc-root-order",
        "reduce-modulus",
        *(f"{site}-{kind}" for site in (
            "qk-weight", "divisor-oracle-weight", "eisenstein-weight", "pbar-window",
            "pk-eval-k", "zhu-m-or-i", "prop48-m", "prop44-j", "bernoulli-number",
            "bernoulli-poly", "bernoulli-identities-n", "cyc-root-exponent", "gamma-entry",
            "reduce-a", "slash-weight") for kind in ("bool", "float"))])
def test_outside_ints_are_read_alike(call, exc, fragment):
    # cached: a True or a float must find no cached int
    for k in (1, 2, 4):
        cyc_root(1, k), cyc_root(k % 3, 3), bernoulli_number(k), bernoulli_poly(k)
    with pytest.raises(exc, match=fragment):
        call()


_BRACES = Puiseux(1, 0, [0, 5, 7], 3)
_WINDOW = BiSeries(Fraction(1, 2), 0, [Puiseux.constant(1, 3)])


@pytest.mark.parametrize("call", [
    # Fraction(...) read 0.5 as 1/2, 0.1 as its binary value and True as 1
    lambda: CycQ(3, [0.5, 1]),
    lambda: CycQ(3, [True, 0]),
    lambda: CycQ.from_rational(0.5),  # an int or Fraction, a bool too, takes the fast path
    lambda: BernoulliPoly(2, [Fraction(1, 6), -1, 1.0]),
    lambda: BernoulliPoly(2, [Fraction(1, 6), -1, True]),
    lambda: bernoulli_value(2, 0.1),
    lambda: bernoulli_value(2, True),
    lambda: bernoulli_identities_check(2, 0.5),
    lambda: bernoulli_identities_check(2, True),
    lambda: char_solve(_BRACES, ((1, 0.5),)),
    lambda: char_solve(_BRACES, ((True, Fraction(1, 2)),)),
    lambda: BiSeries(0.5, 0, [Puiseux.constant(1, 3)]),
    lambda: BiSeries(True, 0, [Puiseux.constant(1, 3)]),
    lambda: _WINDOW.coeff_at_w(0.5),
    lambda: _WINDOW.coeff_at_w(True),
], ids=["cycq-float", "cycq-bool", "cycq-from-rational-float", "bernoulli-poly-float",
        "bernoulli-poly-bool", "bernoulli-value-float", "bernoulli-value-bool",
        "bernoulli-identities-x-float", "bernoulli-identities-x-bool", "char-solve-combo-float",
        "char-solve-combo-bool", "biseries-wlead-float", "biseries-wlead-bool",
        "coeff-at-w-float", "coeff-at-w-bool"])
def test_outside_rationals_are_read_alike(call):
    with pytest.raises(TypeError, match="a rational is an int, Fraction or str, not "):
        call()


def test_rational_readers_take_ints_fractions_and_strings():
    assert CycQ(3, [Fraction(1, 2), "1/3"]) == CycQ(3, [Fraction(1, 2), Fraction(1, 3)])
    assert CycQ.from_rational("1/2") == Fraction(1, 2)
    assert bernoulli_value(2, "1/2") == bernoulli_value(2, Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_identities_check(2, "1/3")
    assert char_solve(_BRACES, (("1", "1/2"),)).degrees == (1, 8)
    assert _WINDOW.coeff_at_w("1/2") == Puiseux.constant(1, 3)


def test_numpy_ints_are_read_as_ints():
    s = Puiseux(np.int64(2), 0, [1], 2)
    assert type(s.T) is int and s.T == 2
    assert CycQ(np.int64(3), [0, 1]) == cyc_root(1, 3)
    ode = RegularSingularODE(np.int64(1), 1, [Puiseux.constant(1, 3)])
    assert (type(ode.order), type(ode.T)) == (int, int)
    assert type(s.with_branching(np.int64(4)).T) is int
    assert LogQSeries(np.int64(2), [s]).T == 2


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda: Puiseux(1, 0, [1, 2, 3], 2), ValueError, "extend past the truncation"),
    (lambda: Puiseux.from_terms([(0, 1), (Fraction(1, 3), 1)], 2, 2), ValueError,
     "not on the 1/T grid"),
    (lambda: Puiseux.from_terms([(0, 1), (3, 1)], 2), ValueError, "beyond truncation"),
    (lambda: Puiseux.zero(3, 2).with_branching(3), ValueError, "refined to a multiple"),
    (lambda: LogQSeries(2, [Puiseux.zero(3)]).with_branching(3), ValueError,
     "refined to a multiple"),
    (lambda: Puiseux.zero(3).truncated(4), ValueError, "cannot extend"),
    (lambda: RegularSingularODE(2, 1, [Puiseux.zero(3)]), ValueError, "need exactly `order`"),
    (lambda: RegularSingularODE(1, 2, [Puiseux.zero(3, 3)]), ValueError,
     "coefficient branching must divide T"),
    (lambda: CycQ(3, [1]), ValueError, "need 2 coordinates for conductor 3"),
    (lambda: cyc_root(1, 3).rational_value(), ValueError, "not a rational element"),
    (lambda: cyc_root(1, 3).embed(30), ValueError, "at least 53 bits"),
    (lambda: bernoulli_poly(-1), ValueError, "degree must be nonnegative"),
    (lambda: bernoulli_identities_check(0, 1), ValueError, "k must be at least 1"),
    (lambda: qk_series_divisor_oracle(2, PAIR, 3), ValueError, "needs k >= 3"),
    (lambda: pbar_series(2, PAIR, (1, 0), 3), WindowTooSmall, "empty w-window"),
    (lambda: pk_eval(0, PAIR, 0.1 + 0.3j, 1.2j), ValueError, "k must be at least 1"),
    (lambda: wp1_eval(0, 1j), NearPole, "q_z too close to 1"),
    (lambda: zhu_coeff(2, -1, 0), ValueError, "i and m must be nonnegative"),
    (lambda: zhu_coeff_binomial_oracle(2, -1, 0), ValueError, "i and m must be nonnegative"),
    (lambda: prop44_check(2, 0, 3), ValueError, "need 1 <= j <= M"),
    (lambda: prop44_check(1, 1, 3), ValueError, "needs k >= 2"),
    (lambda: delta_j_J(2), ValueError, "truncation at least 3"),
    (lambda: weight4_onepoint(2), ValueError, "truncation at least 3"),
    (lambda: cyc_root(1, 0), ValueError, "order must be a positive integer, got 0"),
    (lambda: reduce_cyclic_pair(1, 1, 0), ValueError, "modulus must be a positive integer, got 0"),
], ids=["puiseux-too-many-coeffs", "from-terms-off-grid", "from-terms-past-trunc",
        "puiseux-branching-non-multiple", "log-branching-non-multiple", "truncated-past-trunc",
        "ode-coefficient-count", "ode-coefficient-branching", "cycq-coordinate-count",
        "rational-value-of-zeta3", "embed-below-53-bits", "bernoulli-negative-degree",
        "bernoulli-identities-k0", "divisor-oracle-k2", "pbar-empty-window", "pk-eval-k0",
        "wp1-at-the-pole", "zhu-negative-i", "zhu-oracle-negative-i", "prop44-j-outside",
        "prop44-k1", "delta-j-J-trunc-2", "weight4-trunc-2", "cyc-root-order-0",
        "reduce-modulus-0"])
def test_every_input_error_names_its_cause(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
