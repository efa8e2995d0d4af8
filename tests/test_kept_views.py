"""Series that keep their complex view, and the builders that store rows.

``eval_at_tau`` keeps the ``Embedded`` view of a series (every series stores
its row, one built from a CycQ list too) and evaluates it at later points; a
read of ``coeffs`` keeps the row and the view, and the view goes when a write
to ``coeffs`` stores a new row.  A ``LogQSeries`` is embedded on every call.
Either way the value and tail are those of ``eval_at_tau`` on ``Embedded(s)``,
bit for bit.

Constants, monomials and zeros store a row too: an int row for a conductor-1
value, a value row for any other, with the slots the CycQ list they were
before holds.
"""

from fractions import Fraction

import pytest

from orbiform import moonshine
from orbiform.cyclotomic import CycQ, cyc_root
from orbiform.forms import (
    eisenstein,
    klein_hecke_series,
    pbar_series,
    qk_series,
    qk_series_divisor_oracle,
)
from orbiform.modular import TorsionPair
from orbiform.series import Embedded, LogQSeries, Puiseux, _nterms, eval_at_tau

PAIR = TorsionPair(Fraction(1, 4), Fraction(2, 3))
TAUS = (0.1 + 1.1j, -0.3 + 0.9j, 0.25 + 1.5j)

BUILD = {
    "Q_k": lambda: qk_series(3, PAIR, 30),  # a value row at T = 4, conductor 3
    "Q_k rational": lambda: qk_series(4, TorsionPair(Fraction(1, 2), Fraction(1)), 30),
    "E_4": lambda: eisenstein(4, 60),  # an int row
    "J": lambda: moonshine.delta_j_J(40)[2],  # an int row from q^-1
    # a CycQ list, stored as a value row
    "list": lambda: Puiseux(3, Fraction(-1, 3), [cyc_root(1, 3), 0, Fraction(1, 2)] * 5,
                            Fraction(14, 3)),
    "log": lambda: LogQSeries(4, [eisenstein(4, 10), qk_series(2, PAIR, 10)]),
}
STORED = ("Q_k", "Q_k rational", "E_4", "J", "list")


def _bits(r):
    return r.value.real.hex(), r.value.imag.hex(), r.tail.hex()


def _fields(s):
    return s.T, s.lead, s.trunc, [(c.conductor, c.den, c.nums) for c in s.coeffs]


# -- the kept view -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(BUILD))
def test_eval_at_tau_is_the_evaluation_of_the_embedding(name):
    s, view = BUILD[name](), Embedded(BUILD[name]())
    for _ in range(2):  # the first call embeds s, the second may read a kept view
        for tau in TAUS:
            assert _bits(eval_at_tau(s, tau)) == _bits(eval_at_tau(view, tau))


@pytest.mark.parametrize("name", list(BUILD))
def test_a_stored_series_is_embedded_once(name, monkeypatch):
    real, built = Embedded.__new__, []

    def counting(cls, s):
        built.append(s)
        return real(cls, s)

    s = BUILD[name]()
    monkeypatch.setattr(Embedded, "__new__", counting)
    for tau in TAUS:
        eval_at_tau(s, tau)
    assert len(built) == (1 if name in STORED else len(TAUS))


@pytest.mark.parametrize("name", STORED)
def test_a_scalar_product_keeps_the_row_and_the_view(name, monkeypatch):
    # s * c at conductor 3 read s.coeffs, which dropped s's row and view
    real, built = Embedded.__new__, []

    def counting(cls, s):
        built.append(s)
        return real(cls, s)

    s = BUILD[name]()
    stored, before = s._stored, eval_at_tau(s, TAUS[0])
    monkeypatch.setattr(Embedded, "__new__", counting)
    assert (s * cyc_root(1, 3)).coeff_at(s.lead) == s.coeff_at(s.lead) * cyc_root(1, 3)
    s.coeffs
    assert s._stored is stored and s._view is not None
    assert _bits(eval_at_tau(s, TAUS[0])) == _bits(before)
    assert built == []


@pytest.mark.parametrize("name", STORED)
def test_writing_coeffs_after_an_evaluation_changes_the_next(name):
    s, tau = BUILD[name](), TAUS[0]
    before = eval_at_tau(s, tau)
    s.coeffs[2] = s.coeffs[2] + cyc_root(1, 3)
    assert s._view is None  # the write stored a new row, and no stale view is kept
    want = Puiseux(s.T, s.lead, list(s.coeffs), s.trunc)
    after = eval_at_tau(s, tau)
    assert _bits(after) == _bits(eval_at_tau(want, tau)) != _bits(before)
    s.coeffs = [c * 2 for c in s.coeffs]
    want = Puiseux(s.T, s.lead, list(s.coeffs), s.trunc)
    assert _bits(eval_at_tau(s, tau)) == _bits(eval_at_tau(want, tau)) != _bits(after)


@pytest.mark.parametrize("name", STORED)
def test_assigning_coeffs_after_an_evaluation_changes_the_next(name):
    s, tau = BUILD[name](), TAUS[1]
    before = eval_at_tau(s, tau)
    assert s._view is not None
    s.coeffs = [CycQ.zero] * (_nterms(s.lead, s.trunc, s.T) - 1) + [CycQ.one]
    assert s._view is None
    want = Puiseux(s.T, s.lead, list(s.coeffs), s.trunc)
    assert _bits(eval_at_tau(s, tau)) == _bits(eval_at_tau(want, tau)) != _bits(before)


# -- builders that store their rows ----------------------------------------------------


@pytest.mark.parametrize("pair", [PAIR, TorsionPair(Fraction(1), Fraction(1, 2)),
                                  TorsionPair(Fraction(1, 3), Fraction(1))])
def test_the_forms_builders_store_value_rows(pair):
    g, h = klein_hecke_series(pair, 3)
    built = [qk_series(3, pair, 5), g, h, *pbar_series(3, pair, (-1, 1), 3).coeffs]
    for s in built:
        den, row, ints = s._stored
        assert (den, ints) == (1, False)
        assert all(type(x) is (CycQ if x else int) for x in row)
    assert built[0] == qk_series_divisor_oracle(3, pair, 5)


# -- constants, monomials and zeros ------------------------------------------------------


def _listed_monomial(coeff, exponent, trunc, T):
    """The CycQ list a monomial was: its coefficient in the first of the slots below trunc."""
    n = len(Puiseux(T, exponent, [], trunc).coeffs)
    return Puiseux(T, exponent, [coeff][:n], trunc)


VALUES = (0, 5, Fraction(-3, 7), cyc_root(1, 3), cyc_root(2, 3) * Fraction(1, 2) + 1,
          CycQ.from_rational(Fraction(2, 3)).lift(3), CycQ.from_rational(-4).lift(12))
SHAPES = ((0, 5, 1), (Fraction(1, 2), Fraction(7, 2), 2), (-1, Fraction(1, 3), 3),
          (3, 2, 1), (0, 0, 1), (0, Fraction(1, 10), 1), (Fraction(-2, 3), Fraction(2, 3), 3))


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("exponent, trunc, T", SHAPES)
def test_monomials_store_the_slots_of_their_cycq_list(value, exponent, trunc, T):
    c = CycQ._coerce(value)
    got = Puiseux.monomial(value, exponent, trunc, T)
    want = _listed_monomial(value, exponent, trunc, T)
    assert got._stored[2] is (c.conductor == 1)
    assert _fields(got) == _fields(want)
    if exponent == 0:
        assert _fields(Puiseux.constant(value, trunc, T)) == _fields(want)
    assert _fields(Puiseux.zero(trunc, T)) == _fields(Puiseux(T, 0, [], trunc))
    e4 = eisenstein(4, 6).with_branching(T)
    assert _fields(e4 + got) == _fields(Puiseux.sum([e4, want]))
    assert _fields(got * e4) == _fields(want * e4)


def _raised(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("T, trunc", [(0, 4), (-2, 4), (1.5, 4), (True, 4), ("2", 4),
                                      (2, 1.1), (2, "x"), (2, 1j), (2, None), (0, 1.1)])
def test_bad_branching_and_truncation_are_refused_as_before(T, trunc):
    want = _raised(lambda: Puiseux(T, 0, [], trunc))
    assert _raised(lambda: Puiseux.zero(trunc, T)) == want
    assert _raised(lambda: Puiseux.constant(cyc_root(1, 3), trunc, T)) == want
    assert _raised(lambda: Puiseux.monomial(Fraction(1, 2), 1, trunc, T)) == want


def test_bad_coefficients_and_exponents_are_refused_as_before():
    assert _raised(lambda: Puiseux.monomial(1.5, 0, 4, 0))[0] is TypeError
    assert _raised(lambda: Puiseux.monomial(1, Fraction(1, 3), 4, 2)) == \
        (ValueError, "exponent not representable with this branching")
    assert _raised(lambda: Puiseux.monomial(1, 0.5, 4, 2))[0] is TypeError
