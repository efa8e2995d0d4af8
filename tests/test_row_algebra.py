"""``Puiseux.sum`` and ``theta`` on the rows of ``series`` against the CycQ-slot
bodies they replace.

``_ref_sum`` and ``_ref_theta`` are those bodies as they were written before:
the sum copies its first term as it is and adds each later term's nonzero
slots one ``CycQ`` at a time, and theta scales each nonzero slot by one
``CycQ._reduced``.  The row versions give the same T, lead, trunc and value in
every slot.  Two things differ on purpose, and only in representation: every
zero slot of a sum, even of one term, or of theta, is ``CycQ.zero``, and a
zero no longer carries its conductor into a later slot of a sum, so a nonzero
slot can sit at a conductor that divides the reference's.

Every row the helpers give obeys one invariant, which the last tests check: an
int row holds only ints, and a value row only ``CycQ`` values and the int 0.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import sum_args, sum_terms

from orbiform.cyclotomic import CycQ, cyc_root, euler_phi
from orbiform.forms import klein_hecke_series
from orbiform.modular import TorsionPair
from orbiform.series import Puiseux, _mul_rows, _nterms, _row, _sum_rows, _theta_rows, theta

# -- the CycQ-slot reference -------------------------------------------------------


class _Listed(NamedTuple):
    """A series as the CycQ values it is built from, which ``_ref_sum`` reads as
    it read a series' own list: a zero keeps its conductor."""

    T: int
    lead: Fraction
    coeffs: list
    trunc: Fraction


def _ref_sum(terms):
    terms = list(terms)
    first, *rest = terms
    t = math.lcm(*(x.T for x in terms), *((x.lead - first.lead).denominator for x in rest))
    lead = min(x.lead for x in terms)
    trunc = min(x.trunc for x in terms)
    buf = [CycQ.zero] * _nterms(lead, trunc, t)
    n = len(buf)
    off, step = _nterms(lead, first.lead, t), t // first.T
    buf[off:n:step] = first.coeffs[:len(range(off, n, step))]
    zero = CycQ.zero
    for x in rest:
        for j, c in zip(range(_nterms(lead, x.lead, t), n, t // x.T), x.coeffs):
            if c:
                cur = buf[j]
                buf[j] = c if cur is zero else cur + c
    return Puiseux(t, lead, buf, trunc)


def _ref_theta(s, scale="full"):
    a, b, T = s.lead.numerator, s.lead.denominator, s.T
    den = b * T if scale == "full" else b
    coeffs = [CycQ._reduced(c.conductor, c.den * den, tuple([x * (a * T + i * b) for x in c.nums]))
              if c else CycQ.zero for i, c in enumerate(s.coeffs)]
    return Puiseux(s.T, s.lead, coeffs, s.trunc)


def _fields(c):
    return c.conductor, c.den, c.nums


def _slot_sums(terms, total):
    """Each slot of total as the terms' nonzero values at its exponent added in
    order, a partial sum that vanishes starting again from nothing."""
    out = []
    for i in range(len(total.coeffs)):
        e, acc = total.lead + Fraction(i, total.T), None
        for x in terms:
            c = x.coeff_at(e) if x.lead <= e < x.trunc else CycQ.zero
            if c:
                acc = c if acc is None else (acc + c or None)
        out.append(acc)
    return out


# -- inputs ------------------------------------------------------------------------

def _zero(n: int) -> CycQ:
    return CycQ(n, [0] * euler_phi(n))


@st.composite
def zeroed_args(draw):
    """sum_args() with some slots replaced by zeros at conductor 2, 3 or 12."""
    T, lead, values, trunc = draw(sum_args())
    values = [_zero(draw(st.sampled_from([2, 3, 12]))) if draw(st.booleans()) else c
              for c in values]
    return T, lead, values, trunc


def zeroed_terms():
    """The Puiseux of zeroed_args()."""
    return zeroed_args().map(lambda args: Puiseux(*args))


def _klein(trunc=3):
    """g of (1/4, 2/3), built at branching 4, refined to 96 = lcm(4, den of its
    lead -1/96), and h."""
    g, h = klein_hecke_series(TorsionPair(Fraction(1, 4), Fraction(2, 3)), trunc)
    assert g.T == 4
    return g.with_branching(96), h


# -- the sum -----------------------------------------------------------------------

def _check_sum(args):
    """Puiseux.sum of the series built from each (T, lead, values, trunc) of args,
    against ``_ref_sum`` of the values themselves."""
    xs = [Puiseux(*a) for a in args]
    listed = [_Listed(x.T, x.lead, [CycQ._coerce(v) for v in a[2]], x.trunc)
              for x, a in zip(xs, args)]
    got, want = Puiseux.sum(xs), _ref_sum(listed)
    assert (got.T, got.lead, got.trunc) == (want.T, want.lead, want.trunc)
    assert len(got.coeffs) == len(want.coeffs)
    for c, w, s in zip(got.coeffs, want.coeffs, _slot_sums(xs, got)):
        if not w:
            assert c is CycQ.zero and s is None
        else:
            assert c == w and w.conductor % c.conductor == 0
            assert _fields(c) == _fields(s)
    return got, want


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(sum_args(), zeroed_args()), min_size=1, max_size=5))
def test_sum_matches_the_slot_reference(args):
    _check_sum(args)


def test_a_zero_lifts_no_later_slot():
    # the reference adds 1 to the first term's zero at conductor 3 and keeps
    # conductor 3; the rows skip that zero, and the sum of 1 and -1 at
    # conductor 4 starts the slot again from nothing
    i = cyc_root(1, 4)
    got, want = _check_sum([(1, 0, [_zero(3), _zero(3)], 2), (1, 0, [1, i], 2),
                            (1, 0, [0, -i], 2), (1, 1, [1], 2)])
    assert [c.conductor for c in want.coeffs] == [3, 12]
    assert [_fields(c) for c in got.coeffs] == [(1, 1, (1,)), (1, 1, (1,))]


def test_sum_of_the_t96_klein_form_is_the_reference_slot_for_slot():
    g, h = _klein()
    for xs in ([g, h], [h, g, g.shifted(Fraction(1, 3))], [g, -g]):
        got, want = _check_sum([(x.T, x.lead, x.coeffs, x.trunc) for x in xs])
        assert [_fields(c) for c in got.coeffs if c] == [_fields(c) for c in want.coeffs if c]
    assert all(c is CycQ.zero for c in Puiseux.sum([g, -g]).coeffs)


@settings(max_examples=40, deadline=None)
@given(st.one_of(sum_args(), zeroed_args()))
def test_a_one_term_sum_keeps_every_value(args):
    # a one-term sum runs on rows too: every nonzero slot keeps its fields,
    # and its very object when some value it was built from has conductor > 1
    # (a value row over den 1); every zero slot is CycQ.zero
    x = Puiseux(*args)
    got = Puiseux.sum([x])
    assert (got.T, got.lead, got.trunc) == (x.T, x.lead, x.trunc)
    assert got.coeffs is not x.coeffs and len(got.coeffs) == len(x.coeffs)
    values = any(CycQ._coerce(v).conductor != 1 for v in args[2])
    for c, w in zip(got.coeffs, x.coeffs):
        if not w:
            assert c is CycQ.zero
        else:
            assert _fields(c) == _fields(w) and (c is w or not values)


# -- theta -------------------------------------------------------------------------

def _check_theta(s, scale):
    got, want = theta(s, scale), _ref_theta(s, scale)
    assert (got.T, got.lead, got.trunc) == (want.T, want.lead, want.trunc)
    assert [_fields(c) if c else None for c in got.coeffs] == \
        [_fields(c) if c else None for c in want.coeffs]
    assert all(c is CycQ.zero for c in got.coeffs if not c)


@settings(max_examples=80, deadline=None)
@given(st.one_of(sum_terms(), zeroed_terms()), st.sampled_from(["full", "one_over_T"]))
def test_theta_matches_the_slot_reference(s, scale):
    _check_theta(s, scale)


@pytest.mark.parametrize("scale", ["full", "one_over_T"])
def test_theta_of_the_t96_klein_form_is_the_reference_slot_for_slot(scale):
    g, h = _klein()
    _check_theta(g, scale)
    _check_theta(h, scale)
    # q^0 slot of a constant: theta makes it zero, at conductor 1 not 4
    _check_theta(Puiseux(1, 0, [cyc_root(1, 4), 1], 2), scale)


# -- the row invariant -------------------------------------------------------------

@st.composite
def rational_args(draw):
    """Arguments placed as sum_args() places them, with up to 24 rational slots
    at conductor 1: an int row, dense enough for the Kronecker kernel."""
    T, lead, _, _ = draw(sum_args())
    n = draw(st.integers(0, 24))
    values = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n))
    return T, lead, values, lead + Fraction(n, T)


def _check_kind(r, ints):
    assert r[4] is ints
    if ints:
        assert all(type(x) is int for x in r[3])
    else:
        assert all(type(x) is CycQ or (type(x) is int and x == 0) for x in r[3])


def _check_rows(xs, kinds):
    """Every row of xs, their sum, theta of them as the parts of one log
    series, and every product of two of them keeps the invariant, and each
    is an int row exactly when its inputs are; kinds[i] is whether every value
    xs[i] was built from has conductor 1."""
    first = xs[0]
    t = math.lcm(*(x.T for x in xs), *((x.lead - first.lead).denominator for x in xs))
    D = math.lcm(t, *(y.denominator for x in xs for y in (x.lead, x.trunc)))
    g = D // t
    rows = [_row(x, t, D) for x in xs]
    for r, ints in zip(rows, kinds):
        _check_kind(r, ints)
    _check_kind(_sum_rows(rows, g, min(r[0] for r in rows), min(r[1] for r in rows)),
                all(kinds))
    for i, r in enumerate(_theta_rows(rows, D, g)):
        _check_kind(r, all(kinds[i:i + 2]))
    for a, ka in zip(rows, kinds):
        for b, kb in zip(rows, kinds):
            _check_kind(_mul_rows(a, b, g), ka and kb)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(sum_args(), zeroed_args(), rational_args()), min_size=1, max_size=4))
def test_every_row_keeps_the_invariant(args):
    _check_rows([Puiseux(*a) for a in args],
                [all(CycQ._coerce(v).conductor == 1 for v in a[2]) for a in args])


def test_rows_of_the_t96_klein_form_keep_the_invariant():
    g, h = _klein()
    dense = Puiseux(4, 0, [Fraction(k, 3) for k in range(1, 13)], 3)
    # g and h hold values at conductor 12, dense rationals
    _check_rows([g, dense, h], [False, True, False])
    _check_rows([dense, dense.shifted(Fraction(1, 4))], [True, True])
