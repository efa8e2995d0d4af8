"""Tests for Puiseux series, log-q series, products, and residues."""

import cmath
import functools
import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiform import forms, frobenius, moonshine, series
from orbiform.cyclotomic import CycQ, _sparse_convolve, cyc_root, cyc_root_of
from orbiform.errors import (
    NonInvertibleLeadingTerm,
    NotConvergent,
    UnsupportedPrecision,
    WindowTooSmall,
)
from orbiform.forms import klein_hecke_series
from orbiform.frobenius import RegularSingularODE, apply_ode
from orbiform.modular import TorsionPair
from orbiform.series import (
    BiSeries,
    Embedded,
    LogQSeries,
    Puiseux,
    _int_convolve,
    eval_at_tau,
    product_expand,
    theta,
)

small_series = st.builds(
    lambda lead_num, t, coeffs: Puiseux(
        t, Fraction(lead_num, t), coeffs, Fraction(lead_num, t) + Fraction(len(coeffs), t)
    ),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=1,
        max_size=6,
    ),
)


def geometric(trunc=10):
    # 1/(1-q) = sum q^n
    return Puiseux(1, 0, [Fraction(1)] * trunc, trunc)


def test_constructors_and_coeff_access():
    s = Puiseux.from_terms([(Fraction(1, 2), 3), (2, Fraction(-1, 4))], 5, 2)
    assert s.coeff_at(Fraction(1, 2)) == 3
    assert s.coeff_at(2) == Fraction(-1, 4)
    assert s.coeff_at(1) == CycQ.zero
    with pytest.raises(KeyError):
        s.coeff_at(5)
    assert Puiseux.zero(4).is_zero()
    assert Puiseux.constant(7, 4).coeff_at(0) == 7
    # the branching is checked before the exponent is read against it
    for bad_t in (1.5, 0):
        with pytest.raises(ValueError, match="branching must be a positive integer"):
            Puiseux.monomial(1, 0, 5, bad_t)
        with pytest.raises(ValueError, match="branching must be a positive integer"):
            Puiseux.constant(1, 5, bad_t)
    with pytest.raises(ValueError, match="not representable"):
        Puiseux.monomial(1, Fraction(1, 3), 5, 2)


@pytest.mark.parametrize("bad", [0, -2, 1.5, 2.0, True, Fraction(2)])
def test_refinement_and_substitution_factors_are_positive_ints(bad):
    # 0 was a zero slice step, -2 an extended slice of size 0, 1.5 an AttributeError
    s, named = Puiseux.from_terms([(0, 1), (Fraction(1, 2), 3)], 4, 2), re.escape(repr(bad))
    with pytest.raises(ValueError, match=f"branching must be a positive integer, got {named}"):
        s.with_branching(bad)
    with pytest.raises(ValueError, match=f"branching must be a positive integer, got {named}"):
        LogQSeries(2, [s, s]).with_branching(bad)
    with pytest.raises(ValueError, match=f"power must be a positive integer, got {named}"):
        s.substituted(bad)
    assert s.with_branching(4).coeff_at(Fraction(1, 2)) == 3
    assert s.substituted(3).coeff_at(Fraction(3, 2)) == 3


@pytest.mark.parametrize("bad", [1.0, True])
def test_log_series_branching_is_a_positive_int(bad):
    # equal to 1, so the parts at T = 1 were kept as they are and never checked it
    named = re.escape(repr(bad))
    with pytest.raises(ValueError, match=f"branching must be a positive integer, got {named}"):
        LogQSeries(bad, [Puiseux.zero(3)])


def test_scalar_equality_goes_through_the_difference():
    s = Puiseux.constant(3, 4, 2)
    assert s == 3 and s == Fraction(3) and s == CycQ.from_rational(3) and 3 == s
    assert s != 2 and s != Puiseux.constant(3, 4, 2).shifted(Fraction(1, 2))
    assert s.__eq__("3") is NotImplemented and s != "3"


def test_addition_and_truncation_propagation():
    a = Puiseux(1, 0, [1, 2, 3], 3)
    b = Puiseux(1, 1, [5, 5], 3)
    c = a + b
    assert c.trunc == 3
    assert [c.coeff_at(n) for n in range(3)] == [
        CycQ.from_rational(1),
        CycQ.from_rational(7),
        CycQ.from_rational(8),
    ]


def test_sum_off_the_grid_refines_the_branching():
    # q^(1/3) + 2 q^(4/3) is off the T = 1 grid of 0 (1 + q); moved onto that
    # grid, the sum would read 1 + 2q
    a = Puiseux(1, Fraction(1, 3), [1, 2], 5)
    zero = Puiseux.from_terms([(0, 1), (1, 1)], 5).scalar_mul(0)
    for s in (a + zero, zero + a):
        assert s.T == 3
        assert dict(s.terms()) == {Fraction(1, 3): 1, Fraction(4, 3): 2}


def test_multiplication_against_geometric_identity():
    g = geometric(12)
    one_minus_q = Puiseux.from_terms([(0, 1), (1, -1)], 12)
    prod = g * one_minus_q
    assert prod == Puiseux.constant(1, prod.trunc)


def test_inverse_roundtrip_and_failure():
    g = geometric(10)
    inv = g.inverse()
    assert (g * inv) == 1
    with pytest.raises(NonInvertibleLeadingTerm):
        Puiseux.zero(5).inverse()


def test_branching_alignment():
    a = Puiseux(2, Fraction(1, 2), [1, 0, 2], 2)
    b = Puiseux(3, 0, [1, 1, 1], 1)
    c = a * b
    assert c.T == 6
    assert c.coeff_at(Fraction(1, 2)) == 1
    assert c.coeff_at(Fraction(5, 6)) == 1


def test_pow_and_shift_and_substitute():
    g = geometric(8)
    assert g**2 == g * g
    assert g**0 == 1
    # powers, negative ones through the inverse, against repeated products
    x = Puiseux(2, Fraction(-1, 2), [cyc_root(1, 3), 0, Fraction(1, 2), -1], 3)
    for e in (-2, -1, 1, 2, 3, 4):
        y = x if e > 0 else x.inverse()
        expected = y
        for _ in range(abs(e) - 1):
            expected = expected * y
        assert (x**e).to_json() == expected.to_json(), e
    s = g.shifted(Fraction(3, 2))
    assert s.coeff_at(Fraction(3, 2)) == 1
    sub = g.substituted(2)
    assert sub.coeff_at(2) == 1
    assert sub.coeff_at(1) == CycQ.zero


@settings(max_examples=30, deadline=None)
@given(small_series, small_series)
def test_theta_is_a_derivation(a, b):
    lhs = theta(a * b, "full")
    rhs = theta(a, "full") * b + a * theta(b, "full")
    assert (lhs - rhs).truncated(min(lhs.trunc, rhs.trunc)).is_zero()


def test_theta_scalings():
    s = Puiseux(2, Fraction(1, 2), [1, 1], Fraction(3, 2))
    full = theta(s, "full")
    part = theta(s, "one_over_T")
    assert full.coeff_at(Fraction(1, 2)) == Fraction(1, 2)
    assert part.coeff_at(Fraction(1, 2)) == 1
    with pytest.raises(ValueError, match="scale must be"):
        theta(s, "half")


def test_a_value_minus_a_series_is_the_negated_difference():
    s = Puiseux(2, Fraction(1, 2), [1, 0, 3], 3)
    for x in (1, Fraction(-2, 3), cyc_root(1, 3)):
        got = x - s
        assert got == -(s - x) and got.coeff_at(0) == x and got.coeff_at(Fraction(3, 2)) == -3


def _pentagonal_sign(n):
    k = 1
    while True:
        for m in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if m == n:
                return (-1) ** k
        if k * (3 * k - 1) // 2 > n:
            return 0
        k += 1


def test_euler_product_matches_pentagonal_numbers():
    s = product_expand([(1, 1)], 40)
    assert s.coeff_at(0) == 1
    for n in range(1, 40):
        assert s.coeff_at(n) == _pentagonal_sign(n)


def test_partition_generating_function():
    p = product_expand([(1, -1)], 12)
    expect = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    assert [p.coeff_at(n) for n in range(12)] == [
        CycQ.from_rational(v) for v in expect
    ]


def test_partition_number_100():
    assert product_expand([(1, -1)], 101).coeff_at(100) == 190569292


def test_product_inverse_pairs_cancel():
    s = product_expand([(2, 5), (2, -5), (1, 3), (1, -3)], 20)
    assert s == 1


def _product_expand_reference(factors, trunc):
    """The product one series power per factor: each Euler factor
    prod_(k>=1) (1 - q^(a k)) by shift-and-subtract on integers, raised to e."""
    trunc = Fraction(trunc)
    n = max(0, math.ceil(trunc))
    out = Puiseux.constant(1, trunc)
    for a, e in factors:
        c = [1] + [0] * (n - 1)
        for step in range(a, n, a):
            for i in range(n - 1, step - 1, -1):
                c[i] -= c[i - step]
        out = out * Puiseux(1, 0, c, trunc) ** e
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(-30, 30)), min_size=1, max_size=3),
    st.fractions(min_value=0, max_value=80, max_denominator=6),
)
@example([(1, -24), (2, 24)], Fraction(80))
@example([(3, 0)], Fraction(1, 2))
def test_product_expand_matches_the_per_factor_product(factors, trunc):
    got = product_expand(factors, trunc)
    if trunc <= 0:
        # no slot: the reference has no invertible leading term for e < 0
        assert (got.T, got.lead, got.trunc, got.coeffs) == (1, 0, trunc, [])
        return
    want = _product_expand_reference(factors, trunc)
    assert (got.T, got.lead, got.trunc) == (want.T, want.lead, want.trunc)
    assert got.coeffs == want.coeffs


def test_product_expand_rejects_bad_factors():
    with pytest.raises(ValueError):
        product_expand([(0, 1)], 5)
    with pytest.raises(ValueError):
        product_expand([(1, 2), (-2, 1)], 5)
    with pytest.raises(TypeError):
        product_expand([(1, Fraction(1, 2))], 5)


def test_eval_at_tau_geometric():
    import cmath

    g = geometric(200)
    tau = 0.3 + 1.1j
    q = cmath.exp(2j * cmath.pi * tau)
    r = eval_at_tau(g, tau)
    assert abs(r.value - 1 / (1 - q)) < 1e-12
    assert r.tail < 1e-12
    with pytest.raises(NotConvergent):
        eval_at_tau(g, 0.5 - 1j)


def test_eval_at_tau_rejects_other_precisions():
    g = geometric(20)
    assert eval_at_tau(g, 1j, 53).value == eval_at_tau(g, 1j).value
    log_g = LogQSeries(1, [g, g])
    for precision in (24, 54, 113):
        with pytest.raises(UnsupportedPrecision):
            eval_at_tau(g, 1j, precision)
        with pytest.raises(UnsupportedPrecision):
            eval_at_tau(log_g, 1j, precision)


def test_logq_theta_product_rule():
    base = geometric(8)
    s = LogQSeries(1, [base, Puiseux.constant(1, 8)])  # f + l * 1
    d = apply_ode(RegularSingularODE(1, 1, [Puiseux.zero(20)]), s)  # theta S + 0 S
    # theta(l) = 1/T = 1, carried into the log^0 part
    assert d.parts[0].coeff_at(0) == 1
    assert d.parts[1].is_zero()
    assert (d.parts[0] - theta(base, "full") - 1).is_zero()


def test_logq_eval_realizes_log_q():
    import cmath

    tau = 0.2 + 1.3j
    s = LogQSeries(2, [Puiseux.zero(5, 2), Puiseux.constant(1, 5, 2)])
    r = eval_at_tau(s, tau)
    assert abs(r.value - 2j * cmath.pi * tau / 2) < 1e-12


def test_logq_json_roundtrip():
    s = LogQSeries(2, [geometric(5).with_branching(2), Puiseux.constant(3, 5, 2)])
    back = LogQSeries.from_json(s.to_json())
    assert back.T == s.T and len(back.parts) == len(s.parts)
    for a, b in zip(s.parts, back.parts):
        assert (a.T, a.lead, a.trunc) == (b.T, b.lead, b.trunc)
        assert a.coeffs == b.coeffs


def test_logq_from_json_of_no_parts_is_a_value_error():
    with pytest.raises(ValueError, match="need at least one part"):
        LogQSeries.from_json([])


@pytest.mark.parametrize("powers", [[0, 2], [0, 0], [1], [1, 0, 1], [0, 1, 3]])
def test_logq_from_json_needs_each_log_power_once(powers):
    # [0, 2] and [0, 0] were both read as 1 + 5 l
    data = [dict(Puiseux.constant(c, 5).to_json(), log_power=p) for c, p in zip((1, 5, 7), powers)]
    with pytest.raises(ValueError, match="log powers must be 0, 1, ..., n-1"):
        LogQSeries.from_json(data)
    # the same parts at their own places read back, in any order
    ok = [dict(d, log_power=i) for i, d in enumerate(data)]
    assert LogQSeries.from_json(ok[::-1]).max_log_power == len(data) - 1


def test_biseries_residue_and_window():
    one = Puiseux.constant(1, 5)
    b = BiSeries(0, -2, [one.scalar_mul(7), one.scalar_mul(5), one])
    assert b.coeff_at_w(-1).coeff_at(0) == 5
    assert b.coeff_at_w(Fraction(1, 2)).is_zero()  # off the wlead grid
    with pytest.raises(WindowTooSmall):
        b.coeff_at_w(1)


def test_biseries_product_shifts_window():
    one = Puiseux.constant(1, 5)
    a = BiSeries(Fraction(1, 2), 0, [one, one])
    b = BiSeries(Fraction(-1, 2), 1, [one])
    c = a * b
    assert c.wlead == 0
    assert c.min_off == 1
    assert c.coeff_at_w(1).coeff_at(0) == 1


def test_puiseux_json_roundtrip():
    s = Puiseux.from_terms(
        [(Fraction(1, 3), cyc_root(1, 3)), (1, Fraction(2, 5))], 2, 3
    )
    assert (Puiseux.from_json(s.to_json()) - s).is_zero()


def _parent_logq_add(a, b):
    """LogQSeries.__add__ before it summed rows: both operands refined to the
    lead grid by with_branching, and each part a Puiseux.sum led by a zero of
    lead 0, so every part's lead is at most 0."""
    t = series._lead_grid(math.lcm(a.T, b.T), a.parts + b.parts)
    a, b = a.with_branching(t), b.with_branching(t)
    trunc = min(p.trunc for p in a.parts + b.parts)
    parts = [Puiseux.sum([Puiseux.zero(trunc, t), *a.parts[i:i + 1], *b.parts[i:i + 1]])
             for i in range(max(len(a.parts), len(b.parts)))]
    return LogQSeries(t, parts)


def _logq_slots(s):
    return s.T, [(p.T, p.lead, p.trunc, [(c.conductor, c.den, c.nums) for c in p.coeffs])
                 for p in s.parts]


# conductor-1, 3 and 4 values; a zero times a root stays stored at its conductor
logq_values = st.one_of(
    st.sampled_from([CycQ.zero, CycQ(3, [0, 0]), CycQ(4, [0, 0])]),
    st.builds(lambda c, j, n: cyc_root(j, n) * c,
              st.fractions(min_value=-3, max_value=3, max_denominator=3),
              st.integers(min_value=0, max_value=11), st.sampled_from([1, 3, 4])),
)


@st.composite
def logq_operands(draw):
    """A LogQSeries at T in {1, 2, 3} of 1-3 parts, each lead on or off the
    (1/T)Z grid and each trunc on a (1/2T)Z grid above it."""
    T = draw(st.sampled_from([1, 2, 3]))
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        lead = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
        trunc = lead + Fraction(draw(st.integers(min_value=0, max_value=12)), 2 * T)
        n = math.ceil((trunc - lead) * T)
        parts.append(Puiseux(T, lead, draw(st.lists(logq_values, min_size=n, max_size=n)), trunc))
    return LogQSeries(T, parts)


_ZERO_PARTS = LogQSeries(2, [Puiseux(2, Fraction(1, 3), [CycQ(3, [0, 0])] * 3, Fraction(11, 6)),
                             Puiseux(2, 0, [CycQ(4, [0, 0]), CycQ.zero], 1)])
_THREE_PARTS = LogQSeries(1, [Puiseux(1, Fraction(1, 2), [1, cyc_root(1, 3)], Fraction(5, 2)),
                              Puiseux(1, Fraction(-1, 4), [Fraction(2, 3)], Fraction(3, 4)),
                              Puiseux(1, Fraction(1, 3), [cyc_root(1, 4), 0, 5], Fraction(10, 3))])
_ONE_PART = LogQSeries(3, [Puiseux(3, Fraction(2, 3), [7, 0, cyc_root(1, 4)], Fraction(5, 3))])


@settings(max_examples=80, deadline=None)
@given(logq_operands(), logq_operands())
@example(_THREE_PARTS, _ONE_PART)  # unequal part counts: the top parts are the longer's alone
@example(_ONE_PART, _THREE_PARTS)
@example(_ZERO_PARTS, _THREE_PARTS)  # every part zero, stored at conductors 3 and 4
@example(_ONE_PART, _ZERO_PARTS)
def test_logq_add_matches_the_rebranching_sum(a, b):
    want = _logq_slots(_parent_logq_add(a, b))
    assert _logq_slots(a + b) == want


def test_logq_add_keeps_log_units_across_branchings():
    log_q = LogQSeries(1, [Puiseux.zero(5), Puiseux.constant(1, 5)])
    zero = LogQSeries(2, [Puiseux.zero(5, 2)])
    # log q at tau = i is 2 pi i * i
    for s in (log_q + zero, zero + log_q):
        assert abs(eval_at_tau(s, 1j).value - (-2 * math.pi)) < 1e-12


# -- the sparse kernels against dense references --------------------------------

# mostly zero slots, zeros of several conductors among them; the conductors
# divide 12, so a sum of products stays in Q(zeta_12)
sparse_cycq = st.one_of(
    st.just(CycQ.zero),
    st.builds(
        lambda c, j, n: cyc_root(j, n) * c,
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.integers(min_value=0, max_value=11),
        st.sampled_from([1, 2, 3, 4, 6, 12]),
    ),
)


def _schoolbook(a, b, limit):
    n = len(a) + len(b) - 1 if a and b else 0
    if limit is not None:
        n = min(n, limit)
    out = [CycQ.zero] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] = out[i + j] + x * y
    return out


def _product(a, b, limit):
    """Puiseux.__mul__ of a and b as series from q^0, both truncated at the
    length of ``_schoolbook(a, b, limit)``, so the product has every slot."""
    n = len(a) + len(b) - 1 if a and b else 0
    if limit is not None:
        n = min(n, limit)
    x = Puiseux(1, 0, a[:n], n)
    return (x * x if b is a else x * Puiseux(1, 0, b[:n], n)).coeffs


@settings(max_examples=80, deadline=None)
@given(
    st.lists(sparse_cycq, max_size=10),
    st.lists(sparse_cycq, max_size=10),
    st.one_of(st.none(), st.integers(min_value=0, max_value=20)),
)
@example([cyc_root(1, 3)] * 3, [CycQ.from_rational(k) for k in range(1, 11)], None)  # mixed
@example([CycQ.from_rational(1)] * 10, [CycQ.from_rational(-2)] * 10, None)  # dense ints
def test_sparse_convolution_matches_schoolbook(a, b, limit):
    assert _product(a, b, limit) == _schoolbook(a, b, limit)


@st.composite
def sum_args(draw):
    """The arguments (T, lead, values, trunc) of a Puiseux at T in {1, 2, 3, 6},
    its lead on its (1/T)Z grid or off it, its truncation on a (1/2T)Z grid, its
    slots sparse_cycq."""
    T = draw(st.sampled_from([1, 2, 3, 6]))
    lead = draw(st.one_of(st.integers(-6, 6).map(lambda k: Fraction(k, T)),
                          st.fractions(min_value=-2, max_value=2, max_denominator=4)))
    trunc = lead + Fraction(draw(st.integers(0, 16)), 2 * T)
    n = math.ceil((trunc - lead) * T)
    return T, lead, draw(st.lists(sparse_cycq, min_size=n, max_size=n)), trunc


def sum_terms():
    """The Puiseux of sum_args()."""
    return sum_args().map(lambda args: Puiseux(*args))


@settings(max_examples=60, deadline=None)
@given(st.lists(sum_terms(), min_size=1, max_size=5))
def test_sum_is_the_pairwise_fold_in_one_pass(xs):
    total = Puiseux.sum(xs)
    lead_dens = ((x.lead - xs[0].lead).denominator for x in xs)
    assert total.T == math.lcm(*(x.T for x in xs), *lead_dens)
    assert total.lead == min(x.lead for x in xs)
    assert total.trunc == min(x.trunc for x in xs)
    want = {}
    for x in xs:
        for e, c in x.terms():
            if e < total.trunc:
                want[e] = want.get(e, CycQ.zero) + c
    assert dict(total.terms()) == {e: c for e, c in want.items() if c}
    folded = functools.reduce(operator.add, xs)
    assert (folded.T, folded.lead, folded.trunc) == (total.T, total.lead, total.trunc)
    # slot for slot, conductors included; every zero slot of a sum, even of
    # one term (which the fold leaves as it is), is CycQ.zero
    assert [(c.conductor, c.coeffs) for c in total.coeffs] == [
        (c.conductor, c.coeffs) if c else (1, (0,)) for c in folded.coeffs]


# a series' parts: (lead slot, coefficients) on the (1/T)Z grid
cyclotomic_part = st.tuples(
    st.integers(min_value=-4, max_value=4), st.lists(sparse_cycq, max_size=12)
)


def _part(t, lead_slot, coeffs):
    lead = Fraction(lead_slot, t)
    return Puiseux(t, lead, coeffs, lead + Fraction(len(coeffs), t))


def _term_sum(s, tau):
    """sum c q^e (2 pi i tau/T)^i over the nonzero terms of each l^i part,
    one cmath.exp per term, and sum |term|."""
    parts = s.parts if isinstance(s, LogQSeries) else [s]
    logfac = 2j * cmath.pi * tau / s.T
    terms = [c.embed() * cmath.exp(2j * cmath.pi * tau * e) * logfac**i
             for i, p in enumerate(parts) for e, c in p.terms()]
    return sum(terms), sum(map(abs, terms))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(cyclotomic_part, min_size=1, max_size=3),
    st.booleans(),
    st.integers(min_value=2, max_value=3),
    st.complex_numbers(min_magnitude=0, max_magnitude=0.5).map(
        lambda w: complex(w.real, 0.4 + abs(w.imag) * 3)),
)
def test_eval_agrees_with_the_term_sum_and_across_branchings(t, parts, logq, m, tau):
    ps = [_part(t, lead, coeffs) for lead, coeffs in parts]
    s = LogQSeries(t, ps) if logq else ps[0]
    want, scale = _term_sum(s, tau)
    got = eval_at_tau(s, tau)
    assert abs(got.value - want) <= 1e-12 * scale
    assert abs(eval_at_tau(s.with_branching(m * t), tau).value - want) <= 1e-12 * scale
    assert eval_at_tau(Embedded(s), tau) == got


def test_subtraction_adds_the_negation():
    p = Puiseux(2, Fraction(-1, 2), [1, cyc_root(1, 4), 0, Fraction(-3, 2)], 3)
    z = 2 - cyc_root(1, 3)
    for a, b in ((z, p), (p, z), (p, 5)):
        assert (a - b).to_json() == (a + (-b)).to_json()
    with pytest.raises(TypeError):
        p - "x"
    with pytest.raises(TypeError):
        z - object()
    assert (p == "x") is False


@pytest.mark.parametrize("value", [0.5, 1.5j])
def test_puiseux_rejects_float_and_complex_coefficients(value):
    # every coefficient is a CycQ; only an int or a Fraction is coerced to one
    with pytest.raises(TypeError):
        Puiseux(1, 0, [Fraction(1, 2), value], 2)
    with pytest.raises(TypeError):
        Puiseux.constant(value, 2)
    with pytest.raises(TypeError):
        Puiseux.constant(value, 0)  # no slot to hold it, still rejected
    with pytest.raises(TypeError):
        Puiseux.monomial(value, 1, 3)
    with pytest.raises(TypeError):
        Puiseux.from_terms([(0, 1), (1, value)], 3)
    with pytest.raises(TypeError):
        geometric(3).scalar_mul(value)


_PAIR = TorsionPair(Fraction(1, 2), Fraction(1, 3))
# theta^2 S + theta S - 3/4 S + q S, roots 1/2 and -3/2
_ODE = RegularSingularODE(2, 1, [Puiseux.from_terms([(0, Fraction(-3, 4)), (1, 1)], 6),
                                 Puiseux.constant(1, 6)])
# every public entry point that takes a truncation, called with it
_TRUNCATED = {
    "eisenstein": lambda tr: forms.eisenstein(4, tr),
    "g2_eval": lambda tr: forms.g2_eval(0.5j, tr),
    "qk_series": lambda tr: forms.qk_series(2, _PAIR, tr),
    "qk_series_divisor_oracle": lambda tr: forms.qk_series_divisor_oracle(3, _PAIR, tr),
    "pbar_series": lambda tr: forms.pbar_series(2, _PAIR, (-1, 1), tr),
    "klein_hecke_series": lambda tr: forms.klein_hecke_series(_PAIR, tr),
    "prop48_check": lambda tr: forms.prop48_check(2, 0, _PAIR, tr),
    "prop46_exact_checks": lambda tr: forms.prop46_exact_checks(_PAIR, tr),
    "frobenius_solve": lambda tr: frobenius.frobenius_solve(_ODE, tr),
    "solve_inhomogeneous": lambda tr: frobenius.solve_inhomogeneous(
        _ODE, LogQSeries(1, [Puiseux.monomial(1, 1, 8)]), tr),
    "delta_j_J": lambda tr: moonshine.delta_j_J(tr),
    "hauptmodul": lambda tr: moonshine.hauptmodul("2B", tr),
    "weight4_onepoint": lambda tr: moonshine.weight4_onepoint(tr),
    "twisted_weight4": lambda tr: moonshine.twisted_weight4("2B", tr),
    "product_expand": lambda tr: product_expand([(1, -1)], tr),
}


@pytest.mark.parametrize("name", sorted(_TRUNCATED))
def test_float_truncation_is_a_type_error(name):
    # a float is its binary value: frobenius_solve(ode, 1.1) made parts of trunc
    # 3602879701896397/2251799813685248, and qk_series one of 2476979795053773/2^51
    build = _TRUNCATED[name]
    with pytest.raises(TypeError):
        build(1.1)
    for trunc in (3, Fraction(7, 2), "7/2"):
        build(trunc)


@pytest.mark.parametrize("value", [0.1, 0.5])
def test_float_rationals_that_set_a_denominator_are_type_errors(value):
    # 0.1 is 3602879701896397/2^55: TorsionPair(0.1, 1/2) had M = 2^55, so any
    # qk_series on it asked for 2^55 slots per unit of trunc, and cyc_root_of(0.1)
    # for Phi of order 2^55; each now fails before it allocates anything
    with pytest.raises(TypeError):
        TorsionPair(value, Fraction(1, 2))
    with pytest.raises(TypeError):
        TorsionPair(Fraction(1, 2), value)
    with pytest.raises(TypeError):
        cyc_root_of(value)
    with pytest.raises(TypeError):
        forms.lemma_plambda_check(0.1 + 0.3j, 1.2j, value)
    assert TorsionPair("1/2", 1).M == 2 and cyc_root_of("1/2") == -1
    assert forms.lemma_plambda_check(0.1 + 0.3j, 1.2j, "1/2").passed


@pytest.mark.parametrize("value", [0.1, 0.5, 1.5j])
def test_puiseux_rejects_float_and_complex_exponents(value):
    # a float exponent is its binary value: 0.1 is 3602879701896397/2^55, not
    # 1/10, so it read zero from the q^(1/10) slot and made a wrong lead
    s = Puiseux(10, 0, [0, 5], Fraction(1, 5))
    assert s.coeff_at(Fraction(1, 10)) == 5 and s.coeff_at("1/10") == 5
    with pytest.raises(TypeError):
        Puiseux(1, value, [1], 2)
    with pytest.raises(TypeError):
        Puiseux(1, 0, [1], value + 2)
    with pytest.raises(TypeError):
        Puiseux.zero(value)
    with pytest.raises(TypeError):
        Puiseux.monomial(1, value, 3, 10)
    with pytest.raises(TypeError):
        Puiseux.monomial(1, 0, value + 3)
    with pytest.raises(TypeError):
        Puiseux.from_terms([(0, 1), (value, 1)], 3, 10)
    with pytest.raises(TypeError):
        Puiseux.from_terms([(0, 1)], value + 3)
    with pytest.raises(TypeError):
        s.coeff_at(value)
    with pytest.raises(TypeError):
        s.shifted(value)
    with pytest.raises(TypeError):
        s.truncated(value / 10)


def test_json_bool_is_not_an_int():
    # True == 1, so a JSON true passed every int test and was read as 1
    data = Puiseux.constant(3, 5).to_json()
    with pytest.raises(ValueError, match="branching must be a positive integer"):
        Puiseux.from_json(dict(data, T=True))
    with pytest.raises(ValueError, match="branching must be a positive integer"):
        Puiseux(True, 0, [1], 2)
    with pytest.raises(TypeError):
        Puiseux(1, True, [1], 2)
    with pytest.raises(TypeError):
        Puiseux.from_json(dict(data, trunc=True))
    with pytest.raises(ValueError, match="log powers must be 0, 1, ..., n-1"):
        LogQSeries.from_json([dict(data, log_power=False), dict(data, log_power=True)])
    with pytest.raises(ValueError, match="log powers must be 0, 1, ..., n-1"):
        LogQSeries.from_json([dict(data, log_power=0), dict(data, log_power=1.0)])
    assert LogQSeries.from_json([dict(data, log_power=1), dict(data, log_power=0)]).T == 1


def test_klein_form_inverse_at_branching_96():
    # g of (1/4, 2/3) is at branching 4 with lead -1/96 off its grid; refined,
    # it is a T = 96 series
    g, _ = klein_hecke_series(TorsionPair(Fraction(1, 4), Fraction(2, 3)), 10)
    assert (g.T, g.lead) == (4, Fraction(-1, 96))
    for s in (g, g.with_branching(96)):
        assert s * s.inverse() == 1


# -- the rational kernel and the Newton inverse -----------------------------------

# signed, mixed denominators, frequent zeros, and values wide enough to need
# multi-byte slots
rational_values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(min_value=-(10**30), max_value=10**30).map(Fraction),
)


def _rational_row(values):
    return [CycQ.from_rational(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(rational_values, max_size=60),
    st.lists(rational_values, max_size=60),
    st.one_of(st.none(), st.integers(min_value=0, max_value=130)),
)
@example([Fraction(0)] * 7, [Fraction(3), Fraction(-1, 2)], None)  # all-zero operand
@example([Fraction(-1)] * 5, [Fraction(1)] * 5, None)  # every slot negative
@example([Fraction(1, 3), Fraction(-2, 5)], [Fraction(-7, 2)] * 4, 3)
@example([Fraction(k, 7) for k in range(-4, 5)], [Fraction(3)] * 8, None)  # 8 nonzero slots each
@example([Fraction(k, 7) for k in range(-5, 5)], [Fraction(10**30)] * 9, 12)  # 9 each
def test_rational_kernel_matches_schoolbook(a, b, limit):
    a, b = _rational_row(a), _rational_row(b)
    assert _product(a, b, limit) == _schoolbook(a, b, limit)
    assert _product(a, a, limit) == _schoolbook(a, a, limit)


@st.composite
def int_rows(draw):
    """Two nonempty int rows, with zero slots, negative values and values of
    10^30, and an n no smaller than either row."""
    value = st.one_of(st.just(0), st.integers(-50, 50),
                      st.integers(-(10**30), 10**30), st.sampled_from([10**30, -(10**30)]))
    ra = draw(st.lists(value, min_size=1, max_size=40))
    rb = draw(st.lists(value, min_size=1, max_size=40))
    return ra, rb, draw(st.integers(max(len(ra), len(rb)), len(ra) + len(rb) + 2))


@settings(max_examples=100, deadline=None)
@given(int_rows())
@example(([0, 0, 0], [5, -1], 3))
@example(([10**30, -(10**30), 0, 1], [-(10**30)] * 3, 7))
def test_kronecker_kernel_matches_sparse_loop(rows):
    ra, rb, n = rows
    assert _int_convolve(ra, rb, n) == _sparse_convolve(rb, ra, n)


def _spy(monkeypatch, names):
    """Count the calls to each named ``series`` function from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _real=getattr(series, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(series, name, spy)
    return calls


def test_products_pick_their_kernel_from_their_rows(monkeypatch):
    # the criterion-9 partition ODE: its coefficient and solution are dense ints
    tr = Fraction(65)
    P = product_expand([(1, -1)], tr)
    partition = RegularSingularODE(1, 1, [-(theta(P, "full") * P.inverse()).truncated(tr - 1)])
    (dense,) = frobenius.frobenius_solve(partition, 60).solutions
    sparse = frobenius.frobenius_solve(_ODE, 6).solutions
    dP = theta(P, "full")
    calls = _spy(monkeypatch, ("_int_convolve", "_pack"))
    assert apply_ode(partition, dense).is_zero()
    assert calls["_int_convolve"] == 1
    # theta^2 S + theta S - 3/4 S + q S: coefficients of 2 and 1 nonzero slots
    calls["_int_convolve"] = 0
    assert all(apply_ode(_ODE, sol).is_zero() for sol in sparse)
    assert calls["_int_convolve"] == 0
    calls["_pack"] = 0
    P * P
    assert calls["_pack"] == 1
    P * dP
    assert calls["_pack"] == 3
    # an int row plus a CycQ row is a value row, dense or not: its products,
    # of rows and of series, take the sparse loop
    calls = _spy(monkeypatch, ("_int_convolve", "_sparse_convolve"))
    Q = P.truncated(20)
    a, b = (series._row(x, 1, 1) for x in (Q, Q * cyc_root(1, 4)))
    mixed = series._sum_rows([a, b], 1, 0, 20)
    assert not mixed[4]
    series._mul_rows(mixed, a, 1)
    (Q + Q * cyc_root(1, 4)) * Q
    assert calls == {"_int_convolve": 0, "_sparse_convolve": 2}


def _lifted(s: Puiseux, n: int) -> Puiseux:
    """The same series with every coefficient stored at conductor n."""
    return Puiseux(s.T, s.lead, [c.lift(n) for c in s.coeffs], s.trunc)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    st.lists(rational_values, max_size=40),
    st.integers(min_value=1, max_value=3),
)
@example(Fraction(3, 2), [Fraction(n % 7 - 3, n % 5 + 1) for n in range(39)], 1)
# a negative non-unit lead: the sign is normalised and the denominator grows
@example(Fraction(-7, 3), [Fraction(n % 5 - 2, n % 3 + 1) for n in range(40)], 2)
@example(Fraction(1), [Fraction(n % 9 - 4) for n in range(40)], 1)  # the denominator stays 1
def test_newton_inverse_matches_sparse_recurrence(lead, rest, t):
    g = Puiseux(t, Fraction(-1, t), [lead] + rest, Fraction(len(rest), t))
    inv = g.inverse()
    # at conductor 3 the coefficients are not rational rows: the recurrence runs
    expected = _lifted(g, 3).inverse()
    assert (inv.T, inv.lead, inv.trunc) == (expected.T, expected.lead, expected.trunc)
    assert inv.coeffs == expected.coeffs
    assert g * inv == 1


@pytest.mark.parametrize("trunc", [3, 20, 150, 400])
def test_inverse_of_delta_is_its_euler_product(trunc):
    # delta_j_J builds 1/Delta as q^-1 prod(1-q^n)^-24 and inverts no series
    inv = product_expand([(1, 24)], trunc).shifted(1).inverse()
    euler = product_expand([(1, -24)], trunc).shifted(-1)
    assert (euler.T, euler.lead, euler.trunc) == (inv.T, inv.lead, inv.trunc)
    assert euler.coeffs == inv.coeffs


def test_delta_inverse_at_200_terms():
    delta = product_expand([(1, 24)], 200).shifted(1)
    inv = delta.inverse()
    assert len(inv.coeffs) == 200
    assert inv.coeffs == _lifted(delta, 3).inverse().coeffs
    assert delta * inv == 1
