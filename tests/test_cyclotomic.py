"""Unit and property tests for exact cyclotomic arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiform import cyclotomic
from orbiform.cyclotomic import (
    CycQ,
    cyc_root,
    cyc_root_of,
    cyclotomic_polynomial,
    euler_phi,
)
from orbiform.series import Embedded, Puiseux

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def cycq_elements(max_conductor=12):
    def build(n, data):
        return CycQ(n, [data.draw(rationals) for _ in range(euler_phi(n))])

    return st.integers(min_value=1, max_value=max_conductor).flatmap(
        lambda n: st.builds(
            CycQ, st.just(n), st.lists(
                rationals, min_size=euler_phi(n), max_size=euler_phi(n)
            )
        )
    )


def test_phi_and_cyclotomic_polynomials():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_basics():
    i = cyc_root(1, 4)
    assert i * i == CycQ.from_rational(-1)
    w = cyc_root(1, 3)
    assert w**3 == CycQ.one
    assert w**2 + w + 1 == CycQ.zero
    # minimal conductor reduction
    assert cyc_root(2, 4) == CycQ.from_rational(-1)
    assert cyc_root(3, 6) == CycQ.from_rational(-1)
    assert cyc_root_of(Fraction(1, 2)) == CycQ.from_rational(-1)
    assert cyc_root_of(Fraction(7, 3)) == cyc_root(1, 3)


def test_order_of_every_root():
    for n in range(1, 13):
        z = cyc_root(1, n)
        assert z**n == CycQ.one
        for k in range(1, n):
            assert z**k != CycQ.one or n == 1


@settings(max_examples=40, deadline=None)
@given(cycq_elements(), cycq_elements(), cycq_elements())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + CycQ.zero == a
    assert a * CycQ.one == a
    assert a - a == CycQ.zero


@settings(max_examples=40, deadline=None)
@given(cycq_elements(8), cycq_elements(8))
def test_embed_is_a_homomorphism(a, b):
    ea, eb = a.embed(), b.embed()
    assert abs(complex((a + b).embed()) - (ea + eb)) < 1e-9
    assert abs(complex((a * b).embed()) - ea * eb) < 1e-7


def test_embed_matches_exponential():
    for n in (*range(1, 13), 24, 60, 84):
        for j in range(n):
            got = cyc_root(j, n).embed()
            want = cmath.exp(2j * cmath.pi * j / n)
            assert abs(got - want) < 1e-12


def test_inverse_and_division():
    z = cyc_root(1, 5)
    x = z + 2 * z**3 - Fraction(1, 2)
    assert x * x.inverse() == CycQ.one
    assert (x / x) == CycQ.one
    with pytest.raises(ZeroDivisionError):
        CycQ.zero.inverse()
    # powers, negative ones through the inverse, against repeated products
    for y in (CycQ.from_rational(Fraction(-2, 3)), cyc_root(1, 3) - 1, x, 1 + cyc_root(5, 12) / 2):
        for e in range(-3, 7):
            expected = CycQ.one
            for _ in range(abs(e)):
                expected = expected * (y if e > 0 else y.inverse())
            assert y**e == expected, (y, e)


@settings(max_examples=60, deadline=None)
@given(cycq_elements().filter(lambda x: not x.is_zero()))
def test_every_nonzero_element_has_an_inverse(x):
    assert x * x.inverse() == CycQ.one


def polys(coeffs, max_degree=3):
    """Polynomials with a nonzero top coefficient, as ascending lists."""
    return st.tuples(
        st.lists(coeffs, max_size=max_degree), coeffs.filter(bool)
    ).map(lambda lt: lt[0] + [lt[1]])


# coefficients in Q and in Q(zeta_3)
_fields = st.sampled_from(
    [rationals, st.builds(lambda a, b: a + b * cyc_root(1, 3), rationals, rationals)]
)


@settings(max_examples=60, deadline=None)
@given(_fields.flatmap(lambda k: st.tuples(polys(k), polys(k), polys(k))))
def test_poly_gcdex_gives_the_monic_gcd_and_its_cofactor(cuv):
    # a = c u and b = c v, so c divides the gcd
    c, u, v = cuv
    a, b = cyclotomic._poly_mul(c, u), cyclotomic._poly_mul(c, v)
    g, s = cyclotomic._poly_gcdex(a, b)
    rem = lambda x, y: cyclotomic._poly_divmod_q(x, y)[1]
    assert g[-1] == 1
    assert not any(rem(a, g)) and not any(rem(b, g)) and not any(rem(g, c))
    assert not any(rem(cyclotomic._poly_sub(cyclotomic._poly_mul(s, a), g), b))


def test_high_precision_embedding():
    z = cyc_root(1, 7)
    hi = z.embed(200)
    lo = z.embed()
    assert abs(complex(hi) - lo) < 1e-14


def test_lift_and_cross_conductor_arithmetic():
    w3 = cyc_root(1, 3)
    i4 = cyc_root(1, 4)
    prod = w3 * i4
    assert prod == cyc_root(7, 12)
    assert w3.lift(12) == w3
    assert w3 + Fraction(1, 2) - Fraction(1, 2) == w3


def test_equal_values_across_conductors_hash_equally():
    a = cyc_root(1, 3)
    b = a.lift(6)
    assert a == b
    assert len({a, b}) == 1
    assert hash(CycQ(6, [Fraction(1, 2), 0])) == hash(Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(cycq_elements(), st.data())
def test_lift_preserves_hash(x, data):
    n = data.draw(st.sampled_from(range(x.conductor, 13, x.conductor)))
    y = x.lift(n)
    assert x == y
    assert hash(x) == hash(y)
    # truth is the zero test at every conductor, a zero lifted to 12 included
    assert all(bool(v) == (not v.is_zero()) for v in (x, y, CycQ.zero.lift(12)))


@settings(max_examples=60, deadline=None)
@given(cycq_elements(), st.data())
def test_lift_keeps_the_complex_value(x, data):
    # the embedding reads no reduction table, so it checks every row a lift uses
    n = data.draw(st.sampled_from(range(x.conductor, 61, x.conductor)))
    assert abs(x.lift(n).embed() - x.embed()) < 1e-9


# -- the stored form: integer coordinates over one denominator in lowest terms --

NORMAL_FORM_CONDUCTORS = (1, 2, 3, 4, 5, 7, 12)
wide_rationals = st.builds(Fraction, st.integers(-10**18, 10**18), st.integers(1, 10**12))


def _coordinates(n):
    return st.lists(wide_rationals | rationals, min_size=euler_phi(n), max_size=euler_phi(n))


_conductor_and_coordinates = st.sampled_from(NORMAL_FORM_CONDUCTORS).flatmap(
    lambda n: st.tuples(st.just(n), _coordinates(n)))


def _in_normal_form(x) -> bool:
    return (type(x.den) is int and x.den > 0 and len(x.nums) == euler_phi(x.conductor)
            and all(type(v) is int for v in x.nums) and math.gcd(x.den, *x.nums) == 1
            and (x.den == 1 or any(x.nums)))


@settings(max_examples=60, deadline=None)
@given(_conductor_and_coordinates, _conductor_and_coordinates, wide_rationals,
       st.integers(-6, 6), st.integers(1, 4))
def test_every_result_is_in_normal_form(a_data, b_data, r, k, lift_by):
    (n, c), (m, d) = a_data, b_data
    a, b = CycQ(n, c), CycQ(m, d)
    assert a.coeffs == tuple(map(Fraction, c)) and b.coeffs == tuple(map(Fraction, d))
    results = [a, b, a + b, a - b, a - a, -a, a * b, a * a, a * r, a * k, a + r, r - a, a + k,
               a.lift(n * lift_by), (a * b).lift(math.lcm(n, m) * lift_by)]
    results += [x.inverse() for x in (a, b) if x]
    for x in results:
        assert _in_normal_form(x), (x.conductor, x.den, x.nums)
    assert (a - a).den == 1 and not any((a - a).nums)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NORMAL_FORM_CONDUCTORS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_coordinates(n), min_size=1, max_size=6))))
def test_embedding_matches_the_fraction_embedding_bit_for_bit(data):
    import numpy as np
    n, rows = data
    slots = [CycQ(n, c) for c in rows]
    got = Embedded(Puiseux(1, 0, slots, len(slots))).coeffs[0]
    # float(Fraction) per coordinate, times the roots, summed per slot
    want = (np.array([[float(x) for x in v.coeffs] for v in slots])
            * cyclotomic._root_powers(n)).sum(1)
    assert got.tolist() == want.tolist()
    assert [v.embed() for v in slots] == [
        sum((float(x) * w for x, w in zip(v.coeffs, cyclotomic._root_powers(n)) if x), complex(0))
        for v in slots]


def test_conductor_must_be_a_positive_integer():
    for n in (0, -3):
        with pytest.raises(ValueError):
            CycQ(n, [])
        with pytest.raises(ValueError):
            cyc_root(1, 3).lift(n)
    for n in (0, "3", 2.5):
        with pytest.raises(ValueError):
            CycQ.from_json({"conductor": n, "coeffs": []})


def test_rational_detection():
    x = cyc_root(1, 3) + cyc_root(2, 3)  # = -1
    assert x.is_rational()
    assert x.rational_value() == -1
    assert not cyc_root(1, 3).is_rational()


def test_json_roundtrip():
    x = cyc_root(1, 5) * Fraction(3, 7) + 2
    assert CycQ.from_json(x.to_json()) == x


def test_json_bool_is_not_an_int():
    # True == 1: CycQ.from_json({"conductor": true, "coeffs": [true]}) was CycQ(1)
    with pytest.raises(ValueError, match="conductor must be a positive integer"):
        CycQ.from_json({"conductor": True, "coeffs": ["1"]})
    with pytest.raises(ValueError, match="conductor must be a positive integer"):
        CycQ(True, [1])
    for conductor, coords in ((1, [True]), (1, [False]), (3, ["1", True])):
        with pytest.raises(TypeError):
            CycQ.from_json({"conductor": conductor, "coeffs": coords})
    with pytest.raises(TypeError):
        cyclotomic._exponent(True)
    assert CycQ.from_json({"conductor": 3, "coeffs": [1, "1/2"]}) == 1 + cyc_root(1, 3) / 2


@st.composite
def _int_windows(draw):
    """(n, rows, step): up to 8 int rows of one width w <= n, n <= 30, mostly zeros."""
    n = draw(st.integers(1, 30))
    width, step = draw(st.integers(1, n)), draw(st.integers(1, n))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    return n, draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=8)), step


@settings(max_examples=200, deadline=None)
@given(_int_windows())
# Phi_105 is the first with a coefficient -2: its table has entries +-2
@example((105, [[(i ** 3 + 3 * r * i) % 11 - 5 for i in range(105)] for r in range(4)], 1))
@example((105, [[(i ** 3 + r) % 11 - 5 for i in range(48)] for r in range(3)], 2))
def test_power_basis_reduces_a_window_as_each_row_alone(window):
    # a window is given by column and a lone row (CycQ.lift, CycQ.__mul__) as its ints;
    # both must give sum_i row[i] x^(i step) mod Phi_n, here by division in Q[x]
    n, rows, step = window
    cols = [[row[i] for row in rows] for i in range(len(rows[0]) if rows else 1)]
    got = cyclotomic._power_basis(n, cols, step)
    assert got == [cyclotomic._power_basis(n, row, step) for row in rows]
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
    for row, nums in zip(rows, got):
        poly = [Fraction(0)] * n
        for i, c in enumerate(row):
            poly[i * step % n] += c
        rem = cyclotomic._poly_divmod_q(poly, phi)[1]
        assert type(nums) is tuple and list(nums) == rem + [0] * (euler_phi(n) - len(rem))


def test_per_conductor_caches_are_bounded():
    caches = (
        cyclotomic.cyclotomic_polynomial,
        cyclotomic._reduction_table,
        cyclotomic._root_powers,
        cyclotomic._trace_weights,
    )
    for n in range(1, 81):
        cyclotomic._trace_weights(n)
        cyclotomic._root_powers(n)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == 64
        assert info.currsize <= 64


def test_root_cache_is_bounded():
    for m in range(1, 61):
        for j in range(m):
            cyclotomic.cyc_root(j, m)
    info = cyclotomic.cyc_root.cache_info()
    assert info.maxsize == 1024
    assert info.currsize <= 1024
