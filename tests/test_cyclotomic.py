"""Unit and property tests for exact cyclotomic arithmetic."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiform import cyclotomic
from orbiform.cyclotomic import (
    CycQ,
    cyc_root,
    cyc_root_of,
    cyclotomic_polynomial,
    euler_phi,
)

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


@settings(max_examples=60, deadline=None)
@given(cycq_elements().filter(lambda x: not x.is_zero()))
def test_every_nonzero_element_has_an_inverse(x):
    assert x * x.inverse() == CycQ.one


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


@settings(max_examples=60, deadline=None)
@given(cycq_elements(), st.data())
def test_lift_keeps_the_complex_value(x, data):
    # the embedding reads no reduction table, so it checks every row a lift uses
    n = data.draw(st.sampled_from(range(x.conductor, 61, x.conductor)))
    assert abs(x.lift(n).embed() - x.embed()) < 1e-9


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
