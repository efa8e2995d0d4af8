"""Tests for SL(2,Z) matrices, the torsion-pair action, and slash evaluation."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiform.errors import NotGenerating, NotUnimodular
from orbiform.modular import (
    IDENTITY,
    S,
    T,
    GammaMat,
    TorsionPair,
    pair_act,
    reduce_cyclic_pair,
    slash_eval,
)


def random_gamma(rng, length=8):
    g = IDENTITY
    for _ in range(rng.randrange(1, length)):
        g = g @ rng.choice([S, T, S.inverse(), T.inverse()])
    return g


def test_unimodularity_enforced():
    with pytest.raises(NotUnimodular):
        GammaMat(1, 0, 0, 2)
    with pytest.raises(NotUnimodular):
        GammaMat(1, 1, 1, 1)


def test_group_structure():
    assert S @ S.inverse() == IDENTITY
    assert (S @ T).inverse() @ (S @ T) == IDENTITY
    # S^2 = -I acts trivially on the upper half-plane
    tau = 0.3 + 0.9j
    assert abs((S @ S).apply(tau) - tau) < 1e-15


def test_moebius_composition():
    rng = random.Random(7)
    tau = 0.1 + 1.4j
    for _ in range(20):
        g1, g2 = random_gamma(rng), random_gamma(rng)
        assert abs((g1 @ g2).apply(tau) - g1.apply(g2.apply(tau))) < 1e-9


def test_pair_normalization_halfopen():
    p = TorsionPair(Fraction(5, 4), Fraction(0))
    assert p.j_over_M == Fraction(1, 4)
    assert p.l_over_N == 1
    assert TorsionPair(Fraction(1), Fraction(1)).is_trivial()
    assert p.M == 4 and p.N == 1


def test_pair_act_examples():
    p = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    ps = pair_act(p, S)
    # (mu, lam) . S = (lam, mu^-1)
    assert ps.j_over_M == Fraction(1, 3)
    assert ps.l_over_N == Fraction(1, 2)
    pt = pair_act(p, T)
    assert pt.j_over_M == Fraction(1, 2)
    assert pt.l_over_N == Fraction(5, 6)


DENOMS6 = [
    Fraction(n, d)
    for d in range(1, 7)
    for n in range(1, d + 1)
    if gcd(n, d) == 1
]


def test_pair_act_is_a_right_action_exhaustive():
    rng = random.Random(20260823)
    mats = [(random_gamma(rng), random_gamma(rng)) for _ in range(20)]
    for x in DENOMS6:
        for y in DENOMS6:
            p = TorsionPair(x, y)
            for g1, g2 in mats:
                assert pair_act(pair_act(p, g1), g2) == pair_act(p, g1 @ g2)
            assert pair_act(p, IDENTITY) == p


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=8),
    st.fractions(min_value=0, max_value=1, max_denominator=8),
    st.integers(min_value=0, max_value=3),
)
def test_pair_act_invertible(x, y, seed):
    rng = random.Random(seed)
    g = random_gamma(rng)
    p = TorsionPair(x, y)
    assert pair_act(pair_act(p, g), g.inverse()) == p


def test_reduce_cyclic_pair_exhaustive_small_n():
    for n in range(1, 13):
        for a in range(n):
            for c in range(n):
                if gcd(gcd(a, c), n) != 1:
                    with pytest.raises(NotGenerating):
                        reduce_cyclic_pair(a, c, n)
                    continue
                gamma, e = reduce_cyclic_pair(a, c, n)
                assert gamma.a * gamma.d - gamma.b * gamma.c == 1
                assert gcd(e, n) == 1
                assert (a * gamma.a + c * gamma.c) % n == 0
                assert (a * gamma.b + c * gamma.d) % n == e % n


def test_slash_eval_weights():
    F = lambda tau: tau**2
    tau = 0.4 + 1.2j
    j = S.automorphy(tau)
    assert abs(slash_eval(F, 3, S, tau) - j ** (-3) * F(S.apply(tau))) < 1e-12
