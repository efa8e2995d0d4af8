"""SL(2,Z) matrices, the action on torsion pairs, and the slash action."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclotomic import CycQ, _exponent, _index, _positive_int, cyc_root_of
from .errors import NotGenerating, NotUnimodular


@dataclass(frozen=True)
class GammaMat:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _index(name, getattr(self, name)))
        if self.a * self.d - self.b * self.c != 1:
            raise NotUnimodular(f"determinant of {self} is not 1")

    def __matmul__(self, other: "GammaMat") -> "GammaMat":
        return GammaMat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GammaMat":
        return GammaMat(self.d, -self.b, -self.c, self.a)

    def apply(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def automorphy(self, tau: complex) -> complex:
        return self.c * tau + self.d


S = GammaMat(0, -1, 1, 0)
T = GammaMat(1, 1, 0, 1)
IDENTITY = GammaMat(1, 0, 0, 1)


def _mod_one_halfopen(x: Fraction) -> Fraction:
    """Representative of x mod Z in the half-open interval (0, 1]."""
    x = x - (x.numerator // x.denominator)  # now in [0, 1)
    return x if x != 0 else Fraction(1)


@dataclass(frozen=True)
class TorsionPair:
    """A point (j/M, l/N) of (Q/Z)^2, i.e. a pair of roots of unity."""

    j_over_M: Fraction
    l_over_N: Fraction

    def __post_init__(self):
        object.__setattr__(self, "j_over_M", _mod_one_halfopen(_exponent(self.j_over_M)))
        object.__setattr__(self, "l_over_N", _mod_one_halfopen(_exponent(self.l_over_N)))

    @property
    def lam(self) -> CycQ:
        return cyc_root_of(self.l_over_N)

    @property
    def M(self) -> int:
        return self.j_over_M.denominator

    @property
    def N(self) -> int:
        return self.l_over_N.denominator

    def is_trivial(self) -> bool:
        return self.j_over_M == 1 and self.l_over_N == 1

    def __str__(self):
        return f"({self.j_over_M},{self.l_over_N})"


def pair_act(t: TorsionPair, gamma: GammaMat) -> TorsionPair:
    """(mu, lam) . gamma = (mu^a lam^c, mu^b lam^d), exponents mod 1."""
    x, y = t.j_over_M, t.l_over_N
    return TorsionPair(gamma.a * x + gamma.c * y, gamma.b * x + gamma.d * y)


def reduce_cyclic_pair(a: int, c: int, n: int) -> tuple[GammaMat, int]:
    """Trivialize the first slot of a cyclic commuting pair.

    Given exponents (a, c) mod n with gcd(a, c, n) = 1, returns gamma in
    SL(2,Z) and e with gcd(e, n) = 1 such that the induced right action
    maps the exponent vector (a, c) to (0, e) mod n.
    """
    n = _positive_int("modulus", n)
    a, c = _index("a", a) % n, _index("c", c) % n
    if gcd(gcd(a, c), n) != 1:
        raise NotGenerating(f"({a},{c}) does not generate the cyclic group mod {n}")
    if a == 0:
        return IDENTITY, c % n
    # lift (a, c) to a coprime integer pair (a, c + n*k): for primes p | a
    # with p | n we already have p does not divide c; for p | a, p does not
    # divide n, pick k avoiding c + n*k = 0 mod p
    k = 0
    while gcd(a, c + n * k) != 1:
        k += 1
        if k > a:
            raise NotGenerating("no coprime lift found")  # unreachable
    c_lift = c + n * k
    # u*a + v*c_lift = 1; then [[c_lift, u], [-a, v]] sends (a, c_lift) to (0, 1)
    u, v = _bezout(a, c_lift)
    gamma = GammaMat(c_lift, u, -a, v)
    e = (a * gamma.b + c * gamma.d) % n
    assert (a * gamma.a + c * gamma.c) % n == 0
    return gamma, e


def _bezout(a: int, b: int) -> tuple[int, int]:
    """u, v with u*a + v*b = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_u, old_v


def slash_eval(evaluator, k: int, gamma: GammaMat, tau: complex):
    """(F |_k gamma)(tau) = (c tau + d)^(-k) F(gamma tau)."""
    return gamma.automorphy(tau) ** -_index("weight", k) * evaluator(gamma.apply(tau))
