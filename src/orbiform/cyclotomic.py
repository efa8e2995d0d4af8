"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) modulo
the N-th cyclotomic polynomial, with Fraction coordinates.  Rationals are
plain ``fractions.Fraction`` throughout the package.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction
from math import gcd

import mpmath

Rational = Fraction


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@functools.lru_cache(maxsize=64)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending order."""
    if n == 1:
        return (-1, 1)
    p = max(q for q in range(2, n + 1) if n % q == 0 and euler_phi(q) == q - 1)
    m = n // p
    # for the largest prime p | n: Phi_n(x) = Phi_m(x^p), over Phi_m(x) unless p | m
    base = [Fraction(c) for c in cyclotomic_polynomial(m)]
    poly = [Fraction(0)] * (p * (len(base) - 1) + 1)
    poly[::p] = base
    if m % p:
        poly, rem = _poly_divmod_q(poly, base)
        assert rem == [0]
    return tuple(int(c) for c in poly)


@functools.lru_cache(maxsize=64)
def _reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^e in the power basis mod Phi_n for e = 0 .. n-1, as integer rows."""
    phi = cyclotomic_polynomial(n)
    row = (1,) + (0,) * (len(phi) - 2)
    rows = [row]
    for _ in range(n - 1):
        # multiply by x and subtract top * Phi_n (monic)
        top = row[-1]
        row = tuple(c - top * p for c, p in zip((0,) + row[:-1], phi))
        rows.append(row)
    return tuple(rows)


class CycQ:
    """An element of Q(zeta_N) in the power basis mod Phi_N.

    Immutable; arithmetic between different conductors lifts both operands
    to the lcm.  Conductor reduction is lazy: values are kept at whatever
    conductor arithmetic produced, and equality lifts both sides.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if not isinstance(conductor, int) or conductor < 1:
            raise ValueError(f"conductor must be a positive integer, got {conductor!r}")
        d = euler_phi(conductor)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != d:
            raise ValueError(f"need {d} coordinates for conductor {conductor}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _make(cls, conductor: int, coeffs: tuple) -> "CycQ":
        # internal: coeffs already a tuple of Fractions of the right length
        obj = object.__new__(cls)
        object.__setattr__(obj, "conductor", conductor)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("CycQ is immutable")

    @staticmethod
    def from_rational(x) -> "CycQ":
        return CycQ._make(1, (Fraction(x),))

    zero = None  # set below
    one = None

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    # -- conductor handling -------------------------------------------------

    def lift(self, n: int) -> "CycQ":
        """Image in Q(zeta_n); requires conductor | n."""
        if n == self.conductor:
            return self
        if n < 1 or n % self.conductor != 0:
            raise ValueError("can only lift to a positive multiple of the conductor")
        step = n // self.conductor
        table = _reduction_table(n)
        out = [Fraction(0)] * euler_phi(n)
        for i, c in enumerate(self.coeffs):
            if c:
                for t, r in enumerate(table[i * step]):
                    if r:
                        out[t] += c * r
        return CycQ._make(n, tuple(out))

    def _common(self, other: "CycQ") -> tuple["CycQ", "CycQ"]:
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, CycQ):
            return v
        if isinstance(v, (int, Fraction)):
            return CycQ.from_rational(v)
        return NotImplemented

    def __add__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return CycQ._make(1, (self.coeffs[0] + other.coeffs[0],))
        if self.conductor == other.conductor:
            return CycQ._make(
                self.conductor, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
            )
        if other.conductor == 1:
            c = other.coeffs[0]
            return CycQ._make(
                self.conductor, (self.coeffs[0] + c,) + self.coeffs[1:]
            )
        if self.conductor == 1:
            c = self.coeffs[0]
            return CycQ._make(
                other.conductor, (other.coeffs[0] + c,) + other.coeffs[1:]
            )
        a, b = self._common(other)
        return CycQ._make(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycQ._make(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.conductor == 1:
                return CycQ._make(1, (self.coeffs[0] * other,))
            if other == 0:
                return CycQ._make(self.conductor, (Fraction(0),) * len(self.coeffs))
            return CycQ._make(self.conductor, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CycQ):
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return CycQ._make(1, (self.coeffs[0] * other.coeffs[0],))
        a, b = self._common(other)
        n = a.conductor
        d = len(a.coeffs)
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        table = _reduction_table(n)
        out = [Fraction(0)] * d
        for k, c in enumerate(prod):
            if c:
                for t, r in enumerate(table[k % n]):
                    if r:
                        out[t] += c * r
        return CycQ._make(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycQ":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return CycQ(self.conductor, (1 / self.coeffs[0],) + self.coeffs[1:])
        n = self.conductor
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        a = list(self.coeffs)
        # extended Euclid over Q[x]: s*a + t*phi = gcd = const
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _degree(r1) > 0:
            q, r = _poly_divmod_q(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _degree(r1) < 0:
            raise ZeroDivisionError("element not invertible (zero divisor?)")
        # the Bezout cofactor s1 of a against Phi_n has degree < phi(n)
        c = r1[0]
        return CycQ(n, [x / c for x in s1] + [Fraction(0)] * (euler_phi(n) - len(s1)))

    def __truediv__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = CycQ.from_rational(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # the normalized trace Tr/phi(N): unchanged by lift, and a rational itself
        weights = _trace_weights(self.conductor)
        return hash(sum(c * w for c, w in zip(self.coeffs, weights) if c))

    def __repr__(self):
        if self.is_rational():
            return f"CycQ({self.coeffs[0]})"
        return f"CycQ(zeta_{self.conductor}; {list(map(str, self.coeffs))})"

    # -- embedding ----------------------------------------------------------

    def embed(self, precision: int = 53):
        """Complex embedding zeta_N -> exp(2*pi*i/N).

        Returns a Python complex for precision <= 53, an mpmath ``mpc``
        otherwise.
        """
        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        if precision <= 53:
            omega = _root_powers(self.conductor)
            return sum(
                (float(c) * omega[i] for i, c in enumerate(self.coeffs) if c),
                complex(0),
            )
        with mpmath.workprec(precision + 10):
            w = mpmath.expjpi(mpmath.mpf(2) / self.conductor)
            acc = mpmath.mpc(0)
            p = mpmath.mpc(1)
            for c in self.coeffs:
                if c:
                    acc += mpmath.mpf(c.numerator) / c.denominator * p
                p *= w
            return acc

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "CycQ":
        return CycQ(data["conductor"], [Fraction(c) for c in data["coeffs"]])


CycQ.zero = CycQ(1, (Fraction(0),))
CycQ.one = CycQ(1, (Fraction(1),))


@functools.lru_cache(maxsize=64)
def _root_powers(n: int) -> tuple[complex, ...]:
    d = euler_phi(n)
    return tuple(cmath.exp(2j * cmath.pi * i / n) for i in range(d))


@functools.lru_cache(maxsize=64)
def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^i)/phi(n) for i < phi(n), the trace of multiplying by zeta_n^i."""
    table = _reduction_table(n)
    d = len(table[0])
    return tuple(Fraction(sum(table[(i + k) % n][k] for k in range(d)), d) for i in range(d))


# -- small Q[x] helpers for the extended Euclid -----------------------------

def _trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _degree(p: list[Fraction]) -> int:
    p = _trim(p)
    if len(p) == 1 and p[0] == 0:
        return -1
    return len(p) - 1


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _poly_divmod_q(a, b):
    """Quotient and remainder of a by a nonzero b in Q[x]."""
    r = _trim(a)
    b = _trim(b)
    db = len(b) - 1
    q = [Fraction(0)] * max(1, len(r) - db)
    for shift in range(len(r) - 1 - db, -1, -1):
        c = r[shift + db] / b[-1]
        if c:
            q[shift] = c
            for i, y in enumerate(b):
                if y:
                    r[i + shift] -= c * y
    return _trim(q), _trim(r[:db] or [Fraction(0)])


# -- public constructors ----------------------------------------------------

@functools.lru_cache(maxsize=1024)
def cyc_root(j: int, m: int) -> CycQ:
    """zeta_M^j as an exact element, reduced to minimal conductor.

    Cached: the series builders ask for the same few roots once per term.
    """
    if m < 1:
        raise ValueError("order must be positive")
    j %= m
    g = gcd(j, m)
    n = m // g
    return CycQ(n, _reduction_table(n)[j // g])


def cyc_root_of(x) -> CycQ:
    """e^(2*pi*i*x) for rational x."""
    x = Fraction(x)
    return cyc_root(x.numerator % x.denominator, x.denominator)
