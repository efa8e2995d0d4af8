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


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # exact division of integer polynomials, den monic up to +-1 leading coeff
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= lead
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@functools.lru_cache(maxsize=64)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending order."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert rem == [0]
    return tuple(poly)


@functools.lru_cache(maxsize=64)
def _reduction_table(n: int) -> list[tuple[Fraction, ...]]:
    """x^k mod Phi_n for k = 0 .. 2*(phi(n)-1), as coordinate rows."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * d
    if d > 0:
        cur[0] = Fraction(1)
    rows.append(tuple(cur))
    for _ in range(2 * d - 2):
        nxt = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        if top:
            for i in range(d):
                nxt[i] -= top * phi[i]
        rows.append(tuple(nxt))
        cur = nxt
    return rows


class CycQ:
    """An element of Q(zeta_N) in the power basis mod Phi_N.

    Immutable; arithmetic between different conductors lifts both operands
    to the lcm.  Conductor reduction is lazy: values are kept at whatever
    conductor arithmetic produced, and equality lifts both sides.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
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
        if n % self.conductor != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        step = n // self.conductor
        d = euler_phi(n)
        out = [Fraction(0)] * d
        # powers x^(i*step) may exceed the table; reduce iteratively
        power = [Fraction(0)] * d
        power[0] = Fraction(1)
        k = 0
        for i, c in enumerate(self.coeffs):
            target = i * step
            while k < target:
                power = _shift_reduce(power, n)
                k += 1
            if c:
                for t in range(d):
                    out[t] += c * power[t]
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
                row = table[k]
                for t in range(d):
                    out[t] += c * row[t]
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
        c = r1[0]
        inv = [x / c for x in s1]
        d = euler_phi(n)
        inv = inv[:d] + [Fraction(0)] * max(0, d - len(inv))
        # s1 may have degree >= d only transiently; reduce just in case
        if len(s1) > d:
            table = _reduction_table(n)
            out = [Fraction(0)] * d
            for k, coef in enumerate(x / c for x in s1):
                if coef:
                    row = table[k] if k < len(table) else None
                    if row is None:
                        raise ArithmeticError("unexpected degree in inverse")
                    for t in range(d):
                        out[t] += coef * row[t]
            inv = out
        return CycQ(n, inv)

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
    return tuple(sum(table[i + k][k] for k in range(d)) / d for i in range(d))


def _shift_reduce(coords: list[Fraction], n: int) -> list[Fraction]:
    """Multiply a power-basis vector by x, reducing mod Phi_n."""
    phi = cyclotomic_polynomial(n)
    d = len(coords)
    nxt = [Fraction(0)] + coords[:-1]
    top = coords[-1]
    if top:
        for i in range(d):
            nxt[i] -= top * phi[i]
    return nxt


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
    a = _trim(a)
    b = _trim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while _degree(r) >= _degree(b):
        shift = _degree(r) - _degree(b)
        c = r[-1] / b[-1]
        q[shift] += c
        for i, y in enumerate(b):
            r[i + shift] -= c * y
        r = _trim(r)
        if _degree(r) < 0:
            break
    return _trim(q), _trim(r)


# -- public constructors ----------------------------------------------------

@functools.lru_cache(maxsize=1024)
def cyc_root(j: int, m: int) -> CycQ:
    """zeta_M^j as an exact element, reduced to minimal conductor.

    Cached: the series builders ask for the same few roots once per term.
    """
    if m < 1:
        raise ValueError("order must be positive")
    j %= m
    if j == 0:
        return CycQ.one
    g = gcd(j, m)
    n, e = m // g, j // g
    d = euler_phi(n)
    if e < d:
        coords = [Fraction(0)] * d
        coords[e] = Fraction(1)
        return CycQ(n, coords)
    coords = [Fraction(0)] * d
    coords[0] = Fraction(1)
    for _ in range(e):
        coords = _shift_reduce(coords, n)
    return CycQ(n, coords)


def cyc_root_of(x) -> CycQ:
    """e^(2*pi*i*x) for rational x."""
    x = Fraction(x)
    return cyc_root(x.numerator % x.denominator, x.denominator)
