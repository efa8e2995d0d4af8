"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) modulo
the N-th cyclotomic polynomial, as integer coordinates over one positive
denominator in lowest terms; ``CycQ.coeffs`` reads them as Fractions.
Rationals are plain ``fractions.Fraction`` throughout the package.  A CycQ
is true when it is nonzero, so every layer zero-tests a coefficient with
``if c``.

Four private helpers hold the package's exact inner loops.
``_sparse_convolve`` is its one sparse product loop: ``CycQ.__mul__``, the
Euclid helper ``_poly_mul``, ``BiSeries.__mul__`` and ``series._mul_rows``
(every series product but a dense rational one) call it.  ``_power_basis`` is
its one reduction of sum c zeta_n^e through ``_reduction_table(n)``, the
table of zeta_n^e for every e mod n: on one row of ints for ``CycQ.lift`` and
``CycQ.__mul__``, and on a window of ``forms`` as it is stored, by column.
``_add_family`` is its one divisor sieve (the windows of ``forms``, sigma_(k-1)
of E_k, the sigma_1 of each eta factor), and ``_homogeneous_value`` its one
integer Horner loop (``BernoulliPoly`` and the rational roots of ``frobenius``).
"""

from __future__ import annotations

import cmath
import functools
import operator
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm


def _exponent(x) -> Fraction:
    """A rational input as a Fraction; a float, complex or bool is a TypeError (0.1 is not 1/10)."""
    if isinstance(x, (float, complex, bool)):
        raise TypeError(f"a rational is an int, Fraction or str, not {type(x).__name__}")
    return Fraction(x)


def _index(name: str, v) -> int:
    """An int from outside (a JSON file, an API call), or a numpy int, as an int;
    a bool, float, Fraction or str is a TypeError (True == 1 and 2.0 == 2)."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise TypeError(f"{name} must be an int, not {type(v).__name__}")
    return operator.index(v)


def _positive_int(name: str, v) -> int:
    """The int ``_index`` reads, at least 1; every refusal is a ValueError."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__") or v < 1:
        raise ValueError(f"{name} must be a positive integer, got {v!r}")
    return operator.index(v)


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


def _power_basis(n: int, cols: list, step: int):
    """sum_i c_i zeta_n^(i step) as integer power-basis coordinates mod Phi_n: each nonzero c_i
    scales row i step mod n of ``_reduction_table(n)``.  On a window by column, as ``forms``
    stores one (cols[i] holds c_i over its slots), each table entry is one C-level pass over a
    column, and one tuple is returned per slot; a row of ints (``CycQ.lift``, ``__mul__``) is
    one slot, one tuple entry by entry (Xeon, n = 12: 4 us, against 10 as a window)."""
    table = _reduction_table(n)
    if isinstance(cols[0], int):
        acc = [0] * len(table[0])
        for i, c in enumerate(cols):
            if c:
                for t, r in enumerate(table[i * step % n]):
                    if r:
                        acc[t] += c * r
        return tuple(acc)
    out = [None] * len(table[0])
    for i, col in enumerate(cols):
        if any(col):
            for t, r in enumerate(table[i * step % n]):
                if r and out[t] is None:
                    out[t] = col if r == 1 else [r * c for c in col]
                elif r == 1:
                    out[t] = list(map(operator.add, out[t], col))
                elif r == -1:
                    out[t] = list(map(operator.sub, out[t], col))
                elif r:
                    out[t] = [a + r * c for a, c in zip(out[t], col)]
    return list(zip(*(c or (0,) * len(cols[0]) for c in out)))


def _sparse_convolve(a, b, n: int) -> list:
    """out[k] = sum a_i b_j over i + j = k < n, taking only pairs whose
    factors are both nonzero; a slot that no such pair reaches is the int 0."""
    support = [(j, y) for j, y in enumerate(b[:n]) if y]
    out = [None] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in support:
            if i + j >= n:
                break
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return [0 if c is None else c for c in out]


def _add_family(cols: list, s0: int, t: int, weights: list, l: int, n: int, start: int = 0):
    """Add sum_i weights[i] sum_(m>=1) zeta_n^(m l) q^(m (s0 + i t)), s0, t >= 1, into a window
    of Z[C_n] by column (cols[e][idx] the coefficient of zeta_n^e at slot idx) that ends at the
    truncation, with q^0 at slot start.  Dirichlet's hyperbola method splits the terms at
    m = B = isqrt(size p/t), p = n/gcd(l, n) the period of m l mod n: for m <= B those of one m
    lie m t apart in one column, one slice over the steps; for m > B those of one step and one
    residue of m mod p lie p step apart in one column, one slice of one weight.  A run of at
    most 3 slots is added slot by slot."""
    size, p = len(cols[0]), n // gcd(l, n)
    bound = isqrt(max(0, size - start) * p // t)
    for m in range(1, min(bound, (size - 1 - start) // s0) + 1):
        a, stride, col = start + m * s0, m * t, cols[m * l % n]
        num = min(len(weights), (size - 1 - a) // stride + 1)
        if num > 3:
            stop = a + (num - 1) * stride + 1  # the slice ends at the family's last step
            col[a:stop:stride] = map(operator.add, col[a:stop:stride], weights)
        else:
            for i in range(num):
                col[a + i * stride] += weights[i]
    for i, w in enumerate(weights):
        step = s0 + i * t
        if start + (bound + 1) * step >= size:
            break
        for m in range(bound + 1, bound + 1 + p):
            a, stride, col = start + m * step, p * step, cols[m * l % n]
            if a + 3 * stride < size:
                col[a::stride] = map(operator.add, col[a::stride], repeat(w))
            else:
                for idx in range(a, size, stride):
                    col[idx] += w


def _homogeneous_value(coeffs: list, p: int, q: int) -> int:
    """q^n P(p/q) = sum c_i p^i q^(n-i) for P of degree n, by Horner's scheme."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _power(x, e: int):
    """x^e for e >= 1 by square-and-multiply from x itself, with no squaring
    after the last bit (x^3 is x * (x * x)); ``CycQ`` and ``Puiseux`` use it."""
    result = x if e & 1 else None
    while e := e >> 1:
        x = x * x
        if e & 1:
            result = x if result is None else result * x
    return result


class CycQ:
    """An element of Q(zeta_N) in the power basis mod Phi_N.

    Stored as integer coordinates ``nums`` over one denominator ``den`` in
    lowest terms: den > 0 and gcd(den, *nums) == 1, so zero has den 1.  The
    form is unique, so two values at one conductor are equal exactly when
    their fields are; ``coeffs`` reads the coordinates as Fractions.

    Immutable; arithmetic between different conductors lifts both operands
    to the lcm.  Conductor reduction is lazy: values are kept at whatever
    conductor arithmetic produced, and equality lifts both sides.
    """

    __slots__ = ("conductor", "den", "nums")

    def __init__(self, conductor: int, coeffs):
        conductor = _positive_int("conductor", conductor)
        d = euler_phi(conductor)
        coeffs = [_exponent(c) for c in coeffs]
        if len(coeffs) != d:
            raise ValueError(f"need {d} coordinates for conductor {conductor}")
        # over the lcm of denominators in lowest terms, no prime divides every numerator
        den = lcm(*(c.denominator for c in coeffs))
        _set_conductor(self, conductor)
        _set_den(self, den)
        _set_nums(self, tuple(c.numerator * (den // c.denominator) for c in coeffs))

    @staticmethod
    def _make(conductor: int, den: int, nums: tuple) -> "CycQ":
        # internal: nums is a tuple of phi(conductor) ints over den, in lowest terms
        obj = _new(CycQ)
        _set_conductor(obj, conductor)
        _set_den(obj, den)
        _set_nums(obj, nums)
        return obj

    @staticmethod
    def _reduced(conductor: int, den: int, nums: tuple) -> "CycQ":
        """nums / den for den > 0, brought to lowest terms by one gcd."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple([x // g for x in nums])
        return CycQ._make(conductor, den, nums)

    def __setattr__(self, *a):
        raise AttributeError("CycQ is immutable")

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    @staticmethod
    def from_rational(x) -> "CycQ":
        if not isinstance(x, (int, Fraction)):
            x = _exponent(x)
        return CycQ._make(1, x.denominator, (x.numerator,))

    zero = None  # set below
    one = None

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.nums[0], self.den)

    # -- conductor handling -------------------------------------------------

    def lift(self, n: int) -> "CycQ":
        """Image in Q(zeta_n); requires conductor | n."""
        if n == self.conductor:
            return self
        if n < 1 or n % self.conductor != 0:
            raise ValueError("can only lift to a positive multiple of the conductor")
        # still in lowest terms: an element of Q(zeta_c) integral in Z[zeta_n] is in Z[zeta_c]
        return CycQ._make(n, self.den, _power_basis(n, self.nums, n // self.conductor))

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
        # a conductor-1 operand goes second and adds to the first coordinate
        a, b = (other, self) if self.conductor == 1 else (self, other)
        if b.conductor != 1 and a.conductor != b.conductor:
            a, b = a._common(b)
        den, xs, ys = a.den, a.nums, b.nums
        if den != b.den:
            g = gcd(den, b.den)
            ka, kb = b.den // g, den // g
            den *= ka
            xs, ys = [x * ka for x in xs], [y * kb for y in ys]
        if b.conductor == 1:
            nums = (xs[0] + ys[0], *xs[1:])
        else:
            nums = tuple(map(operator.add, xs, ys))
        return CycQ._reduced(a.conductor, den, nums)

    __radd__ = __add__

    def __neg__(self):
        return CycQ._make(self.conductor, self.den, tuple([-x for x in self.nums]))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycQ):
            # a conductor-1 operand scales the other's coordinates
            a, b = (other, self) if self.conductor == 1 else (self, other)
            if b.conductor == 1:
                y = b.nums[0]
                return CycQ._reduced(a.conductor, a.den * b.den, tuple([x * y for x in a.nums]))
            if a.conductor != b.conductor:
                a, b = a._common(b)
            n = a.conductor
            prod = _sparse_convolve(a.nums, b.nums, 2 * len(a.nums) - 1)
            return CycQ._reduced(n, a.den * b.den, _power_basis(n, prod, 1))
        if isinstance(other, (int, Fraction)):
            y = other.numerator
            return CycQ._reduced(self.conductor, self.den * other.denominator,
                                 tuple([x * y for x in self.nums]))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycQ":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            x, den = self.nums[0], self.den
            return CycQ._make(self.conductor, abs(x), (den if x > 0 else -den,) + self.nums[1:])
        n = self.conductor
        # Phi_n is irreducible: the gcd is 1, and its cofactor s (degree < phi(n)) is 1/self
        s = _poly_gcdex(self.coeffs, [Fraction(c) for c in cyclotomic_polynomial(n)])[1]
        return CycQ(n, s + [Fraction(0)] * (euler_phi(n) - len(s)))

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
        return _power(self, e) if e else CycQ.one

    def __eq__(self, other):
        other = CycQ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = (self, other) if self.conductor == other.conductor else self._common(other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        # the normalized trace Tr/phi(N): unchanged by lift, and a rational itself
        weights = _trace_weights(self.conductor)
        return hash(Fraction(sum(map(operator.mul, self.nums, weights)), self.den * len(weights)))

    def __repr__(self):
        if self.is_rational():
            return f"CycQ({self.rational_value()})"
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
            den = self.den
            # x / den rounds as float(Fraction(x, den)) does
            return sum((x / den * omega[i] for i, x in enumerate(self.nums) if x), complex(0))
        import mpmath
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
        # CycQ reads each coordinate through _exponent: a float or bool is a TypeError
        return CycQ(data["conductor"], data["coeffs"])


_new = object.__new__
_set_conductor = CycQ.conductor.__set__
_set_den = CycQ.den.__set__
_set_nums = CycQ.nums.__set__
CycQ.zero = CycQ._make(1, 1, (0,))
CycQ.one = CycQ._make(1, 1, (1,))


@functools.lru_cache(maxsize=64)
def _root_powers(n: int) -> tuple[complex, ...]:
    d = euler_phi(n)
    return tuple(cmath.exp(2j * cmath.pi * i / n) for i in range(d))


@functools.lru_cache(maxsize=64)
def _trace_weights(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^i) for i < phi(n), the trace of multiplying by zeta_n^i."""
    table = _reduction_table(n)
    d = len(table[0])
    return tuple(sum(table[(i + k) % n][k] for k in range(d)) for i in range(d))


# -- small K[x] helpers for the extended Euclid -----------------------------

def _trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    return _trim(_sparse_convolve(a, b, len(a) + len(b) - 1))


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


def _poly_gcdex(a, b):
    """The monic gcd g of a and b in K[x], K = Q or Q(zeta_N), and the cofactor
    s with s a = g mod b: the extended Euclid, run until the remainder is zero."""
    r0, r1 = _trim(a), _trim(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while any(r1):
        q, r = _poly_divmod_q(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    c = r0[-1]
    return [x / c for x in r0], [x / c for x in s0]


# -- public constructors ----------------------------------------------------

@functools.lru_cache(maxsize=1024, typed=True)
def cyc_root(j: int, m: int) -> CycQ:
    """zeta_M^j as an exact element, reduced to minimal conductor.

    Cached by typed arguments, so a True or 1.0 is no cached 1 and is refused by
    its reader: the root of a torsion pair (``TorsionPair.lam``) is asked for on
    every use of the pair.
    """
    m = _positive_int("order", m)
    j = _index("exponent", j) % m
    g = gcd(j, m)
    n = m // g
    return CycQ(n, _reduction_table(n)[j // g])


def cyc_root_of(x) -> CycQ:
    """e^(2*pi*i*x) for rational x."""
    x = _exponent(x)
    return cyc_root(x.numerator % x.denominator, x.denominator)
