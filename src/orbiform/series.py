"""Truncated Puiseux series, log-q series, and two-variable series.

A Puiseux series is sum_n a_n q^(lead + n/T) with exact cyclotomic
coefficients.  Truncation is explicit: exponents >= trunc are unknown and
every operation propagates the most pessimistic truncation of its inputs.

Every coefficient is a ``CycQ``, coerced from an int or a Fraction; leads
and truncations are Fractions, counted and compared as ints on the 1/T grid.
Any other coefficient, and a float or complex exponent, is a ``TypeError``.

Every product of two series is ``_mul_rows`` on their rows, which picks the
kernel from them: two int rows (conductor 1, over a common denominator) with
more than ``_DENSE_SLOTS`` nonzero slots each go through ``_int_convolve``,
one big-int multiply of the rows packed into ints (Kronecker substitution),
and any other pair through ``cyclotomic._sparse_convolve``, the sparse loop
that also multiplies CycQ coordinates and ``BiSeries`` windows.  The inverse
of a conductor-1 series is a Newton iteration on ``_int_convolve``, of any
other the sparse recurrence.  ``product_expand`` multiplies no series: it
runs the Euler transform on integers, each factor's sigma_1 added by
``cyclotomic._add_family``.

``Puiseux.sum``, ``__mul__``, ``theta``, ``LogQSeries.__add__`` and the residual
``_residual`` (``frobenius.apply_ode``) share one row algebra, ``_row``,
``_sum_rows``, ``_theta_rows`` and ``_mul_rows``, set out above ``_row``; a row
carries its kind, ints or values, and no other module reads one.  A log sum and
the residual make their parts by one part sum, ``_sum_log_parts``.  A series
stores only its row (the ``coeffs`` setter stores a CycQ list as one), and every
method reads it; each read of ``coeffs`` builds a fresh CycQ list from the row
and changes nothing, and a write to ``coeffs`` or to an item of it stores a new row.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from itertools import repeat, zip_longest
from typing import NamedTuple

from .cyclotomic import (CycQ, _add_family, _exponent, _index, _positive_int, _power,
                         _root_powers, _sparse_convolve)
from .errors import (
    NonInvertibleLeadingTerm,
    NotConvergent,
    UnsupportedPrecision,
    WindowTooSmall,
)


def _coerce_coeff(v) -> CycQ:
    c = CycQ._coerce(v)
    if c is NotImplemented:
        raise TypeError(f"a series coefficient is a CycQ, int or Fraction, not {type(v).__name__}")
    return c


def _nterms(lead: Fraction, trunc: Fraction, t: int) -> int:
    """max(0, ceil((trunc - lead) t)), the slots at branching t, on ints."""
    b, d = lead.denominator, trunc.denominator
    return max(0, -((lead.numerator * d - trunc.numerator * b) * t // (b * d)))


class EvalResult(NamedTuple):
    """Value of a truncated series at a point plus a tail estimate."""

    value: complex
    tail: float


class Puiseux:
    """Truncated series sum a_n q^(lead + n/T), exponents below trunc, stored as one row;
    unhashable, since ``==`` compares up to the lesser truncation and no hash agrees with it."""

    __slots__ = ("T", "lead", "trunc", "_stored", "_view")

    def __init__(self, T: int, lead, coeffs, trunc):
        self.T, self.lead = _positive_int("branching", T), _exponent(lead)
        self.trunc, self.coeffs = _exponent(trunc), coeffs

    @staticmethod
    def _make(T: int, lead: Fraction, stored: tuple, trunc: Fraction) -> "Puiseux":
        # internal and unchecked: lead and trunc are Fractions; stored is a row (den, row, ints),
        # one slot per exponent below trunc, over one gcd or, a value row, over 1 (``_from_row``)
        den, row, ints = stored
        if not ints:
            den, row = 1, _from_row(den, row, False, 0)
        elif (g := math.gcd(den, *row)) != 1:
            den, row = den // g, [x // g for x in row]
        obj = object.__new__(Puiseux)
        obj.T, obj.lead, obj.trunc, obj._stored, obj._view = T, lead, trunc, (den, row, ints), None
        return obj

    @property
    def coeffs(self) -> list:
        """One CycQ per slot, a fresh list built from the row on each read; a write to it or
        to an item of it is checked as ``Puiseux(...)`` is and stored as the row."""
        out = _Coeffs(_from_row(*self._stored))
        out._owner = self
        return out

    @coeffs.setter
    def coeffs(self, coeffs):
        coeffs = [_coerce_coeff(c) for c in coeffs]
        n = _nterms(self.lead, self.trunc, self.T)
        if len(coeffs) > n:
            raise ValueError("coefficients extend past the truncation order")
        coeffs += [CycQ.zero] * (n - len(coeffs))
        r = _int_row(coeffs)  # ints, else the values with each zero the int 0
        self._stored = (*r, True) if r else (1, [c or 0 for c in coeffs], False)
        self._view = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(trunc, T: int = 1) -> "Puiseux":
        return Puiseux.monomial(0, 0, trunc, T)

    @staticmethod
    def constant(value, trunc, T: int = 1) -> "Puiseux":
        return Puiseux.monomial(value, 0, trunc, T)

    @staticmethod
    def monomial(coeff, exponent, trunc, T: int = 1) -> "Puiseux":
        """coeff q^exponent, stored as an int row if coeff has conductor 1, else a value row."""
        c = _coerce_coeff(coeff)
        T, trunc, exponent = _positive_int("branching", T), _exponent(trunc), _exponent(exponent)
        if (exponent * T).denominator != 1:
            raise ValueError("exponent not representable with this branching")
        ints = c.conductor == 1
        row = [0] * _nterms(exponent, trunc, T)
        row[:1] = [c.nums[0] if ints else c][:len(row)]
        return Puiseux._make(T, exponent, (c.den if ints else 1, row, ints), trunc)

    @staticmethod
    def from_terms(terms, trunc, T: int = 1) -> "Puiseux":
        """terms: iterable of (exponent, coefficient)."""
        T, trunc = _positive_int("branching", T), _exponent(trunc)
        terms = [(_exponent(e), _coerce_coeff(c)) for e, c in terms]
        lead = min((e for e, _ in terms), default=Fraction(0))
        coeffs = [CycQ.zero] * _nterms(lead, trunc, T)
        for e, c in terms:
            idx, off = divmod((e - lead) * T, 1)
            if off:
                raise ValueError("exponent not on the 1/T grid")
            if 0 <= idx < len(coeffs):
                coeffs[idx] = coeffs[idx] + c
            elif e >= trunc:
                raise ValueError("term beyond truncation order")
        return Puiseux(T, lead, coeffs, trunc)

    # -- structure -----------------------------------------------------------

    def with_branching(self, t: int) -> "Puiseux":
        t = _positive_int("branching", t)
        if t == self.T:
            return self
        if t % self.T != 0:
            raise ValueError("branching can only be refined to a multiple")
        return self._spread(t, self.lead, self.trunc, t // self.T)

    def _spread(self, T: int, lead: Fraction, trunc: Fraction, step: int) -> "Puiseux":
        den, row, ints = self._stored
        out = [0] * _nterms(lead, trunc, T)
        out[::step] = row[:len(range(0, len(out), step))]
        return Puiseux._make(T, lead, (den, out, ints), trunc)

    def truncated(self, new_trunc) -> "Puiseux":
        new_trunc = _exponent(new_trunc)
        if new_trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return self._spread(self.T, self.lead, new_trunc, 1)

    def normalized(self) -> "Puiseux":
        """Strip leading zero coefficients, advancing the leading exponent."""
        den, row, ints = self._stored
        i = next((i for i, x in enumerate(row) if x), len(row))
        return self if i == 0 else Puiseux._make(self.T, self.lead + Fraction(i, self.T),
                                                 (den, row[i:], ints), self.trunc)

    def shifted(self, r) -> "Puiseux":
        """Multiply by q^r."""
        r = _exponent(r)
        return Puiseux._make(self.T, self.lead + r, self._stored, self.trunc + r)

    def substituted(self, s: int) -> "Puiseux":
        """q -> q^s for a positive integer s."""
        s = _positive_int("substitution power", s)
        return self._spread(self.T, self.lead * s, self.trunc * s, s)

    def coeff_at(self, exponent):
        """Exact coefficient of q^exponent, 0 below lead or off the grid; raises past truncation."""
        e = _exponent(exponent)
        if e.numerator * self.trunc.denominator >= self.trunc.numerator * e.denominator:
            raise KeyError(f"exponent {e} at or past truncation {self.trunc}")
        a, b = self.lead.numerator, self.lead.denominator
        idx, off = divmod((e.numerator * b - a * e.denominator) * self.T, e.denominator * b)
        if idx < 0 or off:
            return CycQ.zero
        return _from_row(self._stored[0], self._stored[1][idx:idx + 1], self._stored[2])[0]

    def is_zero(self) -> bool:
        return not any(self._stored[1])

    def terms(self):
        return ((self.lead + Fraction(i, self.T), c) for i, c in self._nonzero())

    def _nonzero(self):
        den, row, ints = self._stored
        return ((i, CycQ._reduced(1, den, (x,)) if ints else x) for i, x in enumerate(row) if x)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def sum(terms) -> "Puiseux":
        """The sum of one or more series, built in one pass.

        The branching t is the lcm of every T and of the denominators of the
        lead differences, so no term moves off its exponent; lead and trunc
        are the smallest ones.  The sum is ``_sum_rows`` of the terms' rows
        at t over D = lcm(t, every lead and trunc denominator), so every zero
        slot is ``CycQ.zero``.
        """
        first, *rest = terms = list(terms)
        t = math.lcm(*(x.T for x in terms), *((x.lead - first.lead).denominator for x in rest))
        D = math.lcm(t, *(y.denominator for x in terms for y in (x.lead, x.trunc)))
        rows = [_row(x, t, D) for x in terms]
        return _series(_sum_rows(rows, D // t, min(r[0] for r in rows), min(r[1] for r in rows)),
                       t, D)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycQ)):
            other = Puiseux.constant(other, self.trunc, self.T)
        if not isinstance(other, Puiseux):
            return NotImplemented
        return Puiseux.sum([self, other])

    __radd__ = __add__

    def __neg__(self):
        return self.scalar_mul(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, c) -> "Puiseux":
        c = _coerce_coeff(c)
        den, row, ints = self._stored
        if ints and c.conductor == 1:
            row = (den * c.den, [c.nums[0] * x for x in row], True)
            return Puiseux._make(self.T, self.lead, row, self.trunc)
        return Puiseux(self.T, self.lead, [c * x for x in _from_row(den, row, ints)], self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycQ)):
            return self.scalar_mul(other)
        if not isinstance(other, Puiseux):
            return NotImplemented
        t = math.lcm(self.T, other.T)
        D = math.lcm(t, *(y.denominator for x in (self, other) for y in (x.lead, x.trunc)))
        a = _row(self, t, D)
        return _series(_mul_rows(a, a if other is self else _row(other, t, D), D // t), t, D)

    __rmul__ = __mul__

    def inverse(self) -> "Puiseux":
        s = self.normalized()
        den, row, ints = s._stored
        if not row:
            raise NonInvertibleLeadingTerm("series has no invertible leading coefficient")
        if ints:
            D, B = _newton_inverse(row)  # 1/(row/den) is den B/D
            b = (D, [den * x for x in B], True)
        else:
            b = (1, _sparse_inverse(row), False)
        return Puiseux._make(s.T, -s.lead, b, s.trunc - 2 * s.lead)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            # the relative truncation window of the base
            return Puiseux.constant(1, self.trunc - self.normalized().lead, self.T)
        return _power(self, e)

    def __eq__(self, other):
        if not isinstance(other, (Puiseux, int, Fraction, CycQ)):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        parts = []
        for e, c in list(self.terms())[:6]:
            parts.append(f"({c!r})*q^({e})")
        body = " + ".join(parts) if parts else "0"
        return f"Puiseux[T={self.T}, O(q^{self.trunc})]({body})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "leading": str(self.lead),
            "trunc": str(self.trunc),
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "Puiseux":
        coeffs = [CycQ.from_json(c) for c in data["coeffs"]]
        return Puiseux(data["T"], data["leading"], coeffs, data["trunc"])


def _sparse_inverse(a: list) -> list:
    """1/a to len(a) slots by b_k = -a0^-1 sum a_i b_(k-i) over nonzero a_i."""
    inv0 = a[0].inverse()
    support = [(i, c) for i, c in enumerate(a) if i and c]
    # a zero b_k is None
    b = [inv0]
    for k in range(1, len(a)):
        acc = None
        for i, c in support:
            if i > k:
                break
            if b[k - i] is not None:
                term = c * b[k - i]
                acc = term if acc is None else acc + term
        b.append(-(inv0 * acc) if acc else None)
    return [CycQ.zero if c is None else c for c in b]


# -- the rational kernel --------------------------------------------------------

def _int_row(coeffs):
    """(d, ints): conductor-1 coefficients as ints over their common
    denominator d; None if any coefficient has conductor > 1."""
    if any(c.conductor != 1 for c in coeffs):
        return None
    d = math.lcm(*(c.den for c in coeffs))
    return d, [c.nums[0] * (d // c.den) for c in coeffs]


class _Coeffs(list):
    """The CycQ list ``Puiseux.coeffs`` returns, whose item writes store it as the row; it
    exists only because ``perfbench/test_perfbench.py`` writes ``s.coeffs[i]``."""

    __slots__ = ("_owner",)

    def __setitem__(self, i, value):
        super().__setitem__(i, value)
        self._owner.coeffs = self


def _from_row(den: int, row: list, ints: bool, zero=CycQ.zero) -> list:
    """The coefficients row[i] / den (den > 0) of a row of kind ``ints``, one
    gcd each; every zero is ``zero``, and values over den 1 are kept."""
    if ints:
        return [CycQ._reduced(1, den, (x,)) if x else zero for x in row]
    if den == 1:
        return [x or zero for x in row]
    return [CycQ._reduced(x.conductor, x.den * den, x.nums) if x else zero for x in row]


def _pack(row: list, width: int) -> int:
    """sum row[k] 2^(8 width k) for signed integers |row[k]| < 2^(8 width - 1)."""
    pos = b"".join((x if x > 0 else 0).to_bytes(width, "little") for x in row)
    neg = b"".join((-x if x < 0 else 0).to_bytes(width, "little") for x in row)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _int_convolve(ra: list, rb: list, n: int) -> list:
    """The first n coefficients of the product of two nonempty integer rows
    of at most n slots each, as ints (ra is rb squares one packed int).

    Each row is packed into one int, in slots wide enough for any
    coefficient of the product (max|A| max|B| min(len) plus a sign bit);
    one big-int multiply then forms every coefficient at once (Kronecker
    substitution, Karatsuba in CPython), and unpacking reads the slots
    upward with a signed borrow.
    """
    bound = max(map(abs, ra)) * max(map(abs, rb)) * min(len(ra), len(rb))
    if not bound:
        return [0] * n
    width = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
    pa = _pack(ra, width)
    prod = pa * pa if ra is rb else pa * _pack(rb, width)
    raw = (prod & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    out = []
    borrow = 0
    for k in range(0, width * n, width):
        v = int.from_bytes(raw[k:k + width], "little") + borrow
        borrow = v >= half
        if borrow:
            v -= full
        out.append(v)
    return out


def _newton_inverse(a: list) -> tuple:
    """(D, B) with B/D = 1/a to len(a) slots, for an int row a with a[0] != 0
    and D > 0, by b <- b (2 - a b), doubling the precision.

    With a B = D + q^p E mod q^(2p), the new slots p .. 2p-1 of B/D are
    -(B E)/D^2, so B becomes (B D, -(B E)) over D^2, reduced by one gcd.
    """
    n = len(a)
    den, b = abs(a[0]), [1 if a[0] > 0 else -1]
    p = 1
    while p < n:
        p2 = min(2 * p, n)
        e = _int_convolve(a[:p2], b, p2)[p:]
        b = [x * den for x in b] + [-x for x in _int_convolve(b[:p2 - p], e, p2 - p)]
        den *= den
        g = math.gcd(den, *b)
        den, b = den // g, [x // g for x in b]
        p = p2
    return den, b


# -- rows ---------------------------------------------------------------------

# A Puiseux at branching t is the row (lead, trunc, den, row, ints), lead and
# trunc ints over a D that t and every lead's and trunc's denominator divide:
# slot i holds row[i]/den at q^((lead + i g)/D), g = D/t.  An int row (ints)
# holds only ints, a value row only CycQ values and the int 0.  A sum is ints
# when every term is, a product when both rows are, and theta keeps the kind.
# A series keeps the row it was built from (``_series``), so its ``_row`` is a
# field read.

def _row(p: Puiseux, t: int, D: int, scale: int = 1):
    """scale * p at branching t as a row, of the kind p stores."""
    den, vals, ints = p._stored
    if scale != 1:
        vals = [x * scale for x in vals]
    lead, trunc = (x.numerator * (D // x.denominator) for x in (p.lead, p.trunc))
    if t != p.T:
        row = [0] * _nterms(p.lead, p.trunc, t)
        row[::t // p.T] = vals
        vals = row
    return lead, trunc, den, vals, ints


def _series(r: tuple, t: int, D: int) -> Puiseux:
    """The Puiseux at branching t that stores the row r = (lead, trunc, den, row, ints) over D."""
    return Puiseux._make(t, Fraction(r[0], D), r[2:], Fraction(r[1], D))


def _sum_rows(terms: list, g: int, lead: int, trunc: int):
    """The n-ary sum for the lead and trunc the caller gives (each at most
    the terms' own), over the lcm of the dens: each row's nonzero slots are
    added in order at its offset (lead_x - lead)/g.  A zero slot, whatever
    its conductor, holds nothing: a value added to it is taken as it is."""
    den = math.lcm(*(x[2] for x in terms))
    ints = all(x[4] for x in terms)
    out = [0] * max(0, -((lead - trunc) // g))  # ceil((trunc - lead)/g) slots
    for x_lead, _, x_den, row, x_ints in terms:
        off, k = (x_lead - lead) // g, den // x_den
        seg = row[:max(0, len(out) - off)]
        if x_ints and not ints:  # an int row among value rows: conductor-1 values
            seg = [CycQ._make(1, 1, (k * v,)) if v else 0 for v in seg]
        elif k != 1:
            seg = list(map(operator.mul, seg, repeat(k)))
        out[off:off + len(seg)] = (map(operator.add, out[off:], seg) if ints else
                                   [u + v if u and v else u or v for u, v in zip(out[off:], seg)])
    return lead, trunc, den, out, ints


def _theta_rows(parts: list, D: int, g: int) -> list:
    """theta = q d/dq on a polynomial in l = log q_(1/t), by the product rule
    theta(l^i f) = l^i theta f + (i/t) l^(i-1) f: theta on part i, plus
    part i+1 times (i+1)/t = (i+1) g/D.

    Slot k of a part of lead L/D sits at (L + k g)/D, so theta multiplies it
    by L + k g and the den by D.
    """
    out = []
    for i, (lead, trunc, den, row, ints) in enumerate(parts):
        term = (lead, trunc, den * D,
                list(map(operator.mul, row, range(lead, lead + g * len(row), g))), ints)
        if i + 1 < len(parts):
            n_lead, n_trunc, n_den, n_row, n_ints = parts[i + 1]
            nxt = (n_lead, n_trunc, n_den * D, [x * ((i + 1) * g) for x in n_row], n_ints)
            term = _sum_rows([term, nxt], g, min(lead, n_lead), min(trunc, n_trunc))
        out.append(term)
    return out


# Two int rows with more nonzero slots than this each take the Kronecker
# kernel.  In one seed-7 pass of the rational-series and exact-identities
# benchmarks (Xeon, CPython 3.11, best of 5 per call) Kronecker took 39.1 against
# 6.5 ms sparse on the 593 products whose sparser row has 0-2 nonzero slots,
# 5.4 against 13.5 ms on the 32 with over 32, and the same on the 9 with 9-32.
_DENSE_SLOTS = 8


def _mul_rows(a, b, g: int):
    """The product of rows a and b: ``_int_convolve`` when both are int rows
    with more than ``_DENSE_SLOTS`` nonzero slots each (b is a squares one
    packed int), else ``_sparse_convolve`` over b's nonzero slots.  b, the
    residual's ODE coefficient, is counted first."""
    lead = a[0] + b[0]
    trunc = min(a[1] + b[0], b[1] + a[0])
    n = max(0, -((lead - trunc) // g))
    ra = a[3][:n]
    rb = ra if b is a else b[3][:n]
    if (a[4] and b[4] and len(rb) - rb.count(0) > _DENSE_SLOTS
            and (rb is ra or len(ra) - ra.count(0) > _DENSE_SLOTS)):
        return lead, trunc, a[2] * b[2], _int_convolve(ra, rb, n), True
    return lead, trunc, a[2] * b[2], _sparse_convolve(rb, ra, n), a[4] and b[4]


def theta(s: Puiseux, scale: str = "full") -> Puiseux:
    """q d/dq (scale="full") or q_(1/T) d/dq_(1/T) = T q d/dq (scale="one_over_T"),
    ``_theta_rows`` on s's row over D = lcm(T, the denominators of lead and trunc)."""
    if scale not in ("full", "one_over_T"):
        raise ValueError("scale must be 'full' or 'one_over_T'")
    D = math.lcm(s.T, s.lead.denominator, s.trunc.denominator)
    g = D // s.T
    return _series(_theta_rows([_row(s, s.T, D)], D if scale == "full" else g, g)[0], s.T, D)


# -- log-q series --------------------------------------------------------------

def _lead_grid(T: int, parts) -> int:
    """The least multiple of T on whose (1/t)Z grid every part's lead lies;
    parts summed there, with a lead of at most 0, keep every term."""
    return math.lcm(T, *(p.lead.denominator for p in parts))


class LogQSeries:
    """Polynomial in l = log q_(1/T) with Puiseux coefficients."""

    __slots__ = ("T", "parts")

    def __init__(self, T: int, parts):
        self.T = T = _positive_int("branching", T)  # True == 1 would skip the parts' check
        self.parts = [p.with_branching(T) if p.T != T else p for p in parts]
        if not self.parts:
            raise ValueError("need at least one part (use a zero Puiseux)")

    @property
    def max_log_power(self) -> int:
        return len(self.parts) - 1

    def with_branching(self, t: int) -> "LogQSeries":
        """Refine branching to t (a multiple of T), rescaling l = log q_(1/T) to log q_(1/t)."""
        t = _positive_int("branching", t)
        if t == self.T:
            return self
        scale = Fraction(t, self.T)
        parts = [p.scalar_mul(scale**j) for j, p in enumerate(self.parts)]
        return LogQSeries(t, parts)

    def __add__(self, other):
        if not isinstance(other, LogQSeries):
            return NotImplemented
        t = _lead_grid(math.lcm(self.T, other.T), self.parts + other.parts)
        D = math.lcm(t, *(p.trunc.denominator for p in self.parts + other.parts))
        # l = log q_(1/T) is (t/T) log q_(1/t), as in with_branching
        return _sum_log_parts([[_row(p, t, D, (t // x.T)**j) for j, p in enumerate(x.parts)]
                               for x in (self, other)], t, D)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def to_json(self) -> list:
        return [
            dict(p.to_json(), log_power=i) for i, p in enumerate(self.parts)
        ]

    @staticmethod
    def from_json(data: list) -> "LogQSeries":
        data = sorted(data, key=lambda d: d["log_power"])
        powers = [(d["log_power"], type(d["log_power"])) for d in data]
        if powers != [(j, int) for j in range(len(data))]:  # True == 1 and 1.0 == 1
            raise ValueError("log powers must be 0, 1, ..., n-1, each once")
        series = [Puiseux.from_json(d) for d in data]
        return LogQSeries(series[0].T if series else 1, series)

    def __repr__(self):
        return f"LogQSeries(T={self.T}, parts={self.parts!r})"


def _sum_log_parts(terms: list, t: int, D: int) -> LogQSeries:
    """The LogQSeries at t whose part j sums part j of every term (a list of
    log-part rows over D; a term without part j adds nothing), with lead at
    most 0 and trunc the least of every part of every term."""
    trunc = min(p[1] for term in terms for p in term)
    parts = []
    for col in zip_longest(*terms):
        col = [p for p in col if p is not None]
        parts.append(_series(_sum_rows(col, D // t, min(0, *(p[0] for p in col)), trunc), t, D))
    return LogQSeries(t, parts)


def _residual(coeffs: list, T: int, s: LogQSeries) -> LogQSeries:
    """theta^m s + sum r_i theta^i s for an ODE's m coefficients r_i at branching
    T (``frobenius.apply_ode``), on rows; each coefficient row is made once."""
    t = _lead_grid(math.lcm(T, s.T), s.parts + coeffs)
    D = math.lcm(t, *(p.trunc.denominator for p in s.parts + coeffs))
    g = D // t
    coeff_rows = [_row(r, t, D) for r in coeffs]
    images = [[_row(p, t, D, (t // s.T)**j) for j, p in enumerate(s.parts)]]
    for _ in coeffs:
        images.append(_theta_rows(images[-1], D, g))
    terms = [[_mul_rows(p, r, g) for p in image] for image, r in zip(images, coeff_rows)]
    return _sum_log_parts([images[-1]] + terms, t, D)


# -- evaluation ----------------------------------------------------------------

class Embedded:
    """A Puiseux or LogQSeries with its coefficients embedded in C once.

    Row i of ``coeffs`` holds the l^i part (l = log q_(1/T); a Puiseux is row 0)
    as complex numbers, zero-padded; ``leads``, ``truncs`` and ``maxabs`` hold
    each part's leading exponent, truncation and largest coefficient modulus.
    ``Embedded(s)`` and rows ``forms`` embeds from integers go through ``_from_rows``.
    ``eval_at_tau`` keeps the view of a Puiseux with that series and drops it when
    a write to ``coeffs`` stores a new row; a view is never updated.
    """

    __slots__ = ("T", "leads", "truncs", "coeffs", "maxabs")

    def __new__(cls, s):
        import numpy as np
        parts = s.parts if isinstance(s, LogQSeries) else (s,)
        rows = [p._stored for p in parts]
        coeffs = np.zeros((len(parts), max(len(r[1]) for r in rows)), complex)
        by_conductor: dict = {}
        for i, (den, row, ints) in enumerate(rows):
            if ints:
                coeffs[i, :len(row)] = [x / den for x in row]
            for col, c in enumerate(() if ints else row):
                if c:
                    by_conductor.setdefault(c.conductor, []).append((i, col, c))
        for n, slots in by_conductor.items():
            rows, cols, values = zip(*slots)
            # x / den rounds as float(Fraction(x, den)) does
            flat = [x / c.den for c in values for x in c.nums]
            coeffs[rows, cols] = (np.reshape(flat, (len(rows), -1)) * _root_powers(n)).sum(1)
        return cls._from_rows(s.T, [float(p.lead) for p in parts],
                              [float(p.trunc) for p in parts], coeffs)

    @classmethod
    def _from_rows(cls, T: int, leads: list, truncs: list, rows) -> "Embedded":
        """The one constructor: each part's lead, trunc and row of complex values."""
        import numpy as np
        self = object.__new__(cls)
        self.T, self.leads, self.truncs = T, leads, truncs
        self.coeffs = np.asarray(rows, complex)
        self.maxabs = np.abs(self.coeffs).max(axis=1, initial=0.0).tolist()
        return self


def eval_at_tau(s, tau: complex, precision: int = 53) -> EvalResult:
    """Numeric value on the upper half-plane plus a geometric tail estimate.

    s is a Puiseux, a LogQSeries or its ``Embedded`` view (embed once to evaluate
    at many points).  A Puiseux keeps the view built on its first evaluation until
    a write to ``coeffs`` stores a new row; a LogQSeries is embedded on every call.
    The value is a 53-bit ``complex``; any other precision raises
    ``UnsupportedPrecision`` rather than being ignored.
    """
    import numpy as np
    if precision != 53:
        raise UnsupportedPrecision(f"eval_at_tau computes in 53 bits, not {precision}")
    if tau.imag <= 0:
        raise NotConvergent("evaluation requires Im(tau) > 0")
    if isinstance(s, Embedded):
        v = s
    elif isinstance(s, Puiseux):
        v = s._view = s._view or Embedded(s)
    else:
        v = Embedded(s)
    logfac = 2j * cmath.pi * tau / v.T
    parts = (v.coeffs * np.exp(logfac * np.arange(v.coeffs.shape[1]))).sum(1).tolist()
    absq = math.exp(-2 * math.pi * tau.imag)
    value, tail = 0j, 0.0
    for i, (part, lead, trunc, maxabs) in enumerate(zip(parts, v.leads, v.truncs, v.maxabs)):
        value += part * cmath.exp(2j * cmath.pi * tau * lead) * logfac**i
        tail += absq**trunc / (1 - absq ** (1 / v.T)) * maxabs * abs(logfac) ** i
    return EvalResult(value, tail)


# -- infinite products -----------------------------------------------------------

def product_expand(factors, trunc) -> Puiseux:
    """prod over (a, e) of prod_(n>=1) (1 - q^(a n))^e, truncated, by the Euler
    transform: q d/dq log of the product is sum_m b_m q^m, b_m = -sum_(a,e) e a
    sigma_1(m/a), so c_0 = 1 and m c_m = sum_(k=1..m) b_k c_(m-k), exactly.
    """
    trunc = _exponent(trunc)
    n = max(0, math.ceil(trunc))
    b = [0] * n
    for a, e in factors:
        a, e = _positive_int("product scale", a), _index("product exponent", e)
        # the divisors d of m that are multiples of a sum to a sigma_1(m/a)
        _add_family([b], a, a, [-e * d for d in range(a, n, a)], 0, 1)
    c = [1][:n]
    for m in range(1, n):
        c.append(sum(map(operator.mul, b[m:0:-1], c)) // m)
    return Puiseux._make(1, Fraction(0), (1, c, True), trunc)


# -- two-variable series ----------------------------------------------------------

class BiSeries:
    """Series in an outer variable w with Puiseux-in-q coefficients.

    w-exponents run over wlead + Z on a finite window of integer offsets;
    offsets outside the window are unknown (truncated).
    """

    __slots__ = ("wlead", "min_off", "coeffs")

    def __init__(self, wlead, min_off: int, coeffs):
        self.wlead = _exponent(wlead)
        self.min_off = _index("window offset", min_off)
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("empty window")

    def coeff_at_w(self, exponent) -> Puiseux:
        """Coefficient of w^exponent; zero off the wlead grid."""
        exponent = _exponent(exponent)
        off = exponent - self.wlead
        if off.denominator != 1:
            p0 = self.coeffs[0]
            return Puiseux.zero(p0.trunc, p0.T)
        k = int(off) - self.min_off
        if not 0 <= k < len(self.coeffs):
            raise WindowTooSmall(
                f"w-exponent {exponent} outside window [{self.wlead + self.min_off}, "
                f"{self.wlead + self.min_off + len(self.coeffs) - 1}]"
            )
        return self.coeffs[k]

    def __mul__(self, other):
        if isinstance(other, Puiseux):
            return BiSeries(self.wlead, self.min_off, [c * other for c in self.coeffs])
        if not isinstance(other, BiSeries):
            return NotImplemented
        n = len(self.coeffs) + len(other.coeffs) - 1
        # a Puiseux is always truthy, so every pair is taken and no slot is unreached
        slots = _sparse_convolve(self.coeffs, other.coeffs, n)
        return BiSeries(self.wlead + other.wlead, self.min_off + other.min_off, slots)
