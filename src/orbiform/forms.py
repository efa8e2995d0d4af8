"""Bernoulli polynomials, Eisenstein series, twisted q-series, and the
closed-form numeric evaluators built on them.

Exact series keep every 2*pi*i factor outside the coefficients, so all
coefficients live in cyclotomic fields; numeric evaluators reinstate the
transcendental factors.  Each numeric evaluator imports numpy when it runs
(``prop44_check`` mpmath too), not when this module is imported.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction
from itertools import compress
from math import lcm

from .cyclotomic import (CycQ, _add_family, _exponent, _homogeneous_value, _index, _power_basis,
                         cyc_root_of)
from .errors import (
    BadWeight,
    NearPole,
    NotConvergent,
    OutsideRegion,
    TruncationTooSmall,
    UndefinedAtLatticePoint,
    UndefinedAtTrivialPair,
    WindowTooSmall,
)
from .modular import TorsionPair
from .report import CheckReport
from .series import BiSeries, Embedded, Puiseux, theta

TWO_PI_I = 2j * cmath.pi

# the twisted q-series are generated with the geometric denominator aligned
# to its numerator exponent; reports carry this flag
QK_DENOMINATOR_FLAG = "qk-denominator-exponent-matches-numerator"
# the residue identity's Bernoulli term is B_k(1-m+j/M)/k!, the value its
# own derivation produces; the printed /k agrees only for k <= 2
RESIDUE_BERNOULLI_FLAG = "residue-identity-bernoulli-term-uses-k-factorial"
# pk_eval doubles its cutoff toward a tolerance no further than this
PK_CUTOFF_CAP = 10**5


# -- Bernoulli polynomials ----------------------------------------------------

@functools.lru_cache(maxsize=None, typed=True)
def bernoulli_number(k: int) -> Fraction:
    """B_k(0); convention B_1(0) = -1/2.  The cache is typed: True finds no cached 1."""
    k = _index("degree", k)
    if k < 0:
        raise BadWeight(f"degree must be at least 0, got {k}")
    if k == 0:
        return Fraction(1)
    # sum_{j=0}^{k} binom(k+1, j) B_j = 0 for k >= 1
    s = Fraction(0)
    for j in range(k):
        s += math.comb(k + 1, j) * bernoulli_number(j)
    return -s / (k + 1)


class BernoulliPoly:
    """Coefficients of B_k(x), ascending in x."""

    __slots__ = ("degree", "coefficients", "_den", "_nums")

    def __init__(self, degree: int, coefficients):
        self.degree = degree
        # a tuple: __call__ reads the ints made from it, and bernoulli_poly shares one per k
        self.coefficients = tuple(_exponent(c) for c in coefficients)
        self._den = lcm(*(c.denominator for c in self.coefficients))
        self._nums = [c.numerator * (self._den // c.denominator) for c in self.coefficients]

    def __call__(self, x) -> Fraction:
        """B(p/q) = q acc / (den q^(k+1)), acc = sum_i nums[i] p^i q^(k-i) by Horner on ints."""
        p, q = _exponent(x).as_integer_ratio()
        return Fraction(_homogeneous_value(self._nums, p, q) * q, self._den * q ** len(self._nums))

    def __eq__(self, other):
        return (
            isinstance(other, BernoulliPoly)
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"BernoulliPoly({self.degree}, {list(map(str, self.coefficients))})"


@functools.lru_cache(maxsize=None, typed=True)
def bernoulli_poly(k: int) -> BernoulliPoly:
    """B_k(x) = sum_i binom(k, i) B_i x^(k-i), exact."""
    k = _index("degree", k)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = [Fraction(0)] * (k + 1)
    for i in range(k + 1):
        coeffs[k - i] = math.comb(k, i) * bernoulli_number(i)
    return BernoulliPoly(k, coeffs)


def bernoulli_value(k: int, x) -> Fraction:
    return bernoulli_poly(k)(x)


def bernoulli_identities_check(k: int, x, n: int = 10) -> bool:
    """Power-sum and reflection identities for B_k, checked exactly."""
    k, n = _index("k", k), _index("n", n)
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError(f"the power sum needs n >= 1, got {n}")
    x = _exponent(x)
    bk = bernoulli_poly(k)
    power_sum = sum((Fraction(a) + x) ** (k - 1) for a in range(n))
    lhs_ok = power_sum == (bk(x + n) - bk(x)) / k
    reflect_ok = bk(1 - x) == (-1) ** k * bk(x)
    return lhs_ok and reflect_ok


# -- Eisenstein series --------------------------------------------------------

def eisenstein(k: int, trunc) -> Puiseux:
    """Normalized weight-k Eisenstein series, constant term -B_k(0)/k!."""
    trunc, den, row = _eisenstein_row(k, trunc)
    return Puiseux._make(1, Fraction(0), (den, row, True), trunc)


def _eisenstein_embedded(k: int, trunc) -> Embedded:
    """Embedded(eisenstein(k, trunc)) to the same floats: x / den of the same int row
    rounds as the float of the reduced coefficient does."""
    trunc, den, row = _eisenstein_row(k, trunc)
    return Embedded._from_rows(1, [0.0], [float(trunc)], [[x / den for x in row]])


def _eisenstein_row(k: int, trunc) -> tuple:
    """(trunc, den, row): the coefficients of E_k are the ints row[i] over den."""
    k = _index("weight", k)
    if k < 2 or k % 2 != 0:
        raise BadWeight("Eisenstein weight must be an even integer >= 2")
    trunc, b = _exponent(trunc), bernoulli_number(k)
    # 2 sigma_(k-1)(m)/(k-1)! and the constant -B_k/k! over den = k! den(B_k)
    row, c = [0] * max(0, math.ceil(trunc)), 2 * k * b.denominator
    _add_family([row], 1, 1, [c * d ** (k - 1) for d in range(1, len(row))], 0, 1)
    if row:
        row[0] = -b.numerator
    return trunc, math.factorial(k) * b.denominator, row


def g2_eval(tau: complex, trunc=60) -> complex:
    """(2 pi i)^2 E_2(tau) summed over eisenstein(2, trunc): -1/12 + 2 sum_(m<n) sigma_1(m) q^m
    (0 for n = 0), with each divisor d's part d sum_(j=1..K) q^(d j), K = (n-1)//d, in
    closed form: d (q^d - q^(d (K+1)))/(1 - q^d)."""
    import numpy as np
    if tau.imag <= 0:
        raise NotConvergent("evaluation requires Im(tau) > 0")
    n = max(0, math.ceil(_exponent(trunc)))
    if not n:
        return 0j
    d = np.arange(1, n)
    qd = np.exp(TWO_PI_I * tau * d)
    top = np.exp(TWO_PI_I * tau * d * ((n - 1) // d + 1))
    return TWO_PI_I**2 * (2 * complex((d * (qd - top) / (1 - qd)).sum()) - 1 / 12)


# -- twisted Eisenstein series Q_k ---------------------------------------------

def _reduce_rows(cols: list, denom: int, const: CycQ = CycQ.zero, at: int = 0) -> list:
    """Each slot sum_e cols[e][slot] zeta_N^e of a dense window stored by column, over denom, as
    a CycQ, plus const (the part that is no row) at slot at if the window reaches it.  A slot is
    reduced at the conductor N/g, g = gcd(N, e) over the exponents e whose coefficients survive
    (the largest g whose multiples hold them): the columns of every multiple of g, cut to the
    slots of that g, go to ``_power_basis`` as one window; a zero slot is CycQ.zero."""
    size, width = len(cols[0]), len(cols)
    out = [CycQ.zero] * size
    # byte i of hit[e] is 1 when slot i has a nonzero zeta_N^e coefficient
    hit = [int.from_bytes(bytes(map(bool, col)), "little") for col in cols]
    done = 0  # the slots reduced so far, at a larger g
    for g in [g for g in range(width, 0, -1) if width % g == 0]:
        off = functools.reduce(int.__or__, (h for e, h in enumerate(hit) if e % g), done)
        if on := functools.reduce(int.__or__, hit[::g], 0) & ~off:
            done, n = done | on, width // g
            mask = on.to_bytes(size, "little")
            window = [list(compress(col, mask)) for col in cols[::g]]
            for i, nums in zip(compress(range(size), mask), _power_basis(n, window, 1)):
                out[i] = CycQ._reduced(n, denom, nums)
    if at < size:
        out[at] += const
    return out


def qk_series(k: int, pair: TorsionPair, trunc) -> Puiseux:
    """Weight-k twisted Eisenstein series as an exact q-expansion.

    Branching is the denominator M of the first pair entry; the constant
    term is -B_k(j/M)/k! plus boundary contributions.
    """
    trunc, t, cols, denom = _qk_slots(k, pair, trunc)
    values = _reduce_rows(cols, denom, _qk_constant(k, pair))
    return Puiseux._make(t, Fraction(0), (1, values, False), trunc)


def _qk_embedded(k: int, pair: TorsionPair, trunc) -> Embedded:
    """Embedded(qk_series(k, pair, trunc)) with no exact series: a slot is sum_e (cols[e][slot] /
    denom) zeta_N^e, each entry divided as an int, so no k <= MAX_WEIGHT overflows."""
    import numpy as np
    trunc, t, cols, denom = _qk_slots(k, pair, trunc)
    n = pair.l_over_N.denominator
    flat = [x / denom for col in cols for x in col]
    coeffs = np.reshape(flat, (n, -1)).T @ [cmath.exp(TWO_PI_I * e / n) for e in range(n)]
    if len(coeffs):
        coeffs[0] = _qk_constant(k, pair).embed()
    return Embedded._from_rows(t, [0.0], [float(trunc)], coeffs[None])


def _qk_slots(k: int, pair: TorsionPair, trunc) -> tuple:
    """(trunc, T, cols, denom): Q_k past its constant as one window of Z[C_N] by column;
    Q_0 = -1 is a zero window, at T = 1."""
    k = _index("weight", k)
    if k < 0:
        raise ValueError("weight must be nonnegative")
    trunc, t = _exponent(trunc), pair.M if k else 1
    size = max(0, math.ceil(trunc * t))
    cols = [[0] * size for _ in range(pair.l_over_N.denominator)]
    if not k:
        return trunc, t, cols, 1
    _add_qk(cols, k, pair)
    return trunc, t, cols, math.factorial(k - 1) * t ** (k - 1)


def _add_qk(cols: list, k: int, pair: TorsionPair, start: int = 0, sign: int = 1):
    """Add sign * Q_k (k >= 1) past its constant into a window of Z[C_N] by column over
    (k-1)! M^(k-1) that ends at the truncation, with q^0 at slot start; the constant
    is left to _qk_constant."""
    if pair.is_trivial() and k < 2:
        # the boundary term 1/(1 - lam^-1) is a pole at lam = 1; for k >= 2
        # its weight (n - j/M)^(k-1) vanishes and the series is fine
        raise UndefinedAtTrivialPair("Q_1 is undefined at the pair (1,1)")
    l, n = pair.l_over_N.numerator, pair.l_over_N.denominator
    t, j, nslots = pair.M, pair.j_over_M.numerator, len(cols[0]) - start
    # exponent x = step/M, weight x^(k-1)/(k-1)! = step^(k-1)/((k-1)! M^(k-1));
    # first sum: n >= 0, step = nM + j > 0; second: n >= 1, step = nM - j > 0
    for first, root, w in ((j, l, sign), (t - j or t, -l, sign * (-1) ** k)):
        _add_family(cols, first, t, [w * s ** (k - 1) for s in range(first, nslots, t)],
                    root, n, start)


def _qk_constant(k: int, pair: TorsionPair) -> CycQ:
    """The constant term of Q_k (k >= 1): -B_k(j/M)/k! plus, for k = 1 and
    j/M = 1, the boundary term."""
    a1 = pair.j_over_M
    c = CycQ.from_rational(-bernoulli_poly(k)(a1) / math.factorial(k))
    if k == 1 and a1 == 1:
        # the step = 0 boundary term lam^-1 w/(1 - lam^-1), w = -1; lam != 1
        lam_inv = cyc_root_of(-pair.l_over_N)
        c = c - lam_inv / (CycQ.one - lam_inv)
    return c


def qk_series_divisor_oracle(k: int, pair: TorsionPair, trunc) -> Puiseux:
    """Independent lattice-sum rearrangement of Q_k for k >= 3.

    Coefficient of q^(n/M):
    (-1)^k M^(1-k)/(k-1)! * [ sum_{d|n, d = -j mod M} d^(k-1) lam^(-n/d)
                              + (-1)^k sum_{d|n, d = j mod M} d^(k-1) lam^(n/d) ].
    Each admissible d is sieved over its multiples n = d q.
    """
    k = _index("weight", k)
    if k < 3:
        raise ValueError("the lattice rearrangement needs k >= 3")
    trunc = _exponent(trunc)
    a1 = pair.j_over_M
    m_den = pair.M
    j = a1.numerator  # mu = zeta_M^j, 1 <= j <= M
    l, n_den = pair.l_over_N.numerator, pair.l_over_N.denominator
    nslots = max(0, math.ceil(trunc * m_den))
    # a window of Z[C_N] by column: acc[e][n] is the coefficient of zeta_N^e at q^(n/M)
    acc = [[0] * nslots for _ in range(n_den)]

    def sieve(d, lam_exp, w):
        # every multiple n = d q of d gets the term w lam^(lam_exp q)
        for q, n in enumerate(range(d, nslots, d), 1):
            acc[q * lam_exp % n_den][n] += w

    # the prefactor (-1)^k / (M^(k-1) (k-1)!): its sign is in the sieve's weights
    for d in range(1, nslots):
        if (d + j) % m_den == 0:
            sieve(d, -l, (-1) ** k * d ** (k - 1))
        if (d - j) % m_den == 0:
            sieve(d, l, d ** (k - 1))
    denom = m_den ** (k - 1) * math.factorial(k - 1)
    coeffs = [CycQ._reduced(n_den, denom, nums) for nums in _power_basis(n_den, acc, 1)]
    if nslots:
        coeffs[0] = CycQ.from_rational(-bernoulli_poly(k)(a1) / math.factorial(k))
    return Puiseux(m_den, 0, coeffs, trunc)


# -- the P-bar two-variable series ---------------------------------------------

def pbar_series(k: int, pair: TorsionPair, window: tuple[int, int], trunc) -> BiSeries:
    """Two-variable series sum' n^(k-1) w^n / ((k-1)! (1 - lam q^n)).

    w-exponents n run over j/M + Z restricted to j/M + [window[0], window[1]];
    each reciprocal is expanded as a q-series: 1 + sum_m lam^m q^(mn) for
    n > 0, -sum_m lam^(-m) q^(-mn) for n < 0 (multiply through by
    -lam^(-1) q^(-n)), and the constant 1/(1 - lam) at n = 0.  Returns the
    zero series for k = 0.
    """
    k, (lo, hi) = _index("weight", k), (_index("window", x) for x in window)
    if k < 0:
        raise BadWeight(f"weight must be at least 0, got {k}")
    if hi < lo:
        raise WindowTooSmall("empty w-window")
    trunc = _exponent(trunc)
    a1 = pair.j_over_M
    t = a1.denominator
    if k == 0:
        zero = Puiseux.zero(trunc, t)
        return BiSeries(a1, lo, [zero] * (hi - lo + 1))
    nslots = max(0, math.ceil(trunc * t))
    denom = math.factorial(k - 1) * t ** (k - 1)
    coeffs = []
    for off in range(lo, hi + 1):
        cols = [[0] * nslots for _ in range(pair.l_over_N.denominator)]
        const = _add_pbar_term(cols, k, pair, a1.numerator + off * t)
        values = _reduce_rows(cols, denom, const)
        coeffs.append(Puiseux._make(t, Fraction(0), (1, values, False), trunc))
    return BiSeries(a1, lo, coeffs)


def _add_pbar_term(cols: list, k: int, pair: TorsionPair, step: int) -> CycQ:
    """Add P_n, n = step/M, into a window of Z[C_N] by column over (k-1)! M^(k-1), with
    q^0 at slot 0.  With w = step^(k-1), P_n is w (1 + sum_m lam^m q^(mn)) for n > 0 and
    -w sum_m lam^(-m) q^(-mn) for n < 0; the n = 0 term w/(1 - lam) is no row, and is
    returned (zero for every other n)."""
    l, n = pair.l_over_N.numerator, pair.l_over_N.denominator
    w = step ** (k - 1)  # 0^0 = 1: the k = 1 term at n = 0
    if step > 0:
        _add_family(cols, step, 1, [w], l, n)
        if cols[0]:
            cols[0][0] += w
    elif step < 0:
        _add_family(cols, -step, 1, [-w], -l, n)
    elif w and not pair.is_trivial():
        # n = 0 only for j/M = 1 and k = 1, where the denominator is 1; lam = 1
        # there is the trivial pair, left out
        return (CycQ.one - pair.lam).inverse()
    return CycQ.zero


# -- numeric evaluators for P_k and wp1 -----------------------------------------

def _lerch_positive(k: int, a: float, z: complex) -> complex:
    """Analytic continuation of sum_(r>=0) (a+r)^(k-1) q_z^(a+r) / (k-1)!.

    Computed as theta^(k-1)/(k-1)! applied to x^a/(1-x) with x = q_z; terms
    are kept in the basis x^(a+j) (1-x)^(-i), and theta step s divides by s,
    so no coefficient grows like (k-1)! before the factorial is applied.
    """
    terms = {(0, 1): 1.0 + 0j}
    for step in range(1, k):
        new: dict[tuple[int, int], complex] = {}
        for (j, i), c in terms.items():
            new[(j, i)] = new.get((j, i), 0j) + c * (a + j) / step
            new[(j + 1, i + 1)] = new.get((j + 1, i + 1), 0j) + c * i / step
        terms = new
    x = cmath.exp(TWO_PI_I * z)
    return sum(
        c * cmath.exp(TWO_PI_I * z * (a + j)) * (1 - x) ** (-i)
        for (j, i), c in terms.items()
    )


def pk_eval(
    k: int,
    pair: TorsionPair,
    z: complex,
    tau: complex,
    cutoff: int = 400,
    tol: float | None = None,
):
    """Truncated closed-form sum for P_k; returns (value, tail bound).

    The non-decaying geometric part of the positive-n sum is split off and
    summed in closed form, so the evaluator realizes the analytic
    continuation on the annulus |q_tau| < |q_z| < 1/|q_tau| (the defining
    series itself only converges for |q_z| < 1).  Terms with very negative
    n are rewritten against q_tau^(-n) for stability; the cutoff escalates
    until the geometric tail bound drops below tol (at most PK_CUTOFF_CAP).
    """
    import numpy as np
    k, cutoff = _index("k", k), _index("cutoff", cutoff)
    if k < 1:
        raise ValueError("k must be at least 1")
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    qz = cmath.exp(TWO_PI_I * z)
    qt = cmath.exp(TWO_PI_I * tau)
    if not (abs(qt) < abs(qz) < 1 / abs(qt)):
        raise OutsideRegion("need |q_tau| < |q_z| < 1/|q_tau|")
    if abs(qz - 1) < 1e-12:
        raise NearPole("q_z too close to 1")
    a1 = pair.j_over_M
    lam = complex(pair.lam.embed())
    lam_inv = 1 / lam
    ratio = max(abs(qz) * abs(qt), abs(qt) / abs(qz))

    def tail_bound(c: int) -> float:
        # sum_{|n|>c} |n|^(k-1) r^|n| / (k-1)! <= 2 (c+1)^(k-1) r^(c+1) / ((1-r)^k (k-1)!),
        # in logs: (c+1)^(k-1) overflows a float once k >= 120; a bound past the float
        # range is inf, so a tol still doubles the cutoff
        try:
            return math.exp(math.log(2) + (k - 1) * math.log(c + 1) + (c + 1) * math.log(ratio)
                            - k * math.log1p(-ratio) - math.lgamma(k))
        except OverflowError:
            return math.inf

    def log_weight(m):
        # log of m^(k-1)/(k-1)! for m = |n|: the power alone overflows near m = 400 once
        # k >= 120, and it is added to a decaying exponent so no factor overflows alone
        return (k - 1) * np.log(m) - math.lgamma(k)

    while tol is not None and tail_bound(cutoff) > tol and cutoff < PK_CUTOFF_CAP:
        cutoff *= 2
    # positive n = a1 + r: 1/(1 - lam q^n) = 1 + lam q^n/(1 - lam q^n); the
    # free "1" part is the closed-form geometric piece
    value = _lerch_positive(k, float(a1), z)
    # the n = 0 term (present only when j/M = 1, at offset -1)
    start = 1 if a1 < 1 else 2
    if a1 == 1 and not pair.is_trivial() and k == 1:
        value += 1 / (1 - lam)
    # where cmath.exp(q_z^n) would overflow (Im z < 0), the sum is not finite: raise below
    with np.errstate(over="ignore", invalid="ignore"):
        n = float(a1) + np.arange(cutoff + 1)  # positive n: lam q^n/(1 - lam q^n)
        qn = TWO_PI_I * tau * n
        value += complex(np.sum(np.exp(log_weight(n) + qn) * lam / (1 - lam * np.exp(qn))
                                * np.exp(TWO_PI_I * z * n)))
        # negative n: q_z^n q_tau^(-n) = exp(2 pi i (z - tau) n) stays small
        n = float(a1) - np.arange(start, cutoff + 1)
        denom = 1 - lam_inv * np.exp(-TWO_PI_I * tau * n)
        value -= lam_inv * (-1) ** (k - 1) * complex(
            np.sum(np.exp(log_weight(-n) + TWO_PI_I * (z - tau) * n) / denom))
    if not cmath.isfinite(value):
        raise OverflowError(f"the P_k sum overflows at z = {z}, tau = {tau}")
    return value, tail_bound(cutoff)


def pk_double_sum_oracle(
    k: int, pair: TorsionPair, z: complex, tau: complex, terms: int = 200
) -> complex:
    """Independent double-geometric-sum evaluator for P_k (k = 1 form).

    Expands each reciprocal geometrically, valid in |q_tau| < |q_z| < 1.
    """
    qz = cmath.exp(TWO_PI_I * z)
    qt = cmath.exp(TWO_PI_I * tau)
    a1 = pair.j_over_M
    lam = complex(pair.lam.embed())
    km1fact = 1 / math.factorial(k - 1)
    value = 0j
    for off in range(-terms, terms + 1):
        nf = a1 + off
        if nf == 0:
            if pair.is_trivial():
                continue
            if k == 1:
                value += km1fact / (1 - lam)
            continue
        n = float(nf)
        npow = n ** (k - 1) if k > 1 else 1.0
        if n > 0:
            acc = sum(
                lam**m * cmath.exp(TWO_PI_I * tau * m * n) for m in range(terms)
            )
            value += km1fact * npow * cmath.exp(TWO_PI_I * z * n) * acc
        else:
            # q_z^n q_tau^(-mn) = exp(2 pi i (z - m tau) n), each factor below 1
            acc = sum(
                lam ** (-m) * cmath.exp(TWO_PI_I * (z - m * tau) * n)
                for m in range(1, terms)
            )
            value -= km1fact * npow * acc
    return value


def wp1_eval(z: complex, tau: complex, trunc: int = 200) -> complex:
    """G2(tau) z + pi i (q_z+1)/(q_z-1) + lattice corrections, truncated."""
    import numpy as np
    trunc = _index("trunc", trunc)
    if tau.imag <= 0:
        raise NotConvergent("evaluation requires Im(tau) > 0")
    qz = cmath.exp(TWO_PI_I * z)
    if abs(qz - 1) < 1e-12:
        raise NearPole("q_z too close to 1")
    value = g2_eval(tau, trunc) * z + 1j * cmath.pi * (qz + 1) / (qz - 1)
    qn = np.exp(TWO_PI_I * tau * np.arange(1, trunc + 1))
    d1, d2 = 1 - qn / qz, 1 - qz * qn
    near = np.flatnonzero(np.minimum(abs(d1), abs(d2)) < 1e-12)
    if near.size:
        raise NearPole(f"lattice denominator vanishes at n={near[0] + 1}")
    return value + TWO_PI_I * complex(np.sum((qn / qz) / d1 - (qz * qn) / d2))


# -- Klein and Hecke forms -------------------------------------------------------

def klein_hecke_series(pair: TorsionPair, trunc) -> tuple[Puiseux, Puiseux]:
    """The Klein form g and the Hecke form h/(2 pi i) as exact series at branching M.

    g carries leading exponent B_2(a1)/2, which may sit off the 1/M grid, and
    an exact root-of-unity prefactor; h is returned divided by 2 pi i so that
    its coefficients stay cyclotomic.
    """
    a1, a2 = pair.j_over_M, pair.l_over_N
    if a1 == 1 and a2 == 1:
        raise UndefinedAtLatticePoint("Klein/Hecke forms need (a1,a2) not in Z^2")
    trunc = _exponent(trunc)
    t, j = a1.denominator, a1.numerator
    # g = -zeta^p q^lead prod (1 - root q^e), p = a2 (a1 - 1)/2, over e = a1 + m (root
    # lam, m >= 0) and m - a1 (root lam^-1, m >= 1).  Every e is on the 1/t grid, so
    # slot idx holds q^(lead + idx/t) as a row of Z[C_n] indexed by zeta_n^x
    lead = bernoulli_poly(2)(a1) / 2
    p = a2 * (a1 - 1) / 2
    n = lcm(a2.denominator, p.denominator)
    size = max(0, math.ceil(trunc * t))
    cols = [[0] * size for _ in range(n)]
    live = {int(p * n) % n}  # the columns that may hold a nonzero coefficient
    if size:
        cols[int(p * n) % n][0] = -1
    r = int(a2 * n)
    for first, root in ((j, r), (t - j, -r)):
        for step in range(first, size, t):
            # times (1 - zeta_n^root q^(step/t)): column e + root less column e shifted
            # up by step, both read from the columns before this factor (step 0 at a1 = 1)
            old = cols[:]
            for e in live:
                dst = cols[(e + root) % n] = old[(e + root) % n][:]
                dst[step:] = map(operator.sub, dst[step:], old[e])
            live |= {(e + root) % n for e in live}
    g = Puiseux._make(t, lead, (1, _reduce_rows(cols, 1), False), lead + trunc)
    # h/(2 pi i) = a1 - 1/2 - sum_(m>=0) lam q^(m+a1)/(1 - lam q^(m+a1))
    #              + sum_(m>=1) lam^-1 q^(m-a1)/(1 - lam^-1 q^(m-a1))
    cols = [[0] * size for _ in range(a2.denominator)]
    for first, root, w in ((j, a2.numerator, -1), (t - j or t, -a2.numerator, 1)):
        _add_family(cols, first, t, [w] * len(range(first, size, t)), root, a2.denominator)
    const = CycQ.from_rational(a1 - Fraction(1, 2))
    if j == t:
        # a1 = 1, so lam != 1: the constant term lam^-1/(1 - lam^-1) = 1/(lam - 1)
        const += (pair.lam - CycQ.one).inverse()
    return g, Puiseux._make(t, Fraction(0), (1, _reduce_rows(cols, 1, const), False), trunc)


# -- Zhu change-of-variable coefficients -----------------------------------------

def zhu_coeff(p: int, i: int, m: int) -> Fraction:
    """Coefficient of z^i in (log(1+z))^m (1+z)^(p-1) / m!, which is the
    coefficient of x^m in binom(p-1+x, i) = prod_(t<i) (p-1-t+x) / i!, since
    (1+z)^(p-1+x) = sum_i binom(p-1+x, i) z^i."""
    p = _index("p", p)  # the product row is integral only for an integer p
    i, m = _index("i", i), _index("m", m)
    if i < 0 or m < 0:
        raise ValueError("i and m must be nonnegative")
    if i < m:
        return Fraction(0)
    poly = [1]  # prod_(t<i) (p-1-t+x), lowest power first
    for c in range(p - 1, p - 1 - i, -1):
        poly = [c * a + b for a, b in zip(poly + [0], [0] + poly)]
    return Fraction(poly[m], math.factorial(i))


# -- checks ----------------------------------------------------------------------

def prop44_check(k: int, j: int, m: int, cutoff: int = 10**6, tol: float = 1e-9):
    """Root-of-unity polylog sum against -B_k(j/M)/k!, vectorized.

    Compares (1/(2 pi i)^k) sum_{0<|n|<=cutoff} mu^n/n^k with the exact
    Bernoulli value and reports the absolute error.
    """
    import mpmath
    import numpy as np
    k, j, m, cutoff = _index("k", k), _index("j", j), _index("M", m), _index("cutoff", cutoff)
    if not (1 <= j <= m):
        raise ValueError("need 1 <= j <= M")
    if k < 2:
        raise ValueError("the sum needs k >= 2 for absolute convergence")
    # sum n^(-k) over each class n mod M once, then weight each class by its root
    ns = np.arange(1, cutoff + 1)
    sums = np.bincount(ns % m, weights=ns.astype(np.float64) ** (-float(k)), minlength=m)
    phase = np.exp(2j * np.pi * (np.arange(m) * j % m) / m)
    total = np.sum(phase * sums) + (-1) ** k * np.sum(np.conj(phase) * sums)
    if j % m == 0:
        # mu = 1: the tail does not oscillate and decays only like
        # cutoff^(1-k); restore it with the Hurwitz zeta value
        total += (1 + (-1) ** k) * float(mpmath.zeta(k, cutoff + 1))
    lhs = total / TWO_PI_I**k
    rhs = complex(-bernoulli_poly(k)(Fraction(j, m)) / math.factorial(k))
    err = abs(lhs - rhs)
    return CheckReport(
        check="bernoulli-polylog-sum",
        params={"k": k, "j": j, "M": m, "cutoff": cutoff, "tol": tol},
        error=err,
        passed=err < tol,
    )


def prop46_exact_checks(pair: TorsionPair, trunc) -> list[CheckReport]:
    """Hecke/Klein forms vs Q_1 and Q_2 as vanishing sums: h + Q_1 = 0, and theta(log g) =
    -Q_2 as theta(g) + Q_2 g = 0, to the same order since g's leading coefficient is a unit."""
    if _exponent(trunc) <= 0:
        raise TruncationTooSmall(f"the identities need trunc > 0 to reach q^0, got {trunc}")
    g, h = klein_hecke_series(pair, trunc)
    ok1 = (h + qk_series(1, pair, trunc)).is_zero()
    ok2 = (theta(g, "full") + qk_series(2, pair, trunc) * g).is_zero()
    return [
        CheckReport(check, {"pair": pair, "trunc": trunc},
                    "exact" if ok else "coefficient mismatch", ok, [QK_DENOMINATOR_FLAG])
        for check, ok in (("hecke-form-equals-weight1-series", ok1),
                          ("klein-log-derivative-equals-weight2-series", ok2))
    ]


def lemma_plambda_check(
    z: complex, tau: complex, l_over_N: Fraction, tol: float = 1e-8
) -> CheckReport:
    """P_lambda against the cyclic average of wp1 at scaled period."""
    if not abs(cmath.exp(TWO_PI_I * tau)) < abs(cmath.exp(TWO_PI_I * z)) < 1:
        raise OutsideRegion("need |q_tau| < |q_z| < 1")
    l_over_N = _exponent(l_over_N)
    n = l_over_N.denominator
    pair = TorsionPair(Fraction(1), l_over_N)
    lam = complex(pair.lam.embed())
    # P_lambda = 2 pi i sum'_(n != 0) q_z^n/(1 - lam q_tau^n): P_1 at mu = 1 less
    # its n = 0 term 1/(1 - lam), which pk_eval leaves out itself at lam = 1
    p1, _ = pk_eval(1, pair, z, tau)
    lhs = TWO_PI_I * (p1 if pair.is_trivial() else p1 - 1 / (1 - lam))
    rhs = 0j
    g2n = g2_eval(n * tau)
    for kk in range(n):
        w = z + kk * tau
        rhs += lam**kk * (g2n * w - wp1_eval(w, n * tau) - 1j * cmath.pi)
    err = abs(lhs - rhs)
    return CheckReport(
        "plambda-cyclic-average",
        {"z": z, "tau": tau, "lam_exponent": l_over_N, "tol": tol},
        err,
        err < tol,
    )


def _residue_rows(k: int, m: int, pair: TorsionPair, trunc: Fraction) -> tuple:
    """The right side of the residue identity (k >= 1) as one window of Z[C_N] by column
    over (k-1)! M^(k-1): (cols, const, base), slot i holding q^((i - base)/M).

    The window starts at the least exponent of any term and ends where the
    left side or a term is truncated, at min(trunc, trunc + max(m, 0) + the
    least shift); const is the q^0 term that is no row (the n = 0 term).
    """
    t, j = pair.M, pair.j_over_M.numerator
    l, n = pair.l_over_N.numerator, pair.l_over_N.denominator
    depth = math.ceil(trunc) + abs(m) + 2
    # the least shift n = j/M + 1 - m of the second sum puts q^0 at slot base
    least = j + (1 - m) * t
    base = max(0, -least)
    # each P_n is taken to trunc + max(m, 0), so that the q^n shift of the second
    # sum (negative n) still leaves everything exact to trunc; q^n P_n ends at
    # trunc + max(m, 0) + n
    end = min(trunc, trunc + max(m, 0) + Fraction(least, t))
    cols = [[0] * max(0, math.ceil(end * t) + base) for _ in range(n)]
    # first product: iota_(z,z1)(1/(z-z1)) * z^(j/M - m) * Pbar(w = z1/z).
    # iota_(z,z1) = sum_(e>=0) z1^e z^(-1-e) has every coefficient 1, and the
    # z1-exponent is suppressed (it is the constant j/M - m at the residue);
    # w^n contributes z^(-n), so z^(-1) collects P_n with n = j/M - m - e.
    # second product: -lam * iota_(z1,z)(1/(z-z1)) * z^(j/M - m) * Pbar(w = z1 q/z).
    # iota_(z1,z) = -sum_(e>=0) z^e z1^(-1-e) has every coefficient -1, and
    # w -> w q multiplies P_n by q^n; z^(-1) collects lam q^n P_n, n = j/M + 1 - m + e.
    # Past depth, either sum's terms start at or beyond the window's end.
    # With w = (nM)^(k-1), lam q^n P_n is P_n less w q^0 for n > 0 and plus it for n < 0, so
    # past q^0 both sums are the geometric sums of P_n over one run, off = -m - depth ..
    # 1 - m + depth: one family of steps nM > 0 (lam), one of |nM| for n < 0 (lam^-1)
    last = 1 - m + depth
    _add_family(cols, j, t, [s ** (k - 1) for s in range(j, j + last * t + 1, t)], l, n, base)
    _add_family(cols, t - j or t, t, [(-1) ** k * s ** (k - 1) for s in range(
        t - j or t, (m + depth) * t - j + 1, t)], -l, n, base)
    if base < len(cols[0]):  # w of each n > 0 of the first sum, -w of each n < 0 of the second
        cols[0][base] += (sum(s ** (k - 1) for s in range(j, j - m * t + 1, t))
                          - sum(s ** (k - 1) for s in range(least, 0, t)))
    # the n = 0 term (j/M = 1, off = -1): in the first sum for m <= 1, else times lam
    const = _add_pbar_term(cols, k, pair, 0) if j == t else CycQ.zero
    return cols, const * pair.lam if const and m >= 2 else const, base


def prop48_check(k: int, m: int, pair: TorsionPair, trunc) -> CheckReport:
    """Exact residue identity linking the two-variable series to Q_k.

    Res_z of the two expansion products, minus Q_k, must equal the exact
    Bernoulli constant B_k(1 - m + j/M)/k! for k >= 1; for k = 0 both
    residues vanish and Q_0 + 1 = 0.  Both residues are signed sums of the
    P-bar coefficients P_n (n = j/M + off):

        Q_k + B_k(1 - m + j/M)/k!
            = sum_(off=-m-depth)^(-m) P_n + lam sum_(off=1-m)^(1-m+depth) q^n P_n.

    For k >= 1 the identity is summed in one window of Z[C_N] by column over
    (k-1)! M^(k-1), on the 1/M grid: the P_n of both sums are added as two
    geometric families (``_residue_rows``), and Q_k is added with sign -1;
    the window is reduced to the power basis once, and every slot
    must vanish, the q^0 slot together with the constants that are no row
    (the n = 0 term, Q_k's constant and the Bernoulli term).
    """
    k, m, trunc = _index("k", k), _index("m", m), _exponent(trunc)
    if trunc <= 0:
        raise TruncationTooSmall(f"the identity needs trunc > 0 to reach q^0, got {trunc}")
    params = {"k": k, "m": m, "pair": pair, "trunc": trunc}
    flags = [QK_DENOMINATOR_FLAG, RESIDUE_BERNOULLI_FLAG]
    if k == 0:
        q0 = qk_series(0, pair, trunc)
        ok = q0 == Puiseux.constant(-1, trunc)
        return CheckReport(
            "residue-pairing-identity", params, "exact" if ok else "mismatch", ok, flags
        )
    cols, const, base = _residue_rows(k, m, pair, trunc)
    # minus the left side, Q_k + B_k(1 - m + j/M)/k!
    _add_qk(cols, k, pair, base, -1)
    const -= _qk_constant(k, pair) + bernoulli_poly(k)(1 - m + pair.j_over_M) / math.factorial(k)
    ok = not any(_reduce_rows(cols, math.factorial(k - 1) * pair.M ** (k - 1), const, base))
    return CheckReport(
        "residue-pairing-identity", params, "exact" if ok else "mismatch", ok, flags
    )
