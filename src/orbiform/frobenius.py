"""Frobenius-Fuchs solver for regular-singular ODEs in theta = q d/dq.

An ODE is theta^m S + sum_{i<m} r_i(q) theta^i S = 0 with Puiseux
coefficients r_i whose exponents lie in (1/T)Z_{>=0}.  Solutions are
q^lambda times polynomials in l = log q_(1/T) with Puiseux coefficients;
lambda runs over the indicial roots and logs appear when roots within one
congruence class mod (1/T)Z resonate.

The recursion solves the ODE times T^m in theta_T = T theta, which acts on
q^(mu + n/T) c(l) as E_n = (T mu + n) + d/dl; the q^(s/T) terms of every r_i
make one polynomial R_s, which acts on c(l) through its Taylor coefficients,
as the indicial polynomial does.  It keeps c(l) in divided powers l^j/j!,
where d/dl is a shift, and converts only where a solution is seeded or
assembled.  One function, ``_setup``, picks its value type from the indicial
roots and every value it reads by slot index (the ODE's, and for an
inhomogeneous solve f's): on exact roots and rational values, integer
numerators over one denominator, with each c_n over its own, assembled into one
int row per log part, which the solution keeps; on exact roots and some value of
conductor > 1, ``CycQ`` values; on an irrational root, ``complex`` values.

The residual ``apply_ode`` is ``series._residual``, on the rows of ``series``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .cyclotomic import CycQ, _homogeneous_value, _index, _poly_divmod_q, _poly_gcdex, _poly_sub
from .errors import TruncationTooSmall
from .series import LogQSeries, Puiseux, _exponent, _int_row, _nterms, _residual

# numeric indicial roots closer than this are clustered into one root
ROOT_CLUSTER_TOL = 1e-9


@dataclass
class RegularSingularODE:
    """theta^order S + sum r_i theta^i S, with 0 a regular singular point."""

    order: int
    T: int
    coeffs: list  # r_0 .. r_{order-1}, Puiseux, each at a branching that divides T

    def __post_init__(self):
        # 2.0 == 2 would scale a CycQ by a float; true == 1
        self.order, self.T = _index("order", self.order), _index("T", self.T)
        if self.order < 1 or self.T < 1:
            raise ValueError("order and T must be at least 1")
        if len(self.coeffs) != self.order:
            raise ValueError("need exactly `order` coefficient series")
        for r in self.coeffs:
            if self.T % r.T != 0:
                raise ValueError("coefficient branching must divide T")
            # the solver reads each coefficient on its own grid, a part of the (1/T)Z grid
            if not r.is_zero() and (r.normalized().lead < 0 or (r.lead * self.T).denominator != 1):
                raise ValueError("regular-singular normalization requires exponents >= 0 "
                                 f"on the (1/T)Z grid, got {r.lead} + Z/{self.T}")

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "T": self.T,
            "coeffs": [r.to_json() for r in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "RegularSingularODE":
        T = data["T"]
        coeffs = []
        for entry in data["coeffs"]:
            if "terms" in entry:
                coeffs.append(Puiseux.from_terms(
                    [(e, _exponent(c)) for e, c in entry["terms"]], entry["trunc"], T))
            else:
                coeffs.append(Puiseux.from_json(entry))
        return RegularSingularODE(data["order"], T, coeffs)


@dataclass
class NumericSolution:
    """Solution with a non-rational leading exponent; float coefficients.

    coeffs[n][j] is the complex coefficient of q^(exponent + n/T) l^j.
    """

    exponent: complex
    T: int
    coeffs: list
    max_log_power: int


@dataclass
class FrobeniusBasis:
    exponent_classes: list  # groups of indicial roots congruent mod (1/T)Z
    solutions: list  # LogQSeries (exact) or NumericSolution entries
    max_log_power: int
    numeric: bool = False

    def to_json(self) -> list:
        if self.numeric:
            raise ValueError("numeric bases have no exact serialization")
        return [s.to_json() for s in self.solutions]


# -- indicial polynomial -------------------------------------------------------

def indicial_polynomial(ode: RegularSingularODE) -> list:
    """Coefficients p_0 .. p_m of x^m + sum r_i(0) x^i, as CycQ, p_m = 1."""
    return [r.coeff_at(0) for r in ode.coeffs] + [CycQ.one]


def indicial_roots(ode: RegularSingularODE) -> list:
    """The m indicial roots, largest real part first.

    Roots of a rational-coefficient polynomial found by the rational-root
    test come back as exact Fractions; all remaining roots are complex
    floats with small residual, found factor by factor of the cofactor's
    square-free decomposition, so a repeated root comes back as equal copies.
    """
    poly = indicial_polynomial(ode)
    roots, rest = [], poly
    if all(c.is_rational() for c in poly):
        roots, rest = _rational_roots([c.rational_value() for c in poly])
    if len(rest) > 1:
        import numpy as np
        for factor, k in _squarefree(rest):
            arr = [complex(c) if isinstance(c, Fraction) else c.embed() for c in factor]
            roots += [complex(z) for z in np.roots(arr[::-1]) for _ in range(k)]
    roots.sort(key=lambda r: (-complex(r).real, -complex(r).imag))
    return roots


def _rational_roots(coeffs: list) -> tuple[list, list]:
    """All rational roots (with multiplicity) and the deflated cofactor; one
    pass suffices, since a root of a quotient is a root met at its own p.
    On integer coefficients c_i, each candidate p/q, a coprime pair, is tested
    once by the integer sum of c_i p^i q^(n-i); at a root, (q x - p) divides
    exactly and the quotient is integral again (Gauss's lemma), so synthetic
    division from the top finds it: b_(k-1) = (c_k + p b_k)/q."""
    den = math.lcm(*(c.denominator for c in coeffs))
    cur = [c.numerator * (den // c.denominator) for c in coeffs]
    roots = []
    while len(cur) > 1 and cur[0] == 0:
        roots.append(Fraction(0))
        cur = cur[1:]
    candidates = [(s * p, q) for p in _divisors(abs(cur[0])) for q in _divisors(abs(cur[-1]))
                  for s in (1, -1) if math.gcd(p, q) == 1]
    for p, q in candidates:
        while len(cur) > 1 and not _homogeneous_value(cur, p, q):
            roots.append(Fraction(p, q))
            cur = list(accumulate(cur[:0:-1], lambda b, c: (c + p * b) // q, initial=0))[:0:-1]
    return roots, [Fraction(x) for x in cur]


def _squarefree(f: list) -> list:
    """Yun's square-free decomposition over Q(zeta_N): the pairs (a_k, k)
    with f = c prod_k a_k^k, each a_k monic and square-free; a square-free f
    comes back as [(f, 1)], unscaled."""
    deriv = lambda p: [c * k for k, c in enumerate(p)][1:]
    quo = lambda a, b: _poly_divmod_q(a, b)[0]
    a = _poly_gcdex(f, deriv(f))[0]
    if len(a) == 1:
        return [(f, 1)]
    b, d = quo(f, a), quo(deriv(f), a)
    out = []
    while len(b) > 1:
        d = _poly_sub(d, deriv(b))
        a = _poly_gcdex(b, d)[0]
        out.append((a, len(out) + 1))
        b, d = quo(b, a), quo(d, a)
    return out


def _divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending; [1] for n = 0."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small])) or [1]


# -- polynomial-in-log helpers --------------------------------------------------

def _ptrim(p: list) -> list:
    while p and _pzero(p[-1]):
        p.pop()
    return p


def _pzero(c) -> bool:
    """Exact zero test for int, Fraction and CycQ values; only a complex value
    counts as zero below 1e-300."""
    if isinstance(c, complex):
        return abs(c) < 1e-300
    return not c


def _taylor_at(poly: list, x) -> list:
    """Coefficients of P(x + y) in y, from P's coefficients in x.

    Horner's scheme: pass u divides the running quotient by (X - x), which
    leaves the u-th Taylor coefficient in slot u; m(m+1)/2 multiply-adds.
    """
    out = list(poly)
    m = len(out) - 1
    for u in range(m):
        for k in range(m - 1, u - 1, -1):
            out[k] = out[k] + x * out[k + 1]
    return out


def _solve_step(tay: list, g: list, zero):
    """Solve P(X_n + d/dl) b = g for b in divided powers, that is
    sum_u tay[u] b[s + u] = g[s] for every s; the solution is b/k.

    tay are the Taylor coefficients of the indicial polynomial at X_n; the
    multiplicity r of X_n as a root forces b's bottom r coefficients to
    zero and raises the log degree by r.  On ints the back substitution is
    fraction-free: with k = tay[r]^len(g), each g[s] is scaled by k and each
    division by tay[r] is exact, as b[s + r] carries at most len(g) - s of
    them; on other values it divides, and k = 1.
    """
    if isinstance(zero, complex):
        # numeric resonance: a root hit only to rounding error must still
        # count as one, so zero-test the Taylor coefficients at 1e-9 scale
        tol = 1e-9 * max(1.0, max(abs(t) for t in tay))
        tiny = lambda c: abs(c) < tol
    else:
        tiny = _pzero
    r = 0
    while r < len(tay) and tiny(tay[r]):
        r += 1
    lead = tay[r]
    k = lead ** len(g) if type(lead) is int else 1
    b = [zero] * (len(g) + r)
    for s in range(len(g) - 1, -1, -1):
        acc = g[s] * k if k != 1 else g[s]
        for u in range(r + 1, min(len(tay), len(b) - s)):
            if not _pzero(tay[u]) and not _pzero(b[s + u]):
                acc = acc - b[s + u] * tay[u]
        b[s + r] = acc // lead if type(lead) is int else acc / lead
    return _ptrim(b), k


# -- the solver -----------------------------------------------------------------

def _recurse(indicial, rows, x0, seed_power: int, steps: int, f=None):
    """Coefficient polynomials c_0 .. c_{steps-1} of one Frobenius solution,
    in divided powers, as (cs, dens, d, max_log): c_n's coefficient of
    l^j/j! is cs[n][j] / (dens[n] d^j).

    c_n solves P(E_n) c_n = -sum_{s>=1} R_s(E_{n-s}) c_{n-s} + f[n], with
    E_n = (x0 + n) + d/dl and x0 = T mu; P, the rows (s, R_s) and the
    inhomogeneous terms f are those of ``_setup``, and without f the solution
    is seeded with l^seed_power.  A polynomial R acts on c by its Taylor
    coefficients at x: R(x + d/dl) c = sum_u tay[u] (d/dl)^u c, and d/dl
    moves each coefficient down one slot; f[n] enters with coefficient -1.  On
    ints it stays on ints: with d = den(x0), d E_n = (d x0 + d n) + d/dl' is
    integral in l' = l/d, so the equation times d^m has int coefficients, and
    c_n is kept in divided powers of l' as ints over its own positive
    denominator dens[n], in lowest terms: the lcm of the terms' denominators
    times the scale k of ``_solve_step``, over one gcd.  CycQ and complex
    coefficients are kept as they are, with d and every den 1.
    """
    m = len(indicial) - 1
    one, d = indicial[-1], 1  # the indicial polynomial is monic, or L on ints
    if type(one) is int:
        d = x0.denominator
        indicial = [c * d ** (m - u) for u, c in enumerate(indicial)]
        rows = [(s, [c * d ** (m - i) for i, c in enumerate(R)]) for s, R in rows]
        if f is not None:  # f_n in divided powers of l'
            f = [[x * d ** (m + j) for j, x in enumerate(fn)] for fn in f]
        one, x0 = 1, x0.numerator
    zero = one - one
    # l^j is j! in divided powers of l, and d^j j! in those of l'
    cs = [] if f is not None else [
        [zero] * seed_power + [one * (math.factorial(seed_power) * d ** seed_power)]]
    dens = [1] * len(cs)
    for n in range(len(cs), steps):
        terms = []  # (coefficient, den, polynomial), subtracted from g
        for s, R in rows:
            if s > n:
                break
            if (p := cs[n - s]) and len(R) == 1:  # a constant R_s is its own Taylor row
                terms.append((R[0], dens[n - s], p))
            elif p:
                x = x0 + d * (n - s)
                tay, reach = (_taylor_at(R, x), 0) if x else (R, len(R))  # and so is R_s at 0
                # tay[u] reads p[t + u] for t < len(p) - reach, reach = u off 0.  At 0,
                # E^i p = (d/dl)^i p ends at p's top, and reach is the least i >= u with
                # tay[i] != 0: a zero CycQ product keeps its conductor, as in sum r_i E^i p
                for u in range(len(tay) - 1, -1, -1):
                    if x or tay[u]:
                        reach = u
                    terms.append((tay[u], dens[n - s], p[u:u + len(p) - reach]))
        if f is not None and f[n]:
            terms.append((-1, 1, f[n]))
        den = math.lcm(*(k for _, k, _ in terms))
        g: list = []
        for c, k, p in terms:
            if k != den:
                c = c * (den // k)
            g += [zero] * (len(p) - len(g))
            for t, pc in enumerate(p):
                g[t] = g[t] - c * pc
        b, k = _solve_step(_taylor_at(indicial, x0 + d * n), _ptrim(g), zero)
        den *= k
        if den != 1:  # one gcd per step keeps b/den in lowest terms, den > 0
            h = math.gcd(den, *b) if den > 0 else -math.gcd(den, *b)
            den, b = den // h, [x // h for x in b]
        cs.append(b)
        dens.append(den)
    return cs, dens, d, max(1, *map(len, cs)) - 1


def _fold_solution(cs: list, dens: list, d: int, mu: Fraction, T: int, span: Fraction,
                   max_log: int) -> LogQSeries:
    """Assemble q^mu sum_n c_n(l) q^(n/T) into a LogQSeries, from
    ``_recurse``'s cs, dens and d.

    The leading exponent is folded into the Puiseux parts; refining the
    branching rescales l = log q_(1/T) to log q_(1/t), so the part of
    l^j/j! picks up (t/T)^j / j!.  Part j is one row over L d^j j!, L the
    lcm of the dens: an int x becomes x (t/T)^j L / dens[n], a CycQ x (every
    den 1) x (t/T)^j, and the row is brought to lowest terms by one gcd.
    """
    t = math.lcm(T, mu.denominator)
    step = t // T
    trunc = mu + span
    L, ints = math.lcm(*dens), all(type(c[0]) is int for c in cs if c)
    parts = []
    for j in range(max_log + 1):
        used = [n for n, c in enumerate(cs) if j < len(c) and c[j]]
        # a part starts at its first nonzero slot; a zero part is Puiseux.zero's zeros from q^0
        lead = mu + Fraction(used[0], T) if used else Fraction(0)
        row = [0] * _nterms(lead, trunc, t)
        for n in used:
            row[(n - used[0]) * step] = cs[n][j] * (step ** j * (L // dens[n]))
        parts.append(Puiseux._make(t, lead, (L * d ** j * math.factorial(j), row, ints), trunc))
    return LogQSeries(t, parts)


def _same(r, s, T=None) -> bool:
    """Whether roots r and s lie in one congruence class mod (1/T)Z, or, with
    T None, are one root.  Exact roots compare exactly, numeric roots within
    ROOT_CLUSTER_TOL, and an exact root never matches a numeric one."""
    if isinstance(r, Fraction) != isinstance(s, Fraction):
        return False
    if isinstance(r, Fraction):
        return r == s if T is None else ((r - s) * T).denominator == 1
    if T is None:
        return abs(r - s) < ROOT_CLUSTER_TOL
    diff = (r - s) * T
    return (abs(diff.imag) < ROOT_CLUSTER_TOL
            and abs(diff.real - round(diff.real)) < ROOT_CLUSTER_TOL)


def _group(roots: list, same) -> list:
    """Roots in groups, in order: each joins the first group whose first
    root it is the same as, else starts a group."""
    groups: list[list] = []
    for r in roots:
        for group in groups:
            if same(r, group[0]):
                group.append(r)
                break
        else:
            groups.append([r])
    return groups


def _setup(ode: RegularSingularODE, trunc, exact: bool, f: LogQSeries | None = None,
           lam: Fraction | None = None):
    """Span, step count, indicial polynomial, rows by q-power and
    inhomogeneous terms of a solve to relative order q^trunc, for the ODE
    times T^m in theta_T = T theta, in the one value type of the solve.

    p_i is scaled by T^(m-i); the rows are the (s, R_s), 0 < s < steps, s
    ascending, with R_s = sum_i T^(m-i) r_{i,s} x^i nonzero, trailing zeros
    trimmed.  With f (at a branching that T divides) and its leading exponent
    lam, fs[n] holds -T^m times f's coefficients at q^(lam + n/T) in divided
    powers of l = log q_(1/T), trailing zeros trimmed (a term of f off
    lam + (1/T)Z is a ``ValueError``); without f, fs is empty.  The values
    are ints over one positive lcm L when ``exact`` and ``_int_row`` reads
    every one, CycQ when ``exact`` and some value is not rational, and
    complex embeddings of the CycQ values when not ``exact``.
    """
    T, m = ode.T, ode.order
    span = _exponent(trunc)
    if span < Fraction(1, T):
        raise TruncationTooSmall(f"truncation {span} is below one step 1/{T}")
    steps = math.ceil(span * T)
    indicial = [c * T ** (m - i) for i, c in enumerate(indicial_polynomial(ode))]
    by_power: dict = {}  # s -> R_s, with T^(m-i) r_{i,s} at i
    for i, r in enumerate(ode.coeffs):
        if r.trunc < span:
            raise TruncationTooSmall(
                f"coefficient series truncated at {r.trunc} < requested {span}"
            )
        first, stride = int(r.lead * T), T // r.T  # r's slot k is at step first + k stride
        for k, c in r._nonzero():
            if 0 < (s := first + k * stride) < steps:
                by_power.setdefault(s, [CycQ.zero] * m)[i] = c * T ** (m - i)
    rows = [(s, _ptrim(R)) for s, R in sorted(by_power.items())]
    cols = []  # f's values at q^(lam + n/T), n < steps, one list per log part
    for j, p in enumerate(f.parts if f is not None else ()):
        if p.trunc < lam + span:
            raise TruncationTooSmall(
                f"inhomogeneous term truncated at {p.trunc} < {lam + span}"
            )
        # l is (f.T/T) log q_(1/f.T), so f's l'^j part is (T/f.T)^j j! l^j/j!
        k = CycQ.from_rational(-T**m * Fraction(T, f.T) ** j * math.factorial(j))
        first, step = (lam - p.lead) * f.T, f.T // T  # q^(lam + n/T) is slot first + n step
        cols.append(col := [CycQ.zero] * steps)
        for i, c in p._nonzero():
            n, off = divmod(i - first, step)
            if off:  # a Fraction first: p has no term in lam + (1/T)Z
                raise ValueError(f"the l^{j} part of f has a term off {lam} + (1/{T})Z")
            if 0 <= n < steps:
                col[n] = c * k
    fs = [_ptrim(list(fn)) for fn in zip(*cols)]
    values = indicial + [c for _, R in rows for c in R] + [x for fn in fs for x in fn]
    if not exact:
        values = [c.embed() for c in values]
    elif (row := _int_row(values)) is not None:
        values = row[1]
    values = iter(values)
    indicial = [next(values) for _ in indicial]
    rows = [(s, [next(values) for _ in R]) for s, R in rows]
    return span, steps, indicial, rows, [[next(values) for _ in fn] for fn in fs]


def frobenius_solve(ode: RegularSingularODE, trunc) -> FrobeniusBasis:
    """Full solution basis to relative order q^trunc.

    Within each congruence class the roots are processed from largest real
    part downward; ascending recursions from lower roots pass through the
    higher ones, where the resonant solve escalates the log power.  Each
    solution is normalized to leading coefficient 1.
    """
    T = ode.T
    roots = indicial_roots(ode)
    exact = all(isinstance(r, Fraction) for r in roots)
    span, steps, indicial, rows, _ = _setup(ode, trunc, exact)
    classes = _group(roots, lambda r, s: _same(r, s, T))
    solutions = []
    max_log = 0
    for cls in classes:
        for equal in _group(cls, _same):
            mu = equal[0] if exact else complex(equal[0])
            for j in range(len(equal)):
                cs, dens, d, ml = _recurse(indicial, rows, T * mu, j, steps)
                if exact:
                    solutions.append(_fold_solution(cs, dens, d, mu, T, span, ml))
                else:  # back to ordinary powers: divide by k!, which is 1 below k = 2
                    cs = [[c / math.factorial(k) if k > 1 else c for k, c in enumerate(p)]
                          for p in cs]
                    solutions.append(NumericSolution(mu, T, cs, ml))
                max_log = max(max_log, ml)
    return FrobeniusBasis(classes, solutions, max_log, numeric=not exact)


# -- residual and inhomogeneous solve -------------------------------------------

# the former name of LogQSeries.with_branching; perfbench imports it
rebranch_log = LogQSeries.with_branching


def apply_ode(ode: RegularSingularODE, s: LogQSeries) -> LogQSeries:
    """theta^m s + sum r_i theta^i s; zero to truncation order on solutions.

    Both are brought to the least multiple t of lcm(ode.T, s.T) whose grid
    holds the lead of every part of s and of every r_i.  Residual part j sums
    part j of theta^m s and of every r_i theta^i s with lead at most 0 and
    trunc the smallest over every part of every term (``series._residual``).
    """
    return _residual(ode.coeffs, ode.T, s)


def solve_inhomogeneous(ode: RegularSingularODE, f: LogQSeries, trunc) -> LogQSeries:
    """Particular solution s with apply_ode(ode, s) + f = 0.

    f's exponents must lie in lambda + (1/T)Z for the leading exponent
    lambda of f, else ``_setup`` raises a ``ValueError``; resonances with
    indicial roots escalate the log power, with the resonant degrees of
    freedom fixed to zero.  ``_setup`` reads f with the ODE, so the solve
    runs on ints only when both are rational.
    """
    T = ode.T
    if f.is_zero():
        raise ValueError("the inhomogeneous term f is zero, so it has no leading exponent")
    f = f.with_branching(math.lcm(f.T, T))
    lam = min(p.normalized().lead for p in f.parts if not p.is_zero())
    span, steps, indicial, rows, fs = _setup(ode, trunc, True, f, lam)
    cs, dens, d, max_log = _recurse(indicial, rows, T * lam, -1, steps, fs)
    return _fold_solution(cs, dens, d, lam, T, span, max_log)
