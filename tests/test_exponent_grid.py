"""Exponents on the 1/t grid as ints: the slot counts, offsets and lead/trunc
comparisons of ``series`` and ``frobenius`` against the Fraction arithmetic
they replace.

The ``_ref_*`` functions are the Fraction bookkeeping of the solver and its
residual as it was written before: ``Puiseux.coeff_at`` and ``_nterms`` on
Fractions, ``_setup`` reading ``terms()`` and ``coeff_at`` per step,
``_fold_solution``, the rational-root deflation by polynomial division over
Q, and the residual rows with Fraction leads and truncations.  Every output
must be the same, slot for slot and conductor for conductor.
"""

import fractions
import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiform import forms, frobenius
from orbiform.cyclotomic import CycQ, _poly_divmod_q
from orbiform.errors import TruncationTooSmall
from orbiform.frobenius import RegularSingularODE, apply_ode, frobenius_solve, solve_inhomogeneous
from orbiform.series import LogQSeries, Puiseux, _int_row, _lead_grid, _nterms

# -- the Fraction reference --------------------------------------------------------


def _ref_nterms(lead, trunc, t):
    return max(0, math.ceil((trunc - lead) * t))


def _ref_coeff_at(p: Puiseux, exponent):
    exponent = Fraction(exponent)
    if exponent >= p.trunc:
        raise KeyError(exponent)
    idx = (exponent - p.lead) * p.T
    if exponent < p.lead or idx.denominator != 1:
        return CycQ.zero
    return p.coeffs[int(idx)]


def _ref_indicial_polynomial(ode):
    return [_ref_coeff_at(r, 0) for r in ode.coeffs] + [CycQ.one]


def _ref_rational_roots(coeffs):
    den = math.lcm(*(c.denominator for c in coeffs))
    cur = [c.numerator * (den // c.denominator) for c in coeffs]
    roots = []
    while len(cur) > 1 and cur[0] == 0:
        roots.append(Fraction(0))
        cur = cur[1:]
    candidates = dict.fromkeys(Fraction(s * p, q) for p in frobenius._divisors(abs(cur[0]))
                               for q in frobenius._divisors(abs(cur[-1])) for s in (1, -1))
    for cand in candidates:
        p, q = cand.numerator, cand.denominator
        while len(cur) > 1 and not frobenius._homogeneous_value(cur, p, q):
            roots.append(cand)
            cur = [x.numerator for x in _poly_divmod_q(cur, [Fraction(-p), Fraction(q)])[0]]
    return roots, [Fraction(x) for x in cur]


def _ref_setup(ode, trunc, exact, f=None, lam=None):
    T, m = ode.T, ode.order
    span = Fraction(trunc)
    if span < Fraction(1, T):
        raise TruncationTooSmall(f"truncation {span} is below one step 1/{T}")
    steps = math.ceil(span * T)
    indicial = [c * T ** (m - i) for i, c in enumerate(_ref_indicial_polynomial(ode))]
    by_power = {}  # s -> R_s, the q^(s/T) terms of every r_i
    for i, r in enumerate(ode.coeffs):
        if r.trunc < span:
            raise TruncationTooSmall("coefficient series truncated")
        for e, c in r.terms():
            if 0 < e * T < steps:
                by_power.setdefault(int(e * T), [CycQ.zero] * m)[i] = c * T ** (m - i)
    rows = [(s, frobenius._ptrim(by_power[s])) for s in sorted(by_power)]
    fs = []
    if f is not None:
        for p in f.parts:
            if p.trunc < lam + span:
                raise TruncationTooSmall("inhomogeneous term truncated")
        scales = [-T**m * Fraction(T, f.T) ** j * math.factorial(j) for j in range(len(f.parts))]
        fs = [frobenius._ptrim([_ref_coeff_at(p, lam + Fraction(n, T)) * k
                                for p, k in zip(f.parts, scales)]) for n in range(steps)]
    values = indicial + [c for _, R in rows for c in R] + [x for fn in fs for x in fn]
    if not exact:
        values = [c.embed() for c in values]
    elif (row := _int_row(values)) is not None:
        values = row[1]
    values = iter(values)
    indicial = [next(values) for _ in indicial]
    rows = [(s, [next(values) for _ in R]) for s, R in rows]
    return span, steps, indicial, rows, [[next(values) for _ in fn] for fn in fs]


def _ref_fold_solution(cs, dens, d, mu, T, span, max_log):
    t = math.lcm(T, mu.denominator)
    step = t // T
    trunc = mu + span
    parts = []
    for j in range(max_log + 1):
        num, div = step ** j, d ** j * math.factorial(j)
        occupied = [n for n, c in enumerate(cs) if j < len(c) and not frobenius._pzero(c[j])]
        if not occupied:
            parts.append(Puiseux.zero(trunc, t))
            continue
        first = occupied[0]
        lead = mu + Fraction(first, T)
        coeffs = [CycQ.zero] * _ref_nterms(lead, trunc, t)
        for n in occupied:
            x = cs[n][j]
            coeffs[(n - first) * step] = (CycQ._reduced(1, dens[n] * div, (x * num,))
                                          if type(x) is int else x * Fraction(num, div))
        parts.append(Puiseux(t, lead, coeffs, trunc))
    return LogQSeries(t, parts)


def _ref_apply_ode(ode, s):
    t = _lead_grid(math.lcm(ode.T, s.T), s.parts + ode.coeffs)
    scale = t // s.T
    coeff_rows = [_ref_row(r, t) for r in ode.coeffs]
    images = [[_ref_row(p, t, scale**j) for j, p in enumerate(s.parts)]]
    for _ in range(ode.order):
        images.append(_ref_theta_rows(images[-1], t))
    terms = [images[-1]] + [[_ref_mul_rows(p, r, t) for p in image]
                            for image, r in zip(images, coeff_rows)]
    trunc = min(p[1] for term in terms for p in term)
    result = []
    for col in zip(*terms):
        lead, _, den, row = _ref_sum_rows(col, t, min(Fraction(0), *(p[0] for p in col)), trunc)
        inv = Fraction(1, den)
        values = [CycQ.zero if not x else CycQ._reduced(1, den, (x,)) if type(x) is int
                  else x * inv for x in row]
        result.append(Puiseux(t, lead, values, trunc))
    return LogQSeries(t, result)


def _ref_row(p, t, scale=1):
    den, ints = _int_row(p.coeffs) or (1, [c if c else 0 for c in p.coeffs])
    if scale != 1:
        ints = [x * scale for x in ints]
    if t != p.T:
        row = [0] * _ref_nterms(p.lead, p.trunc, t)
        row[::t // p.T] = ints
        ints = row
    return p.lead, p.trunc, den, ints


def _ref_sum_rows(terms, t, lead, trunc):
    n = _ref_nterms(lead, trunc, t)
    den = math.lcm(*(x[2] for x in terms))
    out = [0] * n
    for x_lead, _, x_den, x_row in terms:
        _ref_add_into(out, int((x_lead - lead) * t), den // x_den, x_row)
    return lead, trunc, den, out


def _ref_add_into(out, off, k, row):
    seg = row[:max(0, len(out) - off)]
    out[off:off + len(seg)] = [u + k * v if v else u for u, v in zip(out[off:], seg)]


def _ref_theta_rows(parts, t):
    out = []
    for i, (lead, trunc, den, row) in enumerate(parts):
        P, Q = lead.numerator * t, lead.denominator
        term = (lead, trunc, den * Q * t, [x * (P + k * Q) for k, x in enumerate(row)])
        if i + 1 < len(parts):
            n_lead, n_trunc, n_den, n_row = parts[i + 1]
            n_row = [x * (i + 1) for x in n_row]
            term = _ref_sum_rows([term, (n_lead, n_trunc, n_den * t, n_row)],
                                 t, min(lead, n_lead), min(trunc, n_trunc))
        out.append(term)
    return out


def _ref_mul_rows(a, b, t):
    lead = a[0] + b[0]
    trunc = min(a[1] + b[0], b[1] + a[0])
    out = [0] * _ref_nterms(lead, trunc, t)
    for j, c in enumerate(b[3][:len(out)]):
        if c:
            _ref_add_into(out, j, c, a[3])
    return lead, trunc, a[2] * b[2], out


def _reference(solve):
    """solve() with the solver's exponent bookkeeping swapped for the reference."""
    with mock.patch.multiple(frobenius, _setup=_ref_setup, _fold_solution=_ref_fold_solution,
                             _rational_roots=_ref_rational_roots,
                             indicial_polynomial=_ref_indicial_polynomial):
        return solve()


# -- strategies ------------------------------------------------------------------

def _monic(roots) -> list:
    """Ascending coefficients of prod (x - rho) over the roots."""
    poly = [Fraction(1)]
    for rho in roots:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= rho * poly[i + 1]
    return poly


def _ode(T, roots, couplings, trunc) -> RegularSingularODE:
    """The ODE with these indicial roots, coupled by c q^(k/T) in r_0."""
    poly = _monic(roots)
    return RegularSingularODE(len(roots), T, [
        Puiseux.from_terms([(0, poly[i])] + (couplings if i == 0 else []), trunc, T)
        for i in range(len(roots))])


def _lifted(s: Puiseux, n: int) -> Puiseux:
    return Puiseux(s.T, s.lead, [c.lift(n) for c in s.coeffs], s.trunc)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
root = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def graded_cases(draw):
    """(ode, f, span, s): an ODE at T in {1, 2, 3, 6} with indicial roots of
    denominator 1-4 (some resonant), a span off the (1/T)Z grid, f an
    inhomogeneous term with one or two log parts or None, and s a log series
    with leads and truncations off the grid, some leads above their truncs."""
    T = draw(st.sampled_from([1, 2, 3, 6]))
    r = draw(root)
    roots = draw(st.sampled_from([(r,), (r, draw(root)), (r, r), (r, r - 1),
                                  (r, r - Fraction(draw(st.integers(1, 3)), T)), (r, r, r - 1)]))
    span = Fraction(draw(st.integers(1, 7 if len(roots) < 3 else 4)), T)
    span += Fraction(draw(st.integers(0, 4)), draw(st.integers(2, 5)) * T)
    trunc = span + Fraction(draw(st.integers(0, 3)), 7)
    couplings = [(Fraction(k, T), c) for k, c in
                 draw(st.lists(st.tuples(st.integers(1, 6), small.filter(bool)), max_size=2))
                 if Fraction(k, T) < trunc]
    ode = _ode(T, roots, couplings, trunc)
    f = None
    if draw(st.booleans()):
        fT = draw(st.sampled_from([1, T]))
        lam = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        parts = []
        for _ in range(draw(st.integers(1, 2))):
            terms = [(lam + Fraction(k, fT), c) for k, c in
                     draw(st.lists(st.tuples(st.integers(0, 5), small), min_size=1, max_size=3))]
            parts.append(Puiseux.from_terms(terms, lam + span + 6, fT))
        if any(not p.is_zero() for p in parts):
            f = LogQSeries(fT, parts)
    sT = draw(st.sampled_from([1, 2, 3]))
    s_parts = []
    for _ in range(draw(st.integers(1, 3))):
        lead = draw(small)
        trunc = lead + Fraction(draw(st.integers(-2, 10)), draw(st.integers(1, 5)) * sT)
        n = max(0, math.ceil((trunc - lead) * sT))
        s_parts.append(Puiseux(sT, lead, draw(st.lists(small, min_size=n, max_size=n)), trunc))
    return ode, f, span, LogQSeries(sT, s_parts)


def _same(got: LogQSeries, want: LogQSeries):
    """T, every lead and trunc (Fractions both), and every slot's conductor,
    denominator and numerators."""
    assert got.T == want.T and len(got.parts) == len(want.parts)
    for a, b in zip(got.parts, want.parts):
        assert type(a.lead) is Fraction and type(a.trunc) is Fraction
        assert (a.T, a.lead, a.trunc) == (b.T, b.lead, b.trunc)
        assert [(c.conductor, c.den, c.nums) for c in a.coeffs] == \
            [(c.conductor, c.den, c.nums) for c in b.coeffs]


_E2_TRUNC = 12
_E2_ODE = RegularSingularODE(2, 1, [Puiseux.zero(_E2_TRUNC),
                                    forms.eisenstein(2, _E2_TRUNC).scalar_mul(-24)])


@settings(max_examples=60, deadline=None)
@given(graded_cases(), st.booleans())
# a negative lead: roots -5/4 and -9/4 a step of 1/2 apart at T = 2, and f from q^-2
@example((_ode(2, (Fraction(-5, 4), Fraction(-9, 4)), [(Fraction(1, 2), 1)], 5),
          LogQSeries(1, [Puiseux.monomial(3, -2, 3)]), Fraction(17, 5),
          LogQSeries(2, [Puiseux(2, Fraction(-3, 2), [1, 0, 2], Fraction(-1, 5))])), False)
# lead above trunc: a part of s and a zero coefficient with no slots
@example((RegularSingularODE(2, 3, [
    Puiseux.from_terms([(0, Fraction(-1, 16)), (Fraction(1, 3), 1)], 6, 3),
    Puiseux(3, 2, [], Fraction(5, 3))]),
          None, Fraction(3, 2),
          LogQSeries(2, [Puiseux(2, 1, [1, 2], 2), Puiseux(2, 3, [], Fraction(5, 2))])), True)
# f's l part starts a slot above lam, its last slot nonzero (an l^2 part off
# the grid of lam is a ValueError: test_off_grid_f_is_an_error)
@example((_ode(1, (Fraction(1, 2), Fraction(-3, 2)), [(1, 1)], 4),
          LogQSeries(1, [Puiseux.monomial(1, 0, 5), Puiseux(1, 1, [2, 0, 0, 7], 5)]), Fraction(3),
          LogQSeries(1, [Puiseux(1, 0, [1], 1)])), False)
# the criterion-9 E2 ODE, theta^2 S - 24 E_2 S = 0, at a span off the grid
@example((_E2_ODE, None, Fraction(31, 3), LogQSeries(1, [Puiseux(1, 0, [1, -24], 2)])), False)
def test_int_bookkeeping_matches_the_fraction_reference(case, lift):
    ode, f, span, s = case
    if lift:  # CycQ rows, and the solver's CycQ recursion
        ode = RegularSingularODE(ode.order, ode.T, [_lifted(r, 3) for r in ode.coeffs])
    if f is None:
        solve = lambda: frobenius_solve(ode, span).solutions
    else:
        solve = lambda: [solve_inhomogeneous(ode, f, span)]
    try:
        want = _reference(solve)
    except TruncationTooSmall:
        with pytest.raises(TruncationTooSmall):
            solve()
    else:
        got = solve()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _same(a, b)
            _same(apply_ode(ode, a), _ref_apply_ode(ode, b))
    _same(apply_ode(ode, s), _ref_apply_ode(ode, s))


@pytest.mark.parametrize("f", [
    # the l^2 part is off the grid of lam = 0
    LogQSeries(1, [Puiseux.monomial(1, 0, 5), Puiseux(1, 1, [2, 0, 0, 7], 5),
                   Puiseux(1, Fraction(1, 3), [3, 0, 0, 0, 1], 5)]),
    # 1 + (3 q^(1/3) + q^(13/3)) l
    LogQSeries(1, [Puiseux.monomial(1, 0, 5), Puiseux(1, Fraction(1, 3), [3, 0, 0, 0, 1], 5)]),
    # 1 + q^(1/2), given at branching 2
    LogQSeries(2, [Puiseux.from_terms([(0, 1), (Fraction(1, 2), 1)], 5, 2)]),
], ids=["l2-part", "l-part", "branching-2"])
def test_off_grid_f_is_an_error(f):
    # the solver reads f on lam + Z only; a term off it was solved as zero, and
    # apply_ode(ode, s) + f was not zero
    ode = _ode(1, (Fraction(1, 2), Fraction(-3, 2)), [(1, 1)], 4)
    with pytest.raises(ValueError, match="off 0"):
        solve_inhomogeneous(ode, f, 3)


# -- slot counts and coefficient reads --------------------------------------------

exponent = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-6, max_value=6, max_denominator=12))


@settings(max_examples=300, deadline=None)
@given(exponent, exponent, st.integers(1, 24))
@example(Fraction(3, 2), Fraction(1, 2), 4)  # lead above trunc: no slots
@example(Fraction(-1, 3), Fraction(73, 20), 12)
def test_nterms_is_the_ceiling_of_the_span(lead, trunc, t):
    assert _nterms(lead, trunc, t) == max(0, math.ceil((trunc - lead) * t))


@st.composite
def puiseux(draw):
    T = draw(st.integers(1, 6))
    lead = draw(exponent)
    trunc = lead + Fraction(draw(st.integers(-2, 12)), draw(st.integers(1, 3)) * T)
    n = max(0, math.ceil((trunc - lead) * T))
    return Puiseux(T, lead, draw(st.lists(small, min_size=n, max_size=n)), trunc)


@settings(max_examples=300, deadline=None)
@given(puiseux(), exponent)
@example(Puiseux(10, 0, [0, 5], Fraction(1, 5)), Fraction(1, 10))
@example(Puiseux(2, Fraction(-3, 2), [1, 2, 3], 0), Fraction(-5, 2))  # below the lead
def test_coeff_at_matches_the_fraction_index(p, e):
    try:
        want = _ref_coeff_at(p, e)
    except KeyError:
        with pytest.raises(KeyError):
            p.coeff_at(e)
    else:
        got = p.coeff_at(e)
        assert (got.conductor, got.den, got.nums) == (want.conductor, want.den, want.nums)


# -- the Fraction budget -----------------------------------------------------------

def _branched(steps: int):
    """A T = 3 ODE with resonant roots 1/4 and -5/12 (a log) whose r_0 has a
    term at every slot up to its truncation, steps/3 + 1, and an f that
    reaches as far."""
    couplings = [(Fraction(k, 3), Fraction(1, k)) for k in range(1, steps + 3)]
    ode = _ode(3, (Fraction(1, 4), Fraction(-5, 12)), couplings, Fraction(steps, 3) + 1)
    f = LogQSeries(3, [Puiseux.from_terms([(Fraction(2, 3), 1), (Fraction(5, 3), -2)],
                                          Fraction(steps, 3) + 2, 3)])
    return ode, f


def _fraction_calls(fn) -> int:
    """Calls into fractions.py while fn runs: operators, properties, constructors."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return calls


def _solve_and_check(ode, f, steps: int):
    span = Fraction(steps, 3)
    basis = frobenius_solve(ode, span)
    assert len(basis.solutions) == 2 and basis.max_log_power == 1
    assert all(apply_ode(ode, s).is_zero() for s in basis.solutions)
    assert (apply_ode(ode, solve_inhomogeneous(ode, f, span)) + f).is_zero()


def test_fraction_work_does_not_grow_with_the_truncation():
    # leads, truncs and slot offsets are ints on the 1/t grid, and the solver
    # reads the ODE and f by slot index: the Fraction work of the solves and
    # their residuals is per part and per root, not per slot or step
    cases = {steps: _branched(steps) for steps in (30, 60)}
    _solve_and_check(*cases[30], 30)  # warm every cache first
    calls = {steps: _fraction_calls(lambda: _solve_and_check(*case, steps))
             for steps, case in cases.items()}
    assert calls[30] == calls[60]
