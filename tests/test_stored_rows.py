"""Series that keep the row they were built from, against the CycQ-list path.

A series stores its row (den, row, ints); ``coeffs`` is a list built from it
on each read.  The ``_ref_*`` functions below are the CycQ-list path this
replaced: every operation reads its operands' CycQ lists into rows and writes
one CycQ per slot back through ``Puiseux(...)``, the Frobenius fold assembles
CycQ slots, and ``_setup`` reads the ODE by its ``coeffs``.  Both paths must give the
same T, lead, trunc and (conductor, den, nums) in every slot, over rational,
lifted (rational values stored at conductor N) and conductor-N series.

The row helpers ``_sum_rows``, ``_mul_rows`` and ``_theta_rows``, the kernels
and ``frobenius._recurse`` are shared: only the storage between them differs.
"""

import math
from fractions import Fraction
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiform import frobenius, moonshine
from orbiform.cyclotomic import CycQ, cyc_root
from orbiform.errors import NonInvertibleLeadingTerm, TruncationTooSmall
from orbiform.forms import eisenstein
from orbiform.frobenius import (
    RegularSingularODE,
    apply_ode,
    frobenius_solve,
    indicial_polynomial,
    solve_inhomogeneous,
)
from orbiform.series import (
    Embedded,
    LogQSeries,
    Puiseux,
    _int_row,
    _lead_grid,
    _mul_rows,
    _newton_inverse,
    _nterms,
    _row,
    _sparse_inverse,
    _sum_rows,
    _theta_rows,
    eval_at_tau,
    product_expand,
    theta,
)

# -- the CycQ-list path ------------------------------------------------------------


def _ref_row(p, t, D, scale=1):
    r = _int_row(p.coeffs)
    den, vals = r or (1, [c or 0 for c in p.coeffs])
    if scale != 1:
        vals = [x * scale for x in vals]
    lead, trunc = (x.numerator * (D // x.denominator) for x in (p.lead, p.trunc))
    if t != p.T:
        row = [0] * _nterms(p.lead, p.trunc, t)
        row[::t // p.T] = vals
        vals = row
    return lead, trunc, den, vals, r is not None


def _ref_from_row(den, row, ints):
    if ints:
        return [CycQ._reduced(1, den, (x,)) if x else CycQ.zero for x in row]
    if den == 1:
        return [x or CycQ.zero for x in row]
    return [CycQ._reduced(x.conductor, x.den * den, x.nums) if x else CycQ.zero for x in row]


def _ref_series(r, t, D):
    lead, trunc, *row = r
    return Puiseux(t, Fraction(lead, D), _ref_from_row(*row), Fraction(trunc, D))


def _ref_sum(terms):
    first, *rest = terms
    t = math.lcm(*(x.T for x in terms), *((x.lead - first.lead).denominator for x in rest))
    D = math.lcm(t, *(y.denominator for x in terms for y in (x.lead, x.trunc)))
    rows = [_ref_row(x, t, D) for x in terms]
    return _ref_series(_sum_rows(rows, D // t, min(r[0] for r in rows), min(r[1] for r in rows)),
                       t, D)


def _ref_mul(a, b):
    t = math.lcm(a.T, b.T)
    D = math.lcm(t, *(y.denominator for x in (a, b) for y in (x.lead, x.trunc)))
    ra = _ref_row(a, t, D)
    return _ref_series(_mul_rows(ra, ra if b is a else _ref_row(b, t, D), D // t), t, D)


def _ref_theta(s, scale="full"):
    D = math.lcm(s.T, s.lead.denominator, s.trunc.denominator)
    g = D // s.T
    ((_, _, *row),) = _theta_rows([_ref_row(s, s.T, D)], D if scale == "full" else g, g)
    return Puiseux(s.T, s.lead, _ref_from_row(*row), s.trunc)


def _ref_normalized(p):
    coeffs, i = p.coeffs, 0
    while i < len(coeffs) and not coeffs[i]:
        i += 1
    return p if i == 0 else Puiseux(p.T, p.lead + Fraction(i, p.T), coeffs[i:], p.trunc)


def _ref_inverse(x):
    s = _ref_normalized(x)
    coeffs = s.coeffs
    if not coeffs or not coeffs[0]:
        raise NonInvertibleLeadingTerm("series has no invertible leading coefficient")
    row = _int_row(coeffs)
    if row is not None:
        den, ints = _newton_inverse(row[1])
        b = _ref_from_row(den, [row[0] * x for x in ints], True)
    else:
        b = _sparse_inverse(coeffs)
    return Puiseux(s.T, -s.lead, b, s.trunc - 2 * s.lead)


def _ref_sum_log_parts(terms, t, D):
    trunc = min(p[1] for term in terms for p in term)
    parts = []
    for col in zip_longest(*terms):
        col = [p for p in col if p is not None]
        parts.append(_ref_series(_sum_rows(col, D // t, min(0, *(p[0] for p in col)), trunc),
                                 t, D))
    return LogQSeries(t, parts)


def _ref_apply_ode(ode, s):
    coeffs, T = ode.coeffs, ode.T
    t = _lead_grid(math.lcm(T, s.T), s.parts + coeffs)
    D = math.lcm(t, *(p.trunc.denominator for p in s.parts + coeffs))
    g = D // t
    coeff_rows = [_ref_row(r, t, D) for r in coeffs]
    images = [[_ref_row(p, t, D, (t // s.T)**j) for j, p in enumerate(s.parts)]]
    for _ in coeffs:
        images.append(_theta_rows(images[-1], D, g))
    terms = [[_mul_rows(p, r, g) for p in image] for image, r in zip(images, coeff_rows)]
    return _ref_sum_log_parts([images[-1]] + terms, t, D)


def _ref_fold_solution(cs, dens, d, mu, T, span, max_log):
    t = math.lcm(T, mu.denominator)
    step = t // T
    trunc = mu + span
    parts = []
    for j in range(max_log + 1):
        num, div = step ** j, d ** j * math.factorial(j)
        coeffs = [CycQ.zero] * _nterms(mu, trunc, t)
        for n, c in enumerate(cs):
            if j < len(c) and c[j]:
                x = c[j]
                coeffs[n * step] = (CycQ._reduced(1, dens[n] * div, (x * num,))
                                    if type(x) is int else x * Fraction(num, div))
        part = _ref_normalized(Puiseux(t, mu, coeffs, trunc))
        parts.append(part if part.coeffs else Puiseux.zero(trunc, t))
    return LogQSeries(t, parts)


def _ref_setup(ode, trunc, exact, f=None, lam=None):
    T, m = ode.T, ode.order
    span = Fraction(trunc)
    if span < Fraction(1, T):
        raise TruncationTooSmall(f"truncation {span} is below one step 1/{T}")
    steps = math.ceil(span * T)
    indicial = [c * T ** (m - i) for i, c in enumerate(indicial_polynomial(ode))]
    by_power = {}
    for i, r in enumerate(ode.coeffs):
        if r.trunc < span:
            raise TruncationTooSmall("coefficient series truncated")
        for s, c in zip(range(int(r.lead * T), steps, T // r.T), r.coeffs):
            if c and s > 0:
                by_power.setdefault(s, [CycQ.zero] * m)[i] = c * T ** (m - i)
    rows = [(s, frobenius._ptrim(R)) for s, R in sorted(by_power.items())]
    cols = []
    for j, p in enumerate(f.parts if f is not None else ()):
        if p.trunc < lam + span:
            raise TruncationTooSmall("inhomogeneous term truncated")
        k = CycQ.from_rational(-T**m * Fraction(T, f.T) ** j * math.factorial(j))
        first, step = (lam - p.lead) * f.T, f.T // T
        on_grid = first.denominator == 1
        if any(c and (not on_grid or (i - first.numerator) % step)
               for i, c in enumerate(p.coeffs)):
            raise ValueError(f"the l^{j} part of f has a term off {lam} + (1/{T})Z")
        cols.append([p.coeffs[i] * k if on_grid and i >= 0 else CycQ.zero
                     for i in range(first.numerator, first.numerator + steps * step, step)])
    fs = [frobenius._ptrim(list(fn)) for fn in zip(*cols)]
    values = indicial + [c for _, R in rows for c in R] + [x for fn in fs for x in fn]
    if not exact:
        values = [c.embed() for c in values]
    elif (row := _int_row(values)) is not None:
        values = row[1]
    values = iter(values)
    indicial = [next(values) for _ in indicial]
    rows = [(s, [next(values) for _ in R]) for s, R in rows]
    return span, steps, indicial, rows, [[next(values) for _ in fn] for fn in fs]


def _on_lists(solve):
    """solve() with the Frobenius solver reading and writing CycQ lists."""
    with mock.patch.multiple(frobenius, _setup=_ref_setup, _fold_solution=_ref_fold_solution):
        return solve()


def _listed(p):
    """p rebuilt from its CycQ list, as every series the library built was a list before it
    kept rows."""
    return Puiseux(p.T, p.lead, p.coeffs, p.trunc)


# -- comparison --------------------------------------------------------------------


def _fields(s):
    """T, lead, trunc and every slot's (conductor, den, nums) of a Puiseux or
    LogQSeries; it reads coeffs, so it is called after every operation ran."""
    if isinstance(s, LogQSeries):
        return s.T, [_fields(p) for p in s.parts]
    assert type(s.lead) is Fraction and type(s.trunc) is Fraction
    return s.T, s.lead, s.trunc, [(c.conductor, c.den, c.nums) for c in s.coeffs]


def _stored(s) -> bool:
    """Whether every part of s stores a row that keeps the invariant: an int row of
    ints, or a value row of CycQ values and the int 0 over den 1."""
    parts = s.parts if isinstance(s, LogQSeries) else [s]
    return all(all(type(x) is int for x in row) if ints else
               den == 1 and all(type(x) is CycQ or x == 0 and type(x) is int for x in row)
               for den, row, ints in (p._stored for p in parts))


# -- inputs ------------------------------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def values(draw, kind, n):
    """n slot values, about half zero: rationals at conductor 1, rationals lifted
    to conductor n (zeros too), or sums of two powers of zeta_n."""
    out = []
    for _ in range(draw(st.integers(0, 9))):
        x = draw(small) if draw(st.booleans()) else Fraction(0)
        if kind == "lifted":
            out.append(CycQ.from_rational(x).lift(n))
        elif kind == "conductor" and x:
            y = draw(small)
            out.append(cyc_root(draw(st.integers(0, n - 1)), n) * x
                       + cyc_root(draw(st.integers(0, n - 1)), n) * y)
        else:
            out.append(CycQ.from_rational(x))
    return out


@st.composite
def series_of(draw, kind, n):
    T = draw(st.sampled_from([1, 2, 3]))
    lead = draw(st.one_of(st.integers(-3, 3).map(lambda k: Fraction(k, T)), small))
    vals = draw(values(kind, n))
    return Puiseux(T, lead, vals, lead + Fraction(len(vals) + draw(st.integers(0, 2)), T))


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["rational", "lifted", "conductor"]))
    n = draw(st.sampled_from([3, 4, 5, 12]))
    return [draw(series_of(kind, n)) for _ in range(3)]


def _ops(a, b, c, mul, add, sum_, theta_, inverse):
    """A chain of operations; each after the first reads series built by another."""
    out = {"a*b": mul(a, b)}
    out["sum"] = sum_([out["a*b"], c, a])
    out["theta"] = theta_(out["sum"])
    out["theta/T"] = theta_(out["a*b"], "one_over_T")
    out["square"] = mul(out["sum"], out["sum"])
    out["+"] = add(out["theta"], out["square"])
    out["*"] = mul(out["+"], out["theta/T"])
    for name in ("a*b", "sum", "*"):
        try:
            out["1/" + name] = inverse(out[name])
        except NonInvertibleLeadingTerm:
            out["1/" + name] = None
    out["1/a*b"] = out["1/a*b"] and mul(out["1/a*b"], out["sum"])
    return out


@settings(max_examples=80, deadline=None)
@given(cases())
def test_row_built_series_match_the_cycq_list_path(xs):
    a, b, c = xs
    got = _ops(a, b, c, lambda x, y: x * y, lambda x, y: x + y, Puiseux.sum, theta,
               Puiseux.inverse)
    want = _ops(a, b, c, _ref_mul, lambda x, y: _ref_sum([x, y]), _ref_sum, _ref_theta,
                _ref_inverse)
    assert all(_stored(s) for s in got.values() if s is not None)
    assert {k: _fields(s) for k, s in got.items() if s is not None} == \
        {k: _fields(s) for k, s in want.items() if s is not None}
    assert [k for k, s in got.items() if s is None] == [k for k, s in want.items() if s is None]


# -- Frobenius ------------------------------------------------------------------------

root = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def _monic(roots):
    poly = [Fraction(1)]
    for rho in roots:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= rho * poly[i + 1]
    return poly


@st.composite
def ode_cases(draw):
    """(kind, build): build(listed) makes an ODE, an inhomogeneous term f or
    None, a log series s and a span; every series is built anew, from
    ``from_terms``, ``Puiseux(...)`` and products, on lists when ``listed``."""
    kind = draw(st.sampled_from(["rational", "lifted", "conductor"]))
    n = draw(st.sampled_from([3, 4, 5, 12]))
    T = draw(st.sampled_from([1, 2, 3]))
    r = draw(root)
    roots = draw(st.sampled_from([(r,), (r, draw(root)), (r, r), (r, r - 1),
                                  (r, r - Fraction(1, T)), (r, r, r - 1), (r, r, r)]))
    span = Fraction(draw(st.integers(1, 6 if len(roots) < 3 else 4)), T)
    trunc = span + Fraction(draw(st.integers(0, 2)), 2 * T)
    poly = _monic(roots)
    lift = kind == "lifted"
    consts = [CycQ.from_rational(x).lift(n) if lift else x for x in poly]
    couplings = [(Fraction(k, T), v) for k, v in
                 zip(draw(st.lists(st.integers(1, 5), max_size=3)), draw(values(kind, n)))
                 if Fraction(k, T) < trunc]
    # a product added into r_0, from q^(2/T) up
    grow = draw(values(kind, n))[:_nterms(Fraction(1, T), trunc, T)]
    f_T = T * draw(st.sampled_from([1, 2]))
    lam = draw(small)
    f_vals = [draw(values(kind, n))[:_nterms(lam, lam + span + 2, f_T)]
              for _ in range(draw(st.integers(0, 2)))]
    s = draw(series_of(kind, n))

    def build(listed):
        made = (lambda p: _listed(p)) if listed else (lambda p: p)
        mul = _ref_mul if listed else (lambda x, y: x * y)
        add = (lambda x, y: _ref_sum([x, y])) if listed else (lambda x, y: x + y)
        coeffs = [made(Puiseux.from_terms([(0, consts[i])] + (couplings if i == 0 else []),
                                          trunc, T)) for i in range(len(roots))]
        if grow:
            g = made(Puiseux(T, Fraction(1, T), grow, trunc))
            coeffs[0] = add(coeffs[0], mul(g, g))
        ode = RegularSingularODE(len(roots), T, coeffs)
        f = None
        if f_vals and any(any(v) for v in f_vals):
            parts = [made(Puiseux(f_T, lam, v, lam + span + 2)) for v in f_vals]
            parts[0] = mul(parts[0], made(Puiseux(1, 0, [1, 1], span + 4)))
            f = LogQSeries(f_T, parts)
        return ode, f, LogQSeries(s.T, [made(s)])

    return build, span


def _solve_all(ode, f, s, span):
    try:
        basis = frobenius_solve(ode, span)
    except TruncationTooSmall:
        basis = None
    out = {}
    if basis is not None and not basis.numeric:
        out["classes"] = basis.exponent_classes, basis.max_log_power
        for i, sol in enumerate(basis.solutions):
            out[f"solution {i}"] = sol
    if f is not None:
        try:
            out["particular"] = solve_inhomogeneous(ode, f, span)
        except (TruncationTooSmall, ValueError) as e:
            out["particular"] = type(e).__name__
    return out


@settings(max_examples=60, deadline=None)
@given(ode_cases())
def test_row_built_solutions_match_the_cycq_list_path(case):
    build, span = case
    ode, f, s = build(False)
    got = _solve_all(ode, f, s, span)
    residuals = {k: apply_ode(ode, v) for k, v in got.items() if isinstance(v, LogQSeries)}
    got_s = apply_ode(ode, s)
    ode_l, f_l, s_l = build(True)
    want = _on_lists(lambda: _solve_all(ode_l, f_l, s_l, span))
    want_res = {k: _ref_apply_ode(ode_l, v) for k, v in want.items() if isinstance(v, LogQSeries)}
    for sol in list(got.values()) + list(residuals.values()) + [got_s]:
        if isinstance(sol, LogQSeries):
            assert _stored(sol)
    assert got.keys() == want.keys()
    for k in got:
        if isinstance(got[k], LogQSeries):
            assert _fields(got[k]) == _fields(want[k]), k
            assert _fields(residuals[k]) == _fields(want_res[k]), k
        else:
            assert got[k] == want[k], k
    assert _fields(got_s) == _fields(_ref_apply_ode(ode_l, s_l))


@pytest.mark.parametrize("T, lift", [(1, False), (2, False), (1, True)])
def test_log_parts_of_a_triple_root_match_the_cycq_list_path(T, lift):
    # l^2/2! and l/1!: the fold's (t/T)^j / j! on each part, T = 2 refining to t = 4
    mu = Fraction(1, 4) if T == 2 else Fraction(1, 2)
    coeffs = [Puiseux.from_terms([(0, c)] + extra, 8, T) for c, extra in
              zip(_monic((mu, mu, mu)), ([(1, 1)], [(Fraction(1, T), Fraction(-2, 3))], []))]
    if lift:
        coeffs = [Puiseux(r.T, r.lead, [c.lift(3) for c in r.coeffs], r.trunc) for r in coeffs]
    got = frobenius_solve(RegularSingularODE(3, T, coeffs), 5).solutions
    want = _on_lists(lambda: frobenius_solve(
        RegularSingularODE(3, T, [_listed(r) for r in coeffs]), 5).solutions)
    assert [len(x.parts) for x in got] == [1, 2, 3]
    assert [_fields(x) for x in got] == [_fields(x) for x in want]


# -- coeffs is a real list -----------------------------------------------------------


def _built():
    """A series kept as its row and one built from a CycQ list, the same values."""
    row_built = product_expand([(1, 1)], 8)
    return row_built, Puiseux(1, 0, list(product_expand([(1, 1)], 8).coeffs), 8)


@pytest.mark.parametrize("which", [0, 1])
def test_writing_into_coeffs_changes_the_series(which):
    s = _built()[which]
    assert dict(s.terms()) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}
    s.coeffs[3] = s.coeffs[3] + 4
    s.coeffs[0] = CycQ.zero
    want = Puiseux(1, 0, [0, -1, -1, 4, 0, 1, 0, 1], 8)
    assert dict(s.terms()) == {1: -1, 2: -1, 3: 4, 5: 1, 7: 1}
    assert s.coeff_at(3) == 4 and s.coeff_at(0) == 0
    assert not s.is_zero()
    assert _fields(s + 1) == _fields(want + 1)
    assert _fields(s * s) == _fields(want * want)
    assert _fields(s * _built()[which]) == _fields(want * _built()[which])
    assert _fields(theta(s)) == _fields(theta(want))
    for i in range(len(s.coeffs)):
        s.coeffs[i] = CycQ.zero
    assert s.is_zero() and list(s.terms()) == []
    assert (s + 1).coeff_at(0) == 1 and (s * s).is_zero()


@pytest.mark.parametrize("which", [0, 1])
def test_assigning_coeffs_changes_the_series(which):
    s = _built()[which]
    s.coeffs = [cyc_root(1, 3)] + [CycQ.zero] * 7
    assert dict(s.terms()) == {0: cyc_root(1, 3)}
    assert not s.is_zero()
    assert (s + 1).coeff_at(0) == cyc_root(1, 3) + 1
    assert (s * s).coeff_at(0) == cyc_root(2, 3)
    assert [c.conductor for c in (s * s).coeffs] == [3] + [1] * 7
    s.coeffs = [CycQ.zero] * 8
    assert s.is_zero() and (s * s).is_zero() and (s + 1).coeff_at(0) == 1


def test_a_bad_write_to_coeffs_is_refused_and_changes_nothing():
    # a float item, or a list past trunc, was stored and failed in the next sum
    s = product_expand([(1, 1)], 8)
    stored = s._stored
    with pytest.raises(TypeError):
        s.coeffs[2] = 0.5
    with pytest.raises(TypeError):
        s.coeffs = [1, 2, 0.5]
    with pytest.raises(ValueError, match="past the truncation order"):
        s.coeffs = [1] * 20
    assert s._stored is stored
    s.coeffs = [1, 2, 3]  # padded with zeros to trunc, as Puiseux(...) pads it
    assert s._stored == (1, [1, 2, 3, 0, 0, 0, 0, 0], True)
    assert _fields(s + s) == _fields(Puiseux(1, 0, [2, 4, 6], 8))


_Z3 = cyc_root(1, 3)
# (T, lead, a CycQ list, trunc) and a row of the same values, of the list's kind or not
TWINS = [
    ((1, 0, [_Z3 - _Z3, 1], 2), (1, [0, 1], True)),  # a zero slot at conductor 3
    ((1, 0, [Fraction(1, 2), 0, Fraction(-3, 4)], 3), (4, [2, 0, -3], True)),
    ((3, Fraction(-1, 3), [_Z3, 0, Fraction(1, 2)], Fraction(2, 3)),
     (1, [_Z3, 0, CycQ.from_rational(Fraction(1, 2))], False)),
    ((2, Fraction(1, 2), [CycQ.zero.lift(4), CycQ.from_rational(2).lift(3), 5], 2),
     (1, [0, CycQ.from_rational(2).lift(3), CycQ.from_rational(5)], False)),
]


@pytest.mark.parametrize("args, row", TWINS)
def test_a_list_built_series_reads_as_its_row_built_twin(args, row):
    T, lead, values, trunc = args
    listed = Puiseux(*args)
    twin = Puiseux._make(T, Fraction(lead), row, Fraction(trunc))
    assert listed.to_json() == twin.to_json()
    assert _fields(listed) == _fields(twin)
    exponents = [lead + Fraction(i, T) for i in range(len(values))]
    assert [(c.conductor, c.den, c.nums) for c in map(listed.coeff_at, exponents)] == \
        [(c.conductor, c.den, c.nums) for c in map(twin.coeff_at, exponents)]
    assert _fields(Puiseux.from_json(listed.to_json())) == _fields(twin)


def test_a_list_built_ode_solves_as_its_row_built_twin():
    # indicial roots 1 and -1/2; a zero slot at conductor 3 in each coefficient
    r0 = [Fraction(-1, 2), _Z3 - _Z3, 1, Fraction(1, 3)]
    r1 = [Fraction(-1, 2), 0, _Z3 - _Z3, 2]
    listed = [Puiseux(1, 0, r, 4) for r in (r0, r1)]
    twins = [Puiseux._make(1, Fraction(0), row, Fraction(4))
             for row in ((6, [-3, 0, 6, 2], True), (2, [-1, 0, 0, 4], True))]
    got, want = (frobenius_solve(RegularSingularODE(2, 1, ode), 3) for ode in (listed, twins))
    assert got.exponent_classes == want.exponent_classes
    assert [_fields(x) for x in got.solutions] == [_fields(x) for x in want.solutions]


def test_reading_coeffs_keeps_the_row_and_the_view():
    s = product_expand([(1, 24)], 12)
    stored = s._stored
    den, row, ints = stored
    assert ints is True
    # the row is read as stored, with no list in between
    assert _row(s, s.T, 1)[3] is row
    assert s.coeff_at(2) == 252 and not s.is_zero() and len(list(s.terms())) == 12
    before = eval_at_tau(s, 1.1j)
    view = s._view
    c = s.coeffs
    assert s._stored is stored and s._view is view is not None
    assert s.coeffs is not c and s.coeffs == c  # a fresh list on each read
    assert [(x.conductor, x.den, x.nums) for x in c] == \
        [(1, 1, (x,)) if x else (1, 1, (0,)) for x in row]
    assert eval_at_tau(s, 1.1j) == before and s._view is view


def test_solving_against_f_keeps_the_stored_rows_of_f():
    # _setup read f's parts through coeffs, which turned them into CycQ lists
    part = product_expand([(1, 2)], 12)
    row = part._stored[1]
    ode = RegularSingularODE(1, 1, [Puiseux.constant(Fraction(1, 3), 12)])
    got = solve_inhomogeneous(ode, LogQSeries(1, [part]), 10)
    assert part._stored[2] is True and part._stored[1] is row
    # the solution is that of f given as a CycQ list, slot for slot
    listed = Puiseux(1, 0, list(product_expand([(1, 2)], 12).coeffs), 12)
    want = solve_inhomogeneous(ode, LogQSeries(1, [listed]), 10)
    assert got.T == want.T and len(got.parts) == len(want.parts)
    for a, b in zip(got.parts, want.parts):
        assert (a.T, a.lead, a.trunc) == (b.T, b.lead, b.trunc)
        assert [(c.conductor, c.den, c.nums) for c in a.coeffs] == \
            [(c.conductor, c.den, c.nums) for c in b.coeffs]
    assert (apply_ode(ode, got) + LogQSeries(1, [part])).is_zero()


def test_an_int_row_is_stored_over_one_gcd():
    # 2/4, 6/4, 0: the slots reduce to 1/2 and 3/2, so the row is (1, 3, 0) over 2
    s = Puiseux._make(1, Fraction(0), (4, [2, 6, 0], True), Fraction(3))
    assert s._stored == (2, [1, 3, 0], True)
    assert _int_row(s.coeffs) == (2, [1, 3, 0])


def test_a_value_row_is_stored_over_den_1_with_each_zero_the_int_0():
    # an int zero costs no CycQ operation when theta or a sum scales the row
    z = cyc_root(1, 3)
    s = Puiseux._make(1, Fraction(0), (2, [z, 0, z - z, z * 4], False), Fraction(4))
    den, row, ints = s._stored
    assert (den, ints) == (1, False)
    assert row[1] == 0 and type(row[1]) is int and row[2] == 0 and type(row[2]) is int
    assert s.coeff_at(1) is CycQ.zero and s.coeff_at(3) == z * 2
    assert [(c.conductor, c.den, c.nums) for c in s.coeffs] == \
        [(3, 2, (0, 1)), (1, 1, (0,)), (1, 1, (0,)), (3, 1, (0, 2))]
    g = Puiseux(1, 0, [z] + [0] * 8, 9).with_branching(4)
    assert g._stored[1].count(0) == 35
    assert all(type(x) is int for x in theta(g)._stored[1][:1] + g._stored[1][1:])


@pytest.mark.parametrize("build", [
    lambda: moonshine.delta_j_J(60)[2],
    lambda: eisenstein(4, 80),
    lambda: eisenstein(12, 120),  # numerators past 2^53 over den 12! 2730
    lambda: theta(product_expand([(1, 1), (2, -3)], 40), "full").shifted(Fraction(1, 2)),
])
def test_an_int_row_embeds_to_the_floats_of_its_cycq_list(build):
    s = build()
    assert s._stored is not None
    got = Embedded(s)
    # each reduced coefficient's x / den, as the CycQ-list path embedded it
    want = [c.nums[0] / c.den for c in _listed(build()).coeffs]
    assert got.coeffs.real.tolist() == [want] and not got.coeffs.imag.any()
    assert got.maxabs == [max(map(abs, want), default=0.0)]
    assert (got.leads, got.truncs) == ([float(s.lead)], [float(s.trunc)])


def test_structural_methods_keep_the_row():
    s = product_expand([(1, 3)], 10).shifted(Fraction(1, 8))
    for out in (s.with_branching(2), s.truncated(4), s.shifted(1), s.substituted(3), -s,
                s.scalar_mul(Fraction(2, 3)), (s * 0).normalized(), s.normalized()):
        assert out._stored[2] is True
    assert s._stored[2] is True
    for c in (Fraction(2, 3), cyc_root(1, 3)):
        want = Puiseux(s.T, s.lead, [c * x for x in _listed(s).coeffs], s.trunc)
        assert _fields(s.scalar_mul(c)) == _fields(want)


def test_terms_of_a_row_are_the_reduced_slots():
    s = eisenstein(4, 12)
    assert s._stored[0] > 1
    assert [(e, c.conductor, c.den, c.nums) for e, c in s.terms()] == \
        [(i, c.conductor, c.den, c.nums) for i, c in enumerate(eisenstein(4, 12).coeffs) if c]


def test_from_terms_stores_a_value_row():
    # a zero at conductor 3 is the int 0 of a value row, so theta S = 0 is solved on CycQ values
    zero3 = CycQ.zero.lift(3)
    r = Puiseux.from_terms([(0, zero3)], 4)
    assert r._stored == (1, [0, 0, 0, 0], False) and r.coeff_at(0) is CycQ.zero
    assert Puiseux.from_terms([(0, 1), (1, Fraction(1, 2))], 4)._stored == (2, [2, 1, 0, 0], True)
    ode = RegularSingularODE(1, 1, [r])
    got = frobenius_solve(ode, 3).solutions
    want = _on_lists(lambda: frobenius_solve(RegularSingularODE(1, 1, [_listed(r)]), 3).solutions)
    assert [_fields(x) for x in got] == [_fields(x) for x in want]


# -- Delta is built only where it is returned --------------------------------------


def _delta_builds(run):
    calls = []
    real = moonshine.product_expand

    def spy(factors, trunc):
        calls.append(list(factors))
        return real(factors, trunc)

    with mock.patch.object(moonshine, "product_expand", spy):
        out = run()
    return out, calls.count([(1, 24)])


def test_j_is_built_without_delta():
    delta_j_J = _delta_builds(lambda: moonshine.delta_j_J(20))
    J = delta_j_J[0][2]
    assert delta_j_J[1] == 1
    haupt, n = _delta_builds(lambda: moonshine.hauptmodul("1A", 20))
    assert n == 0 and _fields(haupt) == _fields(J)
    th, n = _delta_builds(lambda: moonshine.theta_trace("1A", 20))
    assert n == 0 and _fields(th) == _fields(theta(J, "full"))
    (_, braces), n = _delta_builds(lambda: moonshine.weight4_onepoint(20))
    J22 = moonshine.delta_j_J(22)[2]
    assert n == 0
    assert _fields(braces) == _fields((moonshine.e4_standard(22) * (J22 - 240)).truncated(20))
    with pytest.raises(ValueError, match="truncation at least 3"):
        moonshine.hauptmodul("1A", 2)
