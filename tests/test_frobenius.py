"""Tests for the regular-singular (Frobenius-Fuchs) solver."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiform import frobenius
from orbiform.cyclotomic import CycQ, cyc_root, euler_phi, lcm
from orbiform.errors import TruncationTooSmall
from orbiform.frobenius import (
    FrobeniusBasis,
    RegularSingularODE,
    _taylor_at,
    apply_ode,
    frobenius_solve,
    indicial_polynomial,
    indicial_roots,
    solve_inhomogeneous,
)
from orbiform.series import LogQSeries, Puiseux, _lead_grid, product_expand, theta


def const_ode(order, consts, T=1, trunc=20):
    """theta^order S + sum consts[i] theta^i S = 0 with constant coefficients."""
    coeffs = [Puiseux.constant(c, trunc, T) for c in consts]
    return RegularSingularODE(order, T, coeffs)


def test_indicial_data():
    ode = const_ode(2, [Fraction(-1, 4), 0])
    poly = indicial_polynomial(ode)
    assert [str(c) for c in poly] == ["CycQ(-1/4)", "CycQ(0)", "CycQ(1)"]
    assert indicial_roots(ode) == [Fraction(1, 2), Fraction(-1, 2)]


def test_euler_equation_distinct_roots_no_logs():
    # theta^2 - 1/4: solutions q^(1/2) and q^(-1/2), no logs despite the
    # integer-step resonance being impossible (difference 1 handled upward)
    ode = const_ode(2, [Fraction(-1, 4), 0])
    basis = frobenius_solve(ode, 10)
    assert len(basis.solutions) == 2
    # constant coefficients: the resonant step has zero right-hand side,
    # so no log appears even though the roots differ by an integer
    assert basis.max_log_power == 0
    for sol in basis.solutions:
        assert apply_ode(ode, sol).is_zero()


def test_double_root_produces_log():
    ode = const_ode(2, [0, 0])  # theta^2 S = 0: solutions 1 and log q
    basis = frobenius_solve(ode, 8)
    assert len(basis.solutions) == 2
    logs = sorted(len(s.parts) for s in basis.solutions)
    assert logs == [1, 2]
    for sol in basis.solutions:
        assert apply_ode(ode, sol).is_zero()


def test_partition_series_solution():
    # theta S = theta(log P) S for P the partition generating function
    P = product_expand([(1, -1)], 20)
    r0 = -(theta(P, "full") * P.inverse()).truncated(19)
    ode = RegularSingularODE(1, 1, [r0])
    basis = frobenius_solve(ode, 15)
    (sol,) = basis.solutions
    got = sol.parts[0]
    for n in range(15):
        assert got.coeff_at(n) == P.coeff_at(n)


def test_half_integer_branching():
    # theta^2 - 1/4 + q^(1/2) coupling on the T=2 grid
    r0 = Puiseux.from_terms([(0, Fraction(-1, 4)), (Fraction(1, 2), 1)], 12, 2)
    ode = RegularSingularODE(2, 2, [r0, Puiseux.zero(12, 2)])
    basis = frobenius_solve(ode, 10)
    assert len(basis.solutions) == 2
    for sol in basis.solutions:
        assert apply_ode(ode, sol).is_zero()


def test_inhomogeneous_monomial():
    # theta S - 2 S = -q^3 has the particular solution -q^3
    ode = const_ode(1, [-2], trunc=12)
    f = LogQSeries(1, [Puiseux.monomial(1, 3, 12)])
    sol = solve_inhomogeneous(ode, f, 8)
    assert sol.parts[0].coeff_at(3) == -1
    resid = apply_ode(ode, sol) + f
    assert resid.is_zero()


def test_inhomogeneous_resonant_log():
    # theta S = -1: S = -log q = -l (for T = 1)
    ode = const_ode(1, [0], trunc=10)
    f = LogQSeries(1, [Puiseux.constant(1, 10)])
    sol = solve_inhomogeneous(ode, f, 8)
    assert len(sol.parts) == 2
    assert sol.max_log_power == 1  # the traced benchmark reads it off every solve
    assert sol.parts[1].coeff_at(0) == -1
    assert (apply_ode(ode, sol) + f).is_zero()


def test_inhomogeneous_log_squared_term_at_a_finer_branching():
    # f = 3q log q + q log^2 q at T = 1 against an ODE at T = 2: each log
    # power of f keeps its weight when l becomes log q_(1/2); the resonance
    # with the root 2 raises the log degree to 3
    ode = RegularSingularODE(1, 2, [Puiseux.from_terms([(0, -2), (Fraction(1, 2), 1)], 12, 2)])
    f = LogQSeries(1, [Puiseux.zero(12), Puiseux.monomial(3, 1, 12), Puiseux.monomial(1, 1, 12)])
    sol = solve_inhomogeneous(ode, f, 4)
    assert len(sol.parts) == 4
    assert (apply_ode(ode, sol) + f).is_zero()


def test_inhomogeneous_term_past_its_lead_adds_at_every_step():
    # f = q + 2q^2 - q^3 + 3q^2 log q against theta^2 - 1/4 + q: f has terms
    # past its lead q, so each step adds f's slot to the coupling's sum
    ode = RegularSingularODE(2, 1, [Puiseux.from_terms([(0, Fraction(-1, 4)), (1, 1)], 10),
                                    Puiseux.zero(10)])
    f = LogQSeries(1, [Puiseux.from_terms([(1, 1), (2, 2), (3, -1)], 10),
                       Puiseux.monomial(3, 2, 10)])
    sol = solve_inhomogeneous(ode, f, 6)
    assert (apply_ode(ode, sol) + f).is_zero()
    lifted = RegularSingularODE(2, 1, [_lifted(r, 3) for r in ode.coeffs])
    want = solve_inhomogeneous(lifted, LogQSeries(1, [_lifted(p, 3) for p in f.parts]), 6)
    assert len(sol.parts) == len(want.parts)
    for a, b in zip(sol.parts, want.parts):
        assert (a.T, a.lead, a.trunc) == (b.T, b.lead, b.trunc)
        assert a.coeffs == b.coeffs


def test_numeric_irrational_exponents():
    # theta^2 - 2: exponents +-sqrt(2), numeric basis
    ode = const_ode(2, [-2, 0], trunc=10)
    basis = frobenius_solve(ode, 6)
    assert basis.numeric
    exps = sorted(s.exponent.real for s in basis.solutions)
    assert abs(exps[0] + 2**0.5) < 1e-9
    assert abs(exps[1] - 2**0.5) < 1e-9
    for s in basis.solutions:
        assert abs(s.coeffs[0][0] - 1) < 1e-12
    with pytest.raises(ValueError):
        basis.to_json()


def _numeric_residual(ode, sol, steps):
    """Largest coefficient, below q^(exponent + steps/T), of theta^m S +
    sum r_i theta^i S for a numeric solution S, with theta applied to each
    c_n(l) = sum_j c_nj l^j in ordinary powers: (exponent + n/T) + (1/T) d/dl."""
    T, w = sol.T, sol.max_log_power + 1

    def theta(p, n):
        return [(sol.exponent + n / T) * p[j] + (p[j + 1] * (j + 1) / T if j + 1 < w else 0)
                for j in range(w)]

    images = [[p + [0j] * (w - len(p)) for p in sol.coeffs[:steps]]]
    for _ in range(ode.order):
        images.append([theta(p, n) for n, p in enumerate(images[-1])])
    worst = 0.0
    for n in range(steps):
        acc = images[-1][n]
        for i, r in enumerate(ode.coeffs):
            for s in range(n + 1):
                c = r.coeff_at(Fraction(s, T)).embed()
                acc = [a + c * v for a, v in zip(acc, images[i][n - s])]
        worst = max(worst, *map(abs, acc))
    return worst


def test_numeric_double_root_is_one_root_with_a_log():
    # r0 = -1 + q, r1 = -2 zeta_4: the indicial polynomial is (x - i)^2, which
    # np.roots alone splits into two roots 2.8e-8 apart, two classes, no log
    i = cyc_root(1, 4)
    ode = RegularSingularODE(2, 1, [Puiseux.from_terms([(0, -1), (1, 1)], 10),
                                    Puiseux.constant(-2 * i, 10)])
    roots = indicial_roots(ode)
    assert roots[0] == roots[1] and abs(roots[0] - 1j) < 1e-12
    basis = frobenius_solve(ode, 6)
    assert basis.numeric and basis.max_log_power == 1
    assert basis.exponent_classes == [roots]
    assert [s.max_log_power for s in basis.solutions] == [0, 1]
    for sol in basis.solutions:
        assert _numeric_residual(ode, sol, 6) < 1e-12


def test_squared_irrational_indicial_factor_gives_logs():
    # (x^2 - 2)^2: each of +-sqrt(2) is a double root, in a class of its own
    ode = const_ode(4, [4, 0, -4, 0], trunc=10)
    roots = indicial_roots(ode)
    assert roots[0] == roots[1] and roots[2] == roots[3]
    assert abs(roots[0] - 2**0.5) < 1e-12 and abs(roots[2] + 2**0.5) < 1e-12
    basis = frobenius_solve(ode, 6)
    assert basis.exponent_classes == [roots[:2], roots[2:]]
    assert basis.max_log_power == 1
    for sol in basis.solutions:
        assert _numeric_residual(ode, sol, 6) < 1e-12


def test_numeric_triple_root_at_branching_three():
    # (x - i)^3 with a q^(1/3) coupling: log powers 0, 1, 2, returned in
    # ordinary powers of l = log q_(1/3)
    i = cyc_root(1, 4)
    ode = RegularSingularODE(3, 3, [Puiseux.from_terms([(0, i), (Fraction(1, 3), 1)], 10, 3),
                                    Puiseux.constant(-3, 10, 3),
                                    Puiseux.constant(-3 * i, 10, 3)])
    basis = frobenius_solve(ode, 2)
    assert basis.max_log_power == 2
    assert [s.coeffs[0] for s in basis.solutions] == [[1], [0, 1], [0, 0, 1]]
    for sol in basis.solutions:
        assert _numeric_residual(ode, sol, 6) < 1e-9


def test_exact_and_numeric_roots_never_share_a_class():
    # (x - 1/2)(x^2 - 2) with a q coupling: 1/2 is exact, +-sqrt(2) numeric,
    # and each is a class of its own
    ode = RegularSingularODE(3, 1, [Puiseux.from_terms([(0, 1), (1, 1)], 10),
                                    Puiseux.constant(-2, 10),
                                    Puiseux.constant(Fraction(-1, 2), 10)])
    basis = frobenius_solve(ode, 6)
    assert basis.numeric and len(basis.exponent_classes) == 3
    assert [Fraction(1, 2)] in basis.exponent_classes
    numeric = sorted(c[0].real for c in basis.exponent_classes if not isinstance(c[0], Fraction))
    assert abs(numeric[0] + 2**0.5) < 1e-12 and abs(numeric[1] - 2**0.5) < 1e-12
    assert len(basis.solutions) == 3
    for sol in basis.solutions:
        assert _numeric_residual(ode, sol, 6) < 1e-12


def test_truncation_guards():
    ode = const_ode(2, [Fraction(-1, 4), 0], trunc=3)
    with pytest.raises(TruncationTooSmall):
        frobenius_solve(ode, 10)
    with pytest.raises(TruncationTooSmall):
        frobenius_solve(const_ode(1, [0], trunc=5), Fraction(1, 3))
    # f must reach its lead plus the solve's span
    with pytest.raises(TruncationTooSmall, match="inhomogeneous term"):
        f = LogQSeries(1, [Puiseux.monomial(1, 3, 5)])
        solve_inhomogeneous(const_ode(1, [-2], trunc=12), f, 8)


def test_zero_inhomogeneous_term_is_named():
    # an all-zero f has no leading exponent: min() of no parts raised before
    for f in (LogQSeries(1, [Puiseux.zero(10)]), LogQSeries(2, [Puiseux.zero(3, 2)] * 2)):
        with pytest.raises(ValueError, match="inhomogeneous term f is zero"):
            solve_inhomogeneous(const_ode(1, [-2], trunc=12), f, 5)


def test_coefficient_off_the_grid_is_rejected():
    # theta S + q^(1/3) S = 0 at T = 1: the solver would drop the coefficient
    # and return S = 1 with a nonzero residual
    with pytest.raises(ValueError, match="grid, got 1/3"):
        RegularSingularODE(1, 1, [Puiseux(1, Fraction(1, 3), [1], 10)])
    # the same coefficient at T = 3, and a zero one off the grid, are fine
    RegularSingularODE(1, 3, [Puiseux.from_terms([(Fraction(1, 3), 1)], 10, 3)])
    RegularSingularODE(1, 1, [Puiseux(1, Fraction(1, 3), [0], 10)])


def test_non_int_order_is_a_type_error():
    # 2.0 == 2 passes the count check; the solver then scaled a CycQ by the float
    with pytest.raises(TypeError, match="order must be an int, not float"):
        const_ode(2.0, [Fraction(-1, 4), 0])
    with pytest.raises(TypeError, match="order must be an int"):
        RegularSingularODE.from_json(
            {"order": 1.0, "T": 1, "coeffs": [{"terms": [["1", "1"]], "trunc": "4"}]})


def test_bool_order_and_branching_are_type_errors():
    # True == 1: {"order": true} and {"T": true} were solved as order 1 and T = 1
    coeffs = [Puiseux.from_terms([(1, 1)], 4)]
    with pytest.raises(TypeError, match="order must be an int, not bool"):
        RegularSingularODE(True, 1, coeffs)
    with pytest.raises(TypeError, match="T must be an int, not bool"):
        RegularSingularODE(1, True, coeffs)
    with pytest.raises(TypeError, match="order must be an int, not bool"):
        RegularSingularODE.from_json(
            {"order": True, "T": 1, "coeffs": [{"terms": [["1", "1"]], "trunc": "4"}]})
    with pytest.raises(ValueError, match="at least 1"):
        RegularSingularODE(1, 0, coeffs)


def test_ode_json_roundtrip_and_friendly_form():
    ode = const_ode(2, [Fraction(-1, 4), Fraction(1, 3)], T=2, trunc=6)
    back = RegularSingularODE.from_json(ode.to_json())
    for a, b in zip(ode.coeffs, back.coeffs):
        assert (a - b).is_zero()
    friendly = {
        "order": 1,
        "T": 2,
        "coeffs": [{"terms": [["1/2", "3"]], "trunc": "6"}],
    }
    ode2 = RegularSingularODE.from_json(json.loads(json.dumps(friendly)))
    assert ode2.coeffs[0].coeff_at(Fraction(1, 2)) == 3


def test_rebranch_log_rescales_log_parts():
    s = LogQSeries(1, [Puiseux.zero(5), Puiseux.constant(1, 5)])
    r = s.with_branching(3)
    # l_1 = 3 l_3, so the log-power-1 part triples
    assert r.parts[1].coeff_at(0) == 3


def test_roots_group_into_classes_then_equal_roots():
    # (x - 2)(x - 3/2)(x - 1) with a q coupling: 2 and 1 share a class mod Z,
    # so the ascending recursion from 1 meets 2 and escalates the log power
    r0 = Puiseux.from_terms([(0, -3), (1, 1)], 8)
    ode = RegularSingularODE(3, 1, [r0, Puiseux.constant(Fraction(13, 2), 8),
                                    Puiseux.constant(Fraction(-9, 2), 8)])
    basis = frobenius_solve(ode, 6)
    assert basis.exponent_classes == [[2, 1], [Fraction(3, 2)]]
    assert [s.parts[0].lead for s in basis.solutions] == [2, 1, Fraction(3, 2)]
    assert basis.max_log_power == 1
    for sol in basis.solutions:
        assert apply_ode(ode, sol).is_zero()


def test_tiny_exact_coefficients_are_kept():
    # theta S + c q S = 0 has S = sum (-c)^n/n! q^n; a coupling far below
    # any float tolerance must still count as nonzero on exact values
    c = Fraction(1, 10**400)
    ode = RegularSingularODE(1, 1, [Puiseux.from_terms([(1, c)], 6)])
    (sol,) = frobenius_solve(ode, 4).solutions
    for n in range(4):
        assert sol.parts[0].coeff_at(n) == (-c) ** n / math.factorial(n)
    assert apply_ode(ode, sol).is_zero()


# -- the Fraction recursion against the CycQ recursion ----------------------------

def _binomial_taylor(poly, x):
    """P(x + y) in y by the binomial formula."""
    m = len(poly) - 1
    return [
        sum((poly[k] * (math.comb(k, u) * x ** (k - u)) for k in range(u + 1, m + 1)),
            poly[u])
        for u in range(m + 1)
    ]


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
cycq_values = st.builds(
    lambda n, coords: CycQ(n, coords[: euler_phi(n)]),
    st.sampled_from([1, 3, 4]),
    st.lists(small_fractions, min_size=2, max_size=2),
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(small_fractions, min_size=2, max_size=5),
    st.one_of(small_fractions, cycq_values),
    st.booleans(),
)
def test_horner_taylor_shift_matches_binomial_formula(poly, x, as_cycq):
    if as_cycq:
        poly = [CycQ.from_rational(c) for c in poly]
    assert _taylor_at(poly, x) == _binomial_taylor(poly, x)


def _apply_E(p: list, x) -> list:
    """(x + d/dl) applied to a polynomial in divided powers l^j/j!, where
    d/dl moves each coefficient down one slot: E p, from which the reference
    R(E) p = sum_i r_i E^i p is built one power at a time."""
    out = [x * c for c in p]
    for s in range(1, len(p)):
        out[s - 1] = out[s - 1] + p[s]
    return frobenius._ptrim(out)


@st.composite
def taylor_action_cases(draw):
    """(R, x, p, zero): R of degree < 4, a point x and a polynomial p in
    divided powers, all ints, all CycQ at conductor 3 or 4 (x a Fraction, as
    T mu + n is), or all complex."""
    kind = draw(st.sampled_from(["int", 3, 4, "complex"]))
    if kind == "int":
        values, x, zero = st.integers(-9, 9), draw(st.integers(-9, 9)), 0
    elif kind == "complex":
        values = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
        x, zero = draw(values), 0j
    else:
        coords = st.lists(small_fractions, min_size=euler_phi(kind), max_size=euler_phi(kind))
        values, x, zero = coords.map(lambda c: CycQ(kind, c)), draw(small_fractions), CycQ.zero
    R, p = draw(st.lists(values, min_size=1, max_size=4)), draw(st.lists(values, max_size=5))
    return R, x, p, zero


@settings(max_examples=300, deadline=None)
@given(taylor_action_cases())
@example(([1, 0, 3], 0, [5, 7], 0))  # E = d/dl at x = 0: E^2 p is empty
def test_taylor_action_matches_powers_of_E(case):
    # R(x + d/dl) p = sum_u tay[u] (d/dl)^u p with tay R's Taylor row at x,
    # the action of every row of the recursion, is sum_i r_i E^i p
    R, x, p, zero = case
    tay = _taylor_at(R, x)
    got = [sum((tay[u] * p[t + u] for u in range(min(len(tay), len(p) - t))), zero)
           for t in range(len(p))]
    want, image = [zero] * len(p), p
    for r in R:
        want = [w + r * v for w, v in zip(want, image + [zero] * len(p))]
        image = _apply_E(image, x)
    if isinstance(zero, complex):  # to rounding, on the scale of the largest term
        scale = max(map(abs, R)) * (1 + abs(x)) ** (len(R) - 1) * max(map(abs, p), default=0)
        assert all(abs(a - b) <= 1e-13 * scale for a, b in zip(got, want))
    else:
        assert got == want


quadratics = st.sampled_from([[1], [1, 0, 1], [-2, 0, 1]])  # 1, x^2 + 1, x^2 - 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=5),
    quadratics,
    small_fractions.filter(bool),
)
@example([(0, 1), (0, 1)], [1, 0, 1], Fraction(1))  # a double zero root
@example([(35, 6)], [-2, 0, 1], Fraction(1, 3))  # p and q with several divisors each
def test_rational_roots_finds_every_root_of_a_product(factors, quad, scale):
    poly = [scale * c for c in quad]
    for p, q in factors:  # times (q x - p)
        poly = [q * b - p * a for a, b in zip(poly + [0], [0] + poly)]
    roots, rest = frobenius._rational_roots(poly)
    assert sorted(roots) == sorted(Fraction(p, q) for p, q in factors)
    assert len(rest) == len(quad) and rest[-1]
    assert [c * rest[-1] for c in quad] == rest


def test_a_constant_row_takes_no_taylor_shift(monkeypatch):
    # theta^3 S - q S = 0 has q-terms in r_0 only, so its one row R_1 is a
    # constant, its own Taylor row: each step shifts the indicial polynomial alone
    calls = []
    taylor_at = frobenius._taylor_at
    monkeypatch.setattr(frobenius, "_taylor_at",
                        lambda p, x: calls.append(len(p)) or taylor_at(p, x))
    ode = RegularSingularODE(3, 1, [Puiseux.from_terms([(1, -1)], 12),
                                    Puiseux.zero(12), Puiseux.zero(12)])
    basis = frobenius_solve(ode, 10)
    assert calls == [4] * (3 * 9)  # three solutions, seeded at c_0, nine steps each
    assert basis.max_log_power == 2
    for sol in basis.solutions:
        assert apply_ode(ode, sol).is_zero()


def test_a_step_at_zero_adds_no_conductor_that_no_power_of_E_carries():
    # a zero CycQ product keeps its conductor, so R_s(E_k) c_k at T mu + k = 0
    # adds a term only where sum_i r_i E^i c_k does, with E^i c_k = (d/dl)^i c_k
    z4, z3 = cyc_root(1, 4), cyc_root(1, 3)
    # theta^2 S + zeta_4 q theta S + q S: from the root 0, E_0 c_0 = 0, and c_1 = -1
    ode = RegularSingularODE(2, 1, [Puiseux.from_terms([(1, 1)], 6),
                                    Puiseux.from_terms([(1, z4)], 6)])
    c1 = frobenius_solve(ode, 4).solutions[0].parts[0].coeff_at(1)
    assert c1 == -1 and c1.conductor == 1
    # roots 0, -1, -2: from -1, c_1 sits at 0 and has two slots, so the
    # (1 + zeta_3) q theta^2 term reads nothing of it, and c_2 = 5/12
    ode = RegularSingularODE(3, 1, [Puiseux.zero(4),
                                    Puiseux.from_terms([(0, 2), (2, Fraction(5, 2))], 4),
                                    Puiseux.from_terms([(0, 3), (1, 1 + z3)], 4)])
    c2 = frobenius_solve(ode, 3).solutions[1].parts[0].coeff_at(1)
    assert c2 == Fraction(5, 12) and c2.conductor == 1


def test_coupling_on_theta_squared_reads_second_images():
    # theta^3 S + q theta^2 S = 0: a triple root 0, and row 2 reads E^2 c_k
    ode = RegularSingularODE(3, 1, [Puiseux.zero(12), Puiseux.zero(12),
                                    Puiseux.monomial(1, 1, 12)])
    basis = frobenius_solve(ode, 10)
    assert len(basis.solutions) == 3 and basis.max_log_power == 2
    for sol in basis.solutions:
        assert apply_ode(ode, sol).is_zero()


roots = st.fractions(min_value=-1, max_value=1, max_denominator=4)
couplings = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),
              small_fractions.filter(bool)),
    min_size=1, max_size=2,
)


def _monic(roots) -> list:
    """Ascending coefficients of prod (x - rho) over the roots."""
    poly = [Fraction(1)]
    for rho in roots:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= rho * poly[i + 1]
    return poly


@st.composite
def rational_odes(draw):
    """(ode, f, trunc): seeded ODEs with rational indicial roots and couplings
    c q^(k/T); f is an inhomogeneous term c q^s or None."""
    kind = draw(st.sampled_from(
        ["distinct", "double", "resonant", "branched", "third", "inhom"]))
    r = draw(roots)
    T = draw(st.sampled_from({"branched": [2, 3], "inhom": [1, 2, 3]}.get(kind, [1])))
    root_set = {
        "distinct": (r, draw(roots)),
        "double": (r, r),
        "resonant": (r, r - draw(st.integers(min_value=1, max_value=2))),
        "branched": (r, r - Fraction(draw(st.integers(min_value=1, max_value=2)), T)),
        "third": (r, r, draw(st.sampled_from([r, r - 1]))),
        "inhom": (r, r - 1),
    }[kind]
    steps = 4 if kind == "third" else 6
    trunc = Fraction(steps, T)
    poly = _monic(root_set)
    coeffs = []
    for i in range(len(root_set)):
        terms = [(0, poly[i])]
        if i == 0 or draw(st.booleans()):
            terms += [(Fraction(k, T), c) for k, c in draw(couplings)]
        coeffs.append(Puiseux.from_terms(terms, trunc + 1, T))
    ode = RegularSingularODE(len(root_set), T, coeffs)
    f = None
    if kind == "inhom":
        s = draw(st.integers(min_value=0, max_value=3))
        c = draw(small_fractions.filter(bool))
        f = LogQSeries(1, [Puiseux.monomial(c, s, s + trunc + 1)])
    return ode, f, trunc


def _lifted(s: Puiseux, n: int) -> Puiseux:
    """The same series with every coefficient stored at conductor n."""
    return Puiseux(s.T, s.lead, [c.lift(n) for c in s.coeffs], s.trunc)


def _solve_recording(ode, f, trunc):
    """The solutions, and the value types the recursion made."""
    seen = set()
    real = frobenius._recurse

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.update(type(c) for poly in out[0] for c in poly)
        return out

    frobenius._recurse = spy
    try:
        if f is None:
            sols = frobenius_solve(ode, trunc).solutions
        else:
            sols = [solve_inhomogeneous(ode, f, trunc)]
    finally:
        frobenius._recurse = real
    return sols, seen


@settings(max_examples=40, deadline=None)
@given(rational_odes())
def test_fraction_recursion_matches_cyclotomic_recursion(case):
    ode, f, trunc = case
    sols, seen = _solve_recording(ode, f, trunc)
    assert seen == {int}  # the rational path runs on integer numerators
    for got in sols:
        resid = apply_ode(ode, got)
        assert (resid if f is None else resid + f).is_zero()
    # at conductor 3 no coefficient is a rational row: the CycQ recursion runs
    lifted = RegularSingularODE(ode.order, ode.T, [_lifted(r, 3) for r in ode.coeffs])
    cases = [(lifted, None)]
    if f is not None:  # and each mixed case: _setup reads f when it picks the type
        lifted_f = _lifted_log(f, 3)
        cases = [(lifted, lifted_f), (ode, lifted_f), (lifted, f)]
    for o, g in cases:
        expected, seen = _solve_recording(o, g, trunc)
        assert seen == {CycQ}
        assert len(sols) == len(expected)
        for got, want in zip(sols, expected):
            assert got.T == want.T and len(got.parts) == len(want.parts)
            for a, b in zip(got.parts, want.parts):
                assert (a.T, a.lead, a.trunc) == (b.T, b.lead, b.trunc)
                assert a.coeffs == b.coeffs
                assert all(c.conductor == 1 for c in a.coeffs)


@st.composite
def divisor_odes(draw):
    """(ode, f, trunc): an ODE at T in {2, 3, 4, 6} with rational indicial roots
    whose every coefficient sits at its own divisor d of T, its couplings c q^(k/d)
    rational or one unit zeta_3 or zeta_4 times a rational; f is c q^(s/d_f) at a
    divisor d_f of T, or None."""
    T = draw(st.sampled_from([2, 3, 4, 6]))
    divisors = [d for d in range(1, T + 1) if T % d == 0]
    order = draw(st.integers(1, 3))
    poly = _monic([draw(roots) for _ in range(order)])
    unit = draw(st.sampled_from([CycQ.one, cyc_root(1, 3), cyc_root(1, 4)]))
    trunc = Fraction(draw(st.integers(1, 8)), T)
    coeffs = []
    for i in range(order):
        d = draw(st.sampled_from(divisors))
        terms = [(0, poly[i])]
        if i == 0 or draw(st.booleans()):
            terms += [(Fraction(k, d), unit * c) for k, c in draw(couplings)
                      if Fraction(k, d) < trunc + 1]
        coeffs.append(Puiseux.from_terms(terms, trunc + 1, d))
    f = None
    if draw(st.booleans()):
        d = draw(st.sampled_from(divisors))
        s = Fraction(draw(st.integers(0, 2 * d)), d)
        f = LogQSeries(d, [Puiseux.monomial(draw(small_fractions.filter(bool)), s,
                                            s + trunc + 1, d)])
    return RegularSingularODE(order, T, coeffs), f, trunc


def _basis_slots(sols):
    return [(s.T, [(p.T, p.lead, p.trunc, [(c.conductor, c.den, c.nums) for c in p.coeffs])
                   for p in s.parts]) for s in sols]


@settings(max_examples=100, deadline=None)
@given(divisor_odes())
# r_0 at T = 2 and a zeta_3 term of r_1 at T = 3, in an ODE at T = 6
@example((RegularSingularODE(2, 6, [
    Puiseux.from_terms([(0, Fraction(-1, 4)), (Fraction(1, 2), 1)], 3, 2),
    Puiseux.from_terms([(Fraction(2, 3), cyc_root(1, 3))], 3, 3)]), None, Fraction(5, 3)))
def test_coefficients_at_divisors_of_T_solve_as_refined(case):
    # each coefficient read at its own branching gives the basis of the ODE whose
    # coefficients were all refined to T first
    ode, f, trunc = case
    refined = RegularSingularODE(ode.order, ode.T, [r.with_branching(ode.T) for r in ode.coeffs])
    if f is None:
        got, want = (frobenius_solve(o, trunc).solutions for o in (ode, refined))
    else:
        got, want = ([solve_inhomogeneous(o, f, trunc)] for o in (ode, refined))
    assert _basis_slots(got) == _basis_slots(want)


def _ode_with_roots(roots, couplings: dict, trunc) -> RegularSingularODE:
    """The ODE at T = 1 with these indicial roots, plus couplings[i], a list
    of terms (e, c), in r_i."""
    poly = _monic(roots)
    return RegularSingularODE(len(roots), 1, [
        Puiseux.from_terms([(0, poly[i])] + couplings.get(i, []), trunc)
        for i in range(len(roots))])


@pytest.mark.parametrize("kind", ["resonant", "triple", "inhom"])
def test_deep_recursion_has_an_exactly_zero_residual(kind):
    # 150 steps on integer numerators, where the denominators grow to
    # thousands of bits; apply_ode does not share the recursion's arithmetic
    steps, F = 150, Fraction
    f = None
    if kind == "resonant":  # roots 1/3 and -5/3, d = 3
        ode = _ode_with_roots((F(1, 3), F(-5, 3)),
                              {0: [(1, F(-2, 5)), (2, F(3, 7))], 1: [(1, F(1, 2))]}, steps + 1)
    elif kind == "triple":  # a triple root -1/4: log power 2, d = 4
        ode = _ode_with_roots((F(-1, 4),) * 3, {0: [(1, F(5, 3))], 2: [(2, F(-1, 6))]},
                              steps + 1)
    else:  # f = 7/2 q^(1/5) - q^(6/5) l resonates with both roots 6/5 and 1/5
        ode = _ode_with_roots((F(6, 5), F(1, 5)), {0: [(1, F(3, 4))]}, steps + 4)
        trunc = F(1, 5) + steps + 2
        f = LogQSeries(5, [Puiseux.monomial(F(7, 2), F(1, 5), trunc, 5),
                           Puiseux.monomial(-1, F(6, 5), trunc, 5)])
    sols, seen = _solve_recording(ode, f, steps)
    assert seen == {int}
    assert max(len(s.parts) for s in sols) == (2 if kind == "resonant" else 3)
    for sol in sols:
        resid = apply_ode(ode, sol)
        assert (resid if f is None else resid + f).is_zero()


# -- the integer-row residual against the CycQ residual ---------------------------

leads = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def puiseux_parts(draw, T: int, on_grid: bool):
    """A Puiseux at branching T with a lead in (1/T)Z (on_grid) or any small
    fraction, and a truncation that need not be lead + n/T."""
    lead = Fraction(draw(st.integers(-4, 4)), T) if on_grid else draw(leads)
    trunc = lead + Fraction(draw(st.integers(0, 12)), 2 * T)
    n = math.ceil((trunc - lead) * T)
    coeffs = draw(st.lists(small_fractions, min_size=n, max_size=n))
    return Puiseux(T, lead, coeffs, trunc)


@st.composite
def log_series(draw, on_grid: bool = False):
    """1-3 log parts with differing leads and truncations, branching 1-3."""
    T = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, 3))
    return LogQSeries(T, [draw(puiseux_parts(T, on_grid)) for _ in range(k)])


@st.composite
def odes(draw, on_grid: bool = False):
    """Order 1-3 at branching 1-3; a coefficient is a few terms c q^(k/T),
    or a zero series whose lead may be negative, and off the (1/T)Z grid
    unless on_grid."""
    T = draw(st.sampled_from([1, 2, 3]))
    order = draw(st.integers(1, 3))
    coeffs = []
    for _ in range(order):
        trunc = Fraction(draw(st.integers(1, 8)), T)
        if draw(st.integers(0, 4)) == 0:
            lead = Fraction(draw(st.integers(-4, 4)), T) if on_grid else draw(leads)
            coeffs.append(Puiseux(T, lead, [], trunc))
            continue
        terms = draw(st.lists(st.tuples(st.integers(0, 7), small_fractions), max_size=3))
        coeffs.append(Puiseux.from_terms(
            [(Fraction(k, T), c) for k, c in terms if Fraction(k, T) < trunc], trunc, T))
    return RegularSingularODE(order, T, coeffs)


def _lifted_log(s: LogQSeries, n: int) -> LogQSeries:
    return LogQSeries(s.T, [_lifted(p, n) for p in s.parts])


def _theta_full(s: LogQSeries) -> LogQSeries:
    """q d/dq on Puiseux parts, acting on log factors by the product rule
    theta(l^i f) = (i/T) l^(i-1) f + l^i theta f."""
    s = s.with_branching(_lead_grid(s.T, s.parts))
    parts = []
    for i, p in enumerate(s.parts):
        term = theta(p, "full")
        if i + 1 < len(s.parts):
            term = term + s.parts[i + 1].scalar_mul(Fraction(i + 1, s.T))
        parts.append(term)
    return LogQSeries(s.T, parts)


def _mul_series(s: LogQSeries, r: Puiseux) -> LogQSeries:
    return LogQSeries(s.T, [p * r for p in s.parts])


def _reference_residual(ode, s):
    """theta^m s + sum r_i theta^i s in LogQSeries arithmetic over CycQ values."""
    t = _lead_grid(lcm(ode.T, s.T), s.parts + ode.coeffs)
    images = [s.with_branching(t)]
    for _ in range(ode.order):
        images.append(_theta_full(images[-1]))
    out = images[ode.order]
    for i, r in enumerate(ode.coeffs):
        out = out + _mul_series(images[i], r.with_branching(t))
    return out


def _assert_same_slots(got: LogQSeries, want: LogQSeries):
    """Equal T, parts, leads, truncations and lengths, and equal values
    slot for slot (CycQ == compares across conductors)."""
    assert got.T == want.T and len(got.parts) == len(want.parts)
    for a, b in zip(got.parts, want.parts):
        assert (a.T, a.lead, a.trunc, len(a.coeffs)) == (b.T, b.lead, b.trunc, len(b.coeffs))
        assert a.coeffs == b.coeffs


@settings(max_examples=100, deadline=None)
@given(odes(), log_series())
# every slot of both coefficients is nonzero: one row add per slot
@example(RegularSingularODE(2, 1, [Puiseux(1, 0, [1, -2, 3, Fraction(1, 2)], 4),
                                   Puiseux(1, 0, [2, 1, -1, 5], 4)]),
         LogQSeries(1, [Puiseux(1, 0, [1, 3, -1], 3), Puiseux(1, 1, [2, Fraction(1, 3)], 3)]))
# the coefficient's q^4 lies past the part's three slots and the product's
@example(RegularSingularODE(1, 1, [Puiseux.from_terms([(0, 1), (4, 5)], 6)]),
         LogQSeries(1, [Puiseux(1, 0, [1, 2, 3], 3)]))
def test_row_residual_matches_series_residual(ode, s):
    # rational, lifted to conductor 3, and each of the two mixed cases
    lifted_ode = RegularSingularODE(ode.order, ode.T, [_lifted(r, 3) for r in ode.coeffs])
    lifted_s = _lifted_log(s, 3)
    for o, x in [(ode, s), (lifted_ode, lifted_s), (lifted_ode, s), (ode, lifted_s)]:
        _assert_same_slots(apply_ode(o, x), _reference_residual(o, x))
    assert all(c.conductor == 1 for p in apply_ode(ode, s).parts for c in p.coeffs)


@settings(max_examples=60, deadline=None)
@given(odes(), st.integers(1, 8), st.sampled_from(["none", "ode", "f"]),
       st.none() | log_series())
# the lifted ODE's only conductor-3 values are zeros, which no row keeps
@example(RegularSingularODE(1, 1, [Puiseux(1, 1, [], 2)]), 2, "ode", None)
def test_coefficient_table_reads_coeff_at(ode, steps, lift, f):
    # _setup's indicial polynomial and rows by q-power are those of the ODE
    # times T^m in theta_T = T theta, p_i and r_i scaled by T^(m - i), and fs[n] is
    # -T^m times f at q^(lam + n/T) in divided powers of l = log q_(1/T); all
    # ints times one L > 0 when every value it reads is rational, else CycQ
    if lift == "ode":
        ode = RegularSingularODE(ode.order, ode.T, [_lifted(r, 3) for r in ode.coeffs])
    T, m = ode.T, ode.order
    span = min(Fraction(steps, T), *(r.trunc for r in ode.coeffs))
    lam = None
    if f is not None:
        f = f.with_branching(lcm(f.T, T))
        assume(not all(p.is_zero() for p in f.parts))
        if lift == "f":
            f = _lifted_log(f, 3)
        lam = min(p.normalized().lead for p in f.parts if not p.is_zero())
        span = min(span, *(p.trunc - lam for p in f.parts))
    assume(span >= Fraction(1, T))
    off_grid = f is not None and any(((e - lam) * T).denominator != 1
                                     for p in f.parts for e, _ in p.terms())
    if off_grid:
        with pytest.raises(ValueError, match=f"off {lam} "):  # f is read on lam + (1/T)Z only
            frobenius._setup(ode, span, True, f, lam)
        return
    _, n, indicial, rows, fs = frobenius._setup(ode, span, True, f, lam)
    want = [c * T ** (m - i) for i, c in enumerate(indicial_polynomial(ode))]
    want += [r.coeff_at(Fraction(s, T)) * T ** (m - i)
             for s in range(1, n) for i, r in enumerate(ode.coeffs)]
    want_f = [] if f is None else [
        [p.coeff_at(lam + Fraction(k, T)) * (-T ** m * Fraction(T, f.T) ** j * math.factorial(j))
         for j, p in enumerate(f.parts)] for k in range(n)]
    # row s is R_s, the q^(s/T) terms of every r_i, nonzero and trimmed
    assert [s for s, _ in rows] == sorted({s for s, _ in rows} & set(range(1, n)))
    assert all(R and R[-1] for _, R in rows)
    got = indicial + [c for s in range(1, n) for c in (dict(rows).get(s, []) + [0] * m)[:m]]
    got_f = [fn + [0] * (len(f.parts) - len(fn)) for fn in fs]
    values = indicial + [c for _, R in rows for c in R] + [c for fn in fs for c in fn]
    # what _setup reads: the indicial polynomial, the nonzero row slots, and
    # f's terms up to the last nonzero one of each step
    read = (want[:m + 1] + [c for c in want[m + 1:] if c]
            + [c for fn in want_f for c in frobenius._ptrim(list(fn))])
    if all(c.conductor == 1 for c in read):
        L = indicial[m]
        assert {type(c) for c in values} == {int} and L > 0
        assert got == [c.rational_value() * L for c in want]
        assert got_f == [[c.rational_value() * L for c in fn] for fn in want_f]
    else:
        assert {type(c) for c in values} == {CycQ}
        assert got == want and got_f == want_f
    assert all(not fn or fn[-1] for fn in fs)  # trailing zeros trimmed


# -- branching: refining commutes with add and the residual -----------------------
# A lead off the (1/T)Z grid refines the branching of a sum or residual, so a
# refined input may give the same value at another T.

@settings(max_examples=60, deadline=None)
@given(log_series(on_grid=True), log_series(on_grid=True), st.integers(1, 2))
def test_add_commutes_with_branching(a, b, k):
    t = k * lcm(a.T, b.T)
    _assert_same_slots(a.with_branching(t) + b.with_branching(t),
                       (a + b).with_branching(t))


@settings(max_examples=60, deadline=None)
@given(odes(on_grid=True), log_series(on_grid=True), st.booleans())
def test_residual_commutes_with_branching(ode, s, lift):
    if lift:
        s = _lifted_log(s, 3)
    fine = apply_ode(ode, s.with_branching(2 * s.T))
    _assert_same_slots(fine, apply_ode(ode, s).with_branching(fine.T))


def _assert_same_at_a_common_T(got: LogQSeries, want: LogQSeries):
    t = lcm(got.T, want.T)
    _assert_same_slots(got.with_branching(t), want.with_branching(t))


@settings(max_examples=60, deadline=None)
@given(log_series(), log_series(), st.integers(1, 2))
def test_add_commutes_with_branching_off_the_grid(a, b, k):
    t = k * lcm(a.T, b.T)
    _assert_same_at_a_common_T(a.with_branching(t) + b.with_branching(t), a + b)


@settings(max_examples=60, deadline=None)
@given(odes(), log_series(), st.booleans())
def test_residual_commutes_with_branching_off_the_grid(ode, s, lift):
    if lift:
        s = _lifted_log(s, 3)
    _assert_same_at_a_common_T(apply_ode(ode, s.with_branching(2 * s.T)), apply_ode(ode, s))


@settings(max_examples=60, deadline=None)
@given(log_series(), log_series())
def test_sum_off_the_grid_keeps_every_term(a, b):
    total = a + b
    a, b = a.with_branching(total.T), b.with_branching(total.T)
    for i, part in enumerate(total.parts):
        want = {}
        for x in (a, b):
            if i < len(x.parts):
                for e, c in x.parts[i].terms():
                    if e < part.trunc:
                        want[e] = want.get(e, CycQ.zero) + c
        assert dict(part.terms()) == {e: c for e, c in want.items() if c}
