"""Tests for the regular-singular (Frobenius-Fuchs) solver."""

import json
from fractions import Fraction

import pytest

from orbiform.errors import TruncationTooSmall
from orbiform.frobenius import (
    FrobeniusBasis,
    RegularSingularODE,
    apply_ode,
    frobenius_solve,
    indicial_polynomial,
    indicial_roots,
    solve_inhomogeneous,
)
from orbiform.series import LogQSeries, Puiseux, product_expand, theta


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
    logs = sorted(len(s.trimmed().parts) for s in basis.solutions)
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
    assert len(sol.trimmed().parts) == 2
    assert sol.parts[1].coeff_at(0) == -1
    assert (apply_ode(ode, sol) + f).is_zero()


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


def test_truncation_guards():
    ode = const_ode(2, [Fraction(-1, 4), 0], trunc=3)
    with pytest.raises(TruncationTooSmall):
        frobenius_solve(ode, 10)
    with pytest.raises(TruncationTooSmall):
        frobenius_solve(const_ode(1, [0], trunc=5), Fraction(1, 3))


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
