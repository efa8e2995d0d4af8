"""Numeric verification of the transformation laws.

Each law is evaluated on a grid of upper-half-plane points and yields its
discrepancies lhs - rhs; the report carries the largest modulus, or nan (a
failure) if any is nan.  The series laws embed Q_k and E_4 in C straight
from their integer rows and build no exact series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import TruncationInsufficient, TruncationTooSmall
from .forms import TWO_PI_I, _eisenstein_embedded, _qk_embedded, g2_eval, pk_eval, wp1_eval
from .forms import qk_series  # noqa: F401  the benchmark tracer test reads verify.qk_series
from .modular import S, T, GammaMat, TorsionPair, pair_act, slash_eval
from .report import CheckReport
from .series import eval_at_tau

DEFAULT_TAU_GRID = (1j, 0.5 + 1j, 0.3 + 1.7j)


def _check_tail(tail: float, tol: float):
    if not tail <= tol / 10:
        raise TruncationInsufficient(
            f"series tail bound {tail:g} exceeds tol/10 = {tol / 10:g}"
        )


def _check_terms(terms: int):
    # a series of no terms is 0 on both sides and would pass any law
    if terms < 1:
        raise TruncationTooSmall(f"need at least one series term, got {terms}")


def _p_invariance(params: dict, tau_grid, tol: float):
    """P_k(mu,lambda, z/(c tau+d), gamma tau) = (c tau+d)^k P_k((mu,lambda)gamma, z, tau)."""
    k, pair, gamma, z = params["k"], params["pair"], params["gamma"], params["z"]
    acted = pair_act(pair, gamma)
    for tau in tau_grid:
        j = gamma.automorphy(tau)
        lhs, t1 = pk_eval(k, pair, z / j, gamma.apply(tau), tol=tol)
        rhs, t2 = pk_eval(k, acted, z, tau, tol=tol)
        _check_tail(t1, tol)
        _check_tail(abs(j) ** k * t2, tol)
        yield lhs - j**k * rhs


def _q_modularity(params: dict, tau_grid, tol: float):
    """Q_k(mu,lambda, gamma tau) = (c tau+d)^k Q_k((mu,lambda)gamma, tau)."""
    k, pair, gamma, terms = params["k"], params["pair"], params["gamma"], params["terms"]
    _check_terms(terms)
    acted = pair_act(pair, gamma)
    left = _qk_embedded(k, pair, Fraction(terms, pair.M))
    right = _qk_embedded(k, acted, Fraction(terms, acted.M))
    for tau in tau_grid:
        j = gamma.automorphy(tau)
        lv, lt = eval_at_tau(left, gamma.apply(tau))
        rv, rt = eval_at_tau(right, tau)
        _check_tail(lt, tol)
        _check_tail(abs(j) ** k * rt, tol)
        yield lv - j**k * rv


def _g2_quasimodular(params: dict, tau_grid, tol: float):
    """G2(gamma tau) = (c tau+d)^2 G2(tau) - 2 pi i c (c tau+d)."""
    gamma, trunc = params["gamma"], params["trunc"]
    for tau in tau_grid:
        j = gamma.automorphy(tau)
        lhs = g2_eval(gamma.apply(tau), trunc)
        rhs = j**2 * g2_eval(tau, trunc) - TWO_PI_I * gamma.c * j
        yield lhs - rhs


def _wp1_laws(params: dict, tau_grid, tol: float):
    """Quasi-periodicity in z, z + tau, and weight-1 modularity of wp1."""
    gamma, z, trunc = params["gamma"], params["z"], params["trunc"]
    for tau in tau_grid:
        base = wp1_eval(z, tau, trunc)
        g2 = g2_eval(tau, trunc)
        yield wp1_eval(z + 1, tau, trunc) - base - g2
        yield wp1_eval(z + tau, tau, trunc) - base - g2 * tau + TWO_PI_I
        j = gamma.automorphy(tau)
        yield wp1_eval(z / j, gamma.apply(tau), trunc) - j * base


def _delk_commutes(params: dict, tau_grid, tol: float):
    """(del_k f)|_{k+2} gamma = del_k (f|_k gamma) on weight-4 and twisted
    weight-2 samples, with theta = q d/dq taken exactly on the embedded
    coefficients: slot i, at q^(lead + i/T), is multiplied by lead + i/T.

    At each point the tails of f and of theta f, scaled as their side of the
    law is, must stay below tol/10, as in Q_modularity.  Theta multiplies the
    tail's terms by their exponents: with r = |q|^(1/T), theta f's tail is
    f's times (trunc + r/(T (1 - r)))."""
    import numpy as np
    gamma, terms, pair = params["gamma"], params["terms"], params["pair"]
    _check_terms(terms)
    acted = pair_act(pair, gamma)
    e4 = _eisenstein_embedded(4, terms)
    q2, q2g = (_qk_embedded(2, p, Fraction(terms, p.M)) for p in (pair, acted))

    def del_k(f, k, scale=1.0):
        exponents = f.leads[0] + np.arange(f.coeffs.shape[1]) / f.T

        def at(t):
            value, tail = eval_at_tau(f, t)
            r = math.exp(-2 * math.pi * t.imag / f.T)
            _check_tail(scale * tail, tol)
            _check_tail(scale * tail * (f.truncs[0] + r / (f.T * (1 - r))), tol)
            row = f.coeffs[0] * np.exp(TWO_PI_I * t * exponents)
            return (row * exponents).sum() + k * g2_eval(t, terms) / TWO_PI_I**2 * value
        return at

    # (weight, f, f|gamma): both E4 slots are E4 since it is modular
    for k, f, fg in ((4, e4, e4), (2, q2, q2g)):
        for tau in tau_grid:
            scale = abs(gamma.automorphy(tau)) ** -(k + 2)
            yield slash_eval(del_k(f, k, scale), k + 2, gamma, tau) - del_k(fg, k)(tau)


# each law, with every parameter it reads and that parameter's default
_LAWS = {
    "P_invariance": (_p_invariance, {
        "k": 1, "pair": TorsionPair(Fraction(1, 2), Fraction(1, 3)), "gamma": S,
        "z": 0.3j,
    }),
    "Q_modularity": (_q_modularity, {
        "k": 2, "pair": TorsionPair(Fraction(1), Fraction(1, 2)), "gamma": S,
        "terms": 400,
    }),
    "G2_quasimodular": (_g2_quasimodular, {"gamma": S, "trunc": 200}),
    "wp1_laws": (_wp1_laws, {"gamma": S, "z": 0.21 - 0.4j, "trunc": 400}),
    "delk_commutes": (_delk_commutes, {
        "gamma": S, "terms": 200, "pair": TorsionPair(Fraction(1), Fraction(1, 2)),
    }),
}

LAW_IDS = tuple(_LAWS)


def law_params(law_id: str, params: dict | None = None) -> dict:
    """The law's defaults updated by params.

    Raises ValueError for an unknown law, a parameter the law does not read,
    or a k below 1 for P_invariance (P_k starts at k = 1; Q_0 is -1).
    """
    if law_id not in _LAWS:
        raise ValueError(f"unknown law {law_id!r}; known: {', '.join(LAW_IDS)}")
    defaults = _LAWS[law_id][1]
    unread = [key for key in params or {} if key not in defaults]
    if unread:
        raise ValueError(
            f"{law_id} does not read {', '.join(unread)}; it reads {', '.join(defaults)}"
        )
    read = {**defaults, **(params or {})}
    if law_id == "P_invariance" and read["k"] < 1:
        raise ValueError(f"P_invariance needs k >= 1, got {read['k']}")
    return read


def verify_law(law_id: str, params: dict | None = None,
               tau_grid=DEFAULT_TAU_GRID, tol: float = 1e-8) -> CheckReport:
    params = dict(params or {})
    read = law_params(law_id, params)
    if not (tau_grid := tuple(tau_grid)):  # no point, no discrepancy: it would pass
        raise ValueError("the tau grid is empty")
    # hypot: abs() of a complex nan can raise OverflowError on a numpy underflow's errno
    errors = [math.hypot(d.real, d.imag) for d in _LAWS[law_id][0](read, tau_grid, tol)]
    # max() passes over a nan unless it comes first; a nan must fail the law
    err = math.nan if any(map(math.isnan, errors)) else max(errors, default=0.0)
    return CheckReport(law_id, params, err, err < tol)


def verify_suite(tol: float = 1e-8, tau_grid=DEFAULT_TAU_GRID) -> list[CheckReport]:
    """All laws at default parameters, in the declaration order."""
    return [verify_law(law_id, None, tau_grid, tol) for law_id in LAW_IDS]
