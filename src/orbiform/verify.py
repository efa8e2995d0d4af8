"""Numeric verification of the transformation laws.

Each law is evaluated on a grid of upper-half-plane points; the report
carries the maximum absolute discrepancy over the grid.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .errors import TruncationInsufficient, TruncationTooSmall
from .forms import TWO_PI_I, eisenstein, g2_eval, pk_eval, qk_series, wp1_eval
from .modular import S, T, GammaMat, TorsionPair, pair_act, slash_eval
from .report import CheckReport
from .series import eval_at_tau

DEFAULT_TAU_GRID = (1j, 0.5 + 1j, 0.3 + 1.7j)

LAW_IDS = (
    "P_invariance",
    "Q_modularity",
    "G2_quasimodular",
    "wp1_laws",
    "delk_commutes",
)


def _check_tail(tail: float, tol: float):
    if tail > tol / 10:
        raise TruncationInsufficient(
            f"series tail bound {tail:g} exceeds tol/10 = {tol / 10:g}"
        )


def _check_terms(terms: int):
    # a series of no terms is 0 on both sides and would pass any law
    if terms < 1:
        raise TruncationTooSmall(f"need at least one series term, got {terms}")


def _p_invariance(params: dict, tau_grid, tol: float) -> float:
    """P_k(mu,lambda, z/(c tau+d), gamma tau) = (c tau+d)^k P_k((mu,lambda)gamma, z, tau)."""
    k, pair, gamma, z = params["k"], params["pair"], params["gamma"], params["z"]
    cutoff = params["cutoff"]
    acted = pair_act(pair, gamma)
    err = 0.0
    for tau in tau_grid:
        j = gamma.automorphy(tau)
        lhs, t1 = pk_eval(k, pair, z / j, gamma.apply(tau), cutoff, tol=tol)
        rhs, t2 = pk_eval(k, acted, z, tau, cutoff, tol=tol)
        _check_tail(t1, tol)
        _check_tail(abs(j) ** k * t2, tol)
        err = max(err, abs(lhs - j**k * rhs))
    return err


def _q_modularity(params: dict, tau_grid, tol: float) -> float:
    """Q_k(mu,lambda, gamma tau) = (c tau+d)^k Q_k((mu,lambda)gamma, tau)."""
    k, pair, gamma, terms = params["k"], params["pair"], params["gamma"], params["terms"]
    _check_terms(terms)
    acted = pair_act(pair, gamma)
    left = qk_series(k, pair, Fraction(terms, pair.M))
    right = qk_series(k, acted, Fraction(terms, acted.M))
    err = 0.0
    for tau in tau_grid:
        j = gamma.automorphy(tau)
        lv, lt = eval_at_tau(left, gamma.apply(tau))
        rv, rt = eval_at_tau(right, tau)
        _check_tail(lt, tol)
        _check_tail(abs(j) ** k * rt, tol)
        err = max(err, abs(lv - j**k * rv))
    return err


def _g2_quasimodular(params: dict, tau_grid, tol: float) -> float:
    """G2(gamma tau) = (c tau+d)^2 G2(tau) - 2 pi i c (c tau+d)."""
    gamma, trunc = params["gamma"], params["trunc"]
    err = 0.0
    for tau in tau_grid:
        j = gamma.automorphy(tau)
        lhs = g2_eval(gamma.apply(tau), trunc)
        rhs = j**2 * g2_eval(tau, trunc) - TWO_PI_I * gamma.c * j
        err = max(err, abs(lhs - rhs))
    return err


def _wp1_laws(params: dict, tau_grid, tol: float) -> float:
    """Quasi-periodicity in z, z + tau, and weight-1 modularity of wp1."""
    gamma, z, trunc = params["gamma"], params["z"], params["trunc"]
    err = 0.0
    for tau in tau_grid:
        base = wp1_eval(z, tau, trunc)
        g2 = g2_eval(tau, trunc)
        err = max(err, abs(wp1_eval(z + 1, tau, trunc) - base - g2))
        err = max(err, abs(wp1_eval(z + tau, tau, trunc) - base - g2 * tau + TWO_PI_I))
        j = gamma.automorphy(tau)
        err = max(err, abs(wp1_eval(z / j, gamma.apply(tau), trunc) - j * base))
    return err


def _finite_diff_theta(F, tau: complex, h: float = 1e-3) -> complex:
    """(1/2 pi i) dF/dtau via a five-point central stencil."""
    d = (
        -F(tau + 2 * h) + 8 * F(tau + h) - 8 * F(tau - h) + F(tau - 2 * h)
    ) / (12 * h)
    return d / TWO_PI_I


def _delk_commutes(params: dict, tau_grid, tol: float) -> float:
    """(del_k f)|_{k+2} gamma = del_k (f|_k gamma) on weight-4 and twisted
    weight-2 samples, with q d/dq realized by finite differences."""
    gamma, terms, pair = params["gamma"], params["terms"], params["pair"]
    _check_terms(terms)
    acted = pair_act(pair, gamma)
    e2 = eisenstein(2, terms)
    e4 = eisenstein(4, terms)
    q2 = qk_series(2, pair, Fraction(terms, pair.M))
    q2g = qk_series(2, acted, Fraction(terms, acted.M))

    def evaluator(series):
        return lambda t: eval_at_tau(series, t).value

    samples = [
        # (weight, F, F|gamma): both E4 slots are E4 since it is modular
        (4, evaluator(e4), evaluator(e4)),
        (2, evaluator(q2), evaluator(q2g)),
    ]
    err = 0.0
    for k, F, Fg in samples:
        def del_f(t, F=F, k=k):
            return _finite_diff_theta(F, t) + k * eval_at_tau(e2, t).value * F(t)

        def del_fg(t, Fg=Fg, k=k):
            return _finite_diff_theta(Fg, t) + k * eval_at_tau(e2, t).value * Fg(t)

        for tau in tau_grid:
            lhs = slash_eval(del_f, k + 2, gamma, tau)
            rhs = del_fg(tau)
            err = max(err, abs(lhs - rhs))
    return err


_LAWS = {
    "P_invariance": _p_invariance,
    "Q_modularity": _q_modularity,
    "G2_quasimodular": _g2_quasimodular,
    "wp1_laws": _wp1_laws,
    "delk_commutes": _delk_commutes,
}

# every parameter a law reads, with its default
_LAW_DEFAULTS = {
    "P_invariance": {
        "k": 1, "pair": TorsionPair(Fraction(1, 2), Fraction(1, 3)), "gamma": S,
        "z": 0.3j, "cutoff": 400,
    },
    "Q_modularity": {
        "k": 2, "pair": TorsionPair(Fraction(1), Fraction(1, 2)), "gamma": S,
        "terms": 400,
    },
    "G2_quasimodular": {"gamma": S, "trunc": 200},
    "wp1_laws": {"gamma": S, "z": 0.21 - 0.4j, "trunc": 400},
    "delk_commutes": {
        "gamma": S, "terms": 200, "pair": TorsionPair(Fraction(1), Fraction(1, 2)),
    },
}


def law_params(law_id: str, params: dict | None = None) -> dict:
    """The law's defaults updated by params.

    Raises ValueError for an unknown law or a parameter the law does not read.
    """
    if law_id not in _LAWS:
        raise ValueError(f"unknown law {law_id!r}; known: {', '.join(LAW_IDS)}")
    defaults = _LAW_DEFAULTS[law_id]
    unread = [key for key in params or {} if key not in defaults]
    if unread:
        raise ValueError(
            f"{law_id} does not read {', '.join(unread)}; it reads {', '.join(defaults)}"
        )
    return {**defaults, **(params or {})}


def verify_law(law_id: str, params: dict | None = None,
               tau_grid=DEFAULT_TAU_GRID, tol: float = 1e-8) -> CheckReport:
    params = dict(params or {})
    read = law_params(law_id, params)
    err = _LAWS[law_id](read, tuple(tau_grid), tol)
    return CheckReport(law_id, params, err, err < tol)


def verify_suite(tol: float = 1e-8, tau_grid=DEFAULT_TAU_GRID) -> list[CheckReport]:
    """All laws at default parameters, in the declaration order."""
    return [verify_law(law_id, None, tau_grid, tol) for law_id in LAW_IDS]
