"""Acceptance suite: one test per criterion.

Each test prints a single bracketed pass/fail line on the real stdout
(bypassing pytest's capture via the capture manager), then asserts.
"""

import random
import time
from fractions import Fraction
from math import gcd

from test_forms import zhu_log_power

from orbiform.forms import (
    bernoulli_identities_check,
    bernoulli_poly,
    eisenstein,
    g2_eval,
    klein_hecke_series,
    lemma_plambda_check,
    pk_eval,
    prop44_check,
    prop46_exact_checks,
    prop48_check,
    qk_series,
    qk_series_divisor_oracle,
    zhu_coeff,
)
from orbiform.frobenius import (
    RegularSingularODE,
    apply_ode,
    frobenius_solve,
    solve_inhomogeneous,
)
from orbiform.modular import (
    IDENTITY,
    S,
    T,
    GammaMat,
    TorsionPair,
    pair_act,
    reduce_cyclic_pair,
)
from orbiform.moonshine import (
    char_solve,
    theta_trace,
    twisted_weight4,
    weight4_onepoint,
)
from orbiform.series import LogQSeries, Puiseux, eval_at_tau, product_expand, theta
from orbiform.verify import verify_law


def criterion(name):
    def deco(fn):
        def wrapper(request):
            capman = request.config.pluginmanager.getplugin("capturemanager")

            def emit(line):
                if capman is not None:
                    with capman.global_and_fixture_disabled():
                        print("\n" + line, flush=True)
                else:
                    print("\n" + line, flush=True)

            t0 = time.perf_counter()
            try:
                detail = fn()
            except BaseException:
                emit(f"[FAIL] {name}")
                raise
            dt = time.perf_counter() - t0
            extra = f"; {detail}" if detail else ""
            emit(f"[PASS] {name} ({dt:.2f}s{extra})")

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


def fractions_with_denominator_up_to(dmax):
    return [
        Fraction(n, d)
        for d in range(1, dmax + 1)
        for n in range(1, d + 1)
        if gcd(n, d) == 1
    ]


@criterion("criterion 1: Bernoulli polynomials and identities, exact, < 1 s")
def test_criterion_01_bernoulli():
    t0 = time.perf_counter()
    assert [str(c) for c in bernoulli_poly(1).coefficients] == ["-1/2", "1"]
    assert [str(c) for c in bernoulli_poly(2).coefficients] == ["1/6", "-1", "1"]
    assert [str(c) for c in bernoulli_poly(3).coefficients] == [
        "0", "1/2", "-3/2", "1",
    ]
    xs = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]
    count = 0
    for k in range(1, 21):
        for n in range(1, 11):
            for x in xs:
                assert bernoulli_identities_check(k, x, n), (k, x, n)
                count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    return f"{count} identity instances"


@criterion("criterion 2: root-of-unity polylog sums vs -B_k(j/M)/k!, < 30 s")
def test_criterion_02_polylog_sums():
    t0 = time.perf_counter()
    count = 0
    for k in (2, 3, 4):
        for m in range(1, 7):
            for j in range(1, m + 1):
                r = prop44_check(k, j, m, cutoff=10**6, tol=1e-9)
                assert r.passed, (k, j, m, r.error)
                count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    return f"{count} sums within 1e-9"


@criterion("criterion 3: weight-k twisted-series modularity < 1e-8, < 60 s")
def test_criterion_03_q_modularity():
    t0 = time.perf_counter()
    gammas = (S, T, S @ T, GammaMat(2, 1, 1, 1))
    taus = (1j, 0.3 + 1.7j)
    fracs = fractions_with_denominator_up_to(4)
    pairs = [
        TorsionPair(x, y)
        for x in fracs
        for y in fracs
        if not (x == 1 and y == 1)
    ]
    series_cache = {}
    value_cache = {}

    def series(k, pair):
        key = (k, pair)
        if key not in series_cache:
            series_cache[key] = qk_series(k, pair, Fraction(400, pair.M))
        return series_cache[key]

    def value(k, pair, tau):
        key = (k, pair, tau)
        if key not in value_cache:
            value_cache[key] = eval_at_tau(series(k, pair), tau).value
        return value_cache[key]

    worst = 0.0
    count = 0
    for k in range(1, 6):
        for pair in pairs:
            for gamma in gammas:
                acted = pair_act(pair, gamma)
                for tau in taus:
                    j = gamma.automorphy(tau)
                    err = abs(
                        value(k, pair, gamma.apply(tau))
                        - j**k * value(k, acted, tau)
                    )
                    worst = max(worst, err)
                    assert err < 1e-8, (k, pair, gamma, tau, err)
                    count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    return f"{count} checks, worst error {worst:.2e}"


@criterion("criterion 4: twisted series vs divisor-sum oracle, exact, 40 terms")
def test_criterion_04_divisor_oracle():
    fracs = fractions_with_denominator_up_to(4)
    count = 0
    for k in (3, 4, 5):
        for x in fracs:
            for y in fracs:
                pair = TorsionPair(x, y)
                trunc = Fraction(40, pair.M)
                diff = qk_series(k, pair, trunc) - qk_series_divisor_oracle(
                    k, pair, trunc
                )
                assert diff.is_zero(), (k, pair)
                count += 1
    return f"{count} exact series agreements"


@criterion("criterion 5: two-variable series invariance < 1e-6 + negative test")
def test_criterion_05_p_invariance():
    tau = 1.5j
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    worst = 0.0
    for k in (1, 2):
        for gamma in (S, T):
            acted = pair_act(pair, gamma)
            for z in (0.3j, 0.1 + 0.5j):
                j = gamma.automorphy(tau)
                lhs, t1 = pk_eval(k, pair, z / j, gamma.apply(tau), 400, tol=1e-8)
                rhs, t2 = pk_eval(k, acted, z, tau, 400, tol=1e-8)
                err = abs(lhs - j**k * rhs)
                assert t1 < 1e-8 and t2 < 1e-8
                assert err < 1e-6, (k, gamma, z, err)
                worst = max(worst, err)
    # the law must fail at the excluded pair (1,1)
    triv = TorsionPair(Fraction(1), Fraction(1))
    for k in (1, 2):
        r = verify_law(
            "P_invariance",
            {"k": k, "pair": triv, "gamma": S, "z": 0.3j},
            tau_grid=(tau,),
            tol=1e-6,
        )
        assert not r.passed, f"negative test unexpectedly passed at k={k}"
    return f"worst positive-case error {worst:.2e}; negative test fails as required"


@criterion("criterion 6: auxiliary transformation laws < 1e-8 + exact identities")
def test_criterion_06_auxiliary_laws():
    grid = (1j, 0.5 + 1j, 0.3 + 1.7j)
    # cyclic-average identity for the lambda-twisted sum
    for l_over_N in (Fraction(1, 2), Fraction(1, 3)):
        for tau in grid:
            r = lemma_plambda_check(0.3 + 0.2j, tau, l_over_N)
            assert r.passed and r.error < 1e-8, (l_over_N, tau, r.error)
    # quasimodularity of G2 and the wp1 laws
    for law in ("G2_quasimodular", "wp1_laws", "delk_commutes"):
        for gamma in (S, T):
            r = verify_law(law, {"gamma": gamma}, tau_grid=grid)
            assert r.passed and r.error < 1e-8, (law, gamma, r.error)
    # Hecke/Klein forms vs the weight-1/weight-2 twisted series: numeric...
    pair = TorsionPair(Fraction(1, 2), Fraction(1, 3))
    g, h = klein_hecke_series(pair, 40)
    q1 = qk_series(1, pair, 40)
    q2 = qk_series(2, pair, 40)
    logd = (theta(g, "full") * g.inverse()).truncated(40)
    for tau in grid:
        assert abs(eval_at_tau(h, tau).value + eval_at_tau(q1, tau).value) < 1e-8
        assert abs(eval_at_tau(logd, tau).value + eval_at_tau(q2, tau).value) < 1e-8
    # ...and exact to 40 terms
    for rep in prop46_exact_checks(pair, 40):
        assert rep.passed and rep.error == "exact", rep.check
    return "all laws on the default grid"


@criterion("criterion 7: residue pairing identity, exact to 30 q-terms")
def test_criterion_07_residue_identity():
    pairs = [
        TorsionPair(Fraction(1), Fraction(1, 3)),
        TorsionPair(Fraction(1, 2), Fraction(1, 2)),
        TorsionPair(Fraction(2, 3), Fraction(1, 4)),
        TorsionPair(Fraction(3, 4), Fraction(1, 2)),
    ]
    count = 0
    for k in range(5):
        for m in range(-1, 4):
            for pair in pairs:
                rep = prop48_check(k, m, pair, 30)
                assert rep.passed, (k, m, pair)
                count += 1
    return f"{count} exact identities"


@criterion("criterion 8: change-of-variable coefficients, exact agreement")
def test_criterion_08_zhu_coefficients():
    count = 0
    for p in range(1, 11):
        for i in range(13):
            for m in range(i + 1):
                assert zhu_coeff(p, i, m) == zhu_log_power(p, i, m)
                count += 1
    return f"{count} coefficients"


def _frobenius_ode_suite():
    """Ten regular-singular problems; the last one is inhomogeneous."""
    tr = Fraction(65)

    def const(order, consts, T=1):
        return RegularSingularODE(
            order, T, [Puiseux.constant(c, tr, T) for c in consts]
        )

    P = product_expand([(1, -1)], tr)
    partition_r0 = -(theta(P, "full") * P.inverse()).truncated(tr - 1)
    odes = [
        const(2, [Fraction(-1, 4), 0]),            # distinct half-integer roots
        const(2, [0, 0]),                          # double root: log solution
        const(3, [0, 0, 0]),                       # triple root: log^2
        const(1, [1]),                             # single shifted root
        RegularSingularODE(2, 1, [                 # double root + q coupling
            Puiseux.from_terms([(1, -2)], tr), Puiseux.zero(tr),
        ]),
        RegularSingularODE(1, 1, [partition_r0]),  # partition numbers
        RegularSingularODE(2, 2, [                 # T=2, half-integer grid
            Puiseux.from_terms(
                [(0, Fraction(-1, 4)), (Fraction(1, 2), 1)], tr, 2
            ),
            Puiseux.zero(tr, 2),
        ]),
        RegularSingularODE(2, 3, [                 # T=3 resonant class
            Puiseux.from_terms([(Fraction(1, 3), 1)], tr, 3),
            Puiseux.constant(Fraction(-1, 3), tr, 3),
        ]),
        RegularSingularODE(2, 1, [                 # Eisenstein series coefficient
            Puiseux.zero(tr),
            eisenstein(2, tr).scalar_mul(-24),
        ]),
    ]
    inhom = (
        const(1, [-2]),
        LogQSeries(1, [Puiseux.monomial(1, 3, tr)]),
    )
    return odes, inhom


@criterion("criterion 9: Frobenius residuals exactly zero to 60 terms, < 5 s")
def test_criterion_09_frobenius():
    t0 = time.perf_counter()
    odes, (inhom_ode, f) = _frobenius_ode_suite()
    solved = 0
    saw_log = False
    for ode in odes:
        basis = frobenius_solve(ode, 60)
        assert not basis.numeric
        assert len(basis.solutions) == ode.order
        saw_log = saw_log or basis.max_log_power > 0
        for sol in basis.solutions:
            assert apply_ode(ode, sol).is_zero(), "nonzero residual"
            solved += 1
    sol = solve_inhomogeneous(inhom_ode, f, 60)
    assert (apply_ode(inhom_ode, sol) + f).is_zero()
    solved += 1
    assert saw_log, "suite must include a logarithmic case"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    return f"{solved} basis elements across 10 ODEs"


@criterion("criterion 10: Moonshine coefficients and invariance, < 60 s")
def test_criterion_10_moonshine():
    t0 = time.perf_counter()
    terms = 200
    Z, braces = weight4_onepoint(terms)
    assert braces.coeff_at(1) == 141444
    assert braces.coeff_at(2) == 68234240
    chars = char_solve(braces)
    assert chars.degrees == (1, 196883, 21296876)
    worst = 0.0
    # full weight-4 modularity of the one-point function
    for gamma in (S, T, S @ T):
        for tau in (1j, 1.2j):
            j = gamma.automorphy(tau)
            err = abs(
                eval_at_tau(Z, gamma.apply(tau)).value
                - j**4 * eval_at_tau(Z, tau).value
            )
            assert err < 1e-6, ("Z", gamma, tau, err)
            worst = max(worst, err)
    # invariance of the twisted forms under their congruence groups
    for label, lower in (("2B", GammaMat(1, 0, 2, 1)), ("3B", GammaMat(1, 0, 3, 1))):
        F = twisted_weight4(label, terms)
        for gamma in (T, lower):
            tau = 1j
            j = gamma.automorphy(tau)
            err = abs(
                eval_at_tau(F, gamma.apply(tau)).value
                - j**4 * eval_at_tau(F, tau).value
            )
            assert err < 1e-6, (label, gamma, err)
            worst = max(worst, err)
    # weight-2 behaviour of the log-derivative of the hauptmodul
    th = theta_trace("1A", terms)
    for gamma in (S, T):
        for tau in (1j, 1.2j):
            j = gamma.automorphy(tau)
            err = abs(
                eval_at_tau(th, gamma.apply(tau)).value
                - j**2 * eval_at_tau(th, tau).value
            )
            assert err < 1e-6, ("theta", gamma, tau, err)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    return f"worst numeric error {worst:.2e}"


@criterion("criterion 11: group-action suite, exhaustive")
def test_criterion_11_group_actions():
    fracs = fractions_with_denominator_up_to(6)
    rng = random.Random(20260823)

    def random_gamma():
        g = IDENTITY
        for _ in range(rng.randrange(1, 8)):
            g = g @ rng.choice([S, T, S.inverse(), T.inverse()])
        return g

    mats = [(random_gamma(), random_gamma()) for _ in range(20)]
    pair_checks = 0
    for x in fracs:
        for y in fracs:
            p = TorsionPair(x, y)
            for g1, g2 in mats:
                assert pair_act(pair_act(p, g1), g2) == pair_act(p, g1 @ g2)
                pair_checks += 1
    reduce_checks = 0
    for n in range(1, 13):
        for a in range(n):
            for c in range(n):
                if gcd(gcd(a, c), n) != 1:
                    continue
                gamma, e = reduce_cyclic_pair(a, c, n)
                assert gamma.a * gamma.d - gamma.b * gamma.c == 1
                assert gcd(e, n) == 1
                assert (a * gamma.a + c * gamma.c) % n == 0
                assert (a * gamma.b + c * gamma.d) % n == e % n
                reduce_checks += 1
    return f"{pair_checks} action checks, {reduce_checks} reductions"
