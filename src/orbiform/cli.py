"""Command-line front end: JSON to stdout, human summary to stderr.

Exit codes: 0 on success / all checks passing, 1 on a failing check,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cyclotomic import CycQ
from .errors import OrbiformError
from .forms import (
    PK_CUTOFF_CAP,
    bernoulli_poly,
    bernoulli_value,
    eisenstein,
    pk_eval,
    qk_series,
    zhu_coeff,
)
from .frobenius import RegularSingularODE, frobenius_solve
from .modular import GammaMat, S, T, TorsionPair, pair_act, reduce_cyclic_pair
from .moonshine import (
    char_solve,
    delta_j_J,
    hauptmodul,
    theta_trace,
    twisted_weight4,
    weight4_onepoint,
)
from .verify import LAW_IDS, law_params, verify_law, verify_suite

DEFAULT_TERMS = 60
DEFAULT_TOL = 1e-8
# the most coefficient slots (trunc times the branching) a --trunc may ask for
MAX_TRUNC_SLOTS = 10_000


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ValueError as e:
        raise UsageError(f"expected a rational like 2/3, got {s!r}") from e


class UsageError(Exception):
    pass


def _parse_pair(s: str) -> TorsionPair:
    parts = s.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected a pair like 1/2,1/3, got {s!r}")
    return TorsionPair(_parse_fraction(parts[0]), _parse_fraction(parts[1]))


def _parse_gamma(s: str) -> GammaMat:
    words = {"S": S, "T": T, "I": GammaMat(1, 0, 0, 1)}
    if all(ch in words for ch in s):
        g = GammaMat(1, 0, 0, 1)
        for ch in s:
            g = g @ words[ch]
        return g
    parts = s.split(",")
    if len(parts) != 4:
        raise UsageError(
            f"expected S/T words or four integers a,b,c,d, got {s!r}"
        )
    return GammaMat(*(int(p) for p in parts))


def _parse_complex(s: str) -> complex:
    try:
        return complex(s.replace("i", "j"))
    except ValueError as e:
        raise UsageError(f"expected a complex number like 0.3+1.7j, got {s!r}") from e


def _coeff_json(c):
    if isinstance(c, CycQ):
        if c.is_rational():
            return str(c.rational_value())
        return c.to_json()
    return str(c)


def _series_json(s) -> dict:
    return {
        "T": s.T,
        "trunc": str(s.trunc),
        "terms": [[str(e), _coeff_json(c)] for e, c in s.terms()],
    }


def _emit(obj, summary: str) -> None:
    print(json.dumps(obj))
    print(summary, file=sys.stderr)


def _default_trunc(args, branching: int) -> Fraction:
    """--trunc, or DEFAULT_TERMS slots; it must be positive and need at
    most MAX_TRUNC_SLOTS slots of width 1/branching."""
    if args.trunc is None:
        return Fraction(DEFAULT_TERMS, branching)
    trunc = _parse_fraction(args.trunc)
    if trunc <= 0:
        raise UsageError(f"--trunc must be positive, got {args.trunc}")
    if trunc * branching > MAX_TRUNC_SLOTS:
        raise UsageError(
            f"--trunc {args.trunc} needs more than {MAX_TRUNC_SLOTS} slots "
            f"at branching {branching}"
        )
    return trunc


# -- subcommand handlers ---------------------------------------------------------

def _cmd_bernoulli(args) -> int:
    if args.x is None:
        poly = bernoulli_poly(args.k)
        _emit(
            {"poly": [str(c) for c in poly.coefficients]},
            f"Bernoulli polynomial B_{args.k}, ascending coefficients",
        )
    else:
        v = bernoulli_value(args.k, _parse_fraction(args.x))
        _emit({"value": str(v)}, f"B_{args.k}({args.x}) = {v}")
    return 0


def _cmd_eisenstein(args) -> int:
    s = eisenstein(args.k, _default_trunc(args, 1))
    _emit(_series_json(s), f"E_{args.k} to order q^{s.trunc}")
    return 0


def _cmd_qk(args) -> int:
    pair = TorsionPair(_parse_fraction(args.j_over_M), _parse_fraction(args.l_over_N))
    s = qk_series(args.k, pair, _default_trunc(args, pair.M))
    _emit(_series_json(s), f"Q_{args.k}{pair} to order q^{s.trunc}")
    return 0


def _cmd_pk_eval(args) -> int:
    pair = TorsionPair(_parse_fraction(args.j_over_M), _parse_fraction(args.l_over_N))
    z = _parse_complex(args.z)
    tau = _parse_complex(args.tau)
    if not 1 <= args.cutoff <= PK_CUTOFF_CAP:
        raise UsageError(
            f"--cutoff must be between 1 and {PK_CUTOFF_CAP}, got {args.cutoff}"
        )
    value, tail = pk_eval(args.k, pair, z, tau, args.cutoff)
    _emit(
        {"value": [value.real, value.imag], "tail_bound": tail},
        f"P_{args.k}{pair}(z={z}, tau={tau}) = {value} (tail <= {tail:g})",
    )
    return 0


def _cmd_zhu_coeff(args) -> int:
    v = zhu_coeff(args.p, args.i, args.m)
    _emit({"value": str(v)}, f"zhu-coeff(p={args.p}, i={args.i}, m={args.m}) = {v}")
    return 0


def _cmd_verify(args) -> int:
    if args.suite:
        if args.suite != "all":
            raise UsageError("only --suite all is supported")
        reports = verify_suite(tol=args.tol)
    else:
        if args.law_id is None:
            raise UsageError(f"give a law id ({', '.join(LAW_IDS)}) or --suite all")
        params = {}
        if args.k is not None:
            params["k"] = args.k
        if args.pair is not None:
            params["pair"] = _parse_pair(args.pair)
        if args.gamma is not None:
            params["gamma"] = _parse_gamma(args.gamma)
        if args.z is not None:
            params["z"] = _parse_complex(args.z)
        if args.terms is not None:
            if not 1 <= args.terms <= MAX_TRUNC_SLOTS:
                raise UsageError(
                    f"--terms must be between 1 and {MAX_TRUNC_SLOTS}, got {args.terms}"
                )
            params["terms"] = args.terms
        try:
            law_params(args.law_id, params)
        except ValueError as e:
            raise UsageError(str(e)) from e
        reports = [verify_law(args.law_id, params, tol=args.tol)]
    ok = True
    for r in reports:
        print(r.dumps())
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.check}: error {r.error:g}", file=sys.stderr)
        ok = ok and r.passed
    return 0 if ok else 1


def _cmd_frobenius(args) -> int:
    with open(args.ode) as fh:
        ode = RegularSingularODE.from_json(json.load(fh))
    basis = frobenius_solve(ode, _default_trunc(args, ode.T))
    if basis.numeric:
        obj = {
            "numeric": True,
            "solutions": [
                {
                    "exponent": [s.exponent.real, s.exponent.imag],
                    "coeffs": [[[c.real, c.imag] for c in cn] for cn in s.coeffs],
                }
                for s in basis.solutions
            ],
        }
    else:
        obj = {"numeric": False, "solutions": basis.to_json()}
    obj["max_log_power"] = basis.max_log_power
    obj["exponent_classes"] = [
        [str(r) if isinstance(r, Fraction) else [r.real, r.imag] for r in cls]
        for cls in basis.exponent_classes
    ]
    _emit(
        obj,
        f"{len(basis.solutions)} solutions, max log power {basis.max_log_power}",
    )
    return 0


def _cmd_moonshine(args) -> int:
    trunc = _default_trunc(args, 1)
    what = args.what
    if what == "J":
        _, _, J = delta_j_J(trunc)
        _emit(_series_json(J), f"J to order q^{trunc}")
    elif what == "hauptmodul":
        s = hauptmodul(args.cls, trunc)
        _emit(_series_json(s), f"T_{args.cls} to order q^{trunc}")
    elif what == "weight4":
        _, braces = weight4_onepoint(trunc)
        _emit(_series_json(braces), f"weight-4 braced series to order q^{trunc}")
    elif what == "twisted4":
        s = twisted_weight4(args.cls, trunc)
        _emit(_series_json(s), f"twisted weight-4 series for {args.cls}")
    elif what == "theta":
        s = theta_trace(args.cls, trunc)
        _emit(_series_json(s), f"theta of T_{args.cls}")
    elif what == "chars":
        _, braces = weight4_onepoint(max(trunc, 4))
        chars = char_solve(braces)
        _emit({"chi": list(chars.degrees)}, f"character degrees {chars.degrees}")
    else:
        raise UsageError(f"unknown moonshine subcommand {what!r}")
    return 0


def _cmd_pairs(args) -> int:
    if args.action == "reduce":
        gamma, e = reduce_cyclic_pair(args.a, args.c, args.n)
        _emit(
            {"gamma": [gamma.a, gamma.b, gamma.c, gamma.d], "e": e},
            f"({args.a},{args.c}) mod {args.n} -> (0,{e}) via {gamma}",
        )
        return 0
    pair = _parse_pair(f"{args.a},{args.c}")
    seen = {pair}
    frontier = [pair]
    while frontier:
        t = frontier.pop()
        for g in (S, T, S.inverse(), T.inverse()):
            u = pair_act(t, g)
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    orbit = sorted(str(t) for t in seen)
    _emit({"orbit": orbit}, f"orbit size {len(orbit)}")
    return 0


# -- parser ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbiform",
        description="Exact q-series, twisted Eisenstein forms, and Moonshine checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="Bernoulli polynomial or value")
    p.add_argument("k", type=int)
    p.add_argument("x", nargs="?", default=None)
    p.set_defaults(func=_cmd_bernoulli)

    p = sub.add_parser("eisenstein", help="Eisenstein series q-expansion")
    p.add_argument("k", type=int)
    p.add_argument("--trunc", default=None)
    p.set_defaults(func=_cmd_eisenstein)

    p = sub.add_parser("qk", help="twisted Eisenstein q-expansion")
    p.add_argument("k", type=int)
    p.add_argument("j_over_M")
    p.add_argument("l_over_N")
    p.add_argument("--trunc", default=None)
    p.set_defaults(func=_cmd_qk)

    p = sub.add_parser("pk-eval", help="numeric two-variable series value")
    p.add_argument("k", type=int)
    p.add_argument("j_over_M")
    p.add_argument("l_over_N")
    p.add_argument("--z", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--cutoff", type=int, default=400)
    p.set_defaults(func=_cmd_pk_eval)

    p = sub.add_parser("zhu-coeff", help="square-bracket change-of-basis coefficient")
    p.add_argument("p", type=int)
    p.add_argument("i", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_zhu_coeff)

    p = sub.add_parser("verify", help="check a transformation law numerically")
    p.add_argument("law_id", nargs="?", default=None, choices=(*LAW_IDS, None))
    p.add_argument("--suite", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--pair", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--z", default=None)
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("frobenius", help="solve a regular-singular ODE")
    p.add_argument("--ode", required=True)
    p.add_argument("--trunc", default=None)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("moonshine", help="Moonshine series and identities")
    p.add_argument(
        "what", choices=("J", "hauptmodul", "weight4", "twisted4", "theta", "chars")
    )
    p.add_argument("--class", dest="cls", default="1A")
    p.add_argument("--trunc", default=None)
    p.set_defaults(func=_cmd_moonshine)

    p = sub.add_parser("pairs", help="torsion-pair reduction and orbits")
    psub = p.add_subparsers(dest="action", required=True)
    pr = psub.add_parser("reduce")
    pr.add_argument("a", type=int)
    pr.add_argument("c", type=int)
    pr.add_argument("n", type=int)
    po = psub.add_parser("orbit")
    po.add_argument("a")
    po.add_argument("c")
    p.set_defaults(func=_cmd_pairs)

    return ap


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (OrbiformError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
