"""Command-line front end: JSON to stdout, human summary to stderr.

Exit codes: 0 on success / all checks passing, 1 on a failing check,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .cyclotomic import CycQ, _exponent, _positive_int
from .errors import NotUnimodular, OrbiformError
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
    DEFAULT_CHAR_COMBOS,
    _j_J,
    char_solve,
    hauptmodul,
    theta_trace,
    twisted_weight4,
    weight4_onepoint,
)
from .verify import LAW_IDS, law_params, verify_law, verify_suite

DEFAULT_TERMS = 60
DEFAULT_TOL = 1e-8
# the most slots (trunc times the branching) a --trunc asks for, or orbit pairs a pairs orbit lists
MAX_TRUNC_SLOTS = 10_000
# the largest weight k (bernoulli, eisenstein, qk, pk-eval, verify --k) and zhu-coeff
# i and m the CLI takes; past it the exact sums run for seconds to minutes
MAX_WEIGHT = 200


class UsageError(Exception):
    """A rule across arguments (or the --ode file); argparse types check each value."""


def _parse_fraction(s: str) -> Fraction:
    """An argparse type: a rational like 2/3."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 2/3, got {s!r}") from None


def _parse_trunc(s: str) -> Fraction:
    """An argparse type: a rational above 0 (its slots are checked against the
    branching by _default_trunc)."""
    trunc = _parse_fraction(s)
    if trunc <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {s}")
    return trunc


def _parse_int(s: str, low: int = 0, high: int | None = MAX_WEIGHT, even: bool = False) -> int:
    """An argparse type: an integer in low..high (no upper bound if high is
    None), and even if asked; by default a weight, 0..MAX_WEIGHT."""
    try:
        n = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
    if n < low or high is not None and n > high:
        span = f"at least {low}" if high is None else f"between {low} and {high}"
        raise argparse.ArgumentTypeError(f"must be {span}, got {n}")
    if even and n % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {n}")
    return n


def _parse_tol(s: str) -> float:
    """An argparse type: a finite float above 0 (an infinite tol passes
    every law, and nan, 0 or a negative tol fails every law)."""
    try:
        tol = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {s!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {s}")
    return tol


def _parse_pair(s: str) -> TorsionPair:
    """An argparse type: a torsion pair like 1/2,1/3."""
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a pair like 1/2,1/3, got {s!r}")
    return TorsionPair(*map(_parse_fraction, parts))


def _parse_gamma(s: str) -> GammaMat:
    """An argparse type: a word in S, T and I, or four integers a,b,c,d with
    ad - bc = 1."""
    words = {"S": S, "T": T, "I": GammaMat(1, 0, 0, 1)}
    if all(ch in words for ch in s):
        g = GammaMat(1, 0, 0, 1)
        for ch in s:
            g = g @ words[ch]
        return g
    try:
        a, b, c, d = map(int, s.split(","))
        return GammaMat(a, b, c, d)
    except ValueError:  # not four integers
        raise argparse.ArgumentTypeError(
            f"expected S/T words or four integers a,b,c,d, got {s!r}") from None
    except NotUnimodular as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_complex(s: str) -> complex:
    """An argparse type: a complex number like 0.3+1.7i."""
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a complex number like 0.3+1.7i, got {s!r}") from None


def _coeff_json(c: CycQ):
    if c.is_rational():
        return str(c.rational_value())
    return c.to_json()


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
    """--trunc, or DEFAULT_TERMS slots; it must need at most MAX_TRUNC_SLOTS
    slots of width 1/branching."""
    if args.trunc is None:
        return Fraction(DEFAULT_TERMS, branching)
    if args.trunc * branching > MAX_TRUNC_SLOTS:
        raise UsageError(
            f"--trunc {args.trunc} needs more than {MAX_TRUNC_SLOTS} slots "
            f"at branching {branching}"
        )
    return args.trunc


# -- subcommand handlers ---------------------------------------------------------

def _cmd_bernoulli(args) -> int:
    if args.x is None:
        poly = bernoulli_poly(args.k)
        _emit(
            {"poly": [str(c) for c in poly.coefficients]},
            f"Bernoulli polynomial B_{args.k}, ascending coefficients",
        )
    else:
        v = bernoulli_value(args.k, args.x)
        _emit({"value": str(v)}, f"B_{args.k}({args.x}) = {v}")
    return 0


def _cmd_eisenstein(args) -> int:
    s = eisenstein(args.k, _default_trunc(args, 1))
    _emit(_series_json(s), f"E_{args.k} to order q^{s.trunc}")
    return 0


def _cmd_qk(args) -> int:
    pair = TorsionPair(args.j_over_M, args.l_over_N)
    s = qk_series(args.k, pair, _default_trunc(args, pair.M))
    _emit(_series_json(s), f"Q_{args.k}{pair} to order q^{s.trunc}")
    return 0


def _cmd_pk_eval(args) -> int:
    pair = TorsionPair(args.j_over_M, args.l_over_N)
    value, tail = pk_eval(args.k, pair, args.z, args.tau, args.cutoff)
    _emit(
        {"value": [value.real, value.imag], "tail_bound": tail},
        f"P_{args.k}{pair}(z={args.z}, tau={args.tau}) = {value} (tail <= {tail:g})",
    )
    return 0


def _cmd_zhu_coeff(args) -> int:
    v = zhu_coeff(args.p, args.i, args.m)
    _emit({"value": str(v)}, f"zhu-coeff(p={args.p}, i={args.i}, m={args.m}) = {v}")
    return 0


def _cmd_verify(args) -> int:
    params = {key: value for key in ("k", "pair", "gamma", "z", "terms")
              if (value := getattr(args, key)) is not None}
    if args.suite:
        if args.law_id is not None or params:
            raise UsageError("--suite all takes no law id and no law option "
                             "(--k, --pair, --gamma, --z, --terms)")
        reports = verify_suite(tol=args.tol)
    else:
        if args.law_id is None:
            raise UsageError(f"give a law id ({', '.join(LAW_IDS)}) or --suite all")
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
        data = json.load(fh)
    try:
        # cap the slots from q^0 (or a lower lead) to trunc, at either branching, before allocating
        T = _positive_int("branching", data["T"])  # each value read as from_json reads it
        for i, c in enumerate(data["coeffs"]):
            lead, t = ((min((_exponent(e) for e, _ in c["terms"]), default=0), T) if "terms" in c
                       else (_exponent(c["leading"]), max(_positive_int("branching", c["T"]), T)))
            if (_exponent(c["trunc"]) - min(lead, 0)) * t > MAX_TRUNC_SLOTS:
                raise UsageError(f"coefficient {i} of {args.ode}: trunc {c['trunc']} needs "
                                 f"more than {MAX_TRUNC_SLOTS} slots at branching {t}")
        ode = RegularSingularODE.from_json(data)
    except (KeyError, TypeError, ZeroDivisionError) as e:
        # a missing key, a list or string where an object or number belongs, or a 1/0
        raise ValueError(f"malformed ODE file {args.ode}: {type(e).__name__}: {e}") from e
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
    what = args.what
    if args.cls is not None and what in ("J", "weight4", "chars"):
        raise UsageError(f"moonshine {what} reads no --class")
    if args.trunc is not None and what == "chars":
        raise UsageError("moonshine chars reads no --trunc")
    trunc = _default_trunc(args, 1)
    cls = "1A" if args.cls is None else args.cls
    if what == "J":
        _emit(_series_json(_j_J(trunc)[1]), f"J to order q^{trunc}")
    elif what == "hauptmodul":
        s = hauptmodul(cls, trunc)
        _emit(_series_json(s), f"T_{cls} to order q^{trunc}")
    elif what == "weight4":
        _, braces = weight4_onepoint(trunc)
        _emit(_series_json(braces), f"weight-4 braced series to order q^{trunc}")
    elif what == "twisted4":
        s = twisted_weight4(cls, trunc)
        _emit(_series_json(s), f"twisted weight-4 series for {cls}")
    elif what == "theta":
        s = theta_trace(cls, trunc)
        _emit(_series_json(s), f"theta of T_{cls}")
    else:  # chars
        # the braced series to the least trunc that holds each combo's q^i coefficient
        _, braces = weight4_onepoint(len(DEFAULT_CHAR_COMBOS) + 1)
        chars = char_solve(braces)
        _emit({"chi": list(chars.degrees)}, f"character degrees {chars.degrees}")
    return 0


def _cmd_pairs(args) -> int:
    if args.action == "reduce":
        gamma, e = reduce_cyclic_pair(args.a, args.c, args.n)
        _emit(
            {"gamma": [gamma.a, gamma.b, gamma.c, gamma.d], "e": e},
            f"({args.a},{args.c}) mod {args.n} -> (0,{e}) via {gamma}",
        )
        return 0
    pair = TorsionPair(args.a, args.c)
    seen = {pair}
    frontier = [pair]
    while frontier:
        t = frontier.pop()
        for g in (S, T, S.inverse(), T.inverse()):
            u = pair_act(t, g)
            if u not in seen:
                seen.add(u)
                frontier.append(u)
        if len(seen) > MAX_TRUNC_SLOTS:
            raise UsageError(f"the orbit of {pair} has more than {MAX_TRUNC_SLOTS} pairs")
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
    p.add_argument("k", type=_parse_int)
    p.add_argument("x", nargs="?", default=None, type=_parse_fraction)
    p.set_defaults(func=_cmd_bernoulli)

    p = sub.add_parser("eisenstein", help="Eisenstein series q-expansion")
    p.add_argument("k", type=functools.partial(_parse_int, low=2, even=True))
    p.add_argument("--trunc", default=None, type=_parse_trunc)
    p.set_defaults(func=_cmd_eisenstein)

    p = sub.add_parser("qk", help="twisted Eisenstein q-expansion")
    p.add_argument("k", type=_parse_int)
    p.add_argument("j_over_M", type=_parse_fraction)
    p.add_argument("l_over_N", type=_parse_fraction)
    p.add_argument("--trunc", default=None, type=_parse_trunc)
    p.set_defaults(func=_cmd_qk)

    p = sub.add_parser("pk-eval", help="numeric two-variable series value")
    p.add_argument("k", type=functools.partial(_parse_int, low=1))
    p.add_argument("j_over_M", type=_parse_fraction)
    p.add_argument("l_over_N", type=_parse_fraction)
    p.add_argument("--z", required=True, type=_parse_complex)
    p.add_argument("--tau", required=True, type=_parse_complex)
    p.add_argument("--cutoff", type=functools.partial(_parse_int, low=1, high=PK_CUTOFF_CAP),
                   default=400)
    p.set_defaults(func=_cmd_pk_eval)

    p = sub.add_parser("zhu-coeff", help="square-bracket change-of-basis coefficient")
    p.add_argument("p", type=int)
    p.add_argument("i", type=_parse_int)
    p.add_argument("m", type=_parse_int)
    p.set_defaults(func=_cmd_zhu_coeff)

    p = sub.add_parser("verify", help="check a transformation law numerically")
    p.add_argument("law_id", nargs="?", default=None, choices=(*LAW_IDS, None))
    p.add_argument("--suite", default=None, choices=("all",))
    p.add_argument("--k", type=_parse_int, default=None)
    p.add_argument("--pair", default=None, type=_parse_pair)
    p.add_argument("--gamma", default=None, type=_parse_gamma)
    p.add_argument("--z", default=None, type=_parse_complex)
    p.add_argument("--terms", type=functools.partial(_parse_int, low=1, high=MAX_TRUNC_SLOTS),
                   default=None)
    p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("frobenius", help="solve a regular-singular ODE")
    p.add_argument("--ode", required=True)
    p.add_argument("--trunc", default=None, type=_parse_trunc)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("moonshine", help="Moonshine series and identities")
    p.add_argument(
        "what", choices=("J", "hauptmodul", "weight4", "twisted4", "theta", "chars")
    )
    # read by hauptmodul, twisted4 and theta, where it defaults to 1A
    p.add_argument("--class", dest="cls", default=None)
    p.add_argument("--trunc", default=None, type=_parse_trunc)
    p.set_defaults(func=_cmd_moonshine)

    p = sub.add_parser("pairs", help="torsion-pair reduction and orbits")
    psub = p.add_subparsers(dest="action", required=True)
    pr = psub.add_parser("reduce")
    pr.add_argument("a", type=int)
    pr.add_argument("c", type=int)
    pr.add_argument("n", type=functools.partial(_parse_int, low=1, high=None))
    po = psub.add_parser("orbit")
    po.add_argument("a", type=_parse_fraction)
    po.add_argument("c", type=_parse_fraction)
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
    except (OrbiformError, OSError, OverflowError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
