"""Digests of exact outputs that do not depend on how a series is stored.

A digest covers the nonzero terms with reduced exponents, every coefficient
lifted with ``CycQ.lift`` to a conductor fixed by the job's inputs, and the
truncation order.  Log-q series are read in the unit ``log q``, so a change
of branching ``T`` leaves the digest alone.  A later change may shrink ``T``
or a coefficient's conductor; it may not change a value.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _terms_text(terms, trunc, conductor: int, scale=Fraction(1)) -> str:
    rows = [f"trunc={Fraction(trunc)}"]
    for e, c in sorted(((Fraction(e), c) for e, c in terms), key=lambda t: t[0]):
        coords = c.lift(conductor).coeffs
        if not any(coords):
            continue
        rows.append(f"{e}:" + ",".join(str(x * scale) for x in coords))
    return ";".join(rows)


def puiseux_digest(s, conductor: int) -> str:
    return _hash("P|" + _terms_text(s.terms(), s.trunc, conductor))


def logq_digest(s, conductor: int) -> str:
    """Digest of sum_i part_i * l^i with l = log q_(1/T), read as powers of log q."""
    parts = list(s.parts)
    while len(parts) > 1 and parts[-1].is_zero():
        parts.pop()
    texts = [
        f"{i}#" + _terms_text(p.terms(), p.trunc, conductor, Fraction(1, s.T**i))
        for i, p in enumerate(parts)
    ]
    return _hash("L|" + "|".join(texts))


def series_json_digest(obj: dict, conductor: int) -> str:
    """Digest of a series as the command line prints it: {"T", "trunc", "terms"}."""
    from orbiform.cyclotomic import CycQ

    terms = []
    for e, c in obj["terms"]:
        coeff = CycQ.from_json(c) if isinstance(c, dict) else CycQ.from_rational(Fraction(c))
        terms.append((Fraction(e), coeff))
    return _hash("P|" + _terms_text(terms, Fraction(obj["trunc"]), conductor))


def digest(obj, conductor: int = 1):
    """Digest of a Puiseux or LogQSeries; a list of digests for a tuple or list."""
    from orbiform.series import LogQSeries, Puiseux

    if isinstance(obj, Puiseux):
        return puiseux_digest(obj, conductor)
    if isinstance(obj, LogQSeries):
        return logq_digest(obj, conductor)
    if isinstance(obj, (tuple, list)):
        return [digest(x, conductor) for x in obj]
    raise TypeError(f"no digest for {type(obj).__name__}")
