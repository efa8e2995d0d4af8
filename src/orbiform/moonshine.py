"""Eta quotients, the modular J function, and explicit Moonshine identities.

The eta-quotient realizations of the class hauptmoduln and the standard
constructions Delta = q prod(1-q^n)^24, j = E4^3/Delta, J = j - 744 are
ingested from a data file (override directory via ORBIFORM_DATA) and
validated by shape and invariance checks rather than trusted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .cyclotomic import _exponent, _index
from .errors import NonIntegralCharacter, UnknownClass
from .forms import eisenstein
from .series import Puiseux, product_expand, theta


@dataclass(frozen=True)
class HauptmodulSpec:
    class_label: str
    eta_factors: tuple  # (scale a, exponent e) pairs
    additive_constant: Fraction


@dataclass(frozen=True)
class CharacterData:
    degrees: tuple  # ascending, degrees[0] == 1

    def __post_init__(self):
        if not self.degrees or self.degrees[0] != 1:
            raise NonIntegralCharacter("first character degree must be 1")
        if list(self.degrees) != sorted(self.degrees):
            raise NonIntegralCharacter("degrees must be ascending")


def _data_path() -> str:
    override = os.environ.get("ORBIFORM_DATA")
    if override:
        if os.path.isdir(override):
            return os.path.join(override, "moonshine.json")
        return override
    return str(resources.files("orbiform.data") / "moonshine.json")


def load_data() -> dict:
    with open(_data_path()) as fh:
        return json.load(fh)


def hauptmodul_spec(class_label: str) -> HauptmodulSpec:
    """The class's spec from the data file; data of the wrong shape or type is a ValueError."""
    try:  # int() would truncate a float, Fraction() read it as its binary value
        for c in load_data()["classes"]:
            if c["label"] == class_label:
                eta = tuple((_index("eta scale", a), _index("eta exponent", e))
                            for a, e in c["eta"])
                return HauptmodulSpec(c["label"], eta, _exponent(c["const"]))
    except KeyError as e:
        raise ValueError(f"hauptmodul data for {class_label} is malformed: no key {e}") from None
    except (TypeError, ZeroDivisionError) as e:
        raise ValueError(f"hauptmodul data for {class_label} is malformed: {e}") from None
    raise UnknownClass(f"no hauptmodul data for class {class_label!r}")


# -- Delta, j, J ----------------------------------------------------------------

def e4_standard(trunc) -> Puiseux:
    """1 + 240 sum sigma_3(n) q^n."""
    return eisenstein(4, trunc).scalar_mul(720)


def delta_j_J(trunc) -> tuple[Puiseux, Puiseux, Puiseux]:
    """Delta = q prod(1-q^n)^24, j = E4^3/Delta, J = j - 744, exact."""
    trunc = _exponent(trunc)
    return (product_expand([(1, 24)], trunc + 2).shifted(1).truncated(trunc), *_j_J(trunc))


def _j_J(trunc: Fraction) -> tuple[Puiseux, Puiseux]:
    """j = E4^3/Delta and J = j - 744 to trunc, with no Delta built: 1/Delta is the Euler
    product q^-1 prod(1-q^n)^-24, equal to delta.inverse() in T, lead, trunc and every slot."""
    if trunc < 3:
        raise ValueError("need truncation at least 3")
    pad = trunc + 2
    jf = e4_standard(pad) ** 3 * product_expand([(1, -24)], pad).shifted(-1)
    return jf.truncated(trunc), (jf - 744).truncated(trunc)


def hauptmodul(spec, trunc) -> Puiseux:
    """q^(-1)-leading exact series for the class; 1A aliases J."""
    if isinstance(spec, str):
        spec = hauptmodul_spec(spec)
    trunc = _exponent(trunc)
    if not spec.eta_factors:
        out = _j_J(trunc)[1] + spec.additive_constant
    else:
        prod = product_expand(list(spec.eta_factors), trunc + 1)
        out = prod.shifted(-1) + spec.additive_constant
    if not (out.coeff_at(-1) == 1 and out.coeff_at(0) == 0):
        raise ValueError(
            f"hauptmodul data for {spec.class_label} is not q^-1 + O(q)"
        )
    return out


# -- weight-4 one-point function -------------------------------------------------

def weight4_onepoint(trunc) -> tuple[Puiseux, Puiseux]:
    """Z = 12*71*E4*(J-240) in the E4 = 1/720 + ... normalization, and the
    braced series (60/71) Z = E4_std*(J-240) = q^(-1) + 0 + 141444 q + ..."""
    trunc = _exponent(trunc)
    if trunc < 3:
        raise ValueError("need truncation at least 3")
    pad = trunc + 2
    braces = (e4_standard(pad) * (_j_J(pad)[1] - 240)).truncated(trunc)
    return braces.scalar_mul(Fraction(71, 60)), braces


# the linear combinations of character degrees printed for the q and q^2
# coefficients of the braced series
DEFAULT_CHAR_COMBOS = (
    (Fraction(21), Fraction(51, 71)),
    (Fraction(91), Fraction(701, 71), Fraction(221, 71)),
)


def char_solve(braces: Puiseux, combos=DEFAULT_CHAR_COMBOS) -> CharacterData:
    """Solve the triangular system for ascending character degrees.

    The coefficient of q^(i+1) equals sum_t combos[i][t] * chi_{t+1} with
    chi_1 = 1; each new degree must come out a positive integer larger
    than the previous one.
    """
    degrees = [Fraction(1)]
    for i, combo in enumerate(combos):
        target = braces.coeff_at(i + 1)
        if not target.is_rational():
            raise NonIntegralCharacter("series coefficient is not rational")
        acc = target.rational_value()
        if len(combo) != len(degrees) + 1:
            raise ValueError("combo length must introduce exactly one degree")
        for w, chi in zip(combo, degrees):
            acc -= _exponent(w) * chi
        chi_new = acc / _exponent(combo[-1])
        if chi_new.denominator != 1 or chi_new <= degrees[-1]:
            raise NonIntegralCharacter(
                f"solved degree {chi_new} is not an ascending positive integer"
            )
        degrees.append(chi_new)
    return CharacterData(tuple(int(d) for d in degrees))


# -- twisted weight-4 forms ------------------------------------------------------

# (substitution scale for E4, the additive rational constant)
_TWISTED = {
    "2B": (2, Fraction(88, 71)),
    "3B": (3, Fraction(360, 71)),
}


def twisted_weight4(class_label: str, trunc) -> Puiseux:
    """12*71*(E4(s tau)(T_class + c) - c E4(tau)) for the known classes."""
    if class_label not in _TWISTED:
        raise UnknownClass(f"no twisted weight-4 formula for {class_label!r}")
    s, c = _TWISTED[class_label]
    trunc = _exponent(trunc)
    tg = hauptmodul(class_label, trunc + 1)
    e4 = eisenstein(4, trunc + 1)
    out = e4.substituted(s).truncated(trunc + 1) * (tg + c) - e4.scalar_mul(c)
    return out.scalar_mul(12 * 71).truncated(trunc)


def theta_trace(class_label: str, trunc) -> Puiseux:
    """q d/dq of the class hauptmodul: the weight-2 Moonshine form, whose
    q^n coefficient is (n - 1) times the trace coefficient."""
    return theta(hauptmodul(class_label, trunc), "full")
